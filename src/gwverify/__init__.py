"""gwverify: exact-rational cross-checker for low-genus Gromov-Witten identities.

Layered as a library: exact scalars (weight polynomials and their ratios),
a pure psi-intersection recursion, a table-backed mixed psi/lambda oracle
with the Mumford relations, a truncated tautological ring over product base
spaces, an equivariant-localization evaluator driven by diagram data files,
Chern-class calculus with a symbolic hypersurface degree, and the
degeneration-graph combinatorics that assemble the worked identities.
Everything is exact; no floating point exists anywhere in the package.

The public names load on first use: ``import gwverify`` imports no
submodule, and ``gwverify.hodge_intersect`` imports only the modules that
the Hodge oracle needs.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "chern": (
        "ChernData",
        "degree_correction_genus3",
        "euler_char",
        "gw_genus1_deg0",
        "hypersurface",
        "log_tangent_pairing",
        "projective_space",
    ),
    "exprs": ("parse_class", "parse_scalar"),
    "hodge": ("HodgeMonomial", "RubberKey", "hodge_intersect", "rubber_intersect"),
    "localization": (
        "FixedLocusSpec",
        "LocalizationProblem",
        "builtin_problem",
        "load_problem",
        "locus_contribution",
        "problem_total",
    ),
    "psi": ("PsiKey", "dilaton_reduce", "psi_intersect", "string_reduce"),
    "reports": ("VerificationReport",),
    "ring": (
        "BaseSpace",
        "DMFactor",
        "PointFactor",
        "ProjLineFactor",
        "RubberFactor",
        "TautClass",
        "hodge_twist",
        "mumford_product_check",
        "tc_integrate",
        "tc_invert",
    ),
    "scalars": (
        "DeltaPoly",
        "EquivariantScalar",
        "Rational",
        "WeightPoly",
        "es_eval",
        "rat_from_str",
        "rat_to_str",
    ),
    "selftest": ("run_selftest",),
    "sumformula": (
        "BipartiteGraph",
        "Verdict",
        "assemble_example",
        "enumerate_graphs",
        "thm1_verdict",
        "vanishing_filter",
        "vir_dim",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    """Import the submodule that defines a public name, and keep the name
    here so that the next lookup does not come back."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
