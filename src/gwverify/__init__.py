"""gwverify: exact-rational cross-checker for low-genus Gromov-Witten identities.

Layered as a library: exact scalars (weight polynomials and their ratios),
a pure psi-intersection recursion, a table-backed mixed psi/lambda oracle
with the Mumford relations, a truncated tautological ring over product base
spaces, an equivariant-localization evaluator driven by diagram data files,
Chern-class calculus with a symbolic hypersurface degree, and the
degeneration-graph combinatorics that assemble the worked identities.
Everything is exact; no floating point exists anywhere in the package.
"""

from .chern import (
    ChernData,
    degree_correction_genus3,
    euler_char,
    gw_genus1_deg0,
    hypersurface,
    log_tangent_pairing,
    projective_space,
)
from .exprs import parse_class, parse_scalar
from .hodge import (
    HodgeMonomial,
    RubberKey,
    hodge_intersect,
    rubber_intersect,
)
from .localization import (
    FixedLocusSpec,
    LocalizationProblem,
    builtin_problem,
    load_problem,
    locus_contribution,
    problem_total,
)
from .psi import PsiKey, dilaton_reduce, psi_intersect, string_reduce
from .reports import VerificationReport
from .ring import (
    BaseSpace,
    DMFactor,
    PointFactor,
    ProjLineFactor,
    RubberFactor,
    TautClass,
    hodge_twist,
    mumford_product_check,
    tc_integrate,
    tc_invert,
)
from .scalars import (
    DeltaPoly,
    EquivariantScalar,
    Rational,
    WeightPoly,
    es_eval,
    rat_from_str,
    rat_to_str,
)
from .selftest import run_selftest
from .sumformula import (
    BipartiteGraph,
    Verdict,
    assemble_example,
    enumerate_graphs,
    thm1_verdict,
    vanishing_filter,
    vir_dim,
)

__version__ = "0.1.0"

__all__ = [
    "BaseSpace",
    "BipartiteGraph",
    "ChernData",
    "DMFactor",
    "DeltaPoly",
    "EquivariantScalar",
    "FixedLocusSpec",
    "HodgeMonomial",
    "LocalizationProblem",
    "PointFactor",
    "ProjLineFactor",
    "PsiKey",
    "Rational",
    "RubberFactor",
    "RubberKey",
    "TautClass",
    "Verdict",
    "VerificationReport",
    "WeightPoly",
    "assemble_example",
    "builtin_problem",
    "degree_correction_genus3",
    "dilaton_reduce",
    "enumerate_graphs",
    "es_eval",
    "euler_char",
    "gw_genus1_deg0",
    "hodge_intersect",
    "hodge_twist",
    "hypersurface",
    "load_problem",
    "locus_contribution",
    "log_tangent_pairing",
    "mumford_product_check",
    "parse_class",
    "parse_scalar",
    "problem_total",
    "projective_space",
    "psi_intersect",
    "rat_from_str",
    "rat_to_str",
    "rubber_intersect",
    "run_selftest",
    "string_reduce",
    "tc_integrate",
    "tc_invert",
    "thm1_verdict",
    "vanishing_filter",
    "vir_dim",
    "__version__",
]
