"""Command-line surface.

Subcommands: psi, hodge, chern, gw10, localize, graphs, thm1, dim, verify,
selftest.  Every numeric output is an exact rational; exit status is 0 on
PASS, 1 on FAIL (an expectation did not match), 2 on usage or parse errors,
and 3 on internal errors.  Each ``cmd_*`` returns a report or the lines it
prints; :func:`main` alone prints them and turns a report's status into the
exit status.  The environment variable GWVERIFY_DATA_DIR overrides the
packaged data-file root.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator

from .chern import (
    degree_correction_genus3,
    euler_char,
    gw_genus1_deg0,
    hypersurface,
    projective_space,
)
from .errors import (
    DenominatorVanishes,
    ExpectationMismatch,
    GwError,
    NonConstantSum,
    ParseError,
    UnknownMonomial,
    UnknownRubberKey,
)
from .hodge import HodgeMonomial, hodge_intersect
from .localization import (
    BUILTIN_ALIASES,
    locus_contribution,
    problem_numeric_total,
    problem_total,
    resolve_problem,
)
from .psi import PsiKey, psi_intersect
from .reports import VerificationReport
from .scalars import rat_from_str, rat_to_str
from .selftest import run_selftest
from .sumformula import assemble_example, example_graphs, thm1_verdict, vir_dim


def _ints(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(p) for p in text.split(",")]


def degree(text: str) -> int:
    """A numeric degree (`--delta`, `--hypersurface`, `--V`): a divisor
    degree or point count, at least 1.
    argparse names the function in its "invalid degree value" message."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def weight_pair(text: str) -> str:
    """The `--eval` weights w1,w2: two rationals, checked before any locus
    is computed.  The text is returned as typed, since the report labels
    the evaluation with it."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("--eval takes two weights w1,w2")
    try:
        for part in parts:
            rat_from_str(part)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _space(name: str):
    name = name.upper()
    if not name.startswith("P") or not name[1:].isdigit():
        raise ParseError(f"unknown space {name!r}; use P1..P6")
    return projective_space(int(name[1:]))


def cmd_psi(args) -> list[str]:
    key = PsiKey(args.g, tuple(_ints(args.exponents)))
    return [rat_to_str(psi_intersect(key))]


def cmd_hodge(args) -> list[str]:
    psi = tuple(_ints(args.psi)) if args.psi else (0,) * args.n
    lam = tuple(_ints(getattr(args, "lambda"))) if getattr(args, "lambda") else (0,) * args.g
    monomial = HodgeMonomial(args.g, args.n, psi, lam)
    return [rat_to_str(hodge_intersect(monomial))]


def _chern_vector(data) -> str:
    parts = [rat_to_str(data.total_chern[0])]
    for i, c in enumerate(data.total_chern[1:], start=1):
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {rat_to_str(abs(c))}*x^{i}")
    return " ".join(parts)


def cmd_chern(args) -> VerificationReport:
    X = _space(args.space)
    report = VerificationReport(command="chern")
    report.add(f"total chern class of {X.name}", _chern_vector(X))
    report.add(f"chi({X.name})", rat_to_str(euler_char(X)))
    if args.hypersurface is not None:
        V = hypersurface(X.dim, args.hypersurface)
        report.add(f"total chern class of {V.name}", _chern_vector(V))
        report.add(f"chi({V.name})", rat_to_str(euler_char(V)))
        if V.dim == 3:
            report.add(
                "genus-3 degree correction",
                rat_to_str(degree_correction_genus3(V)),
                "Lemma 4.4 bracket with the degree-4 factor",
            )
    return report


def cmd_gw10(args) -> list[str]:
    X = _space(args.X)
    V = hypersurface(X.dim, args.V) if args.V is not None else None
    if args.insertion == "j":
        insertion = "j"
    elif args.insertion.startswith("alpha:"):
        insertion = ("alpha", rat_from_str(args.insertion.split(":", 1)[1]))
    else:
        raise ParseError(f"insertion must be 'j' or 'alpha:<mult>', got {args.insertion!r}")
    return [rat_to_str(gw_genus1_deg0(X, V, insertion))]


def cmd_localize(args) -> VerificationReport:
    problem = resolve_problem(args.config)
    report = VerificationReport(command=f"localize {problem.label}")
    for spec in problem.loci:
        if spec.vanishes is not None:
            report.add(f"locus {spec.label}", f"vanishes ({spec.vanishes})", spec.source)
            continue
        report.add(f"locus {spec.label}", str(locus_contribution(spec)), spec.source)
    expected = rat_from_str(args.expect) if args.expect else problem.expected
    try:
        total = problem_total(problem)
        report.add(
            "total",
            rat_to_str(total),
            problem.source,
            expected=None if expected is None else rat_to_str(expected),
        )
    except ExpectationMismatch as exc:
        report.add("total", str(exc), problem.source, expected=rat_to_str(expected))
    if args.eval:
        weights = [rat_from_str(w) for w in args.eval.split(",")]
        value = problem_numeric_total(problem, weights)
        report.add(f"evaluation at ({args.eval})", rat_to_str(value))
    return report


def cmd_graphs(args) -> Iterator[str]:
    """Yields its lines one at a time: example 3 at delta = 12 has 6,602."""
    rows = example_graphs(args.example, args.delta)
    total = len(rows)
    if args.surviving:
        rows = [(graph, keep) for graph, keep in rows if keep]
    for graph, keep in rows:
        flag = "contributes" if keep else "vanishes"
        yield f"{flag:11s}  {graph.describe()}"
    yield f"{sum(1 for _, keep in rows if keep)} of {total} graphs contribute"


def cmd_thm1(args) -> list[str]:
    return [thm1_verdict(args.n, args.g, args.A == "zero", args.kappa == "trivial")]


def cmd_dim(args) -> list[str]:
    contact = _ints(args.s) if args.s is not None else None
    return [str(vir_dim(args.n, args.g, args.k, args.c1A, contact, args.AdotV))]


def cmd_verify(args) -> VerificationReport:
    if args.symbolic and args.delta is not None:
        raise ValueError("--symbolic and --delta exclude each other")
    if args.n is not None and args.example != 1:
        raise ValueError(f"--n applies to example 1 only, not example {args.example}")
    delta = "symbolic" if args.delta is None else args.delta
    return assemble_example(args.example, delta, n=4 if args.n is None else args.n)


def cmd_selftest(args) -> VerificationReport:
    return run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwverify",
        description="Exact-rational cross-checker for low-genus Gromov-Witten identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="pure psi-class intersection number")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--exponents", required=True, help="comma-separated, e.g. 3,2")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("hodge", help="mixed psi/lambda intersection number")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", default="", help="per-point exponents, comma-separated")
    p.add_argument("--lambda", default="", help="lambda exponents e1,..,eg")
    p.set_defaults(fn=cmd_hodge)

    p = sub.add_parser("chern", help="Chern data of a projective space or hypersurface")
    p.add_argument("--space", required=True, help="P1..P6")
    p.add_argument("--hypersurface", type=degree, default=None, help="divisor degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_chern)

    p = sub.add_parser("gw10", help="genus-1 degree-0 invariants")
    p.add_argument("--X", required=True, help="P1..P6")
    p.add_argument("--V", type=degree, default=None, help="hypersurface degree")
    p.add_argument("--insertion", default="j", help="'j' or 'alpha:<mult>'")
    p.set_defaults(fn=cmd_gw10)

    p = sub.add_parser("localize", help="evaluate a localization diagram file")
    p.add_argument(
        "--config",
        required=True,
        help=f"diagram file path or builtin name ({', '.join(sorted(BUILTIN_ALIASES))})",
    )
    p.add_argument("--expect", default=None, help="expected total p/q")
    p.add_argument("--eval", type=weight_pair, default=None, help="numeric weight pair w1,w2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("graphs", help="degeneration graphs for the worked examples")
    p.add_argument("--example", type=int, required=True, choices=(2, 3))
    p.add_argument("--delta", type=degree, required=True)
    p.add_argument("--surviving", action="store_true")
    p.set_defaults(fn=cmd_graphs)

    p = sub.add_parser("thm1", help="guarantee verdict for a setting")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--kappa", choices=("trivial", "nontrivial"), default="trivial")
    p.add_argument("--A", choices=("zero", "nonzero"), default="nonzero")
    p.set_defaults(fn=cmd_thm1)

    p = sub.add_parser("dim", help="expected dimension of a moduli space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--c1A", type=int, required=True)
    p.add_argument("--AdotV", type=int, default=0)
    p.add_argument("--s", default=None, help="contact vector s1,s2,...")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("verify", help="assemble and check a worked example")
    p.add_argument("--example", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--delta", type=degree, default=None)
    p.add_argument("--symbolic", action="store_true", help="polynomial identity in the degree")
    p.add_argument("--n", type=int, default=None, help="ambient dimension (example 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out = args.fn(args)
        if isinstance(out, VerificationReport):
            print(out.to_json() if args.json else out.to_text())
            return {"PASS": 0, "FAIL": 1, "ERROR": 3}[out.status]
        for line in out:
            print(line)
        return 0
    except (ExpectationMismatch, NonConstantSum) as exc:
        # both subclass ValueError, but they are failed checks, not usage errors
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (
        DenominatorVanishes,  # only --eval substitutes weights, and the user gives them
        UnknownMonomial,
        UnknownRubberKey,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GwError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # never panic
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
