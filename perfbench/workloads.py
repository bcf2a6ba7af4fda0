"""The three workloads: inputs made from the seed, one call per operation,
and the check of each output against an independent route.

Every workload yields its operations in cycles.  A cycle holds a fixed mix
of operation kinds; the seed chooses the parameters (degrees, weights, psi
exponents, diagram copies) and the order inside the cycle.  A run executes
a fixed number of whole cycles, `run_length(seconds)`, sized so that a run
of the current code takes about `seconds` on a 2-vCPU machine.  The count
does not depend on how fast the machine happens to be, so every run of a
workload has the same mix, the same number of operations and, on the same
code, the same number of failures.

Outcomes: OK, WRONG (a value that disagrees with its second route), ERROR
(an error the library reports, such as `UnknownMonomial`, or a CLI exit code
1 or 2), MISS (stopped at the 1 s deadline; never counted as a failure) and
CRASH (anything else: exit code 3, an unexpected exception type).
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path
from time import perf_counter

OK, WRONG, ERROR, MISS, CRASH = "ok", "wrong", "error", "miss", "crash"

DEADLINE_S = 1.0  # the ROADMAP target for one query
MAX_GENUS, MAX_POINTS = 6, 12  # psi.MAX_GENUS, psi.MAX_POINTS
MAX_DELTA = 12  # sumformula.MAX_GRAPH_WEIGHT
# the small psi region of session_warm's repeated queries
SMALL_CELLS = [(g, n) for g in range(4) for n in range(1, 5) if 2 * g - 2 + n > 0]
# oracle_cold's extra keys, which steady its median: this many in each cell
# of dimension 3g-3+n <= EXTRA_KEYS_MAX_DIM
EXTRA_KEYS, EXTRA_KEYS_MAX_DIM = 12, 6
# in-process selftest runs spread over an oracle sweep; they time selftest_s
# and are not oracle queries
SELFTEST_PROBES = 9
# cycles per run: a cli_cold cycle takes about CLI_CYCLE_S on the current
# code; session_warm runs SESSION_BLOCK cycles per SESSION_BLOCK_S
CLI_CYCLE_S = 10
SESSION_BLOCK, SESSION_BLOCK_S = 6, 6

# builtin name -> (diagram file stem, printed total)
BUILTINS = {
    "fig7": ("fig7", Fraction(1)),
    "fig10": ("fig10", Fraction(4)),
    "fig8-absolute": ("fig8_absolute", Fraction(1, 240)),
    "fig8-relative": ("fig8_relative", Fraction(19, 5760)),
    "p4-absolute": ("fig11_absolute", Fraction(-37, 82944)),
    "p4-relative-delta1": ("fig11_relative", Fraction(-97, 193536)),
}

# Total graph counts of `graphs --example 3 --delta d`, recorded from the
# enumerator as a regression golden; the surviving counts (1 + d for
# example 2, 2 for example 3) come from the paper's figures.
EX3_GRAPH_TOTALS = {
    1: 4, 2: 13, 3: 32, 4: 73, 5: 147, 6: 287,
    7: 521, 8: 922, 9: 1563, 10: 2592, 11: 4172, 12: 6602,
}

# b_g with sum b_g t^(2g) = (t/2)/sin(t/2): the lambda_g formula
# int psi^a lambda_g = multinom(2g-3+n; a) b_g (Faber-Pandharipande 2000).
LAMBDA_G_B = {1: Fraction(1, 24), 2: Fraction(7, 5760), 3: Fraction(31, 967680)}


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; a BaseException so no library
    ``except Exception`` can swallow it."""


class HarnessError(Exception):
    """The benchmark's own invariants failed; the run's numbers are void."""


# ---------------------------------------------------------------------------
# closed forms (second routes that do not use gwverify)
# ---------------------------------------------------------------------------

def _multinomial(a) -> int:
    out = factorial(sum(a))
    for x in a:
        out //= factorial(x)
    return out


def genus0_value(exps) -> Fraction:
    """<tau_a1 ... tau_an>_0 = (n-3)! / prod a_i!."""
    return Fraction(factorial(len(exps) - 3), prod(factorial(a) for a in exps))


def one_point_value(g: int) -> Fraction:
    """<tau_{3g-2}>_g = 1 / (24^g g!)."""
    return Fraction(1, 24**g * factorial(g))


def lambda_g_value(g: int, psi) -> Fraction:
    return _multinomial(psi) * LAMBDA_G_B[g]


def psi_expected(g: int, exps, psi_value):
    """The value a psi key must have by a route other than its recursion:
    a closed form, or string/dilaton from keys with one point fewer
    (evaluated with ``psi_value``).  None when no route applies."""
    n = len(exps)
    if g == 0:
        return genus0_value(exps)
    if n == 1:
        return one_point_value(g)
    rest = list(exps)
    if 0 in rest:
        rest.remove(0)
        return sum(
            (psi_value(g, tuple(rest[:j] + [a - 1] + rest[j + 1 :])) for j, a in enumerate(rest) if a),
            Fraction(0),
        )
    if 1 in rest:
        rest.remove(1)
        return (2 * g - 2 + len(rest)) * psi_value(g, tuple(rest))
    return None


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def psi_key(rng, g: int, n: int) -> tuple[int, ...]:
    """A uniform composition of 3g-3+n into n exponents.  For g >= 1 and
    n >= 2 it carries a 0 or 1 exponent, so string or dilaton can check it."""
    d = 3 * g - 3 + n
    while True:
        bars = sorted(rng.sample(range(d + n - 1), n - 1))
        exps, prev = [], -1
        for b in bars + [d + n - 1]:
            exps.append(b - prev - 1)
            prev = b
        if g == 0 or n == 1 or min(exps) <= 1:
            return tuple(exps)


def lambda_g_monomials(max_n: int):
    """Every top-degree psi^a lambda_g monomial for g <= 3 and n <= max_n,
    with exponents as partitions (descending)."""
    def parts(total, k, top):
        if k == 0:
            if total == 0:
                yield ()
            return
        for first in range(min(total, top), -1, -1):
            for rest in parts(total - first, k - 1, first):
                yield (first,) + rest

    return [
        (g, a)
        for g in (1, 2, 3)
        for n in range(1, max_n + 1)
        for a in parts(2 * g - 3 + n, n, 2 * g - 3 + n)
    ]


def endless_permutations(rng, items):
    """Seeded permutations of items, one after another: every block of
    len(items) draws covers each item once."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


# (d, 13 - d): a block of the six pairs covers degrees 1..12 once, so the
# cost of the graph enumeration is balanced across seeds
DELTA_PAIRS = [(d, MAX_DELTA + 1 - d) for d in range(1, MAX_DELTA // 2 + 1)]


def weights(rng) -> tuple[int, int]:
    """Distinct positive weights: the only poles of the shipped loci are
    a1 = 0 and a1 = +-a2."""
    w1, w2 = rng.sample(range(1, 100), 2)
    return w1, w2


# ---------------------------------------------------------------------------
# cache control
# ---------------------------------------------------------------------------

class Caches:
    """Clears gwverify's module-level caches and counts the entries they
    held, so cold workloads report how much each run memoised."""

    def __init__(self):
        from gwverify import hodge, localization, psi

        self.psi, self.hodge, self.localization = psi, hodge, localization
        self.memo_keys = 0
        self.contrib_entries = 0

    def tally(self) -> None:
        self.memo_keys += len(self.psi._MEMO)
        self.contrib_entries += len(self.localization._CONTRIB_CACHE)

    def reset(self) -> None:
        self.tally()
        self.psi._MEMO.clear()
        self.hodge.reset_tables()
        self.hodge._HODGE_MEMO.clear()  # reset_tables() keeps it
        self.localization.reset_problems()
        if self.psi.memoized_keys():
            raise HarnessError("psi memo not empty after reset")

    def restart_counts(self) -> None:
        self.memo_keys = self.contrib_entries = 0


def _outcome_of(exc: BaseException) -> str:
    from gwverify.errors import GwError

    return ERROR if isinstance(exc, GwError) else CRASH


def query(gw, op):
    """Evaluate ("psi", g, exponents) or ("hodge", g, psi) with lambda_g."""
    if op[0] == "psi":
        return gw.psi_intersect(gw.PsiKey(op[1], op[2]))
    g, a = op[1], op[2]
    lam = tuple(1 if j == g - 1 else 0 for j in range(g))
    return gw.hodge_intersect(gw.HodgeMonomial(g, len(a), a, lam))


def check_report(report):
    if report.status == "PASS":
        return OK, ""
    return WRONG, f"report status {report.status}"


def check_query(gw, op, value):
    if op[0] == "hodge":
        want = lambda_g_value(op[1], op[2])
    else:
        # String and dilaton evaluate smaller keys through psi_intersect.  The
        # memo is put back afterwards, so that neither psi.memo_keys nor the
        # later queries of a warm session see entries the check created.
        from gwverify import psi

        saved = dict(psi._MEMO)
        try:
            want = psi_expected(op[1], op[2], lambda g, e: gw.psi_intersect(gw.PsiKey(g, e)))
        finally:
            psi._MEMO.clear()
            psi._MEMO.update(saved)
        if want is None:
            raise HarnessError(f"no second route for {op}")
    return (OK, "") if value == want else (WRONG, f"{value} != {want}")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _report_value(text: str, label: str):
    """The value column of the report line whose label starts with label."""
    for line in text.splitlines():
        if line[5:].startswith(label) and " = " in line:
            value = line.split(" = ", 1)[1]
            return value.split("  (expected")[0].split("  [")[0].strip()
    return None


class CliCold:
    """`python -m gwverify.cli ...` in a fresh interpreter per command, or
    in-process after a full cache reset (the traced run).

    Each cycle runs example 3 at every degree 1..12 once, split between
    `verify` and `graphs` by the seed: both pay the same graph enumeration,
    so every cycle costs about the same whatever the seed."""

    name = "cli_cold"
    tail_percentile = 75
    selftest_is_op = True

    def __init__(self, rng, root: Path, traced: bool):
        self.rng, self.root, self.in_process = rng, root, traced
        self.pairs = endless_permutations(rng, DELTA_PAIRS)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.caches = Caches() if traced else None
        if traced:
            from gwverify import cli  # imported here, not inside the first timed call

            self.cli = cli

    def run_length(self, seconds) -> int:
        return max(1, round(seconds / CLI_CYCLE_S))

    def cycle(self):
        rng = self.rng
        ops = [("selftest",)] * 3 + [("verify", ex, None) for ex in (1, 2, 3)]
        degrees = list(range(1, MAX_DELTA + 1))
        rng.shuffle(degrees)
        half = MAX_DELTA // 2
        ops += [("verify", 3, d) for d in degrees[:half]]
        ops += [("graphs", 3, d) for d in degrees[half:]]
        ops += [("verify", 2, d) for d in next(self.pairs)]
        ops += [("localize", name, *weights(rng)) for name in BUILTINS]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        kind = op[0]
        if kind == "selftest":
            return ["selftest"]
        if kind == "verify":
            tail = ["--symbolic"] if op[2] is None else ["--delta", str(op[2])]
            return ["verify", "--example", str(op[1])] + tail
        if kind == "graphs":
            return ["graphs", "--example", str(op[1]), "--delta", str(op[2])]
        return ["localize", "--config", op[1], "--eval", f"{op[2]},{op[3]}"]

    def run(self, op):
        argv = self.argv(op)
        if not self.in_process:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "gwverify.cli", *argv],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=170,
            )
            return perf_counter() - t0, (proc.returncode, proc.stdout)
        self.caches.reset()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            code = self.cli.main(argv)
            dt = perf_counter() - t0
        return dt, (code, out.getvalue())

    def check(self, op, result):
        code, text = result
        if code == 1:
            return WRONG, "check failed (exit 1)"
        if code == 2:
            return ERROR, "usage or parse error (exit 2)"
        if code != 0:
            return CRASH, f"exit code {code}"
        lines = text.strip().splitlines()
        kind = op[0]
        if kind == "graphs":
            m = re.fullmatch(r"(\d+) of (\d+) graphs contribute", lines[-1] if lines else "")
            if not m:
                return CRASH, "no graph count line"
            got = (int(m.group(1)), int(m.group(2)))
            want = (2, EX3_GRAPH_TOTALS[op[2]])
            return (OK, "") if got == want else (WRONG, f"graph counts {got}, want {want}")
        if not lines or lines[-1] != "PASS":
            return WRONG, f"report status {lines[-1] if lines else '(none)'}"
        if kind == "verify" and op[2] is not None:
            want = str(1 + op[2]) if op[1] == 2 else "2"
            got = _report_value(text, "surviving degeneration graphs")
            if got != want:
                return WRONG, f"{got} surviving graphs, want {want}"
        if kind == "localize":
            want = str(BUILTINS[op[1]][1])  # str(Fraction) prints p/q like the CLI
            for label in ("total", "evaluation at"):
                got = _report_value(text, label)
                if got != want:
                    return WRONG, f"{label} = {got}, want {want}"
        return OK, ""

    def close(self):
        pass


# ---------------------------------------------------------------------------
# oracle_cold
# ---------------------------------------------------------------------------

def _alarm(signum, frame):
    raise DeadlineExceeded()


class OracleCold:
    """psi and Hodge queries, each from empty memos under a 1 s deadline.

    One cycle is a sweep: a seeded key in every stable (g, n) cell of the
    psi box, twelve more in each of the 16 cells of dimension 3g-3+n <= 6,
    and every top-degree lambda_g monomial for g <= 3, n <= 4.

    The extra keys are there for a steady median, not because queries are
    known to come from those cells.  With one key per cell the median falls
    where the cost grows steeply from cell to cell and varies up to five
    times with the drawn key, so it spreads by about a third from seed to
    seed; a second key in every cell would double the deadline misses,
    which take most of a sweep.  The scaling wall shows in deadline_met_frac
    and ops_per_s.  About 10% of the queries miss the deadline on the
    current code, so the p95 tail reads the deadline until misses fall
    below 5%."""

    name = "oracle_cold"
    tail_percentile = 95
    selftest_is_op = False

    def __init__(self, rng, root: Path, traced: bool):
        import gwverify

        self.rng, self.gw = rng, gwverify
        self.probes = 0 if traced else SELFTEST_PROBES
        self.caches = Caches()
        self.cells = [
            (g, n)
            for g in range(MAX_GENUS + 1)
            for n in range(1, MAX_POINTS + 1)
            if 2 * g - 2 + n > 0
        ]
        self.lambda_g = lambda_g_monomials(4)
        self._old_handler = signal.signal(signal.SIGALRM, _alarm)

    def run_length(self, seconds) -> int:
        return 1  # a sweep takes longer than any --seconds the benchmark uses

    def cycle(self):
        low = [(g, n) for g, n in self.cells if 3 * g - 3 + n <= EXTRA_KEYS_MAX_DIM]
        cells = self.cells + low * EXTRA_KEYS
        ops = [("psi", g, psi_key(self.rng, g, n)) for g, n in cells]
        for g, a in self.lambda_g:
            a = list(a)
            self.rng.shuffle(a)
            ops.append(("hodge", g, tuple(a)))
        self.rng.shuffle(ops)
        # evenly spaced, so that the probes sample the whole sweep
        step = len(ops) / max(self.probes, 1)
        for i in reversed(range(self.probes)):
            ops.insert(round((i + 0.5) * step), ("selftest",))
        return ops

    def run(self, op):
        self.caches.reset()
        t0 = perf_counter()
        if op[0] == "selftest":
            report = self.gw.run_selftest()
            return perf_counter() - t0, report
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                value = query(self.gw, op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded as exc:
            return perf_counter() - t0, exc
        except Exception as exc:
            return perf_counter() - t0, exc
        return perf_counter() - t0, value

    def check(self, op, result):
        if isinstance(result, DeadlineExceeded):
            return MISS, ""
        if isinstance(result, Exception):
            return _outcome_of(result), f"{type(result).__name__}: {result}"
        if op[0] == "selftest":
            return check_report(result)
        return check_query(self.gw, op, result)

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)


# ---------------------------------------------------------------------------
# session_warm
# ---------------------------------------------------------------------------

class SessionWarm:
    """One long-lived library session that never resets its caches.

    The mix is chosen for steady figures, not taken from measured use: the
    eleven psi and Hodge hits put the median inside the two cheapest totals
    (fig7, fig10), which cost about the same, and the p98 tail holds the
    example-3 assemblies at degree 12 and the slowest at degree 11.
    Every fifth cycle, from the second on, also runs the selftest in the
    warm session; those runs time selftest_s and are not operations."""

    name = "session_warm"
    tail_percentile = 98
    selftest_is_op = False

    def __init__(self, rng, root: Path, traced: bool):
        import gwverify

        self.rng, self.gw = rng, gwverify
        self.probe_every = 0 if traced else 5
        self.cycles = 0
        self.caches = Caches()
        self.psi_cells = endless_permutations(rng, SMALL_CELLS)
        self.lambda_g = endless_permutations(rng, lambda_g_monomials(2))
        self.pairs = {ex: endless_permutations(rng, DELTA_PAIRS) for ex in (2, 3)}
        # copies of the six diagrams, reloaded by path
        self.tmp = root / ".perfbench_out" / f"diagrams-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        src = root / "src" / "gwverify" / "data" / "diagrams"
        for stem, _ in BUILTINS.values():
            shutil.copyfile(src / f"{stem}.json", self.tmp / f"{stem}.json")
        self.reloads = endless_permutations(rng, BUILTINS)

    def run_length(self, seconds) -> int:
        """Whole blocks of six cycles.  A block draws every degree pair of
        example 2 and every reloaded diagram once, every degree pair of
        example 3 twice and every lambda_g monomial four times, so each run has the same mix and the same
        share of known failures."""
        return SESSION_BLOCK * max(1, round(seconds / SESSION_BLOCK_S))

    def cycle(self):
        rng = self.rng
        ops = [("total", name, *weights(rng)) for name in BUILTINS]
        for _ in range(5):
            g, n = next(self.psi_cells)
            ops.append(("psi", g, psi_key(rng, g, n)))
        ops += [("hodge", *next(self.lambda_g)) for _ in range(6)]
        ops += [("assemble", 2, d) for d in next(self.pairs[2])]
        ops += [("assemble", 3, d) for _ in range(2) for d in next(self.pairs[3])]
        ops.append(("reload", next(self.reloads)))
        if self.probe_every and self.cycles % self.probe_every == 1:
            ops.append(("selftest",))
        self.cycles += 1
        rng.shuffle(ops)
        return ops

    def _call(self, op):
        gw, kind = self.gw, op[0]
        if kind == "total":
            problem = gw.builtin_problem(op[1])
            total = gw.problem_total(problem)
            return total, self._numeric_total(problem, (Fraction(op[2]), Fraction(op[3])))
        if kind in ("psi", "hodge"):
            return query(gw, op)
        if kind == "assemble":
            return gw.assemble_example(op[1], op[2])
        if kind == "selftest":
            return gw.run_selftest()
        stem = BUILTINS[op[1]][0]
        return gw.problem_total(gw.load_problem(self.tmp / f"{stem}.json"))

    def _numeric_total(self, problem, w):
        """The total as a sum of per-locus values at numeric weights."""
        gw = self.gw
        swapped = (w[1], w[0])
        total = Fraction(0)
        for spec in problem.loci:
            if spec.vanishes is not None:
                continue
            c = gw.locus_contribution(spec)
            total += gw.es_eval(c, w)
            if problem.weight_swap:
                total += gw.es_eval(c, swapped)
        return total * problem.symmetry_multiplier

    def run(self, op):
        t0 = perf_counter()
        try:
            value = self._call(op)
        except Exception as exc:
            return perf_counter() - t0, exc
        return perf_counter() - t0, value

    def check(self, op, result):
        if isinstance(result, Exception):
            return _outcome_of(result), f"{type(result).__name__}: {result}"
        kind = op[0]
        if kind == "total":
            want = BUILTINS[op[1]][1]
            ok = result == (want, want)
            return (OK, "") if ok else (WRONG, f"total, numeric = {result}, want {want}")
        if kind == "reload":
            want = BUILTINS[op[1]][1]
            return (OK, "") if result == want else (WRONG, f"{result} != {want}")
        if kind in ("psi", "hodge"):
            return check_query(self.gw, op, result)
        if kind == "selftest" or result.status != "PASS":
            return check_report(result)
        want = str(1 + op[2]) if op[1] == 2 else "2"
        got = next((i.value for i in result.items if i.label == "surviving degeneration graphs"), None)
        return (OK, "") if got == want else (WRONG, f"{got} surviving graphs, want {want}")

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CliCold, OracleCold, SessionWarm)}
