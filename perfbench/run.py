"""gwverify benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload oracle_cold --repeat 5     # spread check
    python3 perfbench/run.py --workload all                        # every workload once
    python3 perfbench/run.py --check-layers                        # wrapper coverage

Run it from anywhere inside a checkout; it imports gwverify from the
checkout's ``src`` and writes only under ``.perfbench_out``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    CRASH,
    DEADLINE_S,
    ERROR,
    MISS,
    OK,
    WORKLOADS,
    WRONG,
    HarnessError,
)

SETUP_REPEATS = 6  # before the workload, and as many again after it

# A fresh interpreter: import gwverify, then the first load of both tables
# and of the six builtin diagrams.  Prints its own elapsed seconds.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import gwverify
from fractions import Fraction
v = gwverify.hodge_intersect(gwverify.HodgeMonomial(3, 0, (), (6, 0, 0)))
for name in ("fig7", "fig10", "fig8-absolute", "fig8-relative", "p4-absolute", "p4-relative-delta1"):
    gwverify.builtin_problem(name)
t1 = time.perf_counter()
assert gwverify.__file__.startswith(sys.argv[1]), gwverify.__file__
assert v == Fraction(1, 90720), v
print(t1 - t0)
"""

SELFTEST_CRITERIA = 12

# Outcome counters that reach 0 once the program is right, and the tracing
# cost itself: not part of the wrapper-coverage self-check.
COVERAGE_EXEMPT = {"hodge.unknown", "hodge.wrong", "trace.untraced_s", "trace.overhead_s", "trace.overhead_frac"}


def out_dir() -> Path:
    path = ROOT / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


def with_units(metrics: dict, section: str) -> dict:
    """Attach the units that BENCHMARK.json declares; the names must match."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench[section]}
    if declared.keys() != metrics.keys():
        raise HarnessError(f"metrics differ from BENCHMARK.json {section}: {sorted(declared.keys() ^ metrics.keys())}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure_setup() -> list[float]:
    """Fresh-interpreter set-up times, after one untimed warm-up that
    writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            times.append(float(proc.stdout))
    return times


class Record:
    __slots__ = ("op", "latency", "outcome", "detail")

    def __init__(self, op, latency, outcome, detail):
        self.op, self.latency, self.outcome, self.detail = op, latency, outcome, detail

    @property
    def missed(self) -> bool:
        return self.outcome == MISS or self.latency > DEADLINE_S


def run_cycles(wl, cycles=0, replay=None, tracer=None):
    """A closed loop, one operation at a time, over `cycles` new cycles or
    the given ones.  Outputs are checked between operations, outside the
    timed call and with tracing paused."""
    records = []
    if replay is None:
        replay = [wl.cycle() for _ in range(cycles)]
    for cycle in replay:
        for op in cycle:
            if tracer is not None:
                tracer.op_id = len(records)
                tracer.paused = False
            latency, result = wl.run(op)
            if tracer is not None:
                tracer.paused = True
            outcome, detail = wl.check(op, result)
            records.append(Record(op, latency, outcome, detail))
    return records, replay


def tail(latencies: list[float], percentile: int) -> tuple[float, list[float]]:
    """Nearest-rank percentile and the samples from its rank up."""
    ordered = sorted(latencies)
    rank = max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
    return ordered[rank], ordered[rank:]


def summarize(records) -> tuple[int, dict]:
    counts: dict[str, int] = {}
    reasons: dict[str, int] = {}
    for r in records:
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
        if r.outcome in (WRONG, ERROR, CRASH):
            key = f"{r.outcome} {r.op[0]}: {r.detail[:120]}"
            reasons[key] = reasons.get(key, 0) + 1
    failed = sum(counts.get(k, 0) for k in (WRONG, ERROR, CRASH))
    print("outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for key, count in sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))[:15]:
        print(f"  {count:4d} x {key}")
    return failed, counts


def run_untraced(args, wl) -> dict:
    # set-up is timed on both sides of the workload, so that its median
    # spans the run rather than one moment of it
    setup_times = measure_setup()
    records, _ = run_cycles(wl, wl.run_length(args.seconds))
    setup_times += measure_setup()
    selftests = [r for r in records if r.op[0] == "selftest"]
    if not selftests:
        raise HarnessError("no selftest run finished; raise --seconds")
    # the mean, not the median: within a run the selftest times fall into a
    # fast and a slow group as the host's load changes, and a median jumps
    # between the two from run to run
    selftest_s = statistics.mean(r.latency for r in selftests)
    correct = True
    if not wl.selftest_is_op:
        records = [r for r in records if r.op[0] != "selftest"]
        correct = all(r.outcome == OK for r in selftests)
        if not correct:
            print("a selftest run did not pass")
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    failed, counts = summarize(records)
    n = len(records)
    latencies = [r.latency for r in records]
    tail_s, slowest = tail(latencies, wl.tail_percentile)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": statistics.mean(slowest) * 1000,
        "ok_frac": 1 - failed / n,
        "deadline_met_frac": 1 - sum(r.missed for r in records) / n,
        "selftest_s": selftest_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"op_tail_ms is the mean of the {len(slowest)} of {n} operations at or beyond "
          f"p{wl.tail_percentile} ({tail_s * 1000:.6g} ms)")
    return {
        "correct": correct and not counts.get(CRASH),
        "attempted": n,
        "failed": failed,
        "metrics": with_units(metrics, "end_to_end"),
    }


def run_traced(args, wl) -> dict:
    """Untraced pass over the cycles of half a run, then the same
    operations again from the same cache state with every layer wrapped."""
    from tracing import Tracer

    records0, cycles = run_cycles(wl, wl.run_length(args.seconds / 2))
    wl.caches.reset()
    wl.caches.restart_counts()
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = run_cycles(wl, replay=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    wl.caches.tally()
    failed, counts = summarize(records)
    spans_path = out_dir() / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    layers = tracer.per_layer()
    calls, total, self_s = layers["calls"], layers["total"], layers["self"]
    untraced = sum(r.latency for r in records0)
    traced = sum(r.latency for r in records)
    metrics = {
        "psi.calls": calls.get("psi", 0),
        "psi.self_s": self_s.get("psi", 0.0),
        "psi.memo_keys": wl.caches.memo_keys,
        "hodge.calls": calls.get("hodge", 0),
        "hodge.self_s": self_s.get("hodge", 0.0),
        "hodge.rubber_calls": calls.get("hodge.rubber", 0),
        "hodge.unknown": layers["errors"].get(("hodge", "UnknownMonomial"), 0),
        "hodge.wrong": sum(1 for r in records if r.op[0] == "hodge" and r.outcome == WRONG),
        "scalars.gcd_calls": calls.get("scalars.gcd", 0),
        "scalars.gcd_s": total.get("scalars.gcd", 0.0),
        "exprs.parse_calls": calls.get("exprs.parse", 0),
        "exprs.parse_s": total.get("exprs.parse", 0.0),
        "data.load_json_s": total.get("data.load_json", 0.0),
        "localization.load_s": total.get("localization.load", 0.0),
        "localization.locus_calls": calls.get("localization.locus", 0),
        "localization.locus_self_s": self_s.get("localization.locus", 0.0),
        "localization.total_s": total.get("localization.total", 0.0),
        "localization.contrib_cache_entries": wl.caches.contrib_entries,
        "sumformula.enumerate_calls": calls.get("sumformula.enumerate", 0),
        "sumformula.enumerate_s": total.get("sumformula.enumerate", 0.0),
        "sumformula.graphs": layers["sizes"].get("sumformula.enumerate", 0),
        "sumformula.filter_s": total.get("sumformula.filter", 0.0),
        "sumformula.assemble_s": total.get("sumformula.assemble", 0.0),
        "chern.self_s": self_s.get("chern", 0.0),
        "reports.render_s": total.get("reports.render", 0.0),
        "trace.untraced_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": traced / untraced - 1,
    }
    for op in ("mul", "invert", "integrate"):
        metrics[f"ring.{op}_calls"] = calls.get(f"ring.{op}", 0)
        metrics[f"ring.{op}_s"] = total.get(f"ring.{op}", 0.0)
    for i in range(1, SELFTEST_CRITERIA + 1):
        metrics[f"selftest.criterion_{i:02d}_s"] = total.get(f"selftest.criterion_{i:02d}", 0.0)
    print(f"tracing overhead: {traced - untraced:+.3f} s on {untraced:.3f} s untraced ({len(records)} operations)")
    return {
        "correct": not counts.get(CRASH),
        "attempted": len(records),
        "failed": failed,
        "metrics": with_units(metrics, "per_layer"),
    }


def run_once(args) -> int:
    if not (ROOT / "src" / "gwverify" / "__init__.py").is_file():
        print(f"no gwverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload](random.Random(args.seed), ROOT, traced=args.trace == 1)
    try:
        result = run_traced(args, wl) if args.trace else run_untraced(args, wl)
    finally:
        wl.close()
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# repeat mode and the layer self-check
# ---------------------------------------------------------------------------

def child_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(args, workload: str) -> bool:
    """Run a workload with seeds seed..seed+N-1; print median, quartiles and
    the spread (q3-q1)/median of every metric next to its unit and bound.
    True when every spread is within its bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs = max(args.repeat, 1)
    values: dict[str, list[float]] = {}
    counts = set()
    for i in range(runs):
        seed = args.seed + i
        t0 = perf_counter()
        res = child_run(workload, seed, args.seconds, args.trace)
        summary = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} ({perf_counter() - t0:.1f} s) {summary}", flush=True)
        counts.add((res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{workload}: {runs} runs, {args.seconds} s each")
    # the run length is fixed and the failures are known defects, so every
    # seed must attempt and fail the same number of operations
    print("attempted, failed: " + ", ".join(f"{a}, {f}" for a, f in sorted(counts))
          + ("" if len(counts) == 1 else "  DIFFER between runs"))
    print(f"{'metric':36s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    steady = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = declared[name].get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            steady &= spread <= bound
        b = "" if bound is None else f"{bound:.2f}"
        print(f"{name:36s} {declared[name]['unit']:>6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b:>6s} {flag}")
    return steady and len(counts) == 1


def check_layers(args) -> int:
    """Every per-layer metric must be nonzero on at least one workload, or
    its wrappers missed the calls."""
    seen: dict[str, float] = {}
    for workload in WORKLOADS:
        res = child_run(workload, args.seed, args.seconds, 1)
        for name, m in res["metrics"].items():
            seen[name] = max(seen.get(name, 0), m["value"])
        print(f"{workload}: traced, {res['attempted']} operations", flush=True)
    missing = [n for n, v in seen.items() if n not in COVERAGE_EXEMPT and not v]
    for name in missing:
        print(f"layer metric {name} is zero on every workload")
    print("every layer metric recorded work" if not missing else f"{len(missing)} layer metrics recorded nothing")
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N seeds and print the spread")
    parser.add_argument("--check-layers", action="store_true", help="traced run of every workload")
    args = parser.parse_args(argv)
    try:
        if args.check_layers:
            return check_layers(args)
        if not args.workload:
            parser.error("--workload is required")
        if args.repeat or args.workload == "all":
            names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
            steady = [repeat(args, name) for name in names]
            return 0 if all(steady) else 1
        return run_once(args)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
