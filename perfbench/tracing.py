"""Span tracing of gwverify's layers, installed from outside the library.

Each named layer is a set of public functions.  `Tracer.install` replaces
every binding of those functions in every loaded ``gwverify`` module (the
defining module, each ``from .x import f`` site, the package namespace and
the selftest's ``CRITERIA`` table) with a wrapper that records a span:
name, start, end, parent span and operation id.  Spans stay in memory until
the run ends; `per_layer` turns them into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class; plain functions are patched at every module binding.
LAYER_FUNCTIONS = [
    ("psi", "psi_intersect", "psi"),
    ("hodge", "hodge_intersect", "hodge"),
    ("hodge", "rubber_intersect", "hodge.rubber"),
    ("scalars", "poly_gcd", "scalars.gcd"),
    ("ring", "TautClass.__mul__", "ring.mul"),
    ("ring", "tc_invert", "ring.invert"),
    ("ring", "tc_integrate", "ring.integrate"),
    ("exprs", "parse_class", "exprs.parse"),
    ("exprs", "parse_scalar", "exprs.parse"),
    ("_data", "load_json", "data.load_json"),
    ("localization", "builtin_problem", "localization.load"),
    ("localization", "load_problem", "localization.load"),
    ("localization", "locus_contribution", "localization.locus"),
    ("localization", "problem_total", "localization.total"),
    ("localization", "problem_symbolic_total", "localization.total"),
    ("sumformula", "enumerate_graphs", "sumformula.enumerate"),
    ("sumformula", "vanishing_filter", "sumformula.filter"),
    ("sumformula", "assemble_example", "sumformula.assemble"),
    ("reports", "VerificationReport.to_text", "reports.render"),
    ("reports", "VerificationReport.to_json", "reports.render"),
] + [
    ("chern", fn, "chern")
    for fn in (
        "projective_space",
        "hypersurface",
        "euler_char",
        "log_tangent_pairing",
        "gw_genus1_deg0",
        "genus1_consistency_j",
        "genus1_consistency_alpha",
        "hodge_contraction_genus3",
        "degree_correction_genus3",
        "c1c2_minus_c3",
    )
]

# span fields
NAME, START, END, PARENT, OP, ERROR, SIZE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.paused = True  # run_cycles records spans only inside operations
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------
    def _wrap(self, fn, name: str, size=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size is not None:
                span[SIZE] = size(result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import gwverify  # noqa: F401  (loads every submodule)
        from gwverify import selftest

        modules = [m for n, m in sys.modules.items() if n == "gwverify" or n.startswith("gwverify.")]
        for mod_name, attr, span_name in LAYER_FUNCTIONS:
            mod = sys.modules[f"gwverify.{mod_name}"]
            size = len if span_name == "sumformula.enumerate" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth], span_name))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, span_name, size)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)
        for i, (label, fn) in enumerate(list(selftest.CRITERIA), start=1):
            wrapper = self._wrap(fn, f"selftest.criterion_{i:02d}")
            self._patch(selftest, fn.__name__, wrapper)
            selftest.CRITERIA[i - 1] = (label, wrapper)
            self._restore.append((selftest.CRITERIA, i - 1, (label, fn)))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            if isinstance(attr, int):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    # -- output ---------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tparent\top\terror\n")
            for i, s in enumerate(self.spans):
                out.write(
                    f"{i}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t{s[OP]}\t{s[ERROR] or ''}\n"
                )

    def per_layer(self) -> dict[str, dict]:
        """Calls, inclusive time and self time per span name.

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice.  Self time is a
        span's duration minus the time its child spans cover.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        errors: dict[tuple[str, str], int] = {}
        sizes: dict[str, int] = {}
        for i, s in enumerate(spans):
            name = s[NAME]
            dur = s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < 0:
                total[name] = total.get(name, 0.0) + dur
            if s[ERROR]:
                errors[(name, s[ERROR])] = errors.get((name, s[ERROR]), 0) + 1
            if s[SIZE] is not None:
                sizes[name] = sizes.get(name, 0) + s[SIZE]
        return {"calls": calls, "total": total, "self": self_s, "errors": errors, "sizes": sizes}
