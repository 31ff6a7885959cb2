"""Spans around the public functions of each treeminor module, installed at
run time from the benchmark's own code; nothing under src/ changes.

Each span records its name, start, end and parent span.  A function is
wrapped in every namespace that binds it: the defining module, each module
that imported it by name (`cli` binds `minor_formula`, `minors` and
`matroid` bind `det`, `pfaffian` binds `poly.pfaffian`, ...), and class
attributes such as `__rmul__ = __mul__`.  Installing fails if some target
ends up with no wrapped binding, so a renamed function cannot silently drop
out of the trace.

`calls` counts every call, nested and recursive ones included.  Self time
is a span's duration minus the time its direct child spans cover; a
recursive call (`tropic.series_det` calls itself) is a child span, so its
time is counted once, in its own span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

LAYERS = (
    "cli",
    "minors",
    "pfaffian",
    "cyclekernel",
    "poly",
    "tree",
    "metric",
    "tropic",
    "radicals",
    "matroid",
)

# (span name, module, attribute path inside the module)
TARGETS = (
    ("cli.run", "cli", "run"),
    ("minors.minor_formula", "minors", "minor_formula"),
    ("minors.spanned_forests", "minors", "spanned_forests"),
    ("minors.minor_oracle", "minors", "minor_oracle"),
    ("minors.build_matrix", "minors", "build_matrix"),
    ("minors.minor_leading", "minors", "minor_leading"),
    ("poly.det", "poly", "det"),
    ("poly.divide_exact", "poly", "divide_exact"),
    ("poly.pfaffian", "poly", "pfaffian"),
    ("poly.ExactPoly.mul", "poly", "ExactPoly.__mul__"),
    ("poly.ExactPoly.add", "poly", "ExactPoly.__add__"),
    ("pfaffian.pf_oracle", "pfaffian", "pf_oracle"),
    ("pfaffian.pf_formula", "pfaffian", "pf_formula"),
    ("pfaffian.build_skew_matrix", "pfaffian", "build_skew_matrix"),
    ("cyclekernel.det_via_cycles", "cyclekernel", "det_via_cycles"),
    ("cyclekernel.det_via_tight_cycles", "cyclekernel", "det_via_tight_cycles"),
    ("cyclekernel.support", "cyclekernel", "support"),
    ("tree.path_edges", "tree", "Tree.path_edges"),
    ("tree.spanned_subtree", "tree", "Tree.spanned_subtree"),
    ("tree.nice_order", "tree", "Tree.nice_order"),
    ("tree.odd_edges", "tree", "Tree.odd_edges"),
    ("tropic.cholesky", "tropic", "cholesky"),
    ("tropic.series_det", "tropic", "series_det"),
    ("tropic.PuiseuxTrunc.mul", "tropic", "PuiseuxTrunc.__mul__"),
    ("radicals.QRad.mul", "radicals", "QRad.__mul__"),
    ("radicals.QRad.add", "radicals", "QRad.__add__"),
    ("metric.inertia", "metric", "inertia"),
    ("metric.star_condition_check", "metric", "star_condition_check"),
    ("metric.hpp_eigen_check", "metric", "hpp_eigen_check"),
    ("metric.check_4pc", "metric", "check_4pc"),
    ("matroid.verify_rooted_representation", "matroid", "verify_rooted_representation"),
    ("matroid.rooted_matrix", "matroid", "rooted_matrix"),
)
NAMES = tuple(t[0] for t in TARGETS)


def _resolve(pkg, module: str, path: str):
    obj = importlib.import_module(f"{pkg.__name__}.{module}")
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def fold(spans, n_names: int) -> tuple[list[int], list[float]]:
    """(calls, self seconds) per name index from (name index, start, end,
    parent index) spans, parent -1 for a root.  Spans nest strictly (one
    thread, a call stack), so direct children never overlap and the time
    they cover is the sum of their durations."""
    covered = [0.0] * len(spans)
    for ix, s, e, parent in spans:
        if parent >= 0:
            covered[parent] += e - s
    calls = [0] * n_names
    self_s = [0.0] * n_names
    for i, (ix, s, e, parent) in enumerate(spans):
        calls[ix] += 1
        self_s[ix] += (e - s) - covered[i]
    return calls, self_s


class Tracer:
    """Installs the wrappers into an imported treeminor package and keeps
    the spans of the current item in flat arrays."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._errors: list[BaseException] = []  # PrecisionErrors seen, by identity
        self.counters = {
            "tight_calls": 0,
            "tight_true": 0,
            "reseeds": 0,
            "precision_errors": 0,
            "det_max_terms": 0,
            "det_max_coeff_bits": 0,
        }

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, ix: int, after=None):
        name_ix, start, end, parent, stack = (
            self.name_ix, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter
        precision_error = _resolve(self.pkg, "tropic", "PrecisionError")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except precision_error as exc:
                self._note_precision_error(exc)
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _note_precision_error(self, exc) -> None:
        # one error unwinding through several spans is counted once
        if not any(e is exc for e in self._errors):
            self._errors.append(exc)
            self.counters["precision_errors"] += 1

    def _after_det(self, poly) -> None:
        c = self.counters
        terms = list(poly.terms())
        c["det_max_terms"] = max(c["det_max_terms"], len(terms))
        for _, coeff in terms:
            bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
            if bits > c["det_max_coeff_bits"]:
                c["det_max_coeff_bits"] = bits

    def _after_rooted(self, out) -> None:
        self.counters["reseeds"] += out[1]

    def _tight_counter(self, fn):
        c = self.counters

        @functools.wraps(fn)
        def wrapper(supp):
            out = fn(supp)
            c["tight_calls"] += 1
            c["tight_true"] += bool(out)
            return out

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        after = {"poly.det": self._after_det,
                 "matroid.verify_rooted_representation": self._after_rooted}
        replace = {}
        for ix, (name, module, path) in enumerate(TARGETS):
            fn = _resolve(self.pkg, module, path)
            replace[id(fn)] = (fn, self._span(fn, ix, after.get(name)), name)
        tight = _resolve(self.pkg, "cyclekernel", "is_tight")
        replace[id(tight)] = (tight, self._tight_counter(tight), "cyclekernel.is_tight")
        prefix = self.pkg.__name__
        modules = [m for k, m in list(sys.modules.items())
                   if k == prefix or k.startswith(prefix + ".")]
        spaces = []
        for mod in modules:
            spaces.append(mod)
            spaces.extend(v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__.startswith(prefix))
        wrapped = set()
        for ns in spaces:
            for attr, val in list(vars(ns).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, val))
                    wrapped.add(hit[2])
        missing = [name for _, _, name in replace.values() if name not in wrapped]
        if missing:
            self.uninstall()
            raise RuntimeError(f"no binding found to wrap for {missing}")

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._patched):
            setattr(ns, attr, val)
        self._patched.clear()

    def take_spans(self) -> list[tuple[int, float, float, int]]:
        """The spans recorded since the last call, and forget them."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = list(zip(self.name_ix, self.start, self.end, self.parent))
        for a in (self.name_ix, self.start, self.end, self.parent):
            del a[:]
        self._errors.clear()
        return spans


def layer_metrics(calls, self_s, counters, traced_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    out = {}
    for layer in LAYERS:
        s = sum(t for name, t in zip(NAMES, self_s) if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (s, "s")
        out[f"{layer}.share"] = (s / traced_s if traced_s > 0 else 0.0, "ratio")
    for name, n, t in zip(NAMES, calls, self_s):
        out[f"{name}.calls"] = (n, "count")
        out[f"{name}.self_s"] = (t, "s")
    tc = counters["tight_calls"]
    out["cyclekernel.tight_ratio"] = (counters["tight_true"] / tc if tc else 0.0, "ratio")
    out["matroid.reseeds"] = (counters["reseeds"], "count")
    out["tropic.precision_errors"] = (counters["precision_errors"], "count")
    out["poly.det.max_terms"] = (counters["det_max_terms"], "count")
    out["poly.det.max_coeff_bits"] = (counters["det_max_coeff_bits"], "bits")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
