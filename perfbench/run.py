"""Benchmark for treeminor: one seeded workload, closed loop, one process.

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 25 --trace 0

Runs from the root of a checkout and imports treeminor from its src/
directory only.  See perfbench/README.md for the workloads, the metrics and
how to read the output; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
OVERRUN = 1.6  # a run on a slow machine stops after the pass that ends past this x --seconds

# The speed of a shared machine drifts by tens of percent within a minute
# (same code, same process), far more than the bounds a benchmark can use.
# So every timing is taken beside a fixed reference snippet, run right
# before each item and each set-up (outside their timing), and scaled by
# REFERENCE_S over the snippet's mean time there: the reported times are
# those of a machine on which the snippet takes REFERENCE_S (about a
# 2-vCPU x86-64 VM at 2.1 GHz with Python 3.11).  The raw times are printed
# and recorded beside them.
REFERENCE_S = 1.5e-3

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# statistics


def tail(latencies, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile
    that still has `beyond` samples above it.  With no more samples than
    that, the largest one, with the count actually beyond it (zero)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, 0
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, beyond


def item_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pass_digest(item_digests) -> str:
    return hashlib.sha256("\n".join(item_digests).encode("ascii")).hexdigest()


def reference_work():
    """Fixed interpreter work of the benchmark's own kind: Fraction
    arithmetic and small-dict updates."""
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 1)
        table[i % 37] = table.get(i % 37, 0) + i * i
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up


def _purge(pkg: str) -> None:
    for name in [m for m in sys.modules if m == pkg or m.startswith(pkg + ".")]:
        del sys.modules[name]


def set_up(name: str, seed: int, workdir: str):
    """Import treeminor and build the workload SETUP_REPEATS times from a
    clean module table; returns the last package, its workload and the
    median set-up time, raw and scaled by the reference snippet timed
    right before each set-up."""
    times, scaled, keys = [], [], set()
    for _ in range(SETUP_REPEATS):
        ref = statistics.mean(reference_time() for _ in range(5))
        _purge("treeminor")
        t0 = time.perf_counter()
        pkg = importlib.import_module("treeminor")
        importlib.import_module("treeminor.cli")
        wl = workloads.build(name, pkg, seed, workdir)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * REFERENCE_S / ref)
        keys.add(wl.inputs_sha256)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"treeminor was imported from {pkg.__file__}, not from {SRC}")
    if len(keys) != 1:
        raise RuntimeError("the same seed generated different inputs")
    return pkg, wl, statistics.median(times), statistics.median(scaled)


# ---------------------------------------------------------------------------
# execution


class Tally:
    """Outcomes of every item executed in a run, checked against the
    expected digest of the item: the stored one for this seed when there
    is one, else the item's own first output."""

    def __init__(self, expected: list[str] | None, n_items: int):
        self.expected = expected
        self.first: list[str | None] = [None] * n_items
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, k: int, item) -> float:
        t0 = time.perf_counter()
        try:
            ok, text = item.run()
        except Exception as exc:  # an item that raises is a failed item
            ok, text = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        d = item_digest(text)
        if self.first[k] is None:
            self.first[k] = d
        want = self.expected[k] if self.expected else self.first[k]
        self.attempted += 1
        if not ok or d != want:
            self.failed += 1
            if len(self.problems) < 5:
                why = "check failed" if not ok else "output digest changed"
                self.problems.append(f"item {k} ({item.kind}): {why}: {text[:200]!r}")
        return dt

    def digest(self) -> str:
        return pass_digest(self.first)


@dataclass
class Pass:
    latencies: list[float]  # raw, one per item
    scale: float  # REFERENCE_S over the reference snippet's mean time in this pass
    verified: int


def closed_loop(items, tally: Tally, passes: int, seconds: float) -> list[Pass]:
    """Run `passes` whole passes; stop early only once a pass ends past
    OVERRUN x `seconds`."""
    t0 = time.perf_counter()
    out = []
    while len(out) < passes:
        failed = tally.failed
        lat, scale, _, _ = one_pass(items, tally)
        out.append(Pass(lat, scale, len(items) - (tally.failed - failed)))
        if time.perf_counter() - t0 > OVERRUN * seconds:
            break
    return out


def timing_metrics(passes: list[Pass], setup_s: float, scaled: bool):
    """End-to-end timings, raw or scaled pass by pass, with the tail's
    percentile and the number of samples beyond it."""
    lat, rates = [], []
    for p in passes:
        f = p.scale if scaled else 1.0
        lat.extend(x * f for x in p.latencies)
        rates.append(p.verified / (sum(p.latencies) * f))
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "items_per_s": (statistics.median(rates), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, tail_pct, beyond


def one_pass(items, tally: Tally, tracer=None):
    """One whole pass, items one after another, each right after a
    reference snippet: the items' latencies, the pass's reference scale,
    and with a tracer the calls and self seconds per traced function
    (folded per item, outside the item's own timing)."""
    refs, lat = [], []
    calls = [0] * len(tracing.NAMES)
    self_s = [0.0] * len(tracing.NAMES)
    for k, item in enumerate(items):
        refs.append(reference_time())
        lat.append(tally.execute(k, item))
        if tracer is not None:
            c, s = tracing.fold(tracer.take_spans(), len(tracing.NAMES))
            calls = [a + b for a, b in zip(calls, c)]
            self_s = [a + b for a, b in zip(self_s, s)]
    return lat, REFERENCE_S / statistics.mean(refs), calls, self_s


def traced_run(pkg, items, tally: Tally, seconds: float):
    """Alternate an untraced and a traced pass until `seconds` have passed
    (at least one pair).  Times are scaled by the reference snippet like
    the end-to-end ones; per-layer values are medians over traced passes,
    and counts must repeat exactly from pass to pass."""
    deadline = time.perf_counter() + seconds
    per_pass, signatures = [], set()
    while True:
        untraced, u_scale, _, _ = one_pass(items, tally)
        tr = tracing.Tracer(pkg)
        tr.install()
        try:
            traced, t_scale, calls, self_s = one_pass(items, tally, tr)
        finally:
            tr.uninstall()
        traced_s = sum(traced) * t_scale
        overhead = traced_s / (sum(untraced) * u_scale) - 1
        per_pass.append(tracing.layer_metrics(
            calls, [x * t_scale for x in self_s], tr.counters, traced_s, overhead))
        signatures.add(json.dumps([calls, tr.counters], sort_keys=True))
        if time.perf_counter() >= deadline:
            break
    if len(signatures) != 1:
        tally.failed += 1
        tally.problems.append("call counts differ between traced passes of the same items")
    return {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


# ---------------------------------------------------------------------------


def _stored_digests(workload: str, seed: int):
    if not DIGESTS.is_file():
        return None
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return data.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record (JSON line) to this file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "treeminor" / "__init__.py").is_file():
        print(f"error: no treeminor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        pkg, wl, setup_raw_s, setup_s = set_up(args.workload, args.seed, workdir)
        stored = _stored_digests(args.workload, args.seed)
        if stored is not None and len(stored) != len(wl.items):
            raise RuntimeError("stored digests do not match the workload's item count")
        tally = Tally(stored, len(wl.items))
        if args.trace:
            metrics = traced_run(pkg, wl.items, tally, args.seconds)
        else:
            n_passes = max(1, int(args.seconds / wl.nominal_pass_s + 0.5))
            passes = closed_loop(wl.items, tally, n_passes, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    failed_frac = tally.failed / tally.attempted
    raw = {}
    if not args.trace:
        samples = sum(len(p.latencies) for p in passes)
        metrics, tail_pct, beyond = timing_metrics(passes, setup_s, scaled=True)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        raw, _, _ = timing_metrics(passes, setup_raw_s, scaled=False)
        speed = statistics.median(1 / p.scale for p in passes)
    digest = tally.digest()
    digest_status = "checked against the stored digests" if stored else "no stored digests for this seed"
    correct = tally.failed == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"pass of {len(wl.items)} items; {tally.attempted} executed; "
          f"{wl.refused} generated draws refused before timing")
    for name, (value, unit) in metrics.items():
        extra = f"   raw {raw[name][0]:.6g}" if name in raw else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{extra}")
    if not args.trace:
        print(f"  {'item_tail_ms':<44} is p{tail_pct:.1f}: {beyond} of "
              f"{samples} samples lie beyond it")
        print(f"  reference snippet: {speed:.4g} x REFERENCE_S on this machine (median over passes)")
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} ratio ({tally.failed} of {tally.attempted})")
    print(f"output digest {digest} ({digest_status})")
    for p in tally.problems:
        print(f"FAILED {p}")

    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failed_frac": failed_frac,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
            "reference_ratio": None if args.trace else speed,
            "tail_percentile": None if args.trace else tail_pct,
            "tail_samples_beyond": None if args.trace else beyond,
            "samples": None if args.trace else samples,
            "digest": digest,
            "item_digests": tally.first,
            "inputs_sha256": wl.inputs_sha256,
            "refused": wl.refused,
            "sizes": [{"kind": it.kind, **it.sizes} for it in wl.items],
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
