"""Self-tests of the benchmark's own machinery.

    python3 -m unittest discover -s perfbench -p "test_*.py"

They check the tail-percentile rule, the reference scaling of pass times,
self time with nested and recursive spans, that tracing wraps every binding of a traced function, that output
digests do not depend on PYTHONHASHSEED, the compare verdicts, and that the
command refuses to run without the treeminor sources.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        xs = [float(i) for i in range(1, 101)]
        value, pct, beyond = run.tail(reversed(xs))
        self.assertEqual(value, 90.0)
        self.assertEqual(pct, 90.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_smallest_sample_count_that_fits_the_rule(self):
        value, pct, beyond = run.tail([5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        self.assertEqual((value, beyond), (1.0, 10))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))


class Scaling(unittest.TestCase):
    def test_pass_times_are_scaled_by_the_reference(self):
        passes = [run.Pass([0.1] * 20, 0.5, 20), run.Pass([0.2] * 20, 0.25, 19)]
        scaled, pct, beyond = run.timing_metrics(passes, 0.3, scaled=True)
        raw, _, _ = run.timing_metrics(passes, 0.3, scaled=False)
        self.assertAlmostEqual(scaled["item_p50_ms"][0], 50.0)
        self.assertAlmostEqual(raw["item_p50_ms"][0], 150.0)
        self.assertAlmostEqual(scaled["items_per_s"][0], (20 / 1.0 + 19 / 1.0) / 2)
        self.assertAlmostEqual(raw["items_per_s"][0], (20 / 2.0 + 19 / 4.0) / 2)
        self.assertEqual((pct, beyond), (75.0, 10))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # 0: a [0, 10] with children b [1, 4] and c [5, 9]; c has d [6, 7]
        spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 5.0, 9.0, 0), (1, 6.0, 7.0, 2)]
        calls, self_s = tracer.fold(spans, 3)
        self.assertEqual(calls, [1, 2, 1])
        self.assertEqual(self_s, [3.0, 4.0, 3.0])

    def test_recursive_spans_are_not_double_counted(self):
        # series_det [0, 10] -> series_det [1, 9] -> series_det [2, 5]
        spans = [(0, 0.0, 10.0, -1), (0, 1.0, 9.0, 0), (0, 2.0, 5.0, 1)]
        calls, self_s = tracer.fold(spans, 1)
        self.assertEqual(calls, [3])
        self.assertEqual(self_s, [10.0])

    def test_traced_recursion_matches_wall_time(self):
        pkg = importlib.import_module("treeminor")
        tr = tracer.Tracer(pkg)
        tr.install()
        try:
            grid = [[pkg.PuiseuxTrunc.constant(i * 4 + j + (i == j) * 7) for j in range(4)]
                    for i in range(4)]
            pkg.tropic.series_det(grid)
            spans = tr.take_spans()
        finally:
            tr.uninstall()
        ix = tracer.NAMES.index("tropic.series_det")
        top = [s for s in spans if s[0] == ix and s[3] == -1]
        self.assertEqual(len(top), 1)
        calls, self_s = tracer.fold(spans, len(tracer.NAMES))
        self.assertEqual(calls[ix], 1 + 4 + 4 * 3 + 4 * 3 * 2)
        self.assertAlmostEqual(sum(self_s), top[0][2] - top[0][1], places=9)


class Spec(unittest.TestCase):
    def test_per_layer_metrics_match_the_benchmark_spec(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        counters = dict.fromkeys(tracer.Tracer(None).counters, 0)
        n = len(tracer.NAMES)
        emitted = tracer.layer_metrics([0] * n, [0.0] * n, counters, 1.0, 0.0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: unit for k, (_, unit) in emitted.items()})


class Wrapping(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        pkg = importlib.import_module("treeminor")
        importlib.import_module("treeminor.cli")
        originals = {
            "cli.minor_formula": pkg.cli.minor_formula,
            "minors.det": pkg.minors.det,
            "matroid.det": pkg.matroid.det,
            "pfaffian.pfaffian": pkg.pfaffian.pfaffian,
            "cli.verify_rooted_representation": pkg.cli.verify_rooted_representation,
        }
        rmul = vars(pkg.poly.ExactPoly)["__rmul__"]
        tr = tracer.Tracer(pkg)
        tr.install()
        try:
            self.assertIsNot(pkg.cli.minor_formula, originals["cli.minor_formula"])
            self.assertIsNot(pkg.minors.det, originals["minors.det"])
            self.assertIsNot(pkg.matroid.det, originals["matroid.det"])
            self.assertIsNot(pkg.pfaffian.pfaffian, originals["pfaffian.pfaffian"])
            self.assertIsNot(vars(pkg.poly.ExactPoly)["__rmul__"], rmul)
            with open(os.devnull, "w") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    code = pkg.cli.run(["minor-verify", "--trees", "1", "--n", "4",
                                        "--seed", "3", "--format", "json"])
                finally:
                    sys.stdout = stdout
            self.assertEqual(code, 0)
            calls, _ = tracer.fold(tr.take_spans(), len(tracer.NAMES))
            for name in ("cli.run", "minors.minor_formula", "minors.minor_oracle", "poly.det"):
                self.assertGreater(calls[tracer.NAMES.index(name)], 0, name)
        finally:
            tr.uninstall()
        self.assertIs(pkg.cli.minor_formula, originals["cli.minor_formula"])
        self.assertIs(pkg.matroid.det, originals["matroid.det"])
        self.assertIs(vars(pkg.poly.ExactPoly)["__rmul__"], rmul)


_DIGEST_SCRIPT = """
import importlib, json, sys, tempfile
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run, workloads
pkg = importlib.import_module("treeminor")
importlib.import_module("treeminor.cli")
out = {}
for name in workloads.WORKLOADS:
    with tempfile.TemporaryDirectory() as d:
        wl = workloads.build(name, pkg, 7, d)
        out[name] = [run.item_digest(it.run()[1]) for it in wl.items[-4:]]
print(json.dumps(out))
"""


class Digests(unittest.TestCase):
    def test_digest_does_not_depend_on_hash_seed(self):
        results = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT, str(BENCH_DIR), str(ROOT / "src")],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            results.append(json.loads(proc.stdout))
        self.assertEqual(results[0], results[1])
        self.assertEqual(sorted(results[0]), sorted(workloads.WORKLOADS))

    def test_stored_digests_cover_whole_passes(self):
        data = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        self.assertEqual(sorted(data), sorted(workloads.WORKLOADS))
        for seeds in data.values():
            self.assertIn("0", seeds)
            self.assertEqual(len({len(v) for v in seeds.values()}), 1)


class Verdicts(unittest.TestCase):
    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        faster = [120.0, 121.0, 119.0, 120.5, 119.5]
        pairs = list(zip(base, faster))
        self.assertEqual(compare.verdict(base, faster, pairs, "higher", 0.1), "better")
        self.assertEqual(compare.verdict(faster, base, list(zip(faster, base)), "higher", 0.1), "worse")
        same = [100.2, 100.8, 99.1, 100.4, 99.7]
        self.assertEqual(compare.verdict(base, same, list(zip(base, same)), "higher", 0.1), "unchanged")
        noisy = [60.0, 140.0, 95.0, 105.0, 100.0]
        self.assertEqual(compare.verdict(base, noisy, list(zip(base, noisy)), "lower", 0.1), "unresolved")


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(BENCH_DIR, Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", "_work"))
            shutil.copy(ROOT / "BENCHMARK.json", d)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "minor-large", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
