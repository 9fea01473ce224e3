"""The benchmark's own tests, at tiny scale (about a minute).

    python3 perfbench/selftest.py

* every metric named in ``BENCHMARK.json`` is emitted with its unit, traced
  and untraced, on every workload;
* the same seed gives identical generated inputs;
* the closed-loop workloads give identical tier counts and ``fill_nnz`` on
  every run;
* tracing leaves no wrapper behind and does not change any answer;
* ``compare.py`` labels improved, unchanged, worse and unresolved pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "ludem_wiki": {"pages": 80, "snapshots": 8, "initial_links": 320, "final_links": 380,
                   "checked_snapshots": 3},
    "serve_refresh": {"nodes": 60, "heads": 4, "queries_per_head": 10, "rate_qps": 400.0},
    "serve_corrected": {"nodes": 60, "snapshots": 5},
}


@contextlib.contextmanager
def tiny(name: str):
    """Shrink one workload's configuration (and instance count) for a test."""
    cls = workloads.WORKLOADS[name]
    saved_config, saved_instances = dict(cls.config), cls.instances
    cls.config.update(TINY[name])
    cls.instances = 2
    try:
        yield cls
    finally:
        cls.config.clear()
        cls.config.update(saved_config)
        cls.instances = saved_instances


def run_tiny(name: str, trace: int, seed: int = 3):
    """Run one tiny workload in-process; return (printed result, record)."""
    with tiny(name), tempfile.TemporaryDirectory() as records:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                             "--trace", str(trace), "--records", records])
        assert code == 0
        (path,) = os.listdir(records)
        with open(os.path.join(records, path)) as handle:
            record = json.load(handle)
    return json.loads(out.getvalue().strip().splitlines()[-1]), record


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, record = run_tiny(name, trace)
                    self.assertTrue(result["correct"], record["checks"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in self.spec[section]}
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    if trace:
                        self.assertEqual(record["checks"]["bitwise_mismatches"], 0)
                        self.assertTrue(record["checks"]["wrappers_restored"])
                        self.assertTrue(tracing.installed_targets_restored())

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), tiny(name) as cls:
                first, second = cls().build(11), cls().build(11)
                self.assertEqual(_fingerprint(first), _fingerprint(second))
                self.assertNotEqual(_fingerprint(first), _fingerprint(cls().build(12)))

    def test_closed_loops_repeat_tiers_and_fill(self):
        for name in ("ludem_wiki", "serve_corrected"):
            with self.subTest(workload=name):
                _, first = run_tiny(name, 0)
                _, second = run_tiny(name, 0)
                self.assertEqual(first["tiers_first_passes"], second["tiers_first_passes"])
                self.assertEqual(first["end_to_end"]["fill_nnz"],
                                 second["end_to_end"]["fill_nnz"])


class CompareTests(unittest.TestCase):
    def test_labels(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0]
        self.assertEqual(compare.label(base, base, 0.1, "lower")[0], "unchanged")
        self.assertEqual(compare.label(base, [v * 1.3 for v in base], 0.1, "lower")[0], "worse")
        self.assertEqual(compare.label(base, [v * 0.7 for v in base], 0.1, "lower")[0],
                         "improved")
        self.assertEqual(compare.label(base, [v * 1.3 for v in base], 0.1, "higher")[0],
                         "improved")
        noisy = [5.0, 15.0, 10.0, 8.0, 12.0]
        self.assertEqual(compare.label(base, noisy, 0.1, "lower")[0], "unresolved")


def _fingerprint(instance) -> str:
    """Every generated input of an instance, as a comparable string."""
    if hasattr(instance, "egs"):
        snapshots = list(instance.egs)
        queries = [query for batch in instance.batches for query in batch]
    elif hasattr(instance, "bursts"):
        snapshots = instance.chain
        queries = [query for burst in instance.bursts for query in burst]
    else:
        snapshots = instance.chain
        queries = instance.queries
    return repr((
        [sorted(snapshot.edges) for snapshot in snapshots],
        [(q.measure, q.damping, q.params, sorted(q.snapshot.edges)) for q in queries],
    ))


if __name__ == "__main__":
    unittest.main()
