"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
from tritile import complete_kgraph, exact, lattice  # noqa: E402
from tritile.errors import BudgetExceeded  # noqa: E402


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        tree = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 4.0, 0),
            _span("a.child", 1.5, 2.5, 1),
            _span("b", 5.0, 7.0, 0),
        ]
        self.assertEqual(spans.self_times(tree), [5.0, 2.0, 1.0, 2.0])

    def test_overlapping_children_are_counted_once(self):
        tree = [_span("root", 0.0, 10.0), _span("x", 2.0, 6.0, 0), _span("y", 4.0, 8.0, 0)]
        self.assertEqual(spans.self_times(tree)[0], 4.0)

    def test_recursive_span_counts_once_in_inclusive_time(self):
        tracer = spans.Tracer(targets=())
        tracer.spans[:] = [
            _span("core.induced", 0.0, 4.0),
            _span("core.induced", 1.0, 2.0, 0),
        ]
        metrics = spans.layer_metrics(tracer, hosts=1)
        self.assertEqual(metrics["core.induced.calls"], (2, "count"))
        self.assertEqual(metrics["core.induced.s"], (4.0, "s"))


class Tracer(unittest.TestCase):
    def test_absent_targets_are_reported_not_raised(self):
        tracer = spans.Tracer(targets=(
            ("tritile.patterns", "no_such_function", "patterns.gone"),
            ("tritile.no_such_module", "f", "gone.f"),
        ))
        tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["tritile.patterns.no_such_function",
                                         "tritile.no_such_module.f"])

    def test_spans_nest_and_originals_come_back(self):
        original = exact.perfect_tiling
        tracer = spans.Tracer()
        tracer.install()
        try:
            exact.perfect_tiling(complete_kgraph(5, 3))
        finally:
            tracer.uninstall()
        self.assertIs(exact.perfect_tiling, original)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names[0], "exact.perfect_tiling")
        self.assertIn("patterns.supporting_sets", names)
        self.assertTrue(all(s.parent == 0 for s in tracer.spans[1:]))

    def test_budget_exceeded_is_charged_to_the_innermost_layer(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            with self.assertRaises(BudgetExceeded):
                lattice.perfectly_tilable(complete_kgraph(10, 3), range(10), budget=0)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.budget_exceeded["exact"], 1)
        self.assertEqual(tracer.budget_exceeded["lattice"], 0)


class Smoke(unittest.TestCase):
    def _run(self, cwd, trace):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=300,
        )

    def test_every_declared_metric_is_emitted(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = self._run(ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = _last_json(proc.stdout)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            want = {m["name"]: m["unit"] for m in declared[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self._run(tmp, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
