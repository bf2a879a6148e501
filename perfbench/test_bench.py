"""Tests of the benchmark itself.

    python3 -m unittest perfbench/test_bench.py      (from the repository root)
"""

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ampleangles import dsl  # noqa: E402


class SeedTest(unittest.TestCase):
    """Two seeds give different inputs but the same job shape."""

    def test_queries(self):
        one, two = workloads.queries_jobs(1), workloads.queries_jobs(2)
        self.assertEqual(len(one), 82)
        self.assertEqual([j.name for j in one], [j.name for j in two])
        self.assertEqual([len(j.classes) for j in one], [len(j.classes) for j in two])
        self.assertEqual([len(j.points) for j in one], [len(j.points) for j in two])
        self.assertNotEqual([j.points for j in one], [j.points for j in two])
        self.assertEqual([j.points for j in one], [j.points for j in workloads.queries_jobs(1)])

    def test_blowup_scripts(self):
        one, two = workloads.script_texts(1), workloads.script_texts(2)
        self.assertNotEqual(one, two)
        self.assertEqual(one, workloads.script_texts(1))
        for (a, steps_a), (b, steps_b) in zip(one, two):
            sa, sb = dsl.parse_pair_spec(a), dsl.parse_pair_spec(b)
            self.assertEqual(steps_a, steps_b)
            self.assertEqual([s.op for s in sa.steps], [s.op for s in sb.steps])
            self.assertEqual(sa.base, sb.base)
            self.assertEqual(sa.final.r, sb.final.r)
            self.assertEqual(sa.final.surface.rank, sb.final.surface.rank)

    def test_classify_ignores_seed(self):
        one, two = workloads.classify_jobs(1), workloads.classify_jobs(2)
        self.assertEqual([j.argv for j in one], [j.argv for j in two])


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class SpanTest(unittest.TestCase):
    def test_self_times_of_nested_spans_fit_in_parent(self):
        rec = spans.Recorder()
        leaf = rec.wrap(lambda: _busy(0.002), "t.leaf")
        mid = rec.wrap(lambda: [_busy(0.001), leaf(), leaf()], "t.mid")
        top = rec.wrap(lambda: [mid(), _busy(0.001), mid()], "t.top")
        top()
        parent, start, end = rec.parent, rec.start, rec.end
        selfs = spans.self_times(parent, start, end)
        self.assertEqual(len(selfs), 7)
        for i in range(len(selfs)):
            self.assertGreaterEqual(selfs[i], 0)
            subtree, frontier = [], [i]
            while frontier:
                j = frontier.pop()
                subtree.append(j)
                frontier += [k for k in range(len(parent)) if parent[k] == j]
            self.assertLessEqual(sum(selfs[j] for j in subtree), end[i] - start[i] + 1e-9)
        calls, self_s, _, _ = spans.aggregate(rec.names, (rec.name_ids, parent, rec.job, start, end))
        self.assertEqual((calls["t.top"], calls["t.mid"], calls["t.leaf"]), (1, 2, 4))
        self.assertGreaterEqual(self_s["t.leaf"], 0.008)
        self.assertLess(self_s["t.top"], 0.008)

    def test_instrument_wraps_every_binding(self):
        # in a fresh interpreter: instrumenting patches the library for good
        code = (
            "import ampleangles, spans\n"
            "from ampleangles import angles, geometry, pairs\n"
            "rec = spans.Recorder(); spans.instrument(rec, ampleangles)\n"
            "assert pairs.intersect is geometry.intersect is angles.intersect\n"
            "p = pairs.make_pair(geometry.hirzebruch(1), [('Z', (1, 0)), ('C', (1, 3))])\n"
            "angles.aa_outer_blowup(pairs.blow_up_node(p, 'Z.C.1', 'E'))\n"
            "import json; print(json.dumps(rec.names))\n"
        )
        env_path = [str(ROOT / "src"), str(HERE)]
        proc = subprocess.run(
            [sys.executable, "-I", "-c", f"import sys; sys.path[:0] = {env_path!r}\n" + code],
            capture_output=True, text=True, timeout=120,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        names = set(json.loads(proc.stdout))
        for name in ("geometry.intersect", "pairs.make_pair", "pairs.blow_up_node",
                     "polytope.contains", "angles.aa_outer_blowup", "geometry.DivisorClass.__sub__"):
            self.assertIn(name, names)


class SpeedTest(unittest.TestCase):
    def test_slices_are_scaled_by_the_measured_slowdown(self):
        probe = speed.SpeedProbe()
        ref = speed.REF_SNIPPET_S
        # probes every 10 ms, each spending 1 ms; the machine runs at half speed
        for k in range(4):
            probe.at.append(0.01 * k)
            probe.cost.append(2 * ref)
            probe.spent.append(0.001)
        self.assertAlmostEqual(probe.normalized(0.0, 0.04), (0.04 - 4 * 0.001) / 2)
        self.assertAlmostEqual(probe.normalized(0.0015, 0.0095), 0.008 / 2)
        self.assertEqual(speed.SpeedProbe().normalized(1.0, 3.0), 2.0)


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_run_computes(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        empty = spans.Recorder()
        arrays = (empty.name_ids, empty.parent, empty.job, empty.start, empty.end)
        computed = set(spans.layer_metrics([], arrays, {})) | {"trace.overhead_ratio"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, computed)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.JOB_LISTS))
        self.assertEqual(
            {m["name"] for m in spec["end_to_end"]}, {"setup_s", "wall_s", "job_s.max", "peak_rss_mb"}
        )


class VertexCheckTest(unittest.TestCase):
    def test_reference_vertices_pass(self):
        for name in ("check-figure1", "check-chain-r6", "aa-three-fibers"):
            text = (workloads.REF / f"{name}.out").read_text()
            self.assertGreater(checks.printed_vertices(text), 0)

    def test_wrong_vertex_is_caught(self):
        text = (workloads.REF / "check-figure1.out").read_text()
        self.assertIn("  (1, 1/2)", text)
        for bad in ("  (1, 1/3)", "  (1/2, 1/2)", "  (2, 1/2)"):
            with self.assertRaises(checks.CheckFailed):
                checks.printed_vertices(text.replace("  (1, 1/2)", bad))


if __name__ == "__main__":
    unittest.main()
