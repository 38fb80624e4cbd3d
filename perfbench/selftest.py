"""Tests of the benchmark itself: the answer checker, the span arithmetic and tracing.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from unittest import mock
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FROZEN = workloads.load_frozen()


def answer(op: workloads.Op) -> tuple[int, dict]:
    code, out, _, error = session.run_op(list(op.argv))
    assert error is None, error
    return code, json.loads(out)


class CheckerTest(unittest.TestCase):
    def test_true_answers_pass(self):
        for op in (
            workloads._quotient("GRP-S4", "V4", FROZEN.S4_MAX_COSET_COUNTS[4]),
            workloads._normals("GRP-S4", FROZEN.S4_PN_ORDERS),
            workloads._pg_check("PG-AM20", 3, 8**2 + 8**3 + 16**2 + 16**3),
            workloads._loc_check("PG-AM20", 3, failing=workloads.AM20_LOC_FAILURES),
        ):
            code, report = answer(op)
            self.assertEqual(workloads.check_report(op, code, report), [], op.argv)

    def test_tampered_answers_fail(self):
        op = workloads._quotient("GRP-S4", "V4", FROZEN.S4_MAX_COSET_COUNTS[4])
        code, report = answer(op)
        for check in report["checks"]:
            if check["name"] == "quotient-order":
                check["detail"] = check["detail"].replace("6 elements", "7 elements")
        self.assertEqual(len(workloads.check_report(op, code, report)), 1)
        self.assertTrue(workloads.check_report(op, 1, answer(op)[1]))

        op = workloads._normals("GRP-S4", FROZEN.S4_PN_ORDERS)
        code, report = answer(op)
        report["checks"][0]["witnesses"].pop()
        self.assertTrue(workloads.check_report(op, code, report))

        op = workloads._loc_check("PG-AM20", 3, failing=workloads.AM20_LOC_FAILURES)
        code, report = answer(op)
        report["checks"][-1]["status"] = "pass"
        self.assertTrue(workloads.check_report(op, code, report))
        self.assertTrue(workloads.check_report(op, 0, answer(op)[1]))

    def test_escaped_exception_is_reported(self):
        from localities import cli
        from localities.quotient import QuotientConstructionError
        from localities.report import VerificationReport

        def broken(args, catalog):
            raise QuotientConstructionError(VerificationReport("broken"))

        with mock.patch.dict(cli.COMMANDS, {"counterexample": broken}):
            code, _, _, error = session.run_op(["counterexample"])
        self.assertIsNone(code)
        self.assertIn("QuotientConstructionError", error)


def span(name, start, end, parent=-1, value=None):
    return [name, start, end, parent, value]


class SpanTest(unittest.TestCase):
    def test_self_time(self):
        spans = [
            span("a", 0.0, 10.0),
            span("b", 1.0, 4.0, 0),
            span("c", 5.0, 9.0, 0),
            span("d", 6.0, 7.0, 2),
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 3.0, 3.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 3.0, 12.0, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 1.0)

    def test_stats(self):
        spans = [
            span("quotient.coset_partition", 0.0, 4.0),
            span("quotient.is_up_maximal", 1.0, 2.0, 0),
            span("quotient.coset_partition", 5.0, 6.0),
            span("quotient.partial_subgroups_containing", 6.0, 9.0, -1, 2),
            span("partial.partial_subgroup_closure", 6.5, 7.0, 3),
            span("partial.partial_subgroup_closure", 7.0, 7.5, 3),
            span("partial.partial_subgroup_closure", 7.5, 8.0, 3),
            span("partial.partial_subgroup_closure", 8.0, 8.5, 3),
            span("groups.all_subgroups", 10.0, 13.0),
            span("groups.all_subgroups", 11.0, 12.0, 8),
        ]
        stats = tracing.span_stats(spans, ["partial.check_axioms"])
        self.assertEqual(stats["quotient.coset_partition.calls"], 2)
        self.assertEqual(stats["quotient.coset_partition.hits"], 1)
        self.assertEqual(stats["quotient.coset_partition.self_s"], 4.0)
        self.assertEqual(stats["quotient.partial_subgroups_containing.yield"], 0.5)
        self.assertEqual(stats["quotient.partial_subgroups_containing.self_s"], 1.0)
        self.assertEqual(stats["groups.all_subgroups.total_s"], 3.0)
        self.assertEqual(stats["groups.all_subgroups.self_s"], 3.0)
        self.assertEqual(stats["partial.check_axioms.calls"], 0)


class EstimatorTest(unittest.TestCase):
    def test_fastest_of_each_part(self):
        self.assertEqual(run.setup_s([{"A": 2.0, "B": 1.0}, {"A": 1.5, "B": 1.2}]), 2.5)
        passes = [
            {"ops": [{"group": "lemmas", "seconds": 3.0}, {"group": "quotient", "seconds": 1.0}]},
            {"ops": [{"group": "lemmas", "seconds": 4.0}, {"group": "quotient", "seconds": 0.5}]},
        ]
        self.assertEqual(run.ops_s(passes), 3.5)
        self.assertEqual(run.ops_s(passes, "quotient"), 0.5)

    def test_rescaled_by_mean_speed_during_call(self):
        ref = session.REFERENCE_S
        # Half the samples at reference speed, half at half speed; 0.1 s of
        # the call was the probe's own handler.
        self.assertAlmostEqual(session.at_reference_speed(2.1, [ref, 2 * ref], 0.1), 1.5)

    def test_probe_samples_during_and_after_a_call(self):
        with session.SpeedProbe() as probe:
            since = time.perf_counter()
            deadline = since + 4 * session.PROBE_PERIOD_S
            while time.perf_counter() < deadline:
                pass
            seconds = probe.rescale(since, time.perf_counter() - since)
        self.assertGreaterEqual(len(probe.samples), 3)
        self.assertGreater(seconds, 0)

    def test_plan_depends_on_seconds_only(self):
        self.assertEqual(run.plan(1, "s5-partial", False), [run.UNTRACED] * run.MIN_PASSES)
        self.assertEqual(run.plan(20, "c2xs4-total", True),
                         [run.UNTRACED, run.TRACED, run.UNTRACED, run.UNTRACED] + [run.SETUP] * 5)


class TracingTest(unittest.TestCase):
    OPS = (
        ("normals", "--builtin", "GRP-S4"),
        ("quotient", "--builtin", "GRP-S4", "--kernel", "V4"),
        ("lemmas", "--builtin", "GRP-S4", "--kernel", "A4", "--seed", "7"),
        ("product", "--builtin", "GRP-S4", "--ideals", "V4,A4"),
        ("pg-check", "--builtin", "LOC-S5", "--max-word-len", "2"),
        ("loc-check", "--builtin", "PG-AM20", "--max-word-len", "3"),
    )

    def outputs(self):
        from localities import corpus, quotient

        for loader in corpus.BUILTIN_LOADERS.values():
            loader.cache_clear()
        quotient._KERNEL_CACHE.clear()
        return [session.run_op(list(argv))[:2] for argv in self.OPS]

    def test_traced_outputs_match_untraced(self):
        from localities import cli, partial, quotient

        plain = self.outputs()
        original = quotient.partial_subgroup_closure
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(quotient.partial_subgroup_closure, original)
            traced = self.outputs()
            stats = tracer.stats()
        finally:
            tracer.uninstall()
        self.assertEqual(traced, plain)
        self.assertIs(quotient.partial_subgroup_closure, original)
        self.assertIs(partial.partial_subgroup_closure, original)
        self.assertEqual(stats["cli.main.calls"], len(self.OPS))
        self.assertGreater(stats["locality.LocalityPartialGroup.mul2.calls"], 0)
        self.assertGreater(stats["locality.ThreadAutomaton.states"], 0)
        self.assertEqual(stats["partial.check_axioms.words"], 56 + 56**2)
        self.assertFalse(hasattr(cli.main, "__wrapped__"))

        spec = json.loads(Path("BENCHMARK.json").read_text())
        fake = {"setup_s": {"GRP-S4": 1.0}, "peak_rss_mb": 1.0, "layers": stats,
                "ops": [{"group": "lemmas", "seconds": 1.0}]}
        layer_values = run.per_layer([fake], [fake])
        for metric in spec["per_layer"]:
            self.assertIn(metric["name"], layer_values)
        e2e_values = run.end_to_end([fake], [fake["setup_s"]])
        for metric in spec["end_to_end"]:
            self.assertIn(metric["name"], e2e_values)


if __name__ == "__main__":
    unittest.main()
