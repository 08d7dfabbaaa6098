"""Self-tests of the benchmark's generators, references and span arithmetic.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "perfbench")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cryslkit import parsing, preprocessor, tracecheck  # noqa: E402
from cryslkit.parsing import SourceFile  # noqa: E402

CORPUS = CHECKOUT / "corpus"


class GeneratorTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.template = gen.replica_template(CORPUS)

    def test_interleaved_trace_is_a_function_of_the_seed(self):
        first = gen.interleaved_trace(self.template, 12, 5, seed=3)
        self.assertEqual(first, gen.interleaved_trace(self.template, 12, 5, seed=3))
        self.assertNotEqual(first, gen.interleaved_trace(self.template, 12, 5, seed=4))

    def test_order_inputs_are_a_function_of_the_seed(self):
        for k in workloads.OrderWide.widths:
            self.assertEqual(gen.order_trace(k, 30, seed=3), gen.order_trace(k, 30, seed=3))
            self.assertEqual(gen.order_rule_text(k), gen.order_rule_text(k))
        self.assertNotEqual(gen.order_trace(8, 30, seed=3), gen.order_trace(8, 30, seed=4))

    def test_lines_are_what_json_dumps_writes(self):
        for line in gen.interleaved_trace(self.template, 3, 2, seed=1):
            self.assertEqual(line, json.dumps(json.loads(line)))

    def test_replicas_keep_their_order_and_get_fresh_ids(self):
        replicas, window = 10, 4
        records = [json.loads(line) for line in gen.interleaved_trace(self.template, replicas, window, 7)]
        self.assertEqual(len(records), replicas * len(self.template))
        seqs = [r["seq"] for r in records]
        self.assertEqual(seqs, list(range(1, len(records) + 1)))
        by_replica: dict[str, list] = {}
        for record in records:
            by_replica.setdefault(record["object_id"].rsplit(".r", 1)[1], []).append(record)
        self.assertEqual(len(by_replica), replicas)
        for index, events in by_replica.items():
            suffix = f".r{index}"
            self.assertEqual(len(events), len(self.template))
            for record, original in zip(events, self.template):
                expected = {"seq": record["seq"], **gen._fresh_ids(original, suffix)}
                self.assertEqual(record, expected)
                ids = [record["object_id"], record.get("return_id") or suffix]
                ids += [a["ref"] for a in record.get("args", []) if isinstance(a, dict)]
                self.assertTrue(all(i.endswith(suffix) for i in ids))

    def test_no_more_replicas_than_the_window_are_live(self):
        records = [json.loads(line) for line in gen.interleaved_trace(self.template, 10, 3, 7)]
        first, last = {}, {}
        for position, record in enumerate(records):
            replica = record["object_id"].rsplit(".r", 1)[1]
            first.setdefault(replica, position)
            last[replica] = position
        for position in range(len(records)):
            live = sum(first[r] <= position <= last[r] for r in first)
            self.assertLessEqual(live, 3)

    def test_order_trace_mixes_all_three_verdicts(self):
        oracles = workloads._oracles(CHECKOUT)
        for k in workloads.OrderWide.widths:
            lines, words = gen.order_trace(k, 30, seed=5)
            kinds = {oracles.derivative_verdict(workloads.order_tree(k), [l for _, l in w])[0]
                     for w in words.values()}
            self.assertEqual(kinds, {"accepted", "incomplete", "rejected"})
            seqs = [json.loads(line)["seq"] for line in lines]
            self.assertEqual(seqs, sorted(set(seqs)))

    def test_order_tree_matches_the_rule_text(self):
        for k in workloads.OrderWide.widths:
            spec = parsing.parse_crysl(SourceFile.for_text(gen.order_rule_text(k), "crysl"))
            self.assertEqual(spec.order, workloads.order_tree(k))


class ReplicaInvarianceTests(unittest.TestCase):
    """Findings are a whole multiple of one replica's, whatever the interleaving."""

    def test_findings_scale_with_replicas_for_two_seeds(self):
        conf = CORPUS / "jca-android" / "bsi25plus.conf"
        result = preprocessor.run_build(parsing.parse_config(SourceFile.from_path(conf)))
        rules = tracecheck.compile_rules([spec for _, spec in result.generated])
        template = gen.replica_template(CORPUS)
        replicas = 16
        for seed in (1, 2):
            lines = gen.interleaved_trace(template, replicas, 8, seed)
            events, diags = tracecheck.parse_trace_lines(lines)
            self.assertEqual(diags, [])
            by_kind = json.loads(tracecheck.report(tracecheck.check_trace(rules, events).violations))["by_kind"]
            expected = {kind: replicas * n for kind, n in workloads.REPLICA_FINDINGS.items()}
            self.assertEqual(by_kind, expected)


def span(name, layer, start, end, parent):
    return (name, layer, float(start), float(end), parent, 0)


class SpanArithmeticTests(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_overlapping_children(self):
        tree = [
            span("root", "op", 0, 10, -1),
            span("a", "parsing", 1, 4, 0),
            span("b", "model", 3, 6, 0),  # overlaps a
            span("c", "emitter", 8, 12, 0),  # runs past the root: clipped to it
            span("d", "model", 2, 3, 1),
            span("e", "model", 2.5, 3.5, 1),  # overlaps d and ends after it
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 1.5, 3.0, 4.0, 1.0, 1.0])

    def test_layer_self_times_and_unattributed_add_up_to_the_operations(self):
        tree = [
            span("op", "op", 0, 10, -1),
            span("preprocessor.run_build", "preprocessor", 1, 9, 0),
            span("parsing.parse_config", "parsing", 2, 4, 1),
            span("preprocessor.load", "preprocessor", 4, 8, 1),
            span("parsing.parse_abstract", "parsing", 5, 6, 3),
            span("op", "op", 20, 23, -1),
            span("parsing.parse_config", "parsing", 21, 22, 5),
        ]
        out = spans.summarize(tree, spans.Counter({"parsing.bytes": 400}))
        self.assertEqual(out["trace.op_s"], 13.0)
        self.assertEqual(out["trace.unattributed_s"], 4.0)
        self.assertEqual(out["parsing.self_s"], 4.0)
        self.assertEqual(out["preprocessor.self_s"], 5.0)
        self.assertEqual(out["preprocessor.load_self_s"], 3.0)
        attributed = sum(out[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertEqual(attributed + out["trace.unattributed_s"], out["trace.op_s"])
        self.assertEqual(out["parsing.bytes_per_s"], 100.0)

    def test_inclusive_time_does_not_count_nested_calls_twice(self):
        tree = [
            span("emitter.render_order", "emitter", 0, 5, -1),
            span("emitter.render_order", "emitter", 1, 3, 0),
            span("emitter.render_order", "emitter", 6, 7, -1),
        ]
        self.assertEqual(spans.inclusive(tree, ["emitter.render_order"]), 6.0)

    def test_wrappers_record_calls_and_are_removed_afterwards(self):
        original = parsing.parse_config
        tracer = spans.Tracer()
        conf = CORPUS / "standards" / "fips.conf"
        with spans.traced(tracer):
            self.assertIsNot(parsing.parse_config, original)
            with tracer.operation("build"):
                preprocessor.run_build(parsing.parse_config(SourceFile.from_path(conf)))
        self.assertIs(parsing.parse_config, original)
        names = {s[0] for s in tracer.spans}
        self.assertTrue({"parsing.parse_config", "preprocessor.run_build", "preprocessor.load",
                         "parsing.parse_refinement"} <= names)
        self.assertEqual(tracer.counters["parsing.files"], 3)


class PercentileTests(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.9), 90)
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile([7.0, 3.0, 5.0], 0.9), 7.0)


class KindTimeTests(unittest.TestCase):
    def test_each_kind_is_timed_by_a_low_percentile_of_its_repeats(self):
        fast = [workloads.Sample(0.001 * (i + 1), 2, True, "a") for i in range(20)]
        slow = [workloads.Sample(0.010 * (i + 1), 5, True, "b") for i in range(10)]
        failed = [workloads.Sample(0.0001, 5, False, "b")]
        self.assertEqual(run.kind_samples(fast + slow + failed),
                         [workloads.Sample(0.002, 2, True, "a"), workloads.Sample(0.010, 5, True, "b")])
        values = run.time_metrics(run.kind_samples(slow + fast))
        self.assertAlmostEqual(values["op_ms_p50"], 6.0)  # the mean of the two kinds' times
        self.assertAlmostEqual(values["op_ms_p90"], 10.0)
        self.assertAlmostEqual(values["throughput_per_s"], 7 / 0.012)

    def test_time_metrics_skip_failed_operations(self):
        samples = [workloads.Sample(0.002, 3, True)] * 9 + [workloads.Sample(0.004, 3, True),
                                                            workloads.Sample(9.0, 3, False)]
        values = run.time_metrics(samples)
        self.assertAlmostEqual(values["op_ms_p50"], 2.0)
        self.assertAlmostEqual(values["op_ms_p90"], 2.0)
        self.assertAlmostEqual(values["throughput_per_s"], 30 / 0.022)


class TraceShapeTests(unittest.TestCase):
    def test_ignored_events_and_live_objects(self):
        lines = [json.dumps({"object_id": o, "class_name": c}) for o, c in
                 [("a", "R"), ("b", "R"), ("x", "U"), ("a", "R"), ("c", "R"), ("b", "R"), ("a", "R")]]
        self.assertEqual(workloads.trace_shape(lines, {"R"}), (1, 3))


if __name__ == "__main__":
    unittest.main()
