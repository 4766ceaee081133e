"""Self-tests for perfbench's analysis code.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import analysis  # noqa: E402


class PercentileChoiceTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(analysis.tail_percentile(19))
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertEqual(analysis.tail_percentile(99), 50.0)
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(999), 90.0)
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(10000), 99.9)
        self.assertEqual(analysis.tail_percentile(10 ** 6), 99.99)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50.0), 50)
        self.assertEqual(analysis.percentile(values, 99.0), 99)
        self.assertEqual(analysis.percentile(values, 100.0), 100)
        self.assertEqual(analysis.percentile([7], 99.0), 7)
        with self.assertRaises(ValueError):
            analysis.percentile([], 50.0)

    def test_best_decile_of_rounds(self):
        rounds = [float(x) for x in range(1, 22)]  # 21 rounds: 1 .. 21
        self.assertEqual(analysis.best_decile(rounds), 3.0)
        self.assertEqual(analysis.best_decile(rounds, higher_is_better=True), 19.0)
        self.assertEqual(analysis.best_decile([5.0, 1.0, 9.0]), 1.0)
        self.assertEqual(analysis.best_decile([7.0]), 7.0)

    def test_pooled_percentiles_match_the_union(self):
        rounds = [[1.0, 4.0, 9.0], [2.0, 3.0], [5.0, 6.0, 7.0, 8.0, 10.0]]
        union = sorted(x for r in rounds for x in r)
        for ps in ([50.0], [10.0, 50.0, 99.0], [90.0, 100.0]):
            self.assertEqual(analysis.pooled_percentiles(rounds, ps),
                             [analysis.percentile(union, p) for p in ps])


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(analysis.self_time((0, 10), []), 10)

    def test_disjoint_children(self):
        self.assertEqual(analysis.self_time((0, 10), [(1, 3), (5, 6)]), 7)

    def test_overlapping_children_count_once(self):
        # (2, 6) and (4, 8) cover 2..8 together: 6 units, not 8.
        self.assertEqual(analysis.self_time((0, 10), [(2, 6), (4, 8)]), 4)
        # A child nested inside another adds nothing.
        self.assertEqual(analysis.self_time((0, 10), [(1, 9), (3, 4)]), 2)

    def test_children_clipped_to_parent(self):
        # A child that outlives its parent (an I/O span ended by a callback
        # after the parent closed) only covers the parent's part.
        self.assertEqual(analysis.self_time((0, 10), [(8, 15), (-5, 1)]), 7)

    def test_touching_children(self):
        self.assertEqual(analysis.self_time((0, 10), [(0, 5), (5, 10)]), 0)


def span(span_id, parent, name, start, dur):
    return {"span_id": span_id, "parent_span_id": parent, "name": name,
            "start_micros": start, "duration_micros": dur}


def trace(trace_id, handlers):
    """A connection trace: root, then per request an io.read of the header,
    a handler span, and a response span with its io.write."""
    spans = [span("r0", "", "request", 0.0, 1000.0)]
    for i, (hid, start) in enumerate(handlers):
        spans.append(span("rd%d" % i, "r0", "io.read", start - 20.0, 15.0))
        spans.append(span(hid, "r0", "handler", start, 10.0))
        spans.append(span("rs%d" % i, hid, "response", start + 2.0, 6.0))
        spans.append(span("w%d" % i, "rs%d" % i, "io.write", start + 3.0, 4.0))
    return {"trace_id": trace_id, "spans": spans, "spans_dropped": 0}


class RequestIdJoinTest(unittest.TestCase):
    def setUp(self):
        self.traces = [trace("t0", [("h0", 100.0), ("h1", 200.0)]),
                       trace("t1", [("h2", 150.0)])]
        self.requests = [
            {"id": "a", "conn": 0, "send": 85.0, "end": 115.0},
            {"id": "b", "conn": 0, "send": 185.0, "end": 215.0},
            {"id": "c", "conn": 1, "send": 135.0, "end": 165.0},
        ]

    def test_pairs_by_connection_order(self):
        joined, unjoined = analysis.join_requests(
            self.requests, ["t0", "t1"], self.traces, [])
        self.assertEqual(unjoined, 0)
        self.assertEqual({k: v[1].id for k, v in joined.items()},
                         {"a": "h0", "b": "h1", "c": "h2"})

    def test_origin_request_id_confirms_handler(self):
        origin = [("b", "00-t0-h1-01")]
        joined, unjoined = analysis.join_requests(
            self.requests, ["t0", "t1"], self.traces, origin)
        self.assertEqual(unjoined, 0)
        self.assertEqual(joined["b"][1].id, "h1")

    def test_origin_request_id_contradicting_order_is_unjoined(self):
        origin = [("a", "00-t0-h1-01")]
        joined, unjoined = analysis.join_requests(
            self.requests, ["t0", "t1"], self.traces, origin)
        self.assertEqual(unjoined, 1)
        self.assertNotIn("a", joined)

    def test_missing_trace_or_count_mismatch_is_unjoined(self):
        _, unjoined = analysis.join_requests(
            self.requests, ["t0", "tX"], self.traces, [])
        self.assertEqual(unjoined, 1)
        extra = self.requests + [{"id": "d", "conn": 1, "send": 300.0, "end": 320.0}]
        _, unjoined = analysis.join_requests(extra, ["t0", "t1"], self.traces, [])
        self.assertEqual(unjoined, 2)

    def test_request_layers_split_the_latency(self):
        joined, _ = analysis.join_requests(self.requests, ["t0", "t1"], self.traces, [])
        req = self.requests[0]
        layers = analysis.request_layers(req, *joined["a"])
        # Header read 80..95, client sent at 85: 10 µs count.
        self.assertAlmostEqual(layers["read"], 10.0)
        self.assertAlmostEqual(layers["handler_self"], 4.0)
        self.assertAlmostEqual(layers["response_self"], 2.0)
        self.assertAlmostEqual(layers["write"], 4.0)
        self.assertEqual(layers["io_ops"], 2)
        self.assertFalse(layers["fetched"])
        self.assertAlmostEqual(layers["cover"], 20.0 / 30.0)

    def test_drop_counts(self):
        export = {"stats": {"retained_dropped": 2, "active_overflow": 1},
                  "traces": [{"spans_dropped": 3}, {"spans_dropped": 0}]}
        self.assertEqual(analysis.drop_counts(export), 6)


if __name__ == "__main__":
    unittest.main()
