"""Statistics and trace analysis for the perfbench benchmark.

Pure functions over plain Python values, so they can be tested without a
build (see tests/test_analysis.py):

* percentiles, and the rule for which tail percentile a sample supports;
* span self time (duration minus the union of its children's intervals);
* the join of client requests to RealProxy's exported spans.
"""

import math

# Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(sorted_values, p):
    """Nearest-rank percentile `p` (0..100] of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def pooled_percentiles(sorted_samples, ps):
    """Nearest-rank percentiles `ps` (ascending) of the union of several
    ascending samples, without building the union."""
    import heapq

    n = sum(len(s) for s in sorted_samples)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    ranks = [min(max(math.ceil(p / 100.0 * n), 1), n) for p in ps]
    out, seen = [], 0
    for value in heapq.merge(*sorted_samples):
        seen += 1
        while len(out) < len(ranks) and ranks[len(out)] == seen:
            out.append(value)
        if len(out) == len(ranks):
            break
    return out


def median(values):
    return percentile(sorted(values), 50.0)


# Share of rounds a run's headline value may discard as disturbed.
BEST_SHARE = 0.1


def best_decile(values, higher_is_better=False):
    """The value of the round at the best tenth of a run's rounds: the 10th
    percentile (90th when higher is better), nearest rank over the rounds.

    Interference from a shared host only ever slows a round down, and it
    comes in episodes of seconds that hit a few rounds of a run, or most of
    them. The best decile ignores such rounds without resting on a single
    lucky one."""
    ordered = sorted(values, reverse=higher_is_better)
    return ordered[round(BEST_SHARE * (len(ordered) - 1))]


def tail_percentile(n):
    """The highest percentile in PERCENTILES with at least MIN_TAIL_SAMPLES
    of `n` samples beyond it, or None when not even the median has."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            best = p
    return best


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(parent, children):
    """A span's self time: its duration minus the part of its interval that
    its children cover. Spans are (start, end); children are clipped to the
    parent and overlapping children count once."""
    p_start, p_end = parent
    clipped = [(max(s, p_start), min(e, p_end)) for s, e in children]
    return (p_end - p_start) - union_length(clipped)


# --- RealProxy span export ---------------------------------------------------


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "children")

    def __init__(self, raw):
        self.id = raw["span_id"]
        self.parent = raw.get("parent_span_id") or ""
        self.name = raw["name"]
        self.start = float(raw["start_micros"])
        self.end = self.start + float(raw["duration_micros"])
        self.children = []

    @property
    def interval(self):
        return (self.start, self.end)

    @property
    def duration(self):
        return self.end - self.start

    def self_time(self):
        return self_time(self.interval, [c.interval for c in self.children])


def index_trace(trace):
    """Builds Span objects with child lists; returns (root, spans by id)."""
    spans = {raw["span_id"]: Span(raw) for raw in trace.get("spans", [])}
    root = None
    for span in spans.values():
        parent = spans.get(span.parent)
        if parent is not None:
            parent.children.append(span)
        elif root is None or span.start < root.start:
            root = span
    for span in spans.values():
        span.children.sort(key=lambda s: s.start)
    return root, spans


def drop_counts(export):
    """Spans the store lost: per-trace overflow, evicted retained traces,
    traces never recorded because too many were active."""
    stats = export.get("stats", {})
    per_trace = sum(int(t.get("spans_dropped", 0)) for t in export.get("traces", []))
    return per_trace + int(stats.get("retained_dropped", 0)) + int(
        stats.get("active_overflow", 0))


def join_requests(requests, conn_trace_ids, traces, origin_calls):
    """Joins client requests to their RealProxy "handler" spans.

    requests: dicts with "id" (the X-Request-Id sent and echoed), "conn"
      (connection index) and "send"/"end" (client stamps, trace-epoch µs),
      in the order each connection sent them.
    conn_trace_ids: connection index -> the trace id its first request's
      traceparent named (RealProxy keeps one trace per connection).
    traces: the "traces" list of /spans.json.
    origin_calls: (X-Request-Id, traceparent) pairs the origin received; the
      traceparent's parent id is the handler span that made the call.

    A connection's requests are strictly sequential (closed loop), so its
    handler spans in start order pair with its requests in send order.
    Where the origin saw a request, its X-Request-Id names the handler span
    directly, and the two must agree.

    Returns (joined, unjoined): joined maps X-Request-Id -> (root span,
    handler span); unjoined counts requests that could not be paired.
    """
    by_trace = {t["trace_id"]: t for t in traces}
    origin_parent = {}
    for rid, traceparent in origin_calls:
        parts = traceparent.split("-")
        if len(parts) == 4:
            origin_parent[rid] = parts[2]
    per_conn = {}
    for req in requests:
        per_conn.setdefault(req["conn"], []).append(req)

    joined, unjoined = {}, 0
    for conn, reqs in per_conn.items():
        trace = by_trace.get(conn_trace_ids[conn])
        if trace is None:
            unjoined += len(reqs)
            continue
        root, spans = index_trace(trace)
        handlers = sorted((s for s in spans.values() if s.name == "handler"),
                          key=lambda s: s.start)
        if len(handlers) != len(reqs):
            unjoined += len(reqs)
            continue
        for req, handler in zip(reqs, handlers):
            named = origin_parent.get(req["id"])
            if named is not None and named != handler.id:
                unjoined += 1
                continue
            joined[req["id"]] = (root, handler)
    return joined, unjoined


def request_layers(req, root, handler):
    """Splits one joined request's client latency across the proxy's layers.

    Returns a dict of self times (µs) plus the I/O op count and whether the
    request went to the origin. The request's header read is the root's
    last io.read child that ended by the handler's start; only the part of
    it after the client sent counts (before that the proxy was idle-waiting).
    """
    read = None
    for child in root.children:
        if child.name == "io.read" and child.end <= handler.start:
            read = child
    read_part = max(0.0, read.end - max(read.start, req["send"])) if read else 0.0
    out = {
        "read": read_part,
        "handler_self": handler.self_time(),
        "response_self": 0.0,
        "write": 0.0,
        "connect": 0.0,
        "origin_io": 0.0,
        "io_ops": 1 if read else 0,
        "fetched": False,
    }
    for child in handler.children:
        if child.name == "response":
            out["response_self"] += child.self_time()
            for grandchild in child.children:
                if grandchild.name == "io.write":
                    out["write"] += grandchild.duration
                    out["io_ops"] += 1
        elif child.name.startswith("io."):
            out["io_ops"] += 1
            if child.name == "io.connect":
                out["connect"] += child.duration
                out["fetched"] = True
            else:
                out["origin_io"] += child.duration
    latency = req["end"] - req["send"]
    covered = (out["read"] + out["handler_self"] + out["response_self"] +
               out["write"] + out["connect"] + out["origin_io"])
    out["cover"] = covered / latency if latency > 0 else 0.0
    return out
