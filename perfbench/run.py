#!/usr/bin/env python3
"""End-to-end benchmark of icilk-repro: builds the round program, runs fixed-work
rounds of one workload, checks every output, and prints one JSON result.

    python3 perfbench/run.py --workload proxy-hit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The round program is built from the checkout's
sources into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
README.md for what each measures and which end-to-end metric it moves).
"""

import argparse
import array
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import analysis  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Fixed work per round: requests (proxy-*) or background fibPar jobs
# (responsive), and the seconds of --seconds a round stands for, about what
# it takes on a 4-vCPU x86-64 VM. The count never depends on measured
# speed, so a faster program finishes sooner, and memory that grows per
# completed task reads the same on every run. Each round is a fresh
# process. A responsive round holds ~2500 foreground requests, so its p99
# keeps 10 samples beyond it even if the program gets twice as fast.
ROUND_WORK = {"proxy-hit": 120000, "proxy-miss": 22000, "responsive": 30000}
ROUND_SECONDS = {"proxy-hit": 1, "proxy-miss": 1, "responsive": 3}
MIN_ROUNDS = 3
WARMUP_FRACTION = 0.1
# Traced rounds keep every span in memory until the export, so they are
# sized by what the span store holds, not by --seconds.
TRACED_WORK = {"proxy-hit": 6000, "proxy-miss": 3000, "responsive": 10000}
TRACE_ROUNDS = 3
# Every run ends within this many seconds after the build.
RUN_BUDGET_S = 160

E2E_UNITS = {"setup_s": "s", "rss_mb": "MB", "req_p50_us": "us",
             "req_p99_us": "us", "throughput_per_s": "1/s"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    build = ["cmake", "--build", build_dir, "--target", "perfbench_round",
             "-j", str(os.cpu_count() or 1)]
    for step in (cmd, build):
        res = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_round"), os.path.join(root, "perfbench-runs")


# --- Host facts ----------------------------------------------------------------


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def host_facts_start():
    with open("/proc/loadavg") as f:
        load = float(f.read().split()[0])
    tw = -1
    with open("/proc/net/sockstat") as f:
        for line in f:
            if line.startswith("TCP:"):
                parts = line.split()
                tw = int(parts[parts.index("tw") + 1])
    return {"cpu": cpu_times(), "loadavg": load, "tw_sockets": tw}


def host_facts_end(start):
    total0, steal0 = start["cpu"]
    total1, steal1 = cpu_times()
    steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    return {"host.steal_frac": steal, "host.tw_sockets": start["tw_sockets"],
            "host.loadavg": start["loadavg"]}


# --- Rounds ---------------------------------------------------------------------


def run_round(program, out_dir, workload, seed, index, work, trace, deadline):
    out = os.path.join(out_dir, "round%d%s.json" % (index, "-traced" if trace else ""))
    cmd = [program, "--workload", workload, "--seed", str(seed), "--round", str(index),
           "--work", str(work), "--warmup", str(max(1, int(work * WARMUP_FRACTION))),
           "--trace", "1" if trace else "0", "--out", out]
    spans = out.replace(".json", ".spans.json")
    if trace and workload != "responsive":
        cmd += ["--spans-out", spans]
    spawned = time.monotonic_ns()
    try:
        res = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s round %d ran past the run's %d s budget" % (workload, index, RUN_BUDGET_S))
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        fail("%s round %d exited with %d" % (workload, index, res.returncode))
    with open(out) as f:
        r = json.load(f)
    r["lat_us"] = array.array("d", sorted(r["lat_us"]))
    # Set-up runs from process start to the first timed operation; the
    # round program stamps that operation on the same monotonic clock.
    r["setup_s"] = (r["t0_mono_ns"] - spawned) * 1e-9
    r["watchdog_reports"] = res.stderr.count("runtime watchdog")
    if trace and workload != "responsive":
        with open(spans) as f:
            r["spans"] = json.load(f)
    return r


def units(r):
    return r["jobs"] if "jobs" in r else r["attempted"]


def med(rounds, fn):
    return analysis.median([fn(r) for r in rounds])


def p50_p99(rounds):
    """Latency percentiles over every timed request of the rounds."""
    samples = [r["lat_us"] for r in rounds]
    n = sum(len(x) for x in samples)
    if (analysis.tail_percentile(n) or 0) < 99.0:
        fail("%d latency samples cannot support a p99" % n)
    return analysis.pooled_percentiles(samples, [50.0, 99.0])


def end_to_end(rounds):
    """Set-up and memory are medians over rounds. Latency and throughput
    are each round's own, taken at the best decile of the rounds: a shared
    host slows whole rounds at a time, and that delay is not the program's."""
    per_round = [p50_p99([r]) for r in rounds]
    return {"setup_s": med(rounds, lambda r: r["setup_s"]),
            "rss_mb": med(rounds, lambda r: r["rss_mb"]),
            "req_p50_us": analysis.best_decile([x[0] for x in per_round]),
            "req_p99_us": analysis.best_decile([x[1] for x in per_round]),
            "throughput_per_s": analysis.best_decile(
                [units(r) / r["wall_s"] for r in rounds], higher_is_better=True)}


def check(workload, r):
    """Output checks beyond the per-response ones the round program counts."""
    problems = []
    if r["setup_failed"]:
        problems.append("%d failed operations during set-up" % r["setup_failed"])
    if workload == "proxy-hit" and r["cache_hits"] != r["attempted"]:
        problems.append("%d of %d requests hit" % (r["cache_hits"], r["attempted"]))
    if workload == "proxy-miss" and r["cache_misses"] != r["attempted"]:
        problems.append("%d of %d requests missed" % (r["cache_misses"], r["attempted"]))
    if workload != "responsive" and r["origin_errors"]:
        problems.append("%d origin errors" % r["origin_errors"])
    return problems


# --- Per-layer metrics ------------------------------------------------------------


def snapshot_delta(r):
    before, after = r["snap_before"], r["snap_after"]

    def d(key):
        return after[key] - before[key]

    steals = d("steals_same_socket") + d("steals_cross_socket")
    return d("tasks_executed"), d("total_work_nanos"), steals, d("next_slot_hits")


def runtime_layer(workload, r):
    if workload == "responsive":
        tasks, work, steals, slot = r["rt_tasks"], r["rt_work_ns"], r["rt_steals"], r["rt_next_slot"]
    else:
        tasks, work, steals, slot = snapshot_delta(r)
    n = units(r)
    return {"runtime.tasks_per_unit": tasks / n,
            "runtime.work_ns_per_task": work / tasks if tasks else 0.0,
            "runtime.steals_per_job": steals / n,
            "runtime.next_slot_frac": slot / tasks if tasks else 0.0}


def proxy_span_layers(r):
    """Per-layer numbers from one traced proxy round's client records,
    origin calls and span export."""
    export = r["spans"]
    requests = [{"id": i, "conn": int(c), "send": s, "end": e, "timed": t > 0}
                for i, c, s, e, t in zip(r["req_id"], r["req_conn"], r["req_send_us"],
                                         r["req_end_us"], r["req_timed"])]
    joined, unjoined = analysis.join_requests(
        requests, r["conn_trace_ids"], export.get("traces", []),
        list(zip(r["origin_ids"], r["origin_traceparents"])))
    dropped = analysis.drop_counts(export)
    timed = [q for q in requests if q["timed"]]
    origin_seen = set(r["origin_ids"])
    layers = [analysis.request_layers(q, *joined[q["id"]]) for q in timed if q["id"] in joined]
    hits = [x for x in layers if not x["fetched"]]
    misses = [x for x in layers if x["fetched"]]

    def mid(xs, key):
        return analysis.median([x[key] for x in xs]) if xs else 0.0

    return {
        "trace.spans_dropped": dropped,
        "trace.unjoined": unjoined,
        "origin.calls_per_req": sum(q["id"] in origin_seen for q in timed) / len(timed),
        "io.read_us": mid(layers, "read"),
        "io.write_us": mid(layers, "write"),
        "io.connect_us": mid(misses, "connect"),
        "io.ops_per_req": sum(x["io_ops"] for x in layers) / max(1, len(layers)),
        "realproxy.handler_self_us": mid(hits, "handler_self"),
        "realproxy.fetch_self_us": mid(misses, "handler_self"),
        "realproxy.response_self_us": mid(layers, "response_self"),
        "realproxy.trace_cover_frac": mid(layers, "cover"),
    }


def responsive_span_layers(r):
    due, sub, start, end = r["fg_due_us"], r["fg_submit_us"], r["fg_start_us"], r["fg_end_us"]
    wait = sorted(s - d for d, s in zip(due, start))
    jobs = sorted(e - s for s, e in zip(r["job_start_us"], r["job_end_us"]))
    job_p50 = analysis.percentile(jobs, 50.0)
    return {
        "trace.spans_dropped": 0,
        "trace.unjoined": 0,
        "runtime.top_wait_p50_us": analysis.percentile(wait, 50.0),
        "runtime.top_wait_p99_us": analysis.percentile(wait, 99.0),
        "runtime.top_run_p50_us": analysis.median([e - s for s, e in zip(start, end)]),
        "gen.lag_p99_us": analysis.percentile(sorted(s - d for d, s in zip(due, sub)), 99.0),
        "kernels.job_p50_us": job_p50,
        "kernels.efficiency": r["fib_seq_us"] / (job_p50 * r["workers"]),
        "runtime.top_hold_frac": r["top_hold_frac"],
    }


# Span-derived metrics; published as -1 when a traced round lost spans or
# could not join every request, with trace.partial = 1.
SPAN_METRICS = {
    "proxy": ["io.read_us", "io.write_us", "io.connect_us", "io.ops_per_req",
              "realproxy.handler_self_us", "realproxy.fetch_self_us",
              "realproxy.response_self_us", "realproxy.trace_cover_frac",
              "origin.calls_per_req"],
    "responsive": ["runtime.top_wait_p50_us", "runtime.top_wait_p99_us",
                   "runtime.top_run_p50_us", "runtime.top_hold_frac", "gen.lag_p99_us",
                   "kernels.job_p50_us", "kernels.efficiency"],
}

PER_LAYER_DEFAULTS = {name: 0.0 for name in (
    SPAN_METRICS["proxy"] + SPAN_METRICS["responsive"] +
    ["realproxy.hit_ratio", "client.cpu_frac", "origin.cpu_frac",
     "origin.time_wait_sockets"])}


def per_layer(workload, plain, traced):
    m = dict(PER_LAYER_DEFAULTS)
    # The proxy's runtime is read through telemetry, which only the traced
    # rounds start; the responsive round owns its runtime.
    rt_rounds = plain if workload == "responsive" else traced
    rt = [runtime_layer(workload, r) for r in rt_rounds]
    m.update({k: analysis.median([x[k] for x in rt]) for k in rt[0]})
    m["runtime.watchdog_reports"] = med(plain, lambda r: r["watchdog_reports"])
    m["proc.cpu_us_per_unit"] = med(plain, lambda r: r["proc_cpu_us"] / units(r))
    m["proc.ctxsw_per_unit"] = med(plain, lambda r: r["proc_ctxsw"] / units(r))
    if workload != "responsive":
        m["realproxy.hit_ratio"] = med(
            plain, lambda r: r["cache_hits"] / max(1, r["cache_hits"] + r["cache_misses"]))
        m["client.cpu_frac"] = med(plain, lambda r: r["client_cpu_s"] / r["wall_s"])
        m["origin.cpu_frac"] = med(plain, lambda r: r["origin_cpu_s"] / r["wall_s"])
        m["origin.time_wait_sockets"] = med(plain, lambda r: r["tw_sockets_end"])
        m["host.private_netns"] = min(r["private_netns"] for r in plain + traced)
    else:
        m["host.private_netns"] = 1.0
    span_fn = responsive_span_layers if workload == "responsive" else proxy_span_layers
    layers = [span_fn(r) for r in traced]
    dropped = sum(x["trace.spans_dropped"] for x in layers)
    unjoined = sum(x["trace.unjoined"] for x in layers)
    partial = dropped > 0 or unjoined > 0
    kind = "responsive" if workload == "responsive" else "proxy"
    for k in SPAN_METRICS[kind]:
        m[k] = -1.0 if partial else analysis.median([x[k] for x in layers])
    m["trace.spans_dropped"] = dropped
    m["trace.unjoined"] = unjoined
    m["trace.partial"] = 1 if partial else 0
    m["trace.overhead_frac"] = p50_p99(traced)[0] / p50_p99(plain)[0] - 1
    return m


PER_LAYER_UNITS = {
    "runtime.tasks_per_unit": "count", "runtime.work_ns_per_task": "ns",
    "runtime.steals_per_job": "count", "runtime.next_slot_frac": "ratio",
    "runtime.top_wait_p50_us": "us", "runtime.top_wait_p99_us": "us",
    "runtime.top_run_p50_us": "us", "runtime.top_hold_frac": "ratio",
    "runtime.watchdog_reports": "count",
    "kernels.job_p50_us": "us", "kernels.efficiency": "ratio",
    "io.read_us": "us", "io.write_us": "us", "io.connect_us": "us",
    "io.ops_per_req": "count",
    "realproxy.handler_self_us": "us", "realproxy.response_self_us": "us",
    "realproxy.fetch_self_us": "us", "realproxy.hit_ratio": "ratio",
    "realproxy.trace_cover_frac": "ratio",
    "origin.calls_per_req": "count", "origin.cpu_frac": "ratio",
    "origin.time_wait_sockets": "count",
    "proc.cpu_us_per_unit": "us", "proc.ctxsw_per_unit": "count",
    "client.cpu_frac": "ratio", "gen.lag_p99_us": "us",
    "trace.overhead_frac": "ratio", "trace.spans_dropped": "count",
    "trace.unjoined": "count", "trace.partial": "count",
    "host.steal_frac": "ratio", "host.tw_sockets": "count",
    "host.loadavg": "load", "host.private_netns": "count",
}


# --- Main --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_WORK))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    program, runs_dir = build()
    out_dir = os.path.join(runs_dir, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    host = host_facts_start()
    deadline = time.monotonic() + RUN_BUDGET_S
    w = args.workload
    if args.trace == 0:
        plain = [run_round(program, out_dir, w, args.seed, i, ROUND_WORK[w], False, deadline)
                 for i in range(max(MIN_ROUNDS, args.seconds // ROUND_SECONDS[w]))]
        traced = []
    else:
        # Alternate untraced and traced rounds of equal size; the untraced
        # ones give the overhead baseline and the non-span layer numbers.
        plain, traced = [], []
        for i in range(TRACE_ROUNDS):
            plain.append(run_round(program, out_dir, w, args.seed, 2 * i, TRACED_WORK[w], False,
                                   deadline))
            traced.append(run_round(program, out_dir, w, args.seed, 2 * i + 1, TRACED_WORK[w], True,
                                    deadline))
    facts = host_facts_end(host)

    problems = [p for r in plain + traced for p in check(w, r)]
    attempted = int(sum(r["attempted"] for r in plain + traced))
    failed = int(sum(r["failed"] for r in plain + traced))
    for i, r in enumerate(plain):
        p50, p99 = analysis.pooled_percentiles([r["lat_us"]], [50.0, 99.0])
        print("round %d: setup_s=%.4g rss_mb=%.4g p50_us=%.4g p99_us=%.4g n=%d per_s=%.6g"
              % (i, r["setup_s"], r["rss_mb"], p50, p99, len(r["lat_us"]),
                 units(r) / r["wall_s"]))
    print("host: steal_frac=%.4f tw_sockets=%d loadavg=%.2f private_netns=%d "
          "watchdog_reports=%d (known: keep-alive connection tasks never complete)"
          % (facts["host.steal_frac"], facts["host.tw_sockets"], facts["host.loadavg"],
             min(r.get("private_netns", 1) for r in plain + traced),
             sum(r["watchdog_reports"] for r in plain + traced)))
    for p in problems:
        print("check failed: " + p)

    if args.trace == 0:
        values = end_to_end(plain)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        values = per_layer(w, plain, traced)
        values.update(facts)
        metrics = {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]}
                   for k in PER_LAYER_UNITS}
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
