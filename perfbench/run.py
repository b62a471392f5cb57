#!/usr/bin/env python3
"""Runs one workload of the end-to-end page-server benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cart --seed 7 --seconds 10 --trace 0

Builds perfbench/ (and the library sources it compiles) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
load generator, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 splits --seconds over ROUNDS processes of the same seed, each
with its own users, and reports the median round's end-to-end metrics;
--trace 1 runs one round twice, untraced then traced, and reports the
per-layer metrics plus the tracing overhead. The offered event rate of
each workload comes from --rate (BENCHMARK.json's command passes it),
never from a measurement. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cart", "browse", "mashup")
# A process's figures move with where its threads land on the host, so
# an untraced run measures this many processes and reports medians.
ROUNDS = 3
# setup_s is the median of the rounds' set-ups and this many more: a
# set-up takes about 10 ms (0.1 s on browse), so more of them cost
# little and steady the median.
SETUP_REPEATS = 12
# Every process of one run, build excluded, must end within this.
RUN_BUDGET_S = 170

END_TO_END = [
    ("event_p50_us", "us"),
    ("throughput_eps", "1/s"),
    ("page_load_p50_ms", "ms"),
    ("net_wait_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
]

# Tail latencies: printed in every run line, but bounded nowhere — on the
# shared VM they move by more than any allowed bound between runs of the
# same code (README.md, "Host noise"). The traced run reports them as
# layer metrics.
TAILS = [
    ("event_p99_us", "server.event_p99_us"),
    ("page_load_p90_ms", "browser.page_load_p90_ms"),
]

PER_LAYER = [
    ("server.event_p99_us", "us"),
    ("browser.page_load_p90_ms", "ms"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.service_us.p50", "us"),
    ("server.service_us.p99", "us"),
    ("server.events", "count"),
    ("server.loaded_events", "count"),
    ("base.pool.tasks_per_event", "ratio"),
    ("base.pool.steals_per_event", "ratio"),
    ("browser.page_loads", "count"),
    ("browser.load_self_ms", "ms"),
    ("plugin.init.compile_ms", "ms"),
    ("plugin.init.run_main_ms", "ms"),
    ("plugin.init.foreign_ms", "ms"),
    ("plugin.replayed_events", "count"),
    ("plugin.memo.lookups", "count"),
    ("plugin.memo.hit_rate", "ratio"),
    ("plugin.memo.invalidations_per_event", "ratio"),
    ("plugin.delta.skips_per_event", "ratio"),
    ("plugin.parallel_fallbacks", "count"),
    ("xquery.plan.lookups", "count"),
    ("xquery.plan.hit_rate", "ratio"),
    ("xquery.plan.compiles_per_event", "ratio"),
    ("xquery.plan.cache_inserts", "count"),
    ("xquery.items_pulled_per_event", "ratio"),
    ("xquery.sorts_performed_per_event", "ratio"),
    ("xquery.name_index_hits_per_event", "ratio"),
    ("xdm.arena_bytes_per_event", "B"),
    ("xml.delta_emitted_per_event", "ratio"),
    ("xml.index_splices_per_event", "ratio"),
    ("xml.rebuilds_avoided_per_event", "ratio"),
    ("xml.intern_misses", "count"),
    ("xml.intern_misses_capacity_phase", "count"),
    ("xml.intern_strings", "count"),
    ("net.replayed_ops", "count"),
    ("net.requests_per_op", "ratio"),
    ("net.bytes_per_op", "B"),
    ("net.cache.lookups", "count"),
    ("net.cache.hit_rate", "ratio"),
    ("net.cache.expirations", "count"),
    ("net.prefetch.issued", "count"),
    ("net.prefetch.useful_ratio", "ratio"),
    ("net.latency_sum_ms", "ms"),
    ("net.overlap_ratio", "ratio"),
    ("net.inflight_peak", "count"),
    ("trace.overhead.event_p50", "ratio"),
    ("trace.overhead.event_p99", "ratio"),
    ("trace.overhead.throughput", "ratio"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def parse_rates(spec):
    rates = {}
    for item in spec.split(","):
        name, _, value = item.partition("=")
        rates[name.strip()] = float(value)
    return rates


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under", os.path.join(ROOT, "src"))
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "xqib_e2e")


def run_binary(binary, argv, deadline):
    try:
        done = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: timed out:", " ".join(argv))
        sys.exit(3)
    if done.returncode != 0 or not done.stdout.strip():
        log(done.stderr[-4000:])
        log("perfbench: xqib_e2e failed with code", done.returncode)
        sys.exit(3)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", required=True,
                        help="offered events/s per workload, e.g. "
                             "cart=4000,browse=200,mashup=1500")
    args = parser.parse_args()

    rates = parse_rates(args.rate)
    if args.workload not in rates:
        parser.error("--rate names no rate for " + args.workload)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(os.path.abspath(target), "perfbench"))
    deadline = time.monotonic() + RUN_BUDGET_S

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds / ROUNDS),
              "--rate", str(rates[args.workload])]
    if args.trace:
        # Same round, untraced then traced: the difference is the tracing
        # overhead; the traced run's layers are the per-layer metrics.
        plain = run_binary(binary, common, deadline)
        trace_dir = os.path.join(os.path.abspath(target), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
        result = run_binary(binary, common + ["--trace", trace_file],
                            deadline)
        layers = result["layers"]
        for key, metric in TAILS:
            layers[metric] = result["e2e"][key]
        for key, metric in (("event_p50_us", "trace.overhead.event_p50"),
                            ("event_p99_us", "trace.overhead.event_p99"),
                            ("throughput_eps", "trace.overhead.throughput")):
            base = plain["e2e"][key]
            layers[metric] = (result["e2e"][key] - base) / base if base else 0
        values, table = layers, PER_LAYER
        runs = [plain, result]
    else:
        runs = [run_binary(binary, common + ["--round", str(r)],
                           deadline) for r in range(ROUNDS)]
        setups = [run_binary(binary, common + ["--setup-only"],
                             deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        values = {name: statistics.median(r["e2e"][name] for r in runs)
                  for name, _ in END_TO_END
                  if name not in ("success_rate", "setup_s")}
        values["setup_s"] = statistics.median(
            setups + [r["e2e"]["setup_s"] for r in runs])
        values["success_rate"] = 1 - (sum(r["failed"] for r in runs) /
                                      sum(r["attempted"] for r in runs))
        table = END_TO_END

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lagged = any(r["gen_lag_flagged"] for r in runs)
    correct = failed == 0 and not lagged and all(
        r["dom_compared"] > 0 for r in runs)
    for r in runs:
        info = {k: r[k] for k in (
            "workload", "seed", "round", "nproc", "workers", "offered_eps",
            "seconds", "capacity_sessions", "traced", "gen_lag_ms_p50",
            "gen_lag_ms_p99", "gen_lag_flagged", "host_steal_share",
            "latency_phase_cpu_s", "latency_phase_wall_s",
            "offered_utilisation",
            "loaded_net_makespan_ms_per_op", "capacity_bucket_events",
            "dom_compared", "samples", "failures")}
        info["e2e"] = r["e2e"]
        print(json.dumps({"run": info}))
    for name, unit in table:
        print("%-40s %16.6g %s" % (name, values[name], unit))
    if lagged:
        log("perfbench: the generator fell behind its schedule; "
            "this run does not count")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }))


if __name__ == "__main__":
    main()
