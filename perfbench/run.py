#!/usr/bin/env python3
"""Serving benchmark: pack, serve over loopback TCP, drive, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One run:

1. builds bin/advice_store.exe and perfbench/perfbench.exe from source;
2. sets up SETUPS times: packs the workload's graph and edge subset X
   (X from a fixed seed, queries from --seed; exhaustive certification),
   starts the server in its own process and checks its first answer
   against X; set-up time runs from the start of the pack to that
   checked answer;
3. with --trace 0, drives the last server for S seconds from one
   single-threaded generator process over one connection, checking every
   answer against X, and prints the end-to-end metrics;
4. with --trace 1, drives S/2 seconds untraced, then S/2 seconds against
   a server recording obs metrics, times each layer's public functions
   from outside (perfbench layers) and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files go to
.perfbench/ in the checkout.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
PERFBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
ADVICE_STORE = os.path.join(ROOT, "_build", "default", "bin", "advice_store.exe")
WORKLOADS = ("mono-cold", "mono-hot", "sharded-evict")
SETUPS = 5
# The server keeps to the first CPU this process may use, the generator
# to the second.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, GENERATOR_CPU = 0, 1

END_TO_END = {
    "qps": "1/s",
    "latency_p50_us": "us",
    "server_cpu_us_per_query": "us",
    "server_rss_mb": "MiB",
    "snapshot_bytes": "bytes",
    "setup_s": "s",
}

PER_LAYER = {
    "pack.encode_s": "s",
    "pack.certify_s": "s",
    "pack.certified_radius": "count",
    "store.write_s": "s",
    "store.load_ms": "ms",
    "store.shard_load_us": "us",
    "store.range_read_us": "us",
    "router.loads_per_kquery": "count",
    "router.evictions_per_kquery": "count",
    "router.batch_ms": "ms",
    "router.resident_bytes_peak": "bytes",
    "view.make_us": "us",
    "view.ball_nodes": "count",
    "engine.decode_us": "us",
    "engine.hit_query_us": "us",
    "cache.hits_per_query": "count",
    "cache.misses_per_query": "count",
    "memo.signature_us": "us",
    "memo.find_ns": "ns",
    "memo.hits_per_query": "count",
    "net.parse_request_ns": "ns",
    "net.encode_response_ns": "ns",
    "net.bytes_per_query": "bytes",
    "net.ping_rtt_us": "us",
    "tail.latency_p99_us": "us",
    "server.busy_share": "share",
    "loadgen.busy_share": "share",
    "trace.qps_ratio": "ratio",
    "trace.server_cpu_us_per_query": "us",
    "layers.sum_us_per_query": "us",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    targets = ["./bin/advice_store.exe", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd + ["build", "--root", ROOT] + targets, cwd=ROOT,
                           stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("cannot build: %s" % e)
    if r.returncode != 0:
        fail("build failed (run from the root of a source checkout)")


def pin(index):
    """A preexec hook that keeps the child on CPUS[index], when there are
    two or more: the server and the generator then never share one."""
    if len(CPUS) < 2:
        return None
    return lambda: os.sched_setaffinity(0, {CPUS[index]})


def run_json(argv, timeout=120, cpu=None):
    """Run a perfbench subcommand and parse its last output line."""
    r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=timeout,
                       preexec_fn=None if cpu is None else pin(cpu))
    if r.returncode != 0:
        fail("%s exited with %d" % (" ".join(argv[1:3]), r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


class Server:
    """A server process; its first stdout line names the port."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True,
                                     preexec_fn=pin(SERVER_CPU))
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            fail("server did not start: %r" % line)
        self.port = int(line.split()[2].split(":")[1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self.proc.stdout.read()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def start_server(workload, snapshot, metrics=None):
    if workload == "sharded-evict":
        argv = [PERFBENCH, "serve-router", snapshot]
    else:
        argv = [ADVICE_STORE, "serve", snapshot, "--listen", "--port", "0"]
    if metrics:
        argv += ["--metrics", metrics]
    return Server(argv)


def setup(args, snapshot, live):
    """Pack, start the server, check its first answer; returns the pack
    report and the set-up seconds.  The server is appended to [live]."""
    t0 = time.monotonic()
    pack = run_json([PERFBENCH, "pack", "--workload", args.workload,
                     "--out", snapshot]
                    + (["--trace"] if args.trace else []))
    live.append(start_server(args.workload, snapshot))
    subprocess.run([PERFBENCH, "probe", "--workload", args.workload,
                    "--seed", str(args.seed), "--port", str(live[-1].port)],
                   cwd=ROOT, check=True, timeout=60)
    return pack, time.monotonic() - t0


def drive(args, server, seconds):
    return run_json([PERFBENCH, "drive", "--workload", args.workload,
                     "--seed", str(args.seed), "--port", str(server.port),
                     "--pid", str(server.proc.pid), "--seconds", str(seconds)],
                    timeout=seconds + 60,
                    cpu=GENERATOR_CPU)


def obs_counters(path):
    with open(path) as f:
        snap = json.load(f)
    counters = {c["name"]: c["total"] for c in snap["counters"]}
    gauges = {g["name"]: g["peak"] for g in snap["gauges"]}
    return counters, gauges


def per_layer(args, packs, untraced, traced, layers, counters, gauges):
    queries = counters["net.queries"]
    m = {
        "pack.encode_s": statistics.median(p["encode_s"] for p in packs),
        "pack.certify_s": statistics.median(p["certify_s"] for p in packs),
        "pack.certified_radius": packs[-1]["radius"],
        "store.write_s": statistics.median(p["write_s"] for p in packs),
        "cache.hits_per_query": counters["serve.cache.hits"] / queries,
        "cache.misses_per_query": counters["serve.cache.misses"] / queries,
        "memo.hits_per_query": counters["serve.memo.hits"] / queries,
        "trace.qps_ratio": traced["qps"] / untraced["qps"],
        "trace.server_cpu_us_per_query": untraced["server_cpu_us_per_query"],
        "tail.latency_p99_us": untraced["latency_p99_us"],
    }
    for k in ("net.bytes_per_query", "net.ping_rtt_us", "server.busy_share",
              "loadgen.busy_share"):
        m[k] = untraced[k]
    for k in ("store.load_ms", "store.shard_load_us", "store.range_read_us",
              "router.batch_ms", "view.make_us", "view.ball_nodes",
              "engine.decode_us", "engine.hit_query_us", "memo.signature_us",
              "memo.find_ns", "net.parse_request_ns", "net.encode_response_ns"):
        m[k] = layers[k]
    # The server's own router: stats-frame deltas and its obs gauge, which
    # read 0 on the mono servers, since they hold no shards.
    m["router.loads_per_kquery"] = untraced["router.loads_per_kquery"]
    m["router.evictions_per_kquery"] = untraced["router.evictions_per_kquery"]
    m["router.resident_bytes_peak"] = gauges.get("store.shard.resident_bytes", 0)
    sum_us = ((m["net.parse_request_ns"] + m["net.encode_response_ns"]) / 1e3
              + m["cache.hits_per_query"] * m["engine.hit_query_us"])
    if args.workload == "sharded-evict":
        memo_misses = counters["serve.memo.misses"] / queries
        sum_us += (m["cache.misses_per_query"]
                   * (m["view.make_us"] + m["memo.signature_us"]
                      + m["memo.find_ns"] / 1e3)
                   + memo_misses * m["engine.decode_us"]
                   + m["router.loads_per_kquery"] / 1e3 * m["store.shard_load_us"])
    else:
        sum_us += m["cache.misses_per_query"] * (m["view.make_us"]
                                                 + m["engine.decode_us"])
    m["layers.sum_us_per_query"] = sum_us
    return m


def main():
    ap = argparse.ArgumentParser(description="Serving benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    snapshot = os.path.join(WORK, args.workload + ".ladv")
    live = []
    try:
        packs, setups = [], []
        for _ in range(SETUPS):
            while live:
                live.pop().stop()
            pack, seconds = setup(args, snapshot, live)
            packs.append(pack)
            setups.append(seconds)
        server = live[-1]
        correct = all(p["advice_ok"] == 1 and p["exhaustive"] == 1 for p in packs)
        if not args.trace:
            d = drive(args, server, args.seconds)
            runs = [d]
            metrics = {k: d[k] for k in ("qps", "latency_p50_us",
                                         "server_cpu_us_per_query", "server_rss_mb")}
            metrics["snapshot_bytes"] = os.path.getsize(snapshot)
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
        else:
            untraced = drive(args, server, args.seconds / 2)
            live.pop().stop()
            obs_path = os.path.join(WORK, args.workload + ".obs.json")
            live.append(start_server(args.workload, snapshot, obs_path))
            traced = drive(args, live[-1], args.seconds / 2)
            live.pop().stop()
            counters, gauges = obs_counters(obs_path)
            layers = run_json([PERFBENCH, "layers", "--workload", args.workload,
                               "--seed", str(args.seed), snapshot])
            correct = correct and layers["wrong"] == 0
            runs = [untraced, traced]
            metrics = per_layer(args, packs, untraced, traced, layers,
                                counters, gauges)
            units = PER_LAYER
    finally:
        while live:
            live.pop().stop()
    correct = correct and all(d["wrong"] == 0 for d in runs)
    missing = [k for k in units
               if not isinstance(metrics.get(k), (int, float))
               or not math.isfinite(metrics[k])]
    if missing:
        fail("no finite figure for " + ", ".join(missing))
    out = {
        "correct": correct,
        "attempted": int(sum(d["attempted"] for d in runs)),
        "failed": int(sum(d["failed"] for d in runs)),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
