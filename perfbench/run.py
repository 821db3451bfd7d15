#!/usr/bin/env python3
"""The repo benchmark: edge-list file to validated result, on all five engines.

    python3 perfbench/run.py --workload traverse-rmat --seed 1 \\
        --seconds 30 --trace 0

Builds perfbench_matrix (the engine libraries from src/ plus matrix.cc) under
.bench_build/, generates the workload's input from --seed before any timing,
runs the matrix for --seconds, and prints every metric by name and unit. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. The full record (host, input fingerprint, every raw repeat) is
written to .bench_out/<workload>-seed<N>-trace<T>.json. The exit code is 0
only when every cell's output validated.

--size tiny and --corrupt-one exist for perfbench/selftest.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("traverse-rmat", "pagerank-social", "ingest-large")
ENGINES = ("giraph", "graphx", "mapreduce", "neo4j", "columnstore")
# Every run, build included, must end within this; the first build of a
# checkout is allowed much longer.
RUN_LIMIT_S = 170


def median(values):
    return statistics.median(values) if values else 0.0


def untraced(raw):
    return [r for r in raw["rounds"] if not r["traced"]]


def traced(raw):
    return [r for r in raw["rounds"] if r["traced"]]


def cell_sum(rounds, prefix):
    """Sum over the cells under `prefix` of each cell's median sample, so a
    burst of host noise in one pass moves no cell's value much."""
    keys = {k for r in rounds for k in r["samples"] if k.startswith(prefix)}
    return sum(median([x for r in rounds for x in r["samples"].get(k, [])])
               for k in keys)


def processing(rounds):
    """Direct processing plus RunBenchmark time, the tracing-overhead base."""
    return cell_sum(rounds, "run/") + cell_sum(rounds, "harness/")


def evps(raw):
    """LDBC EVPS per engine: (|V| + |E|) of the loaded graph per second of
    processing, per cell. A rate from the input size, not from the edge
    counts the platforms report, which differ by engine for one answer."""
    size = raw["graph"]["vertices"] + raw["graph"]["edges"]
    out = {}
    for e in ENGINES:
        prefix = "run/%s/" % e
        cells = {k for r in untraced(raw) for k in r["samples"]
                 if k.startswith(prefix)}
        out["evps_" + e] = len(cells) * size / cell_sum(untraced(raw), prefix)
    return out


def pass_ratio(raw):
    cells = sum(r["cells"] for r in raw["rounds"])
    return 1.0 - sum(r["failed"] for r in raw["rounds"]) / cells


# (name, unit, value from the raw record). Times come from the untraced
# rounds and are sums over cells of per-cell medians (setup_s: the median
# setup repeat): proc_* and validate_s cover one pass over the workload's
# cells, makespan_s the RunBenchmark calls over the same cells.
END_TO_END = [
    ("setup_s", "s",
     lambda raw: median([s["phases"]["setup_s"] for s in raw["setup"]])),
    ("makespan_s", "s", lambda raw: cell_sum(untraced(raw), "harness/")),
] + [
    ("proc_%s_s" % e, "s",
     lambda raw, e=e: cell_sum(untraced(raw), "run/%s/" % e))
    for e in ENGINES
] + [
    ("validate_s", "s", lambda raw: cell_sum(untraced(raw), "validate/")),
    ("peak_rss_mb", "MiB", lambda raw: raw["peak_rss_mb"]),
    ("cell_pass_ratio", "ratio", pass_ratio),
]


def setup_phase(name):
    """A span of the benchmark's own in the (traced) setup repeats, read from
    its steady-clock stopwatch, which resolves below the trace's 1 us."""
    return lambda raw: median([s["phases"][name] for s in raw["setup"]])


def setup_span(name):
    """A span the program emits itself during setup."""
    return lambda raw: median([s["spans"].get(name, 0.0) for s in raw["setup"]])


def per_round(fn):
    return lambda raw: median([fn(r) for r in traced(raw)])


def span(name):
    return per_round(lambda r: r["spans"].get(name, 0.0))


def count(name):
    return per_round(lambda r: r["counters"].get(name, 0.0))


def share(part):
    return per_round(lambda r: r["counters"].get(part, 0.0) /
                     max(r["counters"].get("columnstore.operator_s", 0.0),
                         1e-12))


def hit_ratio(r):
    hits = r["counters"].get("neo4j.cache_hits", 0.0)
    misses = r["counters"].get("neo4j.cache_misses", 0.0)
    return hits / max(hits + misses, 1.0)


def harness_overhead(r):
    h = r["harness_spans"]
    return h.get("bench.run_benchmark", 0.0) - sum(
        h.get(k, 0.0) for k in ("harness.run", "harness.validate",
                                "harness.load"))


def trace_overhead(raw):
    return processing(traced(raw)) / processing(untraced(raw)) - 1.0


# (name, unit, value from the raw record, the end-to-end metric it should
# move, and the workload where it moves it). Values come from the traced
# rounds: one pass per engine, with spans and counters collected.
PER_LAYER = [
    ("graph.parse_s", "s", setup_phase("bench.parse"),
     "setup_s", "ingest-large"),
    ("graph.parse_mib_per_s", "MiB/s",
     lambda raw: raw["input"]["file_bytes"] / 2**20 /
     max(setup_phase("bench.parse")(raw), 1e-12),
     "setup_s", "ingest-large"),
    ("graph.csr_build_s", "s", setup_phase("bench.csr_build"),
     "setup_s", "ingest-large"),
] + [
    ("harness.load_s." + p, "s", setup_phase("bench.load." + p),
     "setup_s", "ingest-large")
    for p in ("mapreduce", "neo4j")
] + [
    ("harness.overhead_s", "s", per_round(harness_overhead),
     "makespan_s", "traverse-rmat"),
    ("harness.validate_s.bfs", "s",
     lambda raw: cell_sum(traced(raw), "validate/bfs/"),
     "validate_s", "traverse-rmat"),
    ("pregel.supersteps", "count", count("giraph.supersteps"),
     "proc_giraph_s", "traverse-rmat"),
    ("pregel.messages", "count", count("giraph.messages"),
     "proc_giraph_s", "pagerank-social"),
    ("pregel.cross_worker_bytes", "bytes", count("giraph.cross_worker_bytes"),
     "proc_giraph_s", "pagerank-social"),
    ("pregel.outbox_bytes_peak", "bytes", count("giraph.outbox_bytes_peak"),
     "proc_giraph_s", "pagerank-social"),
    ("pregel.superstep_s", "s", span("pregel.superstep"),
     "proc_giraph_s", "traverse-rmat"),
    ("dataflow.datasets_materialized", "count", count("graphx.datasets"),
     "proc_graphx_s", "pagerank-social"),
    ("dataflow.bytes_materialized", "bytes",
     per_round(lambda r: r["registry"].get("dataflow.bytes_materialized",
                                           0.0)),
     "proc_graphx_s", "pagerank-social"),
    ("dataflow.shuffle_bytes", "bytes", count("graphx.shuffle_bytes"),
     "proc_graphx_s", "pagerank-social"),
    ("mapreduce.jobs", "count", count("mapreduce.jobs"),
     "proc_mapreduce_s", "traverse-rmat"),
    ("mapreduce.spill_bytes", "bytes", count("mapreduce.spill_bytes"),
     "proc_mapreduce_s", "pagerank-social"),
    ("mapreduce.shuffle_bytes", "bytes", count("mapreduce.shuffle_bytes"),
     "proc_mapreduce_s", "pagerank-social"),
    ("mapreduce.map_s", "s", span("mapreduce.map"),
     "proc_mapreduce_s", "pagerank-social"),
    ("mapreduce.shuffle_reduce_s", "s", span("mapreduce.shuffle_reduce"),
     "proc_mapreduce_s", "pagerank-social"),
    ("graphdb.cache_hits", "count", count("neo4j.cache_hits"),
     "proc_neo4j_s", "pagerank-social"),
    ("graphdb.cache_misses", "count", count("neo4j.cache_misses"),
     "proc_neo4j_s", "traverse-rmat"),
    ("graphdb.hit_ratio", "ratio", per_round(hit_ratio),
     "proc_neo4j_s", "traverse-rmat"),
    ("graphdb.shard_contention", "count",
     count("neo4j.cache_shard_contention"), "proc_neo4j_s", "traverse-rmat"),
    ("graphdb.rels_expanded", "count", count("neo4j.rels_expanded"),
     "proc_neo4j_s", "traverse-rmat"),
    ("graphdb.bulk_import_s", "s", setup_span("graphdb.bulk_import"),
     "setup_s", "ingest-large"),
    ("columnstore.table_build_s", "s", setup_phase("bench.table_build"),
     "setup_s", "ingest-large"),
    ("columnstore.bytes_per_edge", "bytes",
     lambda raw: raw["columnstore_table"]["bytes"] /
     max(raw["columnstore_table"]["rows"], 1.0),
     "setup_s", "ingest-large"),
    ("columnstore.random_lookups", "count",
     count("columnstore.random_lookups"), "proc_columnstore_s",
     "traverse-rmat"),
    ("columnstore.waves", "count", count("columnstore.waves"),
     "proc_columnstore_s", "traverse-rmat"),
    ("columnstore.hash_fraction", "ratio", share("columnstore.hash_s"),
     "proc_columnstore_s", "traverse-rmat"),
    ("columnstore.exchange_fraction", "ratio", share("columnstore.exchange_s"),
     "proc_columnstore_s", "traverse-rmat"),
    ("columnstore.column_fraction", "ratio", share("columnstore.column_s"),
     "proc_columnstore_s", "traverse-rmat"),
    ("trace.overhead_ratio", "ratio", trace_overhead,
     "makespan_s", "traverse-rmat"),
]


# Per-layer figures printed in the report but left out of the JSON line:
# they are 0 by construction on a workload that runs no such phase (BFS
# alone neither joins nor shuffles in graphx, only traverse-rmat runs CONN,
# only pagerank-social PR), or, for the giraph and graphx loads, which only
# keep a pointer to the graph, below a microsecond.
DETAIL = [
    ("harness.load_s." + p, "s", setup_phase("bench.load." + p),
     "setup_s", "ingest-large")
    for p in ("giraph", "graphx")
] + [
    ("dataflow.join_s", "s", span("dataflow.join"),
     "proc_graphx_s", "pagerank-social"),
    ("dataflow.shuffle_s", "s", span("dataflow.shuffle"),
     "proc_graphx_s", "pagerank-social"),
    ("harness.validate_s.conn", "s",
     lambda raw: cell_sum(traced(raw), "validate/conn/"),
     "validate_s", "traverse-rmat"),
    ("harness.validate_s.pr", "s",
     lambda raw: cell_sum(traced(raw), "validate/pr/"),
     "validate_s", "pagerank-social"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def call(argv, timeout):
    """Runs argv with its output on our stderr; a timeout kills it and waits."""
    return subprocess.run(argv, stdout=sys.stderr, timeout=timeout).returncode


def build(jobs):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no engine sources at %s" % os.path.join(ROOT, "src"))
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if call(["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 600) != 0:
            return False
    return call(["cmake", "--build", BUILD, "-j", str(jobs)], 900) == 0


def host_fingerprint(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    # The checkout the benchmark runs in need not be a git repository, so the
    # engine sources are also identified by their content.
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"cpu_model": cpu, "nproc": raw["nproc"],
            "compiler": raw["compiler"], "build_type": raw["build_type"],
            "git_sha": git_sha, "source_sha256": digest.hexdigest()}


def report(raw, args):
    e2e = {name: (fn(raw), unit) for name, unit, fn in END_TO_END}
    layers = {name: (fn(raw), unit) for name, unit, fn, _, _ in PER_LAYER}
    rounds = raw["rounds"]
    cells = sum(r["cells"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print("perfbench %s seed=%d: %d setups, %d rounds (%d traced), "
          "%d cells" % (args.workload, args.seed, len(raw["setup"]),
                        len(rounds), len(traced(raw)), cells))
    print("input: %(vertices)d vertices, %(edges)d edges, %(file_bytes)d "
          "bytes, crc32c %(crc32c)s" % raw["input"])
    print("-- end to end (untraced rounds) --")
    for name, (value, unit) in e2e.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print("%-34s %14.6g %s" % ("cell_fail_ratio", failed / cells, "ratio"))
    for name, value in evps(raw).items():
        print("%-34s %14.6g %s" % (name, value, "1/s"))
    if args.trace:
        print("-- per layer (traced rounds) -> moves <metric> on <workload> --")
        for name, unit, fn, moves, workload in PER_LAYER + DETAIL:
            print("%-34s %14.6g %-6s -> %s on %s" % (
                name, fn(raw), unit, moves, workload))
    chosen = layers if args.trace else e2e
    return {
        "correct": failed == 0,
        "attempted": cells,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-one", action="store_true",
                        help="corrupt one output before validation")
    args = parser.parse_args()
    # On SIGTERM, unwind so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    jobs = len(os.sched_getaffinity(0))
    if not build(jobs):
        log("perfbench: build failed")
        return 1
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(WORK, tag)
    raw_path = os.path.join(work, "raw.json")
    binary = os.path.join(BUILD, "perfbench_matrix")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--dir", work]
    shutil.rmtree(work, ignore_errors=True)
    try:
        if call([binary, "generate"] + common,
                deadline - time.monotonic()) != 0:
            log("perfbench: input generation failed")
            return 1
        argv = [binary, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", raw_path]
        if args.corrupt_one:
            argv.append("--corrupt-one")
        if call(argv, deadline - time.monotonic()) != 0:
            log("perfbench: matrix run failed")
            return 1
        with open(raw_path) as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_LIMIT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = report(raw, args)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump({"schema": "perfbench-v1",
                   "host": host_fingerprint(raw),
                   "input": raw["input"],
                   "bfs_sources": raw["bfs_sources"],
                   "per_layer_map": {name: {"moves": moves, "on": workload}
                                     for name, _, _, moves, workload
                                     in PER_LAYER + DETAIL},
                   "result": result,
                   "raw": raw}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
