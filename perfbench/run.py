#!/usr/bin/env python3
"""End-to-end benchmark of the Cypher engine on LDBC-shaped graphs.

    python3 perfbench/run.py --workload interactive --seed 42 --seconds 10 --trace 0

Builds the engine and the driver (perfbench/gradoop_perfbench.cc) from
source into .bench_build/, generates the workload's graph from --seed
(cached per scale factor and seed under .bench_build/graphs/), then runs
the driver: set-up several times, one untimed pass that fixes the match
counts, and a closed loop of one client for --seconds. Prints a table of
every metric with its unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a separate traced loop; spans go to .bench_build/traces/).
Exits 1 when a match count is wrong, 2 when the build or a step fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
GRAPHS = os.path.join(WORK, "graphs")
TRACES = os.path.join(WORK, "traces")
RUNS = os.path.join(WORK, "runs")
BINARY = os.path.join(BUILD, "gradoop_perfbench")
MAX_CACHED_GRAPHS = 40
# A run stops starting cycles after --seconds, but always completes at
# least this many queries so the tail percentile has ten samples beyond.
MIN_QUERIES = 12
STEP_TIMEOUT_S = 170

# Each workload: scale factor, engine and the query templates in loop
# order. Q1-Q3 take a firstName: the loop rotates through `names` of them,
# picked so that their work is close to `targets` per name (see
# name_pool). A loop cycle runs every template once per name. Set-up
# (load plus engine construction) repeats setup_reps times; setup_s is
# their median.
WORKLOADS = {
    "interactive": {
        "sf": 1, "engine": "row", "setup_reps": 11,
        "queries": ["Q1", "Q2", "Q3"],
        "names": 8, "targets": {"messages": 110, "q3_rows": 5000},
    },
    "paths": {
        "sf": 3, "engine": "batch", "setup_reps": 5,
        "queries": ["Q2", "Q3"],
        "names": 8, "targets": {"messages": 200, "q3_rows": 20000},
    },
    "analytic": {
        "sf": 10, "engine": "row", "setup_reps": 3,
        "queries": ["Q4", "Q5", "Q6"], "names": 1,
    },
}
NAMED = ("Q1", "Q2", "Q3")

# Match counts at seed 42 per "template:name" instance, on which the row
# and the batch engine agree. Other seeds cross-check both engines once
# per run instead.
PINNED = {
    ("interactive", 42): {
        "Q1:Rupert": 81, "Q2:Rupert": 81, "Q3:Rupert": 20,
        "Q1:Judy": 128, "Q2:Judy": 128, "Q3:Judy": 7,
        "Q1:Zane_2": 110, "Q2:Zane_2": 110, "Q3:Zane_2": 21,
        "Q1:Sybil": 201, "Q2:Sybil": 201, "Q3:Sybil": 77,
        "Q1:Yara": 78, "Q2:Yara": 78, "Q3:Yara": 12,
        "Q1:David_2": 132, "Q2:David_2": 132, "Q3:David_2": 50,
        "Q1:Lukas": 106, "Q2:Lukas": 106, "Q3:Lukas": 20,
        "Q1:Niaj_1": 51, "Q2:Niaj_1": 51, "Q3:Niaj_1": 2,
    },
    ("paths", 42): {
        "Q2:Lukas_1": 234, "Q3:Lukas_1": 4, "Q2:Rupert": 206, "Q3:Rupert": 17,
        "Q2:Inge": 434, "Q3:Inge": 53, "Q2:Niaj": 284, "Q3:Niaj": 62,
        "Q2:Otto": 143, "Q3:Otto": 70, "Q2:Dieter": 153, "Q3:Dieter": 17,
        "Q2:Ken_2": 62, "Q3:Ken_2": 10, "Q2:Walter": 126, "Q3:Walter": 13,
    },
    ("analytic", 42): {"Q4": 34068, "Q5": 6042, "Q6": 230811},
}


class StepError(Exception):
    pass


# ------------------------------------------------------------ statistics

def tail_latency(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count), or None below 11 samples.
    The value is the 11th largest sample; its percentile is the share of
    samples at or below it.
    """
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover (overlapping children are counted once).

    `spans` is a list of dicts with id, parent, begin_us and end_us.
    Returns {id: self_us}.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        begin, end = span["begin_us"], span["end_us"]
        intervals = sorted(
            (max(begin, c["begin_us"]), min(end, c["end_us"]))
            for c in children.get(span["id"], []))
        covered, cur_begin, cur_end = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_begin
                cur_begin, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_begin
        result[span["id"]] = (end - begin) - covered
    return result


def name_pool(params, size, targets):
    """`size` firstNames from the generated graph's params.json whose work,
    summed, is closest to `size` times the per-name `targets`.

    The targets are absolute amounts of work per name, one per NameStats
    field: messages (Q1's answer; what Q2 expands from) and q3_rows (the
    rows Q3's replyOf* Expand starts from, which its time follows
    closely). The candidates are the 3 * size names closest to the
    targets in log scale; starting from the closest `size`, single swaps
    with the other candidates bring the summed work nearer the summed
    targets until none does. So LDBC's parameter curation picks
    substitution parameters: every seed's graph gets other names, with
    about the same amount of work behind them.
    """
    names = params["first_names"]
    if len(names) < 3 * size:
        raise StepError("fewer than %d firstNames" % (3 * size))

    def distance(n):
        return sum(abs(math.log(max(n[k], 1) / t)) for k, t in targets.items())

    def miss(pool):
        return sum(abs(sum(n[k] for n in pool) / (size * t) - 1)
                   for k, t in targets.items())

    candidates = sorted(names, key=lambda n: (distance(n), n["name"]))
    candidates = candidates[:3 * size]
    pool = candidates[:size]
    while True:
        best = min((miss(pool[:i] + [c] + pool[i + 1:]), i, j)
                   for i in range(size)
                   for j, c in enumerate(candidates) if c not in pool)
        if best[0] >= miss(pool):
            return [n["name"] for n in pool]
        pool[best[1]] = candidates[best[2]]


def instances(workload, params):
    """The query instances of one loop cycle, as "template[:name]"."""
    spec = WORKLOADS[workload]
    named = any(label in NAMED for label in spec["queries"])
    pool = (name_pool(params, spec["names"], spec["targets"]) if named
            else [None] * spec["names"])
    return [label + ":" + name if label in NAMED else label
            for name in pool for label in spec["queries"]]


def references(workload, seed, cycle, untimed, other):
    """Reference match count per query instance, or a reason it has none.

    Seed-42 counts are pinned; any other seed takes the untimed counts when
    the other engine's (`other`) agree with them.
    """
    pinned = PINNED.get((workload, seed))
    if pinned is not None:
        missing = [q for q in cycle if q not in pinned]
        if missing:
            return None, "no pinned reference for %s" % ", ".join(missing)
        return [pinned[q] for q in cycle], None
    if other is None:
        return None, "no pinned references and no cross-check"
    if other != untimed or min(other) < 0:
        return None, "engines disagree: %s vs %s" % (untimed, other)
    return list(other), None


def check_counts(counts, reference):
    """(attempted, failed) of (instance index, count) pairs. A failed call
    reports count -1 and so never matches."""
    failed = sum(1 for inst, count in counts
                 if reference is None or count != reference[inst])
    return len(counts), failed


def end_to_end(raw, labels, reference):
    """The end-to-end metrics of one untraced run, plus wall-clock and
    per-template detail for the table. `labels` are the templates in loop
    order; raw["queries"] gives the template of each instance.

    Times are process CPU time (all threads): on a shared virtual machine
    the wall time of the same work follows the neighbours' load (time
    stolen by the hypervisor), the CPU time does not.
    """
    samples = raw["samples"]
    attempted, failed = check_counts(
        [(inst, count) for inst, _, _, count in samples], reference)

    def wall_p50_ms(label):
        mine = [s for inst, s, _, _ in samples if raw["queries"][inst] == label]
        return 1e3 * median(mine) if mine else None

    # Per query instance the median CPU time of its calls; a template's
    # (or the whole mix's) figure is the mean over its instances, so every
    # parameter counts once however many calls the run made.
    instance_ms = {}
    for inst, _, cpu, _ in samples:
        instance_ms.setdefault(inst, []).append(1e3 * cpu)

    def cpu_ms(label=None):
        mine = [median(v) for inst, v in instance_ms.items()
                if label in (None, raw["queries"][inst])]
        return sum(mine) / len(mine) if mine else None

    tail = tail_latency([s for _, s, _, _ in samples])
    metrics = {
        "setup_s": median(raw["setup_cpu_s"]),
        "cpu_ms_per_query": cpu_ms(),
        "q_first_cpu_ms": cpu_ms(labels[0]),
        "q_last_cpu_ms": cpu_ms(labels[-1]),
        "setup_rss_mb": raw["setup_peak_rss_bytes"] / 2.0 ** 20,
    }
    detail = {
        "setup_wall_s": median(raw["setup_s"]),
        "qps": (attempted - failed) / raw["loop_s"],
        "cpu_ms": {label: cpu_ms(label) for label in labels},
        "p50_ms": {label: wall_p50_ms(label) for label in labels},
        "peak_rss_mb": raw["peak_rss_bytes"] / 2.0 ** 20,
        "latency_tail_ms": 1e3 * tail[0] if tail else None,
        "error_rate": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "tail_percentile": tail[1] if tail else None,
        "samples": tail[2] if tail else len(samples),
    }
    return metrics, detail


def per_layer(raw, spans, labels, reference, generate_s):
    """The per-layer metrics of one traced run, plus per-template detail."""
    traced = raw["traced"]
    n = len(traced)
    own = self_times(spans)

    def span_values(name, query_spans):
        return [own[s["id"]] for s in spans
                if s["name"] == name and (s["query"] >= 0) == query_spans]

    def per_query_us(name):
        return sum(span_values(name, True)) / n

    def total(key):
        return sum(q.get(key, 0) for q in traced)

    def counter(name):
        return sum(q["counters"].get(name, 0) for q in traced)

    def op_self_ms(group):
        return 1e3 * sum(q["op_self_s"].get(group, 0.0) for q in traced) / n

    execute_us = sum(s["end_us"] - s["begin_us"] for s in spans
                     if s["name"] == "exec.execute")
    matches = total("count")
    batches = counter("batch.count")
    untraced_qps = len(raw["samples"]) / raw["loop_s"]
    traced_qps = n / raw["traced_loop_s"]
    metrics = {
        "ldbc.generate_s": generate_s,
        "epgm.csv_load_s": median(span_values("epgm.csv_load", False)) / 1e6,
        "epgm.index_build_s":
            median(span_values("epgm.index_build", False)) / 1e6,
        "query.stats_compute_s":
            median(span_values("query.stats_compute", False)) / 1e6,
        "cypher.parse_us": per_query_us("cypher.parse"),
        "analysis.analyze_us": per_query_us("analysis.analyze"),
        "query.plan_us": per_query_us("query.plan"),
        "exec.compile_us": per_query_us("exec.compile"),
        "exec.execute_ms": execute_us / n / 1e3,
        "query.batches_to_rows_ms":
            per_query_us("query.batches_to_rows") / 1e3,
        "op.scan.self_ms": op_self_ms("scan"),
        "op.expand.self_ms": op_self_ms("expand"),
        "op.join.self_ms": op_self_ms("join"),
        "op.filter.self_ms": op_self_ms("filter"),
        "dataflow.shuffle.count": counter("shuffle.count") / n,
        "dataflow.shuffle.bytes": counter("shuffle.bytes") / n,
        "dataflow.shuffle.elided_bytes": counter("shuffle.elided.bytes") / n,
        "dataflow.spill_bytes": counter("spill.bytes") / n,
        "pool.utilization": total("worker_busy_s") * 1e6 /
            (execute_us * raw["host_threads"]),
        "pool.imbalance": total("imbalance") / n,
        "rows.intermediate": total("rows") / n,
        "rows.per_match": total("rows") / max(matches, 1),
        "plan.qerror.max": max(q["max_qerror"] for q in traced),
        "sim_s": total("sim_s") / n,
        "dataflow.records": total("records") / n,
        "mem.peak_bytes": max(q["peak_bytes"] for q in traced),
        "batch.count": batches / n,
        "batch.selectivity": counter("batch.rows") /
            (batches * raw["batch_size"]) if batches else 0.0,
        "trace.overhead": traced_qps / untraced_qps,
    }
    # Per template: mean execute wall and operator self times.
    rows = []
    exec_by_query = {s["query"]: s["end_us"] - s["begin_us"] for s in spans
                     if s["name"] == "exec.execute"}
    for label in labels:
        mine = [(qid, q) for qid, q in enumerate(traced)
                if raw["queries"][q["tmpl"]] == label]
        k = max(len(mine), 1)
        row = {"query": label, "n": len(mine),
               "execute_ms": sum(exec_by_query[qid] for qid, _ in mine) / k /
               1e3}
        for group in ("scan", "expand", "join", "filter"):
            row[group + "_ms"] = 1e3 * sum(
                q["op_self_s"].get(group, 0.0) for _, q in mine) / k
        rows.append(row)
    attempted, failed = check_counts(
        [(q["tmpl"], q["count"]) for q in traced], reference)
    untimed_ok = all(q["count"] == raw["untimed"][q["tmpl"]] for q in traced)
    return metrics, {"templates": rows, "attempted": attempted,
                     "failed": failed, "traced_matches_untimed": untimed_ok}


# ------------------------------------------------------------------ steps

def step(cmd, log_path, timeout=STEP_TIMEOUT_S):
    """Runs one subprocess to completion, output to `log_path`; raises
    StepError on failure. The step runs in its own process group, so a
    timeout also stops the processes it started (compilers under cmake)."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if code != 0:
        with open(log_path) as log:
            detail = "".join(log.readlines()[-30:])
        raise StepError("%s failed (exit %d)\n%s" % (
            os.path.basename(cmd[0]), code, detail))


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(WORK, "build.log")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             log, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "-j", jobs, "--target",
          "gradoop_perfbench"], log, timeout=880)


# Sources that decide what a generated graph directory holds; the graph
# cache is keyed by their contents.
GENERATOR_SOURCES = ["perfbench/gradoop_perfbench.cc", "src/ldbc",
                     "src/common/random.cc", "src/epgm/csv_io.cc"]


def generator_digest():
    digest = hashlib.sha256()
    for source in GENERATOR_SOURCES:
        path = os.path.join(ROOT, source)
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        for name in files:
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:12]


def graph_for(binary, sf, seed, fresh):
    """Directory of the generated graph for (sf, seed) and its
    params.json. `fresh` regenerates even when cached, so the generation
    time is measured in this run."""
    os.makedirs(GRAPHS, exist_ok=True)
    target = os.path.join(GRAPHS, "sf%s-seed%d-%s" % (sf, seed,
                                                      generator_digest()))
    params_path = os.path.join(target, "params.json")
    if fresh or not os.path.exists(params_path):
        tmp = target + ".tmp%d" % os.getpid()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            step([binary, "generate", "--sf", str(sf), "--seed", str(seed),
                  "--out", tmp], os.path.join(WORK, "generate.log"))
            shutil.rmtree(target, ignore_errors=True)
            os.rename(tmp, target)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(target)
    cached = sorted((os.path.join(GRAPHS, d) for d in os.listdir(GRAPHS)),
                    key=os.path.getmtime)
    for old in cached[:-MAX_CACHED_GRAPHS]:
        shutil.rmtree(old, ignore_errors=True)
    with open(params_path) as f:
        return target, json.load(f)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the record run.py prints and saves."""
    spec = WORKLOADS[workload]
    labels = spec["queries"]
    graph_dir, params = graph_for(binary, spec["sf"], seed, fresh=trace)
    cycle = instances(workload, params)
    os.makedirs(RUNS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    out = os.path.join(RUNS, tag + ".json")
    cmd = [binary, "run", "--graph", graph_dir, "--engine", spec["engine"],
           "--queries", ",".join(cycle),
           # A traced run splits its time between the untraced and the
           # traced loop.
           "--seconds", str(seconds / 2 if trace else seconds),
           "--min-queries", str(MIN_QUERIES),
           "--setup-reps", str(spec["setup_reps"]), "--out", out]
    # Without pinned references the other engine runs the untimed pass in
    # a process of its own, so the measured process's peak RSS is the
    # workload's alone.
    other = None
    if (workload, seed) not in PINNED:
        other_out = os.path.join(RUNS, tag + ".other-engine.json")
        step([binary, "run", "--graph", graph_dir, "--engine",
              "row" if spec["engine"] == "batch" else "batch",
              "--queries", ",".join(cycle), "--seconds", "0",
              "--min-queries", "0", "--setup-reps", "1", "--out", other_out],
             os.path.join(RUNS, tag + ".other-engine.log"))
        with open(other_out) as f:
            other = json.load(f)["untimed"]
    spans_path = None
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        spans_path = os.path.join(TRACES, tag + ".spans.jsonl")
        cmd += ["--trace", "--spans", spans_path]
    step(cmd, os.path.join(RUNS, tag + ".log"))
    with open(out) as f:
        raw = json.load(f)

    reference, problem = references(workload, seed, cycle, raw["untimed"],
                                    other)
    if reference is not None and raw["untimed"] != reference:
        problem = "untimed counts %s differ from reference %s" % (
            raw["untimed"], reference)
    metrics, detail = end_to_end(raw, labels, reference)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "sf": spec["sf"], "engine": spec["engine"], "labels": labels,
              "names": sorted({q.split(":")[1] for q in cycle if ":" in q}),
              "instances": cycle,
              "reference": reference, "untimed": raw["untimed"],
              "problem": problem, "detail": detail}
    attempted, failed = detail["attempted"], detail["failed"]
    if trace:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        layer, layer_detail = per_layer(raw, spans, labels, reference,
                                        params["generate_s"])
        record["layer_detail"] = layer_detail
        record["spans"] = os.path.relpath(spans_path, ROOT)
        attempted += layer_detail["attempted"]
        failed += layer_detail["failed"]
        if not layer_detail["traced_matches_untimed"] and problem is None:
            record["problem"] = "traced counts differ from untimed counts"
        metrics = layer
    if any(v is None for v in metrics.values()):
        record["problem"] = record["problem"] or "a metric has no samples"
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    record["correct"] = failed == 0 and record["problem"] is None
    return record


# ----------------------------------------------------------------- output

def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def print_table(record, declared):
    w = record["workload"]
    names = ", ".join(record["names"])
    print("workload %s  sf=%s engine=%s seed=%d trace=%d%s" % (
        w, record["sf"], record["engine"], record["seed"], record["trace"],
        "  firstName " + names if names else ""))
    print("  %-30s %16s  %s" % ("metric", "value", "unit"))
    for m in declared:
        value = record["metrics"].get(m["name"])
        print("  %-30s %16s  %s" % (
            m["name"], "n/a" if value is None else "%.6g" % value, m["unit"]))
    d = record["detail"]
    labels = record["labels"]
    if not record["trace"]:
        print("  wall clock:")
        print("  %-30s %16.6g  s" % ("setup_wall_s", d["setup_wall_s"]))
        print("  %-30s %16.6g  1/s" % ("qps", d["qps"]))
        for label in labels:
            for key, suffix in (("cpu_ms", "_cpu_ms"), ("p50_ms", "_p50_ms")):
                v = d[key][label]
                print("  %-30s %16s  ms" % (label.lower() + suffix,
                                            "n/a" if v is None else "%.6g" % v))
        print("  %-30s %16.6g  MB" % ("peak_rss_mb", d["peak_rss_mb"]))
        tail = d["latency_tail_ms"]
        print("  %-30s %16s  ms (p%s of %d samples, 10 beyond)" % (
            "latency_tail_ms", "n/a" if tail is None else "%.6g" % tail,
            "%.1f" % d["tail_percentile"] if tail else "?", d["samples"]))
        print("  %-30s %16s  ratio (%d failed / %d attempted)" % (
            "error_rate", "%.6g" % d["error_rate"], d["failed"],
            d["attempted"]))
        print("  q_first_cpu_ms = %s_cpu_ms, q_last_cpu_ms = %s_cpu_ms" % (
            labels[0].lower(), labels[-1].lower()))
    else:
        print("  per template (means per query):")
        print("    %-6s %5s %12s %10s %10s %10s %10s" % (
            "query", "n", "execute_ms", "scan_ms", "expand_ms", "join_ms",
            "filter_ms"))
        for row in record["layer_detail"]["templates"]:
            print("    %-6s %5d %12.3f %10.3f %10.3f %10.3f %10.3f" % (
                row["query"], row["n"], row["execute_ms"], row["scan_ms"],
                row["expand_ms"], row["join_ms"], row["filter_ms"]))
        print("  spans: %s" % record["spans"])
    print("  counts: untimed %s, reference %s%s" % (
        record["untimed"], record["reference"],
        "" if record["problem"] is None else "  PROBLEM: " + record["problem"]))


def result_line(record, declared):
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record (JSON line) "
                        "to this file, for compare.py")
    args = parser.parse_args(argv)
    try:
        declared = declared_metrics(args.trace)
        build()
        record = run_workload(BINARY, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (StepError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print_table(record, declared)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    if any(record["metrics"].get(m["name"]) is None for m in declared):
        print("perfbench: %s" % record["problem"], file=sys.stderr)
        return 1
    print(result_line(record, declared))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
