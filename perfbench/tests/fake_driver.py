#!/usr/bin/env python3
"""Stand-in for the gradoop_perfbench binary in run.py's tests.

`generate` sleeps FAKE_GENERATE_S seconds and writes a params.json;
`run` reports set-up taking FAKE_SETUP_S seconds (wall and CPU) and, for
the analytic
queries, the pinned seed-42 counts, with sample FAKE_WRONG_SAMPLE (if set)
off by one, and with Q4 off by one on the batch engine if
FAKE_BATCH_OFF_BY_ONE is set.
"""
import json
import os
import sys
import time

COUNTS = {"Q4": 34068, "Q5": 6042, "Q6": 230811}


def arg(name):
    return sys.argv[sys.argv.index("--" + name) + 1]


def generate():
    start = time.monotonic()
    time.sleep(float(os.environ.get("FAKE_GENERATE_S", "0")))
    os.makedirs(arg("out"))
    with open(os.path.join(arg("out"), "params.json"), "w") as f:
        json.dump({"generate_s": time.monotonic() - start,
                   "first_names": []}, f)


def run():
    labels = arg("queries").split(",")
    counts = [COUNTS[label] for label in labels]
    if os.environ.get("FAKE_BATCH_OFF_BY_ONE") and arg("engine") == "batch":
        counts[0] += 1
    setup = float(os.environ.get("FAKE_SETUP_S", "0.05"))
    samples = [[i % len(labels), 0.01 * (i % len(labels) + 1),
                0.02 * (i % len(labels) + 1), counts[i % len(labels)]]
               for i in range(30)]
    wrong = os.environ.get("FAKE_WRONG_SAMPLE")
    if wrong is not None:
        samples[int(wrong)][3] += 1
    raw = {"queries": labels, "setup_s": [setup] * 3,
           "setup_cpu_s": [setup] * 3, "untimed": counts,
           "loop_s": 0.6, "samples": samples, "setup_peak_rss_bytes": 2.0 ** 26,
           "peak_rss_bytes": 2.0 ** 27}
    if "--trace" in sys.argv:
        raw.update(traced_loop_s=0.75, host_threads=4, batch_size=1024)
        raw["traced"] = [
            {"tmpl": i % len(labels), "wall_s": 0.02, "count": counts[i % len(labels)],
             "op_self_s": {"scan": 0.004, "join": 0.01}, "rows": 1000,
             "max_qerror": 2.0,
             "counters": {"shuffle.count": 2, "shuffle.bytes": 4096},
             "worker_busy_s": 0.04, "imbalance": 1.2, "sim_s": 1.5,
             "records": 2000, "peak_bytes": 1 << 20} for i in range(30)]
        spans = []
        for name in ("epgm.csv_load", "epgm.index_build",
                     "query.stats_compute"):
            spans.append({"id": len(spans), "name": name, "begin_us": 0.0,
                          "end_us": 1e4, "parent": -1, "query": -1})
        for q in range(30):
            base = 1e5 * (q + 1)
            root = len(spans)
            spans.append({"id": root, "name": "query." + labels[q % len(labels)],
                          "begin_us": base, "end_us": base + 2e4,
                          "parent": -1, "query": q})
            for name, lo, hi in (("cypher.parse", 0, 100),
                                 ("exec.execute", 1000, 2e4)):
                spans.append({"id": len(spans), "name": name,
                              "begin_us": base + lo, "end_us": base + hi,
                              "parent": root, "query": q})
        with open(arg("spans"), "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    with open(arg("out"), "w") as f:
        json.dump(raw, f)


if __name__ == "__main__":
    {"generate": generate, "run": run}[sys.argv[1]]()
