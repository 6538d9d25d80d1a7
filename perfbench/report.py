#!/usr/bin/env python3
"""Tables for perfbench/README.md, made by running run.py.

    python3 perfbench/report.py spread WORKLOAD SEED...
        one untraced run per seed; prints each end-to-end metric's median,
        its quartile spread (Q3 - Q1, as statistics.quantiles gives them)
        as a share of the median, and its bound from BENCHMARK.json.

    python3 perfbench/report.py layers WORKLOAD SEED
        one traced run; prints where an op's time goes, layer by layer,
        with each share of the op's mean latency.

Run from the root of a source checkout.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: %d of %d ops failed"
                 % (workload, seed, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(workload, seeds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in seeds:
        for name, value in run(workload, seed, 0).items():
            values.setdefault(name, []).append(value)
    print("| %s | median | (Q3-Q1)/median | bound |" % workload)
    print("|---|---:|---:|---:|")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print("| %s | %.4g | %.3f | %.2f |"
              % (name, med, (q3 - q1) / med, bounds.get(name, float("nan"))))


def layers(workload, seed):
    m = run(workload, seed, 1)
    op = m["op.mean_ms"]
    rows = []
    if workload in ("paper_sweep", "long_rows"):
        if workload == "paper_sweep":
            rows.append(("mine (PrefixSpan, F(D) and F(D'))",
                         m["mine.prefixspan_ms"]))
        else:
            rows.append(("seq read (text parse)", m["seq.load_ms"]))
        for stage in ("count", "select", "mark", "verify", "other"):
            rows.append(("hide %s" % stage, m["hide.%s_ms" % stage]))
        if workload == "paper_sweep":
            rows.append(("eval self (db copy, M2/M3)", m["eval.self_ms"]))
        else:
            rows.append(("seq write", m["seq.write_ms"]))
    else:
        rows.append(("wire (client, socket, protocol)", m["serve.wire_us"] / 1e3))
        rows.append(("queue (admitted, not yet picked)",
                     m["serve.queue_us"] / 1e3))
        queries = m["serve.queries_per_op"]
        rows.append(("work, queries (batch wait + union pass + cache)",
                     m["serve.work_us"] * queries / 1e3))
        sanitizes = m["serve.sanitizes_per_op"]
        if sanitizes > 0:
            work = m["serve.sanitize_work_us"] * sanitizes / 1e3
            stages = 0.0
            for stage in ("count", "select", "mark", "verify", "other"):
                ms = m["hide.%s_ms" % stage]
                stages += ms
                rows.append(("work, sanitize: hide %s" % stage, ms))
            rows.append(("work, sanitize: db copy + output write", work - stages))
    accounted = sum(ms for _, ms in rows)
    rows.append(("not attributed", op - accounted))
    print("| %s, seed %d: layer | ms per op | share |" % (workload, seed))
    print("|---|---:|---:|")
    for name, ms in rows:
        print("| %s | %.3f | %.1f%% |" % (name, ms, 100.0 * ms / op))
    print("| **op mean** | %.3f | 100%% |" % op)
    print()
    print("trace.overhead_share %.3f; " % m["trace.overhead_share"] +
          ", ".join("%s %.4g" % (k, v) for k, v in sorted(m.items())
                    if k.startswith(("serve.", "match.", "seq.cand", "mine.",
                                     "hide.delta", "hide.marks"))
                    and v != 0))


def main():
    if len(sys.argv) < 4 or sys.argv[1] not in ("spread", "layers"):
        sys.exit(__doc__)
    if sys.argv[1] == "spread":
        spread(sys.argv[2], [int(s) for s in sys.argv[3:]])
    else:
        layers(sys.argv[2], int(sys.argv[3]))


if __name__ == "__main__":
    main()
