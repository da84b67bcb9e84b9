#!/usr/bin/env python3
"""Steadiness report: runs every workload in two interleaved sets of seeds.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads opt-ml,serve]
                                [--seed-base 1] [--out records.jsonl]

Set A uses seeds base..base+runs-1 and set B the next `runs` seeds; runs
alternate A, B per seed index and workload.  For each end-to-end metric it
prints, per set, the median, the quartiles and the number of runs, the
quartile spread as a share of the median, and how much set B's median is
worse than set A's; both are compared against the metric's bound in
BENCHMARK.json.  Every run's record (nproc, thread counts, build type, seed,
per-metric sample counts) is written to --out when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    record["result"] = result
    return record


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    records = []
    out = open(args.out, "w") if args.out else None
    for i in range(args.runs):
        for w in workloads:
            for s, seed in (("A", args.seed_base + i), ("B", args.seed_base + args.runs + i)):
                rec = run_once(w, seed, args.seconds)
                rec["set"] = s
                records.append(rec)
                if out:
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                res = rec["result"]
                print("%s set %s seed %d: correct=%s attempted=%d failed=%d" %
                      (w, s, seed, res["correct"], res["attempted"], res["failed"]),
                      file=sys.stderr)

    first = records[0]["record"]
    print("nproc=%s threads=%s build=%s seconds=%s runs/set=%d" %
          (first["nproc"], first["threads"], first["build_type"], args.seconds, args.runs))
    ok = True
    for w in workloads:
        recs = [r for r in records if r["record"]["workload"] == w]
        bad = [r for r in recs if not r["result"]["correct"] or r["result"]["failed"]]
        print("\n== %s  (%d runs, %d incorrect or with failures)" % (w, len(recs), len(bad)))
        print("%-18s %12s %12s %12s %4s %8s %12s %8s %7s" %
              ("metric", "median_A", "q1_A", "q3_A", "n", "iqr/med", "median_B", "B-vs-A", "bound"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in recs if r["set"] == s]
                per_set[s] = summary(vals)
            med_a, q1_a, q3_a = per_set["A"]
            med_b = per_set["B"][0]
            spread = max((q3 - q1) / med for med, q1, q3 in per_set.values())
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag += " SPREAD"
            if worse > bound:
                flag += " GAP"
            ok = ok and not flag
            print("%-18s %12.6g %12.6g %12.6g %4d %7.2f%% %12.6g %+7.2f%% %6.0f%%%s" %
                  (name, med_a, q1_a, q3_a, args.runs, 100 * spread, med_b, 100 * worse,
                   100 * bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
