#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each metric is.

    python3 benchmark/calibrate.py [--seeds 1-10] [--workloads a,b]
                                   [--sets N] [--trace 0|1] [--out FILE]

Runs `bash benchmark/run.sh` once per (seed, workload), seed by seed,
so that the workloads interleave and a slow spell of the host falls on
all of them. A seed may repeat: `--seeds 1x10` is ten runs of seed 1.
Every run must be correct (its digest included).

For every metric it prints the median over the runs, the quartile
spread (Q3 - Q1) / median with the quartiles of
statistics.quantiles(n=4), the range (max - min) / median, and the
bound from BENCHMARK.json. An end-to-end metric is steady when its
spread is below a third of its bound. With --sets N the runs of each
workload are dealt round-robin into N interleaved sets, and it also
prints each set's median and how much worse the worst set's median is
than the first's, in the metric's "better" direction. --out writes the
same numbers, the runs' digests and the host snapshot as JSON. Run
from the root of a checkout; --seconds defaults to run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "x" in part:
            seed, _, times = part.partition("x")
            seeds.extend([int(seed)] * int(times))
        else:
            lo, _, hi = part.partition("-")
            seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    digest = next(l.split()[2] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digest


def spread(vs):
    med = statistics.median(vs)
    if len(vs) < 2 or med == 0:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return med, (q3 - q1) / med, (max(vs) - min(vs)) / med


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    runs = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads:
            result, digest = run_once(w, seed, args.seconds, args.trace)
            runs[w].append({"seed": seed, "digest": digest,
                            "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
        print(f"# run {i + 1}/{len(seeds)} (seed {seed}) done", file=sys.stderr, flush=True)

    summary = {}
    print(f"{'workload':16} {'metric':30} {'median':>12} {'spread':>7} {'range':>7} "
          f"{'bound':>5} {'steady':>6}" + ("  set medians / worst" if args.sets > 1 else ""))
    for w in workloads:
        summary[w] = {}
        for name in runs[w][0]["metrics"]:
            vs = [r["metrics"][name] for r in runs[w]]
            med, iqr, rng = spread(vs)
            bound = meta.get(name, {}).get("bound")
            row = {"median": med, "spread": iqr, "range": rng, "bound": bound,
                   "values": vs}
            line = (f"{w:16} {name:30} {med:12.6g} {iqr:7.4f} {rng:7.4f} "
                    f"{bound if bound is not None else '-':>5} "
                    f"{('yes' if iqr < bound / 3 else 'NO') if bound else '-':>6}")
            if args.sets > 1:
                sets = [statistics.median(vs[k::args.sets]) for k in range(args.sets)]
                sign = -1 if meta.get(name, {}).get("better") == "higher" else 1
                worst = max(sign * (s - sets[0]) / sets[0] for s in sets) if sets[0] else 0.0
                row["set_medians"], row["worst_vs_first"] = sets, worst
                line += "  " + " ".join(f"{s:.6g}" for s in sets) + f" / {worst:+.4f}"
            summary[w][name] = row
            print(line)
    if args.out:
        host = json.load(open(f"results/BENCHMARK_{workloads[0]}_{seeds[-1]}.json"))["host"] \
            if args.trace == 0 else None
        json.dump({"seeds": seeds, "seconds": args.seconds, "sets": args.sets,
                   "host": host, "metrics": summary,
                   "digests": {w: [[r["seed"], r["digest"]] for r in runs[w]]
                               for w in workloads}},
                  open(args.out, "w"), indent=2)


if __name__ == "__main__":
    main()
