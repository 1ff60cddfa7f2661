"""Paired benchmark runs of two checkouts, summarised as a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload relations:1-10 --workload mutation-cohomology:1-6 \\
        --seconds 60 --parent-commit SHA --claimed relations:wall_s \\
        --traced-seed 21 --description TEXT --out BENCH_name.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds N --trace 0`
in the parent checkout and in the change checkout, one after the other, on
the same seed: odd seeds run the parent first, even seeds the change first.
Only one run is ever in flight. For every end-to-end metric of
BENCHMARK.json the file records the runs, their median and inclusive
quartiles, the number of pairs in which the change was better, the relative
change of the median, whether the gap between the medians exceeds the
parent's interquartile range, and whether a worse median stays inside the
metric's bound. With --traced-seed, each workload also runs once per side
with --trace 1 on that seed, parent first, and the file records every
per-layer metric of those two runs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(runs):
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def compare(spec, parent_runs, change_runs):
    lower = spec["better"] == "lower"
    parent, change = summary(parent_runs), summary(change_runs)
    rel = (change["median"] - parent["median"]) / parent["median"]
    worse = rel if lower else -rel
    return {
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "change_better_in_pairs": sum(
            (c < p) if lower else (c > p)
            for p, c in zip(parent_runs, change_runs)),
        "relative_change_of_median": rel,
        "median_gap_exceeds_parent_iqr":
            abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        "within_bound": worse <= spec["bound"],
    }


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append", required=True,
                    metavar="NAME:SEEDS")
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--claimed", metavar="WORKLOAD:METRIC")
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--description", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    doc = {
        "change": args.description,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed>"
                   f" --seconds {args.seconds} --trace 0",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "os": f"{platform.system()} {platform.machine()}"},
        "parent_commit": args.parent_commit,
        "procedure": "each pair runs the parent and the change on the same seed, "
                     "one after the other, from two checkouts of identical "
                     "benchmark code; odd seeds run the parent first, even seeds "
                     "the change first; quartiles are inclusive",
        "workloads": {},
    }
    if args.claimed:
        workload, metric = args.claimed.split(":")
        doc["claimed"] = {"metric": metric, "workload": workload}
    for item in args.workload:
        workload, seeds = item.split(":")
        seeds = seed_range(seeds)
        results = {"parent": [], "change": []}
        for seed in seeds:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                results[side].append(run_once(checkout, workload, seed,
                                              args.seconds))
                print(workload, seed, side,
                      results[side][-1]["metrics"]["wall_s"]["value"],
                      file=sys.stderr, flush=True)
        doc["workloads"][workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "failed": {side + suffix: [r[key] for r in results[side]]
                       for side in ("parent", "change")
                       for suffix, key in (("", "failed"),
                                           ("_attempted", "attempted"))},
            "metrics": {spec["name"]: compare(
                spec, [r["metrics"][spec["name"]]["value"] for r in results["parent"]],
                [r["metrics"][spec["name"]]["value"] for r in results["change"]])
                for spec in specs},
        }
        if args.traced_seed is not None:
            doc["workloads"][workload]["traced"] = {"seed": args.traced_seed, **{
                side: {name: m["value"] for name, m in run_once(
                    checkout, workload, args.traced_seed, args.seconds,
                    trace=1)["metrics"].items()}
                for side, checkout in (("parent", args.parent),
                                       ("change", args.change))}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
