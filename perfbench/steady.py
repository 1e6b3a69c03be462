#!/usr/bin/env python3
"""Check that the benchmark is steady and deterministic.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--determinism] [--overhead]

For each workload, runs the benchmark once per seed (untraced) and
prints, for every end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged (setup_s is reported
but not gated).

--determinism runs the first seed a second time and requires every
"counter" line to match exactly.  --overhead runs the first seed traced
and prints traced minus untraced for each end-to-end metric.  Exits 1
when a check fails.  Run from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    counters = [l for l in lines if l.startswith("counter ")]
    traced = {l.split()[1]: float(l.split()[2]) for l in lines if l.startswith("traced ")}
    return result, counters, traced


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    ok = True
    for w in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run(w, s, args.seconds, 0) for s in seeds]
        for r, _, _ in runs:
            if not r["correct"] or r["failed"] != 0 or set(r["metrics"]) != set(bounds):
                print(f"{w}: incorrect run or wrong metric names: {r}")
                ok = False
        print(f"== {w}: {len(runs)} seeds from {args.first_seed}, {args.seconds} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _, _ in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            print(f"  {name:18s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:6.3f}  bound {bound}{flag}")
            print("    values " + " ".join(f"{v:.4g}" for v in values))
        if args.determinism:
            _, again, _ = run(w, args.first_seed, args.seconds, 0)
            diff = [(a, b) for a, b in zip(runs[0][1], again) if a != b]
            if diff or len(again) != len(runs[0][1]):
                print(f"  counters drift on seed {args.first_seed}: {diff}")
                ok = False
            else:
                print(f"  {len(again)} counters identical across two runs of seed {args.first_seed}")
        if args.overhead:
            layered, _, traced = run(w, args.first_seed, args.seconds, 1)
            if not layered["correct"] or set(layered["metrics"]) != per_layer:
                print(f"  traced run incorrect or its metrics differ from per_layer: {layered}")
                ok = False
            base = runs[0][0]["metrics"]
            for name in bounds:
                b = base[name]["value"]
                print(f"  tracing overhead {name:18s} untraced {b:12.6g}  traced {traced[name]:12.6g}"
                      f"  ({(traced[name] - b) / b:+.1%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
