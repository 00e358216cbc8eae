#!/usr/bin/env python3
"""Steadiness mode: runs each workload repeatedly, one process per run,
with idle gaps before some runs, and prints per-metric median, IQR,
min and max, plus the host facts the numbers depend on.

    python3 svcbench/steady.py                      # every workload, 10 runs
    python3 svcbench/steady.py --workloads mixed_lazy_64 --runs 5 --gap-every 0

Each run gets its own seed (--seed-base + run index). The spread is the
distance between the first and third quartile of the runs'
values (statistics.quantiles(values, n=4)) as a share of their median,
the figure BENCHMARK.json's bounds are checked against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
COMMAND = SPEC["command"]


def host_facts():
    out = subprocess.run(COMMAND + ["--host-facts"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    facts = json.loads(out.strip().splitlines()[-1])
    facts["nproc"] = len(os.sched_getaffinity(0))
    facts["online_cpus"] = os.cpu_count()
    return facts


def run_once(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(COMMAND + args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "iqr_share": (q3 - q1) / med if med else float("nan"),
            "min": min(values), "max": max(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--gap", type=float, default=10.0,
                        help="idle seconds before a gapped run")
    parser.add_argument("--gap-every", type=int, default=3,
                        help="idle gap before every n-th run (0: never)")
    args = parser.parse_args()
    limits = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"]

    facts = host_facts()
    print(f"host: {json.dumps(facts)}", flush=True)
    report = {"host": facts, "runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        samples = {}
        units = {}
        for i in range(args.runs):
            gapped = args.gap_every > 0 and i % args.gap_every == 0
            if gapped:
                time.sleep(args.gap)
            seed = args.seed_base + i
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"  {workload} seed {seed}{' (after idle gap)' if gapped else ''}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = {}
        print(f"{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<40} {'median':>14} {'IQR/med':>8} {'min':>14} {'max':>14}  bound")
        for name, values in samples.items():
            row = summarize(values)
            rows[name] = dict(row, unit=units[name], values=values)
            bound = limits.get(name)
            flag = ""
            if bound is not None:
                flag = "  OVER BOUND" if row["iqr_share"] > bound else (
                    "  over a third" if row["iqr_share"] > bound / 3 else "")
            print(f"  {name:<40} {row['median']:>14.6g} {row['iqr_share']:>8.3f} "
                  f"{row['min']:>14.6g} {row['max']:>14.6g}  {bound if bound is not None else '-'}{flag}")
        report["workloads"][workload] = rows
    print(json.dumps(report))


if __name__ == "__main__":
    main()
