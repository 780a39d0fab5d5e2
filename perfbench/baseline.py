#!/usr/bin/env python3
"""Runs the benchmark repeatedly and records a baseline.

Run from the repository root:

  python3 perfbench/baseline.py [--runs 10] [--first-seed 1000]
                                [--workloads a,b,...] [--trace 0|1]
                                [--out perfbench/BASELINE.json]

For each workload it makes --runs invocations of the command in
BENCHMARK.json, each with its own seed and BENCHMARK.json's run_seconds.
For every metric it prints the median and the quartile spread,
(Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4), next to
the metric's bound; a spread at or above a third of the bound is marked
WIDE. With --out, the figures are merged into that JSON file together with
the machine context: nproc, the CPUs the benchmark ran on, load average
at start and end, build type, exec-pool size and git sha.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(bench, workload, seed, trace):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s\n%s" % (
            done.returncode, " ".join(command), done.stderr[-2000:]))
    result = json.loads(lines[-1])
    header = next((line.split() for line in lines
                   if line.startswith("hardware threads")), [])
    pool = {"exec_pool": header[-1] if header else "?",
            "cpus": header[header.index("cpus") + 1]
                    if "cpus" in header else "?"}
    print("  %s seed %d: %.1f s, attempted %d, failed %d" % (
        workload, seed, time.time() - started, result["attempted"],
        result["failed"]), flush=True)
    if not result["correct"] or result["failed"]:
        sys.exit("run reported wrong answers: " + " ".join(command))
    return result, pool


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    load_start = os.getloadavg()
    figures = {}
    pool = {}
    for workload in workloads:
        values = {}
        units = {}
        for seed in seeds:
            result, pool = run_once(bench, workload, seed, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        figures[workload] = {}
        for name in bounds:
            summary = summarize(values[name])
            summary["unit"] = units[name]
            bound = bounds[name]
            mark = ""
            if bound is not None:
                summary["bound"] = bound
                if name != "setup_s":
                    mark = "ok" if summary["spread"] < bound / 3 else "WIDE"
            figures[workload][name] = summary
            print("  %-16s %-36s median %-14.6g spread %.4f %s %s" % (
                workload, name, summary["median"], summary["spread"],
                "bound %.2f" % bound if bound is not None else "", mark))

    if args.out:
        path = os.path.join(ROOT, args.out)
        baseline = {}
        if os.path.isfile(path):
            with open(path) as f:
                baseline = json.load(f)
        section = "end_to_end" if args.trace == 0 else "per_layer"
        baseline.setdefault(section, {}).update(figures)
        baseline.setdefault("context", {})[section] = {
            "git_sha": git_sha(),
            "date": datetime.datetime.utcnow().strftime("%Y-%m-%dT%H:%MZ"),
            "nproc": os.cpu_count(),
            "loadavg_start": [round(x, 2) for x in load_start],
            "loadavg_end": [round(x, 2) for x in os.getloadavg()],
            "build_type": "RelWithDebInfo",
            "exec_pool": pool.get("exec_pool", "?"),
            "cpus": pool.get("cpus", "?"),
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
        }
        with open(path, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote " + path)


if __name__ == "__main__":
    main()
