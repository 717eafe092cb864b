#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect the results in one file.

    python3 perfbench/sweep.py --runs 10 --out results.jsonl
    python3 perfbench/sweep.py --workloads crossing --seeds 1,2,3 --trace 1 --out t.jsonl

Each run is ``perfbench/run.py`` in its own process, exactly as a single
benchmark run; its result line, with the run's settings, is appended to
``--out``.  Settings default to those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10, help="seeds 1..runs")
    p.add_argument("--seeds", help="comma-separated seeds (overrides --runs)")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    status = 0
    for workload in args.workloads.split(","):
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", os.path.abspath(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()[-300:]]
            print(f"{workload} seed={seed} exit={proc.returncode} {last[0]}", flush=True)
            status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
