#!/usr/bin/env python3
"""Compare two result files of the benchmark; it reports and gates nothing.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RESULTS.jsonl        # one file: medians and spreads

A result file holds one JSON object per line, as written by
``run.py --out`` or ``sweep.py``.  For each workload and metric this prints
the median of each file with its run count, the ratio NEW/BASE with the
base it is taken over, and each file's quartile spread: (Q3 - Q1) / median
over its runs, quartiles as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path: str) -> dict:
    """{(workload, trace): {"metrics": {name: (unit, [values])}, "failed": [...]}}"""
    groups = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            r = json.loads(line)
            g = groups.setdefault((r["workload"], r.get("trace", 0)),
                                  {"metrics": {}, "failed": [], "correct": []})
            g["failed"].append((r["failed"], r["attempted"]))
            g["correct"].append(r["correct"])
            for name, m in r["metrics"].items():
                g["metrics"].setdefault(name, (m["unit"], []))[1].append(m["value"])
    return groups


def summary(values: list) -> tuple:
    """(median, spread) with spread = IQR / median (None below 2 runs)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / abs(med) if med else float("inf"))


def fmt(x) -> str:
    return "-" if x is None else f"{x:.4g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    args = p.parse_args(argv)
    base = load(args.base)
    new = load(args.new) if args.new else {}
    keys = sorted(set(base) | set(new))
    for key in keys:
        b, n = base.get(key), new.get(key)
        print(f"== {key[0]} (trace {key[1]})")
        for label, g in (("base", b), ("new", n)):
            if g:
                shares = sorted({f"{f}/{a}" for f, a in g["failed"]})
                print(f"   {label}: {len(g['correct'])} runs, all correct: "
                      f"{all(g['correct'])}, failed/attempted: {', '.join(shares)}")
        names = list((b or n)["metrics"])
        if n:
            names += [m for m in n["metrics"] if m not in names]
        head = f"   {'metric':34s} {'unit':6s} {'base med':>11s} {'spread':>7s}"
        if n:
            head += f" {'new med':>11s} {'spread':>7s} {'new/base':>9s}"
        print(head)
        for name in names:
            unit, bv = (b or {"metrics": {}})["metrics"].get(name, ("", []))
            line = f"   {name:34s} {unit:6s}"
            bm, bs = summary(bv) if bv else (None, None)
            line += f" {fmt(bm):>11s} {fmt(bs):>7s}"
            if n:
                unit_n, nv = n["metrics"].get(name, (unit, []))
                nm, ns = summary(nv) if nv else (None, None)
                ratio = (f"{nm / bm:.3f}" if bm and nm is not None else "-")
                line += f" {fmt(nm):>11s} {fmt(ns):>7s} {ratio:>9s}"
            print(line)
        if n:
            print(f"   (new/base: NEW median over BASE median of {args.base})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
