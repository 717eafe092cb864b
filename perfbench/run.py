#!/usr/bin/env python3
"""Run one benchmark workload of holorm and print its metrics.

    python3 perfbench/run.py --workload statesum --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it carries the run's settings and any failure reasons.
``--out FILE`` also appends the result, with its settings, to a JSON-lines
file that ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("statesum", "crossing", "selftest")
SETUP_SAMPLES = 5          # set-ups per run (one here, the rest in children)
BLAS_THREADS_MAX = 2
CHILD_TIMEOUT_S = 60


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0))))


def setup(workload: str, seed: int, workdir: str, tracer=None):
    """Import holorm, make the seeded inputs and warm up; returns (wl, seconds).

    Warm-up pays the one-time costs a first call would otherwise carry: the
    BLAS thread pool and the Bernoulli table behind li2's u-expansion.
    """
    t0 = time.perf_counter()
    import numpy as np
    from holorm import qdilog
    import workloads
    cls = workloads.WORKLOADS[workload]
    cls.prepare()
    if tracer is not None:
        tracer.install()
    wl = cls(seed, workdir)
    a = np.ones((64, 64), dtype=complex)
    a @ a
    qdilog.li2(0.6 + 0.5j)
    return wl, time.perf_counter() - t0


def timed_rounds(wl, seconds: float, keep: bool) -> dict:
    """Whole rounds over wl.items until the next round would pass `seconds`."""
    from workloads import OpFailed
    walls, op_times, reasons = [], [], {}
    attempted = failed = 0
    cpu0, start = time.process_time(), time.perf_counter()
    while True:
        wall = 0.0
        for i, it in enumerate(wl.items):
            wl.op_times = []
            t = time.perf_counter()
            try:
                out, err = wl.op(it), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, exc
            dt = time.perf_counter() - t
            wall += dt
            n = wl.ops_per_item
            attempted += n
            if err is None:
                op_times.extend(wl.op_times or [dt])
                if keep:
                    wl.keep(i, it, out)
            else:
                k = err.n_failed if isinstance(err, OpFailed) else n
                failed += k
                why = f"{type(err).__name__}: {err}"[:300]
                reasons[why] = reasons.get(why, 0) + k
        walls.append(wall)
        keep = False
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return {"walls": walls, "op_times": op_times, "attempted": attempted,
            "failed": failed, "reasons": reasons,
            "cpu_per_round": (time.process_time() - cpu0) / len(walls)}


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run(args, workdir: str) -> tuple:
    """(result, info) for one run."""
    import tracing
    tracer = tracing.Tracer() if args.trace else None
    wl, setup_s = setup(args.workload, args.seed, workdir, tracer)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "blas_threads": blas_threads(),
            "items": len(wl.items), "ops_per_round": len(wl.items) * wl.ops_per_item}
    if tracer is None:
        # set-up samples before and after the timed pass, so that they see
        # the machine over the whole run rather than over a few seconds
        children = SETUP_SAMPLES - 1
        setups = [setup_s] + [setup_in_child(args.workload, args.seed)
                              for _ in range(children // 2)]
        r = timed_rounds(wl, args.seconds, keep=True)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [setup_in_child(args.workload, args.seed)
                   for _ in range(children - children // 2)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(r["walls"]), "s"),
            "op_p50_ms": (1e3 * statistics.median(r["op_times"]), "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        info.update(rounds=len(r["walls"]), walls=r["walls"], setup_samples=setups)
    else:
        import workloads
        touch_bytes = workloads.touch_every_layer(workdir)
        setup_spans = tracer.take()
        tracer.uninstall()
        plain = timed_rounds(wl, args.seconds / 2, keep=True)
        tracer.install()
        traced = timed_rounds(wl, args.seconds / 2, keep=False)
        tracer.uninstall()
        round_spans = tracer.take()
        n = len(traced["walls"])
        per_setup = tracing.span_metrics(setup_spans, 1)
        values = {k: v + per_setup[k]
                  for k, v in tracing.span_metrics(round_spans, n).items()}
        values["cli.output_bytes"] = touch_bytes + wl.output_bytes()
        values["process.cpu_s"] = plain["cpu_per_round"]
        values["trace.overhead_s"] = (statistics.median(traced["walls"])
                                      - statistics.median(plain["walls"]))
        units = dict(tracing.RUN_METRICS)
        metrics = {k: (v, units.get(k) or tracing.metric_unit(k)) for k, v in values.items()}
        r = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
        r["reasons"] = {**plain["reasons"], **traced["reasons"]}
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
        tracing.write_spans(spans_path, {"setup": setup_spans, "rounds": round_spans})
        info.update(rounds=[len(plain["walls"]), n], spans=os.path.relpath(spans_path, ROOT))
    results = wl.check()
    wrong = [f"{c.name}: {c.deviation:.3g} > {c.tol:.3g}" for c in results if not c.passed]
    info.update(checks=len(results), wrong=wrong[:20], failures=r["reasons"])
    result = {"correct": not wrong and len(results) > 0,
              "attempted": r["attempted"], "failed": r["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the result to this JSON-lines file")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "holorm", "__init__.py")):
        print(f"perfbench: no holorm sources under {SRC}", file=sys.stderr)
        return 2
    n = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    sys.path.insert(0, SRC)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            print(setup(args.workload, args.seed, workdir)[1])
            return 0
        result, info = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**info, **result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
