"""Command-line front end: JSON in/out for crossings, braids, and self tests.

Interchange conventions (also in the README): complex numbers are [re, im]
pairs of doubles; matrices are nested row-major lists with the row indexing
the input pair (n1, n2) and the column the output pair.  The only randomness,
in selftest, is controlled by --seed, so identical invocations produce
identical output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from .braidgrpd import (BraidWord, InadmissibleColoringError, build_diagram,
                        extend_log_coloring, jfunc_eval, log_longitudes,
                        propagate_chi, top_characters)
from .characters import WeylChar
from .qdilog import ConstraintViolationError, RootConfig
from .rmatrix import (REGIONS, CrossingData, PinchedCrossingError,
                      crossing_from_logs, crossing_zetas, det_lu, kashaev_rmat,
                      logdet_braiding, rmat, rmat_pinched)
from .selftest import run_all


def _cx(v) -> complex:
    """Parse a complex from [re, im], a number, or 'a+bj' strings."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, str):
        return complex(v.replace(" ", ""))
    raise ValueError(f"cannot parse complex value from {v!r}")


def _jx(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _jdet(det) -> list:
    """[re, im] of a determinant, or None (JSON null) where it is missing,
    zero or not finite."""
    return _jx(det) if det and cmath.isfinite(det) else None


def _jmat(M: np.ndarray) -> list:
    return np.stack([M.real, M.imag], -1).tolist()


def _emit(obj, code: int = 0) -> int:
    json.dump(obj, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return code


def _fail(msg: str, code: int, **extra) -> int:
    return _emit({"error": msg, **extra}, code)


def _load_spec(args):
    if args.input == "-":
        return json.load(sys.stdin)
    with open(args.input) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ selftest

def cmd_selftest(args) -> int:
    try:
        Ns = [int(x) for x in args.N.split(",")]
    except ValueError:
        return _fail(f"cannot parse --N {args.N!r}", 2)
    for N in Ns:
        if N < 2:
            return _fail(f"N must be >= 2, got {N}", 2)
    results = run_all(Ns=Ns, seed=args.seed, scale=args.scale)
    # a deviation that is not a finite number (NaN: never evaluated) is null
    checks = [{"identity": r.name, "suite": r.module, "N": r.N,
               "max_deviation": r.deviation if math.isfinite(r.deviation) else None,
               "tol": r.tol, "samples": r.samples, "passed": r.passed}
              for r in results]
    ok = all(r.passed for r in results)
    return _emit({"seed": args.seed, "N": Ns, "checks": checks,
                  "passed": ok}, 0 if ok else 1)


# ---------------------------------------------------------------------- rmat

def _crossing_from_spec(cfg: RootConfig, spec: dict) -> CrossingData:
    segs = spec["segments"]
    mus = [_cx(segs[k]["mu"]) for k in ("1", "2")]
    if any(abs(_cx(segs[k + "p"]["mu"]) - mu) > 1e-10 for k, mu in zip("12", mus)):
        raise ConstraintViolationError("meridian logs must be preserved")
    kappa = spec.get("kappa", "auto")
    c = crossing_from_logs(cfg, int(spec["sign"]),
                           [_cx(segs[k]["beta"]) for k in ("1", "2", "1p", "2p")], mus,
                           [_cx(spec["regions"][r]) for r in REGIONS],
                           None if kappa in (None, "auto") else _cx(kappa))
    # an explicit alpha must be the region difference the crossing derived
    for k, lc in (("1", c.lc1), ("2", c.lc2), ("2p", c.lc2p), ("1p", c.lc1p)):
        if "alpha" in segs[k] and abs(_cx(segs[k]["alpha"]) - lc.alpha) > 1e-8:
            raise ConstraintViolationError(f"segment alpha {_cx(segs[k]['alpha'])} "
                                           f"does not match region difference {lc.alpha}")
    return c


def cmd_rmat(args) -> int:
    cfg = RootConfig(args.N)
    if args.kashaev:
        t = kashaev_rmat(cfg)
        return _emit({"N": cfg.N, "kind": "kashaev", "pinched": True,
                      "entries": _jmat(t.entries)})
    try:
        spec = _load_spec(args)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read crossing spec: {exc}", 2)
    try:
        c = _crossing_from_spec(cfg, spec)
    except (KeyError, ValueError, ConstraintViolationError) as exc:
        return _fail(f"invalid crossing spec: {exc}", 2)
    out = {"N": cfg.N, "sign": c.sign, "pinched": c.pinched}
    if c.pinched and not args.pinched:
        z0 = c.zeta0()
        bad = {r: _jx(z0[r]) for r in "NWSE"
               if abs(z0[r] - round(z0[r].real)) < 1e-7}
        return _fail("crossing is pinched (zeta0 integral); pass --pinched "
                     "to evaluate the closed pinched form", 1,
                     integral_zeta0=bad)
    try:
        if c.pinched:
            t = rmat_pinched(c)
            out["zeta0"] = {r: _jx(v) for r, v in c.zeta0().items()}
        else:
            t = rmat(c)
            zs = crossing_zetas(c)
            out["zeta0"] = {r: _jx(f.zeta0) for r, f in zs.items()}
            out["zeta1"] = {r: _jx(f.zeta1) for r, f in zs.items()}
            out["kappa"] = _jx(c.resolved_kappa())
            B = t.braiding()
            logdet = logdet_braiding(c)
            try:
                det_closed = cmath.exp(logdet)
            except OverflowError:
                det_closed = None
            out["det_closed"] = _jdet(det_closed)
            with np.errstate(over="ignore", invalid="ignore"):  # null past the range
                out["det_lu"] = _jdet(det_lu(B))
            out["logdet_closed"] = _jx(logdet)
            sign, logabs = np.linalg.slogdet(B.as_operator())
            out["logdet_lu"] = _jx(logabs + 1j * np.angle(sign)) if sign else None
    except (PinchedCrossingError, ConstraintViolationError) as exc:
        return _fail(str(exc), 1)
    out["entries"] = _jmat(t.entries)
    return _emit(out)


# --------------------------------------------------------------- braid/color

def _braid_setup(spec):
    word = BraidWord(int(spec["width"]), tuple(spec["word"]))
    d = build_diagram(word)
    tops = [WeylChar(_cx(t["a"]), _cx(t["b"]), _cx(t["m"]))
            for t in spec["top_colors"]]
    return d, tops


def cmd_color(args) -> int:
    cfg = RootConfig(args.N)
    try:
        spec = _load_spec(args)
        d, tops = _braid_setup(spec)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return _fail(f"invalid braid spec: {exc}", 2)
    try:
        col = propagate_chi(d, tops)
    except InadmissibleColoringError as exc:
        return _fail(str(exc), 1, crossing=exc.crossing)
    return _emit({
        "N": cfg.N, "width": d.width, "word": list(d.word.letters),
        "segments": [{"a": _jx(c.a), "b": _jx(c.b), "m": _jx(c.m)}
                     for c in col.colors],
        "components": list(d.seg_component),
        "pinched_crossings": col.pinched_crossings,
        "bottom_segments": d.bottom_segments[1:],
    })


def cmd_braid(args) -> int:
    cfg = RootConfig(args.N)
    try:
        spec = _load_spec(args)
        d, tops = _braid_setup(spec)
        log = spec["log"]
        top_b = [_cx(v) for v in log["beta"]]
        top_g = [_cx(v) for v in log["gamma"]]
        mus = [_cx(v) for v in log["mu"]]
        chars = top_characters(d, top_b, top_g, mus)
        if len(tops) != d.width or not all(
                t.isclose(c) for t, c in zip(tops, chars)):
            raise ValueError("top_colors do not match the characters of log")
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return _fail(f"invalid braid spec: {exc}", 2)
    try:
        lc = extend_log_coloring(d, top_b, top_g, mus)
        mat = None if args.matrix_free else jfunc_eval(cfg, d, lc)
    except InadmissibleColoringError as exc:
        return _fail(str(exc), 1, crossing=exc.crossing)
    lam = log_longitudes(d, lc)
    out = {
        "N": cfg.N, "width": d.width, "word": list(d.word.letters),
        "beta": [_jx(complex(b)) for b in lc.beta],
        "gamma": [_jx(complex(g)) for g in lc.gamma],
        "mu": [_jx(complex(m)) for m in lc.mu],
        "log_longitudes": [_jx(complex(x)) for x in lam],
        "pinched_crossings": lc.pinched_crossings,
    }
    if mat is not None:
        # serialized with the same row = input convention as crossings
        out["entries"] = _jmat(mat.T)
    return _emit(out)


# ---------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="holorm",
        description="Holonomy R-matrices for quantum sl2 at a root of unity")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--N", type=int, default=3,
                        help="order of the root of unity (>= 2)")

    ps = sub.add_parser("selftest", help="run the identity battery")
    ps.add_argument("--N", type=str, default="2,3,5",
                    help="comma-separated list of orders")
    ps.add_argument("--scale", type=float, default=0.5,
                    help="trial-count multiplier")
    ps.add_argument("--seed", type=int, default=7)
    ps.set_defaults(fn=cmd_selftest)

    pr = sub.add_parser("rmat", help="R-matrix of one crossing")
    common(pr)
    pr.add_argument("--input", default="-", help="crossing JSON file or - for stdin")
    pr.add_argument("--kashaev", action="store_true",
                    help="emit the canned Kashaev matrix instead")
    pr.add_argument("--pinched", action="store_true",
                    help="allow pinched crossings (closed pinched form)")
    pr.set_defaults(fn=cmd_rmat)

    pb = sub.add_parser("braid", help="state-sum of a log-colored braid word")
    common(pb)
    pb.add_argument("--input", default="-")
    pb.add_argument("--matrix-free", action="store_true",
                    help="emit coloring metadata only; skip the state sum")
    pb.set_defaults(fn=cmd_braid)

    pc = sub.add_parser("color", help="propagate a character coloring")
    common(pc)
    pc.add_argument("--input", default="-")
    pc.set_defaults(fn=cmd_color)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "N", None) is not None and isinstance(args.N, int) and args.N < 2:
        return _fail(f"N must be >= 2, got {args.N}", 2)
    try:
        return args.fn(args)
    except ValueError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
