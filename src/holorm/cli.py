"""Command-line front end: JSON in/out for crossings, braids, and self tests.

Interchange conventions (also in the README): complex numbers are [re, im]
pairs of doubles; matrices are nested row-major lists with the row indexing
the input pair (n1, n2) and the column the output pair.  The only randomness,
in selftest, is controlled by --seed, so identical invocations produce
identical output.

Failures: a spec or option that cannot be read as the command's input
(MalformedInput) exits 2; a library error raised while evaluating
well-formed input (DOMAIN_ERRORS), or an allocation that fails
(MemoryError, such as a dense state sum too large for the machine),
exits 1.
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
from .qdilog import (ConstraintViolationError, RootConfig,
                     SingularArgumentError)
from .rmatrix import (ALPHA_TOL, MERIDIAN_TOL, REGIONS, CrossingData,
                      PinchedCrossingError, crossing_from_logs, det_lu,
                      kashaev_rmat, logdet_braiding, rmat, rmat_pinched)
from .selftest import run_all

# well-formed data outside the domain: inadmissible, pinched, at a
# dilogarithm pole, or off a flattening constraint
DOMAIN_ERRORS = (ConstraintViolationError, InadmissibleColoringError,
                 PinchedCrossingError, SingularArgumentError)


MAX_SCALE = 100.0  # the largest --scale, 200 times the default: every selftest ends


class MalformedInput(ValueError):
    """A spec or option that cannot be read as the command's input."""


def _cx(v) -> complex:
    """Parse a complex from [re, im], a number, or 'a+bj' strings."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, str):
        return complex(v.replace(" ", ""))
    raise ValueError(f"cannot parse complex value from {v!r}")


def _int(v, name: str) -> int:
    """An integer field of a spec.  Any other number (1.7, true) is
    malformed input, not truncated."""
    if isinstance(v, bool) or not (isinstance(v, int)
                                   or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


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


def _read_spec(args, what: str, parse):
    """parse(spec) of the --input JSON spec.  Whatever goes wrong on the way
    is malformed input: an unreadable file or invalid JSON, a missing key, a
    value of the wrong JSON type, a log whose exponential overflows, and the
    library's own checks of the objects built from the spec."""
    try:
        if args.input == "-":
            spec = json.load(sys.stdin)
        else:
            with open(args.input) as fh:
                spec = json.load(fh)
        return parse(spec)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"invalid {what} spec: {exc}") from exc


# ------------------------------------------------------------------ selftest

def cmd_selftest(args) -> int:
    try:
        Ns = [int(x) for x in args.N.split(",")]
    except ValueError:
        raise MalformedInput(f"cannot parse --N {args.N!r}") from None
    for N in Ns:
        if N < 2:
            raise MalformedInput(f"N must be >= 2, got {N}")
    if not 0 <= args.scale <= MAX_SCALE:  # NaN fails too
        raise MalformedInput(f"--scale must be in [0, {MAX_SCALE:g}], got {args.scale}")
    if args.seed < 0:
        raise MalformedInput(f"--seed must be >= 0, got {args.seed}")
    results = run_all(Ns=Ns, seed=args.seed, scale=args.scale)
    # a deviation that is not a finite number (NaN: never evaluated) is
    # null, and so is the headroom where tol / deviation is not finite
    checks = [{"identity": r.name, "suite": r.module, "N": r.N,
               "max_deviation": r.deviation if math.isfinite(r.deviation) else None,
               "tol": r.tol, "headroom": r.headroom, "samples": r.samples,
               "passed": r.passed}
              for r in results]
    ok = all(r.passed for r in results)
    return _emit({"seed": args.seed, "N": Ns, "checks": checks,
                  "passed": ok}, 0 if ok else 1)


# ---------------------------------------------------------------------- rmat

def _crossing_from_spec(cfg: RootConfig, spec: dict) -> CrossingData:
    segs = spec["segments"]
    mus = [_cx(segs[k]["mu"]) for k in ("1", "2")]
    mus_out = [_cx(segs[k]["mu"]) for k in ("1p", "2p")]
    betas = [_cx(segs[k]["beta"]) for k in ("1", "2", "1p", "2p")]
    regions = [_cx(spec["regions"][r]) for r in REGIONS]
    sign = _int(spec["sign"], "sign")
    kappa = spec.get("kappa", "auto")
    kappa = None if kappa in (None, "auto") else _cx(kappa)
    alphas = {k: _cx(segs[k]["alpha"]) for k in ("1", "2", "2p", "1p")
              if "alpha" in segs[k]}
    if not all(abs(mo - mu) <= MERIDIAN_TOL for mo, mu in zip(mus_out, mus)):  # NaN fails too
        raise ConstraintViolationError("meridian logs must be preserved")
    c = crossing_from_logs(cfg, sign, betas, mus, regions, kappa)
    # an explicit alpha must be the region difference the crossing derived
    for k, lc in (("1", c.lc1), ("2", c.lc2), ("2p", c.lc2p), ("1p", c.lc1p)):
        if k in alphas and not abs(alphas[k] - lc.alpha) <= ALPHA_TOL:  # NaN fails too
            raise ConstraintViolationError(f"segment alpha {alphas[k]} "
                                           f"does not match region difference {lc.alpha}")
    return c


def cmd_rmat(args) -> int:
    cfg = RootConfig(args.N)
    if args.kashaev:
        t = kashaev_rmat(cfg)
        return _emit({"N": cfg.N, "kind": "kashaev", "pinched": True,
                      "entries": _jmat(t.entries)})
    c = _read_spec(args, "crossing", lambda spec: _crossing_from_spec(cfg, spec))
    out = {"N": cfg.N, "sign": c.sign, "pinched": c.pinched}
    if c.pinched and not args.pinched:
        z0 = c.zeta0()
        bad = {r: _jx(z0[r]) for r in c.integral_zeta0()}
        return _fail("crossing is pinched (zeta0 integral); pass --pinched "
                     "to evaluate the closed pinched form", 1,
                     integral_zeta0=bad)
    if c.pinched:
        t = rmat_pinched(c)
        out["zeta0"] = {r: _jx(v) for r, v in c.zeta0().items()}
    else:
        t = rmat(c)
        zs = c.flattening_batch
        out["zeta0"] = dict(zip(REGIONS, map(_jx, zs.zeta0)))
        out["zeta1"] = dict(zip(REGIONS, map(_jx, zs.zeta1)))
        out["kappa"] = _jx(c.resolved_kappa())
        B = t.braiding()
        logdet = logdet_braiding(c)
        try:
            det_closed = cmath.exp(logdet)
        except OverflowError:
            det_closed = None
        out["det_closed"] = _jdet(det_closed)
        sign, logabs = det_lu(B)
        with np.errstate(over="ignore", invalid="ignore"):  # null past the range
            out["det_lu"] = _jdet(sign * np.exp(logabs))
        out["logdet_closed"] = _jx(logdet)
        out["logdet_lu"] = _jx(logabs + 1j * np.angle(sign)) if sign else None
    out["entries"] = _jmat(t.entries)
    return _emit(out)


# --------------------------------------------------------------- braid/color

def _braid_setup(spec):
    """The diagram of the spec's word and its top characters.  The width is
    checked against top_colors before the diagram's per-strand lists exist."""
    width = _int(spec["width"], "width")
    letters = tuple(_int(x, "word letter") for x in spec["word"])
    tops = [WeylChar(_cx(t["a"]), _cx(t["b"]), _cx(t["m"]))
            for t in spec["top_colors"]]
    if width != len(tops):
        raise ValueError(f"width {width} does not match the {len(tops)} top_colors")
    return build_diagram(BraidWord(width, letters)), tops


def _log_setup(spec):
    """_braid_setup and the top logs (betas, gammas, mus) of `log`, whose
    characters must be the top_colors."""
    d, tops = _braid_setup(spec)
    logs = [[_cx(v) for v in spec["log"][k]] for k in ("beta", "gamma", "mu")]
    chars = top_characters(d, *logs)
    if not all(t.isclose(c) for t, c in zip(tops, chars)):
        raise ValueError("top_colors do not match the characters of log")
    return d, logs


def cmd_color(args) -> int:
    cfg = RootConfig(args.N)
    d, tops = _read_spec(args, "braid", _braid_setup)
    col = propagate_chi(d, tops)
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
    d, logs = _read_spec(args, "braid", _log_setup)
    lc = extend_log_coloring(d, *logs)
    mat = None if args.matrix_free else jfunc_eval(cfg, d, lc)
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
    try:
        if isinstance(args.N, int) and args.N < 2:
            raise MalformedInput(f"N must be >= 2, got {args.N}")
        return args.fn(args)
    except MalformedInput as exc:
        return _fail(str(exc), 2)
    except DOMAIN_ERRORS as exc:
        extra = ({"crossing": exc.crossing}
                 if isinstance(exc, InadmissibleColoringError) else {})
        return _fail(str(exc), 1, **extra)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
