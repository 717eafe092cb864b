"""The benchmark's workloads: seeded inputs, one timed operation, and checks.

A workload holds a fixed list of items generated from the seed.  One round
runs ``op`` once on every item; ``keep`` records what the checks need from
the first round (outside the timed span), and ``check`` verifies it after
timing has ended.  The library is called through module attributes
(``braidgrpd.jfunc_eval``), so tracing wrappers installed on those
attributes see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import json
import os
from time import perf_counter

import numpy as np

from holorm import (braidgrpd, characters, cli, qdilog, rmatrix, sampling,
                    selftest, weylrep)

import checks
from checks import Check


class OpFailed(Exception):
    """An operation ended without a usable result; n_failed ops are lost."""

    def __init__(self, msg: str, n_failed: int = 1):
        super().__init__(msg)
        self.n_failed = n_failed


class Workload:
    """Defaults for one operation per item, timed by the runner."""

    name = ""
    ops_per_item = 1
    op_times = ()    # per-operation times of the last op call, when it has several

    @classmethod
    def prepare(cls):
        """Hooks that must sit below any tracing wrappers."""

    def output_bytes(self) -> int:
        return 0


def _lc_of(d, lc, c, which: str):
    """Log-character of one segment of crossing c, from the coloring.

    Segment alphas are differences of the adjacent region logs: N right,
    W above, S left, E below; the first input strand sits between N and W.
    """
    g = lc.gamma
    seg, alpha = {"1": (c.seg1, g[c.reg_w] - g[c.reg_n]),
                  "2": (c.seg2, g[c.reg_s] - g[c.reg_w]),
                  "1p": (c.seg1p, g[c.reg_s] - g[c.reg_e]),
                  "2p": (c.seg2p, g[c.reg_e] - g[c.reg_n])}[which]
    return characters.LogWeylChar(alpha, lc.beta[seg], lc.mu[d.seg_component[seg]])


def _crossing_of(cfg, d, lc, c):
    """Crossing data of c, labelled apart from braidgrpd.crossing_data so that
    the state-sum check does not share the library's labelling."""
    return rmatrix.CrossingData(
        cfg, c.sign, _lc_of(d, lc, c, "1"), _lc_of(d, lc, c, "2"),
        _lc_of(d, lc, c, "1p"), _lc_of(d, lc, c, "2p"),
        lc.gamma[c.reg_n], lc.gamma[c.reg_w], lc.gamma[c.reg_s], lc.gamma[c.reg_e])


def _inverse_crossing(c):
    """The crossing that undoes c (Reidemeister II partner)."""
    return rmatrix.CrossingData(c.cfg, -c.sign, c.lc2p, c.lc1p, c.lc2, c.lc1,
                                c.gamma_n, c.gamma_e, c.gamma_s, c.gamma_w)


# ------------------------------------------------------------------ statesum

# (width, N, crossings): N^width from 343 to 2197, seven words so that the
# median operation is one word.  Shapes and generator positions are fixed,
# so a round's cost and memory do not depend on the seed; the seed picks
# the crossing signs and the log-coloring.
STATESUM_SHAPES = ((3, 7, 4), (3, 9, 4), (3, 11, 4), (3, 13, 2),
                   (4, 5, 5), (4, 6, 5), (5, 4, 6))
STATESUM_PROBES = 4


class Statesum(Workload):
    name = "statesum"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.items = [self._item(rng, *shape) for shape in STATESUM_SHAPES]
        self.kept = {}

    @staticmethod
    def _item(rng, width, N, n_cross):
        # generators cycle 1, 2, ..., width-1, so no letter meets its inverse
        signs = rng.choice((-1, 1), size=n_cross)
        if abs(int(signs.sum())) == n_cross:  # both signs in every word
            signs[int(rng.integers(n_cross))] *= -1
        word = braidgrpd.BraidWord(width, tuple(
            int(s) * (k % (width - 1) + 1) for k, s in enumerate(signs)))
        d = braidgrpd.build_diagram(word)
        cfg = qdilog.RootConfig(N)
        lc = sampling.random_coloring(cfg, d, rng)
        top_b = [lc.beta[d.top_segments[p]] for p in range(1, width + 1)]
        top_g = [lc.gamma[r] for r in d.top_regions]
        tops = [characters.LogWeylChar(top_g[p] - top_g[p - 1], top_b[p - 1],
                                       lc.mu[p - 1]).char()
                for p in range(1, width + 1)]
        V = (rng.standard_normal((N ** width, STATESUM_PROBES))
             + 1j * rng.standard_normal((N ** width, STATESUM_PROBES)))
        return {"cfg": cfg, "d": d, "top_b": top_b, "top_g": top_g,
                "mu": list(lc.mu), "tops": tops, "V": V}

    @staticmethod
    def op(it):
        d = it["d"]
        lc = braidgrpd.extend_log_coloring(d, it["top_b"], it["top_g"], it["mu"])
        col = braidgrpd.propagate_chi(d, it["tops"])
        J = braidgrpd.jfunc_eval(it["cfg"], d, lc)
        lam = braidgrpd.log_longitudes(d, lc)
        return lc, col, J, lam

    def keep(self, i, it, out):
        lc, col, J, _ = out
        self.kept[i] = (lc, col, J @ it["V"])

    def check(self) -> list:
        res = []
        for i, it in enumerate(self.items):
            if i not in self.kept:
                continue
            lc, col, JV = self.kept[i]
            cfg, d = it["cfg"], it["d"]
            N, w = cfg.N, d.width
            crossings = [_crossing_of(cfg, d, lc, c) for c in d.crossings]
            ops = [(rmatrix.braiding_op(cd).as_operator(), c.pos)
                   for cd, c in zip(crossings, d.crossings)]
            res.append(checks.statesum_product(JV, it["V"], ops, N, w))
            J = self.op(it)[2]
            res.append(checks.statesum_logdet(
                J, [cmath.log(rmatrix.det_braiding(cd)) for cd in crossings],
                N, w, float(np.linalg.cond(J, 1))))
            dev = 0.0
            for s, chi in enumerate(col.colors):
                b = cmath.exp(2j * cmath.pi * lc.beta[s])
                m = cmath.exp(2j * cmath.pi * lc.mu[d.seg_component[s]])
                dev = max(dev, abs(b - chi.b) / abs(chi.b), abs(m - chi.m) / abs(chi.m))
            res.append(Check("characters vs log-coloring", dev, 1e-9))
        return res


# ------------------------------------------------------------------ crossing

# Generic crossings stop at N=24: above it the determinant's magnitude,
# up to about 10^(N^2/2) over the sampling box, leaves the double range.
# Four crossings at N=16 sit between four cheaper and four dearer items,
# so the median operation is one of them in every run.
CROSSING_GENERIC = ((16, +1), (16, -1), (16, +1), (16, -1),
                    (20, +1), (20, -1), (24, +1), (24, -1))
CROSSING_PINCHED = ((12, +1), (12, -1))
CROSSING_KASHAEV = (8, 16)
KASHAEV_BRAID_MAX_N = 8   # B1 B2 B1 = B2 B1 B2 costs (N^3)^3


def _jx(z) -> list:
    return [float(z.real), float(z.imag)]


def crossing_spec(c) -> dict:
    """CLI crossing spec of c, with every segment alpha explicit."""
    def seg(lc):
        return {"alpha": _jx(lc.alpha), "beta": _jx(lc.beta), "mu": _jx(lc.mu)}
    return {"sign": c.sign,
            "segments": {"1": seg(c.lc1), "2": seg(c.lc2),
                         "1p": seg(c.lc1p), "2p": seg(c.lc2p)},
            "regions": {"N": _jx(c.gamma_n), "W": _jx(c.gamma_w),
                        "S": _jx(c.gamma_s), "E": _jx(c.gamma_e)},
            "kappa": "auto"}


def _pinched_params(rng) -> tuple:
    """(alpha1, alpha2, mu1, mu2) in the box where standard pinched data live."""
    return (complex(rng.uniform(0.1, 0.4), 0.05 * rng.uniform(-1, 1)),
            complex(rng.uniform(-0.4, -0.1), 0.05 * rng.uniform(-1, 1)),
            complex(rng.uniform(0.05, 0.3), 0.03 * rng.uniform(-1, 1)),
            complex(rng.uniform(0.3, 0.45), 0.04 * rng.uniform(-1, 1)))


class Crossing(Workload):
    name = "crossing"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        specs = [("generic", sampling.random_crossing(qdilog.RootConfig(N), rng, sign), [])
                 for N, sign in CROSSING_GENERIC]
        specs += [("pinched", sampling.standard_pinched_crossing(
                       qdilog.RootConfig(N), *_pinched_params(rng), sign=sign),
                   ["--pinched"]) for N, sign in CROSSING_PINCHED]
        specs += [("kashaev", N, ["--kashaev"]) for N in CROSSING_KASHAEV]
        self.items = [self._item(workdir, f"{i:02d}-{kind}", kind, c, flags)
                      for i, (kind, c, flags) in enumerate(specs)]
        self.kept = {}

    @staticmethod
    def _item(workdir, tag, kind, c, flags):
        """c is a CrossingData, or for --kashaev the order N."""
        N, c = (c, None) if isinstance(c, int) else (c.cfg.N, c)
        argv = ["rmat", "--N", str(N)] + flags
        if c is not None:
            spec = os.path.join(workdir, tag + ".spec.json")
            with open(spec, "w") as fh:
                json.dump(crossing_spec(c), fh)
            argv += ["--input", spec]
        return {"kind": kind, "N": N, "c": c, "argv": argv,
                "out": os.path.join(workdir, tag + ".out.json")}

    @staticmethod
    def op(it):
        with open(it["out"], "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(it["argv"])
        if code != 0:
            raise OpFailed(f"holorm {' '.join(it['argv'][:3])} exited {code}")
        return it["out"]

    def keep(self, i, it, out):
        self.kept[i] = _sha256(out)

    def output_bytes(self) -> int:
        return sum(os.path.getsize(it["out"]) for it in self.items
                   if os.path.exists(it["out"]))

    def check(self) -> list:
        res = []
        for i, it in enumerate(self.items):
            if i not in self.kept:
                continue
            digest = _sha256(it["out"])
            res.append(Check("identical bytes in every round",
                             0.0 if digest == self.kept[i] else 1.0, 0.0))
            with open(it["out"]) as fh:
                out = json.load(fh)
            res.extend(getattr(self, "_check_" + it["kind"])(it, out))
        return res

    @staticmethod
    def _roundtrip(out, expect, N) -> tuple:
        E = checks.json_matrix(out["entries"])
        ok = out["N"] == N and E.shape == expect.shape and np.array_equal(E, expect)
        return E, Check("lossless round trip", 0.0 if ok else 1.0, 0.0)

    def _check_generic(self, it, out) -> list:
        c = it["c"]
        cfg, N = c.cfg, it["N"]
        E, rt = self._roundtrip(out, rmatrix.rmat(c).entries, N)
        meta = out["sign"] == c.sign and out["pinched"] is False
        res = [rt, Check("sign and pinched flag", 0.0 if meta else 1.0, 0.0)]
        R4 = checks.rtensor4(E)
        if c.sign > 0:
            res.append(checks.recurrences(
                R4, c.zeta0(), (c.lc1.alpha, c.lc2.alpha, c.lc1p.alpha, c.lc2p.alpha),
                (c.lc1.mu, c.lc2.mu)))
        images = weylrep.rw_images if c.sign > 0 else weylrep.rw_images_negative
        res.append(checks.intertwining(
            E.T, weylrep.pi_tensor(cfg, c.lc1, c.lc2),
            images(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)))
        B = checks.braiding_from_rmat(E)
        res.append(checks.factorization(B.T, rmatrix.factorized_ops(c).braiding_matrix()))
        for key in ("det_closed", "det_lu"):
            res.append(checks.determinant(key, checks.json_complex(out[key]), B))
        res.append(checks.backward_r2(
            B, rmatrix.braiding_op(_inverse_crossing(c)).as_operator(),
            "R2 backward error"))
        return res

    def _check_pinched(self, it, out) -> list:
        c = it["c"]
        E, rt = self._roundtrip(out, rmatrix.rmat_pinched(c).entries, it["N"])
        meta = out["sign"] == c.sign and out["pinched"] is True
        res = [rt, Check("sign and pinched flag", 0.0 if meta else 1.0, 0.0)]
        B = checks.braiding_from_rmat(E)
        res.append(checks.backward_r2(
            B, rmatrix.braiding_op(_inverse_crossing(c)).as_operator(),
            "pinched R2 backward error"))
        return res

    def _check_kashaev(self, it, out) -> list:
        N = it["N"]
        cfg = qdilog.RootConfig(N)
        E, rt = self._roundtrip(out, rmatrix.kashaev_rmat(cfg).entries, N)
        res = [rt]
        pinched = rmatrix.rmat_pinched(sampling.kashaev_crossing(cfg)).entries
        res.append(Check("Kashaev normalization",
                         checks.fro_rel(pinched * cfg.omega_pow(0.5), E), 1e-12))
        if N <= KASHAEV_BRAID_MAX_N:
            res.append(checks.braid_relation(checks.braiding_from_rmat(E), N))
        return res


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ------------------------------------------------------------------ selftest

SELFTEST_NS = tuple(range(2, 10))
SELFTEST_SEEDS = 3        # run_all seeds per round, derived from --seed
SELFTEST_SCALE = 0.25     # run_all trial-count multiplier
SELFTEST_SUITES = ("check_qdilog", "check_characters", "check_weylrep",
                   "check_rmatrix", "check_braidgrpd")
DILOG_POINTS = 24


class SuiteTimer:
    """Times each selftest suite call, so one operation is one suite.

    Installed on the selftest module attributes that run_all looks up.
    """

    def __init__(self):
        self.times = []
        self._orig = {n: getattr(selftest, n) for n in SELFTEST_SUITES}
        for n, fn in self._orig.items():
            setattr(selftest, n, self._timed(fn))

    def _timed(self, fn):
        times = self.times

        def timed(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(perf_counter() - t)
        return timed


class Selftest(Workload):
    name = "selftest"
    ops_per_item = len(SELFTEST_SUITES)

    timer = None

    @classmethod
    def prepare(cls):
        if cls.timer is None:
            cls.timer = SuiteTimer()

    def __init__(self, seed: int, workdir: str):
        self.items = [(N, seed * 1000 + k) for k in range(SELFTEST_SEEDS)
                      for N in SELFTEST_NS]
        rng = np.random.default_rng([seed, 3])
        self.points = [_flattening_off_cuts(rng) for _ in range(DILOG_POINTS)]
        self.kept = {}

    def op(self, it):
        N, s = it
        start = len(self.timer.times)
        results = selftest.run_all(Ns=[N], seed=s, scale=SELFTEST_SCALE)
        self.op_times = self.timer.times[start:]
        bad = [r for r in results if not r.passed]
        if bad:
            raise OpFailed("; ".join(f"{r.module}/{r.name} at N={r.N}: "
                                     f"{r.deviation:.3g} > {r.tol:.3g}" for r in bad),
                           n_failed=len({r.module for r in bad}))
        return results

    def keep(self, i, it, out):
        self.kept[i] = out

    def check(self) -> list:
        res = []
        for i, it in enumerate(self.items):
            if i not in self.kept:
                continue
            modules = {r.module for r in self.kept[i]}
            missing = len({n[len("check_"):] for n in SELFTEST_SUITES} - modules)
            res.append(Check("every suite reported", float(missing), 0.0))
        for z0, branch in self.points:
            f = qdilog.Flattening.from_zeta0(z0, branch=branch)
            z = cmath.exp(2j * cmath.pi * z0)
            res.append(checks.li2_mpmath(z, qdilog.li2(z)))
            res.append(checks.lifted_dilog_mpmath(f.zeta0, f.zeta1, qdilog.lifted_dilog(f)))
        return res


def _flattening_off_cuts(rng) -> tuple:
    """zeta0 with Re zeta0 at least 0.05 from Z, so e^(2 pi i zeta0) is off [1, inf)."""
    z0 = complex(rng.uniform(0.05, 0.95) + int(rng.integers(-1, 2)),
                 rng.uniform(-0.25, 0.25))
    return z0, int(rng.integers(-2, 3))


def touch_every_layer(workdir: str) -> int:
    """One small operation of every kind; returns the bytes the CLI wrote.

    A traced run makes it before its traced rounds, so that every traced
    layer reads a measured time on every workload, not a constant zero, and
    the CLI layer (rmat at N = 12, generic and pinched) is measured on the
    workloads that do not call it.
    """
    rng = np.random.default_rng(0)
    Statesum.op(Statesum._item(rng, 3, 2, 2))
    cfg = qdilog.RootConfig(12)
    touches = [(sampling.random_crossing(cfg, rng, +1), []),
               (sampling.random_crossing(cfg, rng, -1), []),
               (sampling.standard_pinched_crossing(cfg, *_pinched_params(rng)),
                ["--pinched"]),
               (8, ["--kashaev"])]
    written = 0
    for i, (c, flags) in enumerate(touches):
        written += os.path.getsize(
            Crossing.op(Crossing._item(workdir, f"touch{i}", "touch", c, flags)))
    selftest.run_all(Ns=[2], seed=0, scale=0.1)
    return written


WORKLOADS = {w.name: w for w in (Statesum, Crossing, Selftest)}
