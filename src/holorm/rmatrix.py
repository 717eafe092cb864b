"""Holonomy R-matrix of a log-colored crossing.

A crossing carries a sign, four segment log-characters (two in, two out,
related by the character braiding), four region log-parameters, and a
resolved logarithm kappa of the combination K = e^{2 pi i gamma_N} /
(1 - (b_2'/b_1)^sign).  crossing_from_logs builds every crossing from the
segment betas, strand meridians and region logs; a segment alpha is the
difference of the region logs on its two sides.  From these, four
flattenings (one per region) are formed, and the R-matrix is a ratio of
four quantum dilogarithms per entry.

Index conventions: tensors are stored as dense (N^2, N^2) arrays with
entries[(n1, n2), (n1', n2')] = R_{n1 n2}^{n1' n2'}; rows are row-major over
the *input* pair.  The braiding composes the R-matrix with the flip of the
output pair, so it maps slot data (n1, n2) -> (n2', n1').

One table per sign, _region_terms, pairs each region r with an index
difference d_r, an offset and p_r = +1 (numerator) or -1 (denominator):
    sign +1:  N (n2'-n1, 0, +1)  S (n2-n1', 0, +1)  W (n2-n1, -1, -1)  E (n2'-n1', 0, -1)
    sign -1:  W (n1-n2, 0, +1)  E (n1'-n2', -1, +1)  S (n1'-n2, -1, -1)  N (n1-n2', -1, -1)
Generic entries are omega**d_W / N * omega**((N-1) sum_{offset_r != 0} p_r
(zeta0_r + zeta1_r)) * prod_r Lambda_r[d_r + offset_r]**p_r.  Every pinched
crossing, standard or not, and the Kashaev matrix read the same table with
kappa dropped (_assemble), from qdilog.lambda_series, not lambda_table.
The integer-shift rule (transform_rules, in selftest) reads the same
rows; factorized_ops writes the paper's four-factor theorem on its own, so
the factorization identity compares two independent routes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .characters import LogWeylChar, braid
from .qdilog import (Flattening, RootConfig, ConstraintViolationError,
                     TWO_PI_I, d_const, lambda_series, lambda_table,
                     lifted_dilog)


class PinchedCrossingError(ValueError):
    """Operation requires a non-pinched crossing (or vice versa)."""


REGIONS = ("N", "W", "S", "E")
MERIDIAN_TOL = 1e-10  # |mu_i - mu_i'|: a strand keeps its meridian log
ALPHA_TOL = 1e-8      # |alpha - region difference| of a segment


def _half_longitudes(sign: int, b1, b2, b1p, b2p) -> tuple:
    """A crossing's half-longitude terms (lambda1, lambda2) of its two
    strands, from the betas of its segments 1, 2, 1', 2'."""
    return 0.5 * sign * (b1p - b1), 0.5 * sign * (b2 - b2p)


@dataclass(frozen=True)
class CrossingData:
    """Everything needed to assemble one R-matrix.

    Segments 1, 2 enter at the top (1 on the right), 1', 2' leave at the
    bottom; regions N (right), W (above), S (left), E (below) carry the
    log-parameters gamma.  kappa may be None, meaning "resolve on demand
    with the principal branch" (any branch gives the same R-matrix).
    """

    cfg: RootConfig
    sign: int
    lc1: LogWeylChar
    lc2: LogWeylChar
    lc1p: LogWeylChar
    lc2p: LogWeylChar
    gamma_n: complex
    gamma_w: complex
    gamma_s: complex
    gamma_e: complex
    kappa: complex = None

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("crossing sign must be +1 or -1")
        if (abs(self.lc1.mu - self.lc1p.mu) > MERIDIAN_TOL
                or abs(self.lc2.mu - self.lc2p.mu) > MERIDIAN_TOL):
            raise ConstraintViolationError("meridian logs must be preserved")
        pairs = ((self.lc1.alpha, self.gamma_w - self.gamma_n),
                 (self.lc2.alpha, self.gamma_s - self.gamma_w),
                 (self.lc2p.alpha, self.gamma_e - self.gamma_n),
                 (self.lc1p.alpha, self.gamma_s - self.gamma_e))
        for al, diff in pairs:
            if abs(al - diff) > ALPHA_TOL:
                raise ConstraintViolationError(
                    f"segment alpha {al} does not match region difference {diff}")
        out = braid(self.lc1.char(), self.lc2.char(), self.sign)
        if not out.admissible:
            raise ConstraintViolationError("character pair is inadmissible")
        if not (out.chi1p.isclose(self.lc1p.char(), rel=1e-7)
                and out.chi2p.isclose(self.lc2p.char(), rel=1e-7)):
            raise ConstraintViolationError(
                "output characters are not the braiding of the input characters")
        object.__setattr__(self, "_pinched", out.pinched)  # read by the pinched property
        if self.kappa is not None and not self.pinched:
            err = abs(cmath.exp(TWO_PI_I * self.kappa) - self._big_k())
            if not err <= 1e-7 * max(1.0, abs(self._big_k())):  # NaN fails too
                raise ConstraintViolationError(
                    f"kappa does not exponentiate to K (error {err:.2e})")

    def _big_k(self) -> complex:
        b1 = cmath.exp(TWO_PI_I * self.lc1.beta)
        b2p = cmath.exp(TWO_PI_I * self.lc2p.beta)
        return cmath.exp(TWO_PI_I * self.gamma_n) / (1.0 - (b2p / b1) ** self.sign)

    @property
    def pinched(self) -> bool:
        """is_pinched of the input characters, as the validating braid found it."""
        return self._pinched

    def resolved_kappa(self) -> complex:
        if self.kappa is not None:
            return self.kappa
        if self.pinched:
            raise PinchedCrossingError("kappa is undefined at a pinched crossing")
        return cmath.log(self._big_k()) / TWO_PI_I

    def zeta0(self) -> dict:
        """The four zeta^0 values (defined for pinched crossings too)."""
        e = self.sign
        b1, b2 = self.lc1.beta, self.lc2.beta
        b1p, b2p = self.lc1p.beta, self.lc2p.beta
        m1, m2 = self.lc1.mu, self.lc2.mu
        return {"N": e * (b2p - b1),
                "W": e * (b2 - b1 - m1),
                "S": e * (b2 - b1p + m2 - m1),
                "E": e * (b2p - b1p + m2)}

    def zeta1(self, kappa: complex = None) -> dict:
        e = self.sign
        k = self.resolved_kappa() if kappa is None else kappa
        m1, m2 = self.lc1.mu, self.lc2.mu
        return {"N": k - self.gamma_n,
                "W": k - self.gamma_w + e * m1,
                "S": k - self.gamma_s + e * (m1 - m2),
                "E": k - self.gamma_e - e * m2}

    def log_longitudes(self) -> tuple:
        """Per-strand half-longitude contributions (lambda1, lambda2)."""
        return _half_longitudes(self.sign, self.lc1.beta, self.lc2.beta,
                                self.lc1p.beta, self.lc2p.beta)

    def integral_zeta0(self) -> dict:
        """{region: integer} for each zeta^0 within 1e-7 of an integer; the one
        integrality test of zeta^0."""
        z0 = self.zeta0()
        ints = {r: round(v.real) for r, v in z0.items()}
        return {r: n for r, n in ints.items() if abs(z0[r] - n) <= 1e-7}

    @cached_property
    def flattening_batch(self) -> Flattening:
        """The four region flattenings of a non-pinched crossing, in REGIONS
        order, as one batch, checked once; errors out at pinched data.
        build_crossings is its one writer (on this crossing alone, unless a
        batch filled it), so rmat, factorized_ops, logdet_braiding and the
        CLI share it."""
        if self.pinched:
            raise _pinched_error(self)
        build_crossings([self])
        return self.flattening_batch  # build cached it

    @cached_property
    def lambda_tables(self) -> np.ndarray:
        """The four region Lambda tables of flattening_batch, in REGIONS
        order (shape (4, N)), read only; build_crossings is their one
        writer, with the flattening, so rmat and factorized_ops share
        them."""
        self.flattening_batch  # builds the crossing, tables included
        return self.lambda_tables

    @cached_property
    def lifted_dilogs(self) -> np.ndarray:
        """The four lifted dilogarithms L(zeta_r) of flattening_batch, in
        REGIONS order; cached and read only, so every logdet_braiding call
        on the crossing shares it."""
        return _read_only(lifted_dilog(self.flattening_batch))

    @cached_property
    def entries(self) -> np.ndarray:
        """The (N^2, N^2) entries of the crossing's R-matrix, the generic
        form or, at a pinched crossing, the pinched one, read only;
        build_crossings is their one writer (on this crossing alone, unless
        a batch filled them)."""
        build_crossings([self])
        return self.entries  # build cached it


def _pinched_error(c: CrossingData) -> PinchedCrossingError:
    r = next(iter(c.integral_zeta0()))
    return PinchedCrossingError(
        f"crossing is pinched (zeta0_{r} = {c.zeta0()[r]} is integral)")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def crossing_from_logs(cfg: RootConfig, sign: int, betas, mus, gammas,
                       kappa: complex = None) -> CrossingData:
    """The crossing with segment betas (1, 2, 1', 2'), strand meridians (1, 2)
    and region logs (N, W, S, E).

    This is the one place that forms segment alphas: each is the difference
    of the region logs on its two sides.
    """
    b1, b2, b1p, b2p = betas
    m1, m2 = mus
    g_n, g_w, g_s, g_e = gammas
    return CrossingData(cfg, sign,
                        LogWeylChar(g_w - g_n, b1, m1), LogWeylChar(g_s - g_w, b2, m2),
                        LogWeylChar(g_s - g_e, b1p, m1), LogWeylChar(g_e - g_n, b2p, m2),
                        g_n, g_w, g_s, g_e, kappa)


@dataclass(frozen=True)
class RTensor:
    """Dense N^2 x N^2 tensor with entries[(n1,n2), (n1',n2')] over Z/N.

    as_operator() returns the matrix that acts on row-major coordinate
    vectors (operator[out, in]).
    """

    cfg: RootConfig
    entries: np.ndarray

    def as_operator(self) -> np.ndarray:
        return self.entries.T.copy()

    def braiding(self) -> "RTensor":
        """This R-matrix composed with the flip of the output pair."""
        N = self.cfg.N
        ent = self.entries.reshape(N, N, N, N).transpose(0, 1, 3, 2).reshape(N * N, N * N)
        return RTensor(self.cfg, ent)


def _index_grids(N: int) -> tuple:
    """Broadcastable index grids (n1, n2, n1', n2') over Z/N, in entry order."""
    n = np.arange(N)
    return (n[:, None, None, None], n[None, :, None, None],
            n[None, None, :, None], n[None, None, None, :])


def _region_terms(sign: int, n1, n2, n1p, n2p) -> dict:
    """{region: (d, offset, p)} of the module docstring, numerators first.

    Indices may be integers or broadcastable arrays."""
    if sign == +1:
        return {"N": (n2p - n1, 0, +1), "S": (n2 - n1p, 0, +1),
                "W": (n2 - n1, -1, -1), "E": (n2p - n1p, 0, -1)}
    return {"W": (n1 - n2, 0, +1), "E": (n1p - n2p, -1, +1),
            "S": (n1p - n2, -1, -1), "N": (n1 - n2p, -1, -1)}


@lru_cache(maxsize=64)
def _region_layout(N: int, sign: int, shifts: tuple) -> tuple:
    """The part of _assemble that no log of the crossing enters.

    Returns {region: (k_r mod N, offset_r, p_r)} in table order, with
    k_r = d_r + offset_r + n_r for the integers shifts = (n_r) in REGIONS
    order (zeros at a generic crossing), the factor omega**d_W, and the
    support sum_r p_r floor(k_r / N) == 1 of a pinched crossing.  The index
    arrays are N x N grids broadcast over the four indices.
    """
    terms = _region_terms(sign, *_index_grids(N))
    n = dict(zip(REGIONS, shifts))
    k = {r: d + off + n[r] for r, (d, off, _) in terms.items()}
    layout = {r: (k[r] % N, off, p) for r, (_, off, p) in terms.items()}
    support = sum(p * (k[r] // N) for r, (_, _, p) in terms.items()) == 1
    return layout, np.power(RootConfig(N).omega, terms["W"][0]), support


def _region_ratio(layout: dict, tables: dict, num):
    """num * prod_r tables[r][k_r mod N]^p_r, formed as one quotient of the
    numerator and denominator products in table order, in place of the
    numerator (take reads a table several times faster than indexing
    does)."""
    den = 1
    for r, (k, _, p) in layout.items():
        val = tables[r].take(k)
        if p > 0:
            num = num * val
        else:
            den = den * val
    return np.divide(num, den, out=num)


def _assemble(cfg: RootConfig, sign: int, shifts: tuple, tables: np.ndarray,
              z0: dict, z1: dict) -> np.ndarray:
    """Entries (N^2, N^2) of one crossing of the given sign and integral
    zeta0 shifts (None: generic), from its four region tables (4, N) and
    its zeta0 and zeta1 dicts.

    Generic crossings read the Lambda tables at k_r = d_r + offset_r.  At a
    pinched crossing zeta0_r is an integer n_r and the divergent part kappa
    is dropped: zeta1 is taken at kappa = 0, Lambda_r[k] becomes
    omega**(-k zeta1_r) / (omega; omega)_k (lambda_series of zeta1_r)
    read at k_r = d_r + offset_r + n_r, the prefactor gains
    omega**(sum_r p_r n_r zeta1_r / 2), and every entry with sum_r p_r
    floor(k_r / N) != 1 is zero.
    """
    N = cfg.N
    layout, w_dw, support = _region_layout(N, sign, shifts or (0, 0, 0, 0))
    expo = (N - 1) * sum(p * z[r] for r, (_, off, p) in layout.items() if off
                         for z in (z0, z1))
    if shifts:
        expo += sum(p * z0[r] * z1[r] for r, (_, _, p) in layout.items()) / 2.0
    R = _region_ratio(layout, dict(zip(REGIONS, tables)), cfg.omega_pow(expo) / N * w_dw)
    if shifts:
        np.copyto(R, 0.0, where=~support)
    return R.reshape(N * N, N * N)


def build_crossings(crossings) -> None:
    """Evaluate the R-matrices of crossings of one N in one pass, and cache
    each on its crossing (CrossingData.entries, what rmat, rmat_pinched and
    braiding_op read).  It is the one writer of a crossing's entries and of
    a generic crossing's flattening_batch and lambda_tables, and fills the
    three together.

    The region flattenings of the generic crossings are stacked into one
    Flattening, checked once, with one lambda_table call; the pinched
    tables are one lambda_series call.  Then _assemble forms the entries
    one crossing at a time, so a pass holds the temporaries of one
    crossing, whatever its length.  Every entry has the bits the crossing
    alone gets, and a crossing whose entries are cached is not evaluated
    again.

    A batch that fails raises the error of its first failing crossing, the
    one a crossing-by-crossing loop meets first, and evaluates nothing
    twice: each stage (the zeta logs, the flattening constraint, the
    guards of lambda_table) goes on only with the crossings ahead of the
    first one that failed an earlier stage.
    """
    if len({c.cfg for c in crossings}) > 1:
        raise ValueError("build_crossings takes crossings of one N")
    todo, zetas, fault = [], [], None
    for c in crossings:
        if "entries" in vars(c):
            continue
        try:
            zetas.append((_integral_zeta0(c), c.zeta1(kappa=0)) if c.pinched
                         else (c.zeta0(), c.zeta1()))
        except (ArithmeticError, ValueError) as e:
            fault = e
            break
        todo.append(c)
    if not todo:
        if fault is not None:
            raise fault
        return
    cfg = todo[0].cfg
    fresh = [i for i, c in enumerate(todo) if not c.pinched]
    if fresh:
        # the four region flattenings of each crossing, one after the other
        z0, z1 = (np.array([zetas[i][k][r] for i in fresh for r in REGIONS])
                  for k in (0, 1))
        try:
            f = Flattening(z0, z1, tol=1e-7)
        except ConstraintViolationError as e:  # build the crossings ahead of the failing one
            fault, (entry,) = e, e.entry
            cut = fresh[entry // 4]
            del todo[cut:], zetas[cut:], fresh[entry // 4:]
            f = Flattening._checked(z0[:4 * len(fresh)], z1[:4 * len(fresh)], 1e-7)
    lam = iter(_read_only(lambda_table(cfg, f).reshape(-1, 4, cfg.N)) if fresh else ())
    # the pinched tables: lambda_series at kappa = 0, one call
    pinched = [[z[1][r] for r in REGIONS] for c, z in zip(todo, zetas) if c.pinched]
    series = iter(lambda_series(cfg, np.array(pinched)) if pinched else ())
    i = 0  # the crossing's first flattening in z0 and z1
    for c, (a, b) in zip(todo, zetas):
        if c.pinched:
            shifts, tables = tuple(a[r] for r in REGIONS), next(series)
        else:
            shifts, tables = None, next(lam)
            vars(c).update(flattening_batch=Flattening._checked(
                z0[i:i + 4], z1[i:i + 4], 1e-7), lambda_tables=tables)
            i += 4
        vars(c)["entries"] = _read_only(_assemble(cfg, c.sign, shifts, tables, a, b))
    if fault is not None:
        raise fault


def rmat(c: CrossingData) -> RTensor:
    """The R-matrix of a non-pinched crossing (positive or negative form).
    A pinched one raises PinchedCrossingError; rmat_pinched evaluates it."""
    if c.pinched:
        raise _pinched_error(c)
    return RTensor(c.cfg, c.entries)


def braiding_op(c: CrossingData) -> RTensor:
    """The braiding: R-matrix composed with the flip of the output pair.

    Works for pinched crossings too (rmat_pinched is used there).
    """
    return (rmat_pinched(c) if c.pinched else rmat(c)).braiding()


@dataclass(frozen=True)
class FactorOps:
    """Four-dilogarithm factorization of the braiding.

    braiding = (1/N) * Z_E o (Z_N (x) Z_S) o Z_W, where Z_W and Z_E are
    diagonal on pair states and Z_N, Z_S act on single slots as circulants
    in n' - n.  (For negative crossings the same slot layout holds with the
    barred kernels.)
    """

    cfg: RootConfig
    zw_diag: np.ndarray   # length N^2, input-pair diagonal
    zn: np.ndarray        # N x N, acts on slot 1
    zs: np.ndarray        # N x N, acts on slot 2
    ze_diag: np.ndarray   # length N^2, output-pair diagonal

    def braiding_matrix(self) -> np.ndarray:
        """Compose the factors; returns entries[(in pair), (out pair)]."""
        N = self.cfg.N
        mid = np.kron(self.zn, self.zs)  # mid[(s,t),(n1,n2)] acting on coordinates
        op = (self.ze_diag[:, None] * mid * self.zw_diag[None, :]) / N
        return op.T.copy()


def factorized_ops(c: CrossingData) -> FactorOps:
    """Structured dilogarithm factors whose composition is braiding_op(c), at a
    non-pinched crossing."""
    N = c.cfg.N
    w = c.cfg.omega_pow
    lamN, lamW, lamS, lamE = c.lambda_tables
    f = c.flattening_batch
    z0, z1 = (dict(zip(REGIONS, z.tolist())) for z in (f.zeta0, f.zeta1))
    n = np.arange(N)
    d_in = (n[:, None] - n[None, :])        # n1 - n2
    if c.sign == +1:
        zw = (w(-(N - 1) * (z0["W"] + z1["W"]))
              * np.power(c.cfg.omega, -d_in) / lamW[(-d_in - 1) % N]).reshape(-1)
        zn = lamN[(n[:, None] - n[None, :]) % N]        # zn[s, n1] = Lam_N(s - n1)
        zs = lamS[(n[None, :] - n[:, None]) % N]        # zs[t, n2] = Lam_S(n2 - t)
        ze = (1.0 / lamE[(n[:, None] - n[None, :]) % N]).reshape(-1)  # (s,t): 1/Lam_E(s-t)
    else:
        zw = (np.power(c.cfg.omega, d_in) * lamW[d_in % N]).reshape(-1)
        zn = (w(-(N - 1) * (z0["N"] + z1["N"]))
              / lamN[(n[None, :] - n[:, None] - 1) % N])  # zn[s, n1] = 1/Lam_N(n1-s-1)
        zs = (w(-(N - 1) * (z0["S"] + z1["S"]))
              / lamS[(n[:, None] - n[None, :] - 1) % N])  # zs[t, n2] = 1/Lam_S(t-n2-1)
        ze = (w((N - 1) * (z0["E"] + z1["E"]))
              * lamE[(n[None, :] - n[:, None] - 1) % N]).reshape(-1)  # Lam_E(t-s-1)
    return FactorOps(c.cfg, zw, zn, zs, ze)


def _integral_zeta0(c: CrossingData) -> dict:
    """{region: n_r} of a pinched crossing, every zeta0_r = n_r an integer."""
    ints = c.integral_zeta0()
    for r in REGIONS:
        if r not in ints:
            raise PinchedCrossingError(
                f"pinched crossing has non-integral zeta0_{r} = {c.zeta0()[r]}")
    return ints


def rmat_pinched(c: CrossingData) -> RTensor:
    """The R-matrix at a pinched crossing: the region table at kappa = 0
    (see _assemble), for standard (all zeta^0 = 0) and other log-colorings
    alike."""
    if not c.pinched:
        raise PinchedCrossingError("crossing is not pinched")
    return RTensor(c.cfg, c.entries)


def kashaev_crossing(cfg: RootConfig) -> CrossingData:
    """The alpha = mu = -1/2 pinched crossing underlying the Kashaev matrix:
    all zeta0 zero, at beta_1 = 0 and gamma_N = 0.1."""
    return crossing_from_logs(cfg, +1, (0.0, -0.5, -0.5, 0.0), (-0.5, -0.5),
                              (0.1, -0.4, -0.9, -0.4))


def kashaev_rmat(cfg: RootConfig) -> RTensor:
    """The canonical cyclic R-matrix underlying the Kashaev invariant.

    omega**(1/2) times rmat_pinched at kashaev_crossing; the half-power
    keeps the usual normalization in the literature.
    """
    c = kashaev_crossing(cfg)
    return RTensor(cfg, cfg.omega_pow(0.5) * rmat_pinched(c).entries)


def logdet_braiding(c: CrossingData) -> complex:
    """A logarithm of the closed-form determinant of the braiding.

    log det = -sign * N * I(c)/(2 pi i) + sign N^2 log(N/D_0^2)
              + 2 pi i N(N-1) ((gamma_W - gamma_E)/2 - lambda_1 - lambda_2)
    with I(c) = L(zeta_N) + L(zeta_S) - L(zeta_W) - L(zeta_E) and the
    half-longitudes lambda_i of the two strands.  |det| grows like
    10^(N^2/2), past the double range from N ~ 26, while this stays finite.
    A jump of a lifted dilogarithm by 4 pi^2 k (see lifted_dilog) moves
    this only by 2 pi i N k, a multiple of 2 pi i.
    """
    N = c.cfg.N
    e = c.sign
    ell = dict(zip(REGIONS, c.lifted_dilogs))
    i_c = ell["N"] + ell["S"] - ell["W"] - ell["E"]
    lam1, lam2 = c.log_longitudes()
    return (-e * N * i_c / TWO_PI_I
            + e * N * N * (cmath.log(N) - 2.0 * cmath.log(d_const(c.cfg, 0.0)))
            + TWO_PI_I * N * (N - 1) * ((c.gamma_w - c.gamma_e) / 2.0 - lam1 - lam2))


def det_braiding(c: CrossingData) -> complex:
    """Closed-form determinant of the braiding at a non-pinched crossing.

    Past the double range it raises OverflowError, and below it returns 0;
    logdet_braiding stays finite in both cases.  No holorm module calls it;
    perfbench's workloads and self-checks do, and its tracer times it.
    """
    return cmath.exp(logdet_braiding(c))


def det_lu(t: RTensor) -> tuple:
    """Reference determinant by LU factorization of the operator matrix, as
    numpy's (sign, log|det|) pair, so that it stays finite past the double
    range; the determinant is sign * exp(log|det|)."""
    return np.linalg.slogdet(t.as_operator())
