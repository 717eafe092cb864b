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
(zeta0_r + zeta1_r)) * prod_r Lambda_r[d_r + offset_r]**p_r; the standard
pinched form has the q-factorials prod_r (omega; omega)_{d_r+offset_r}**-p_r;
the integer gamma- and beta-shift rules, and with them the non-standard
pinched forms, read the same rows.  factorized_ops writes the paper's
four-factor theorem on its own, so the factorization identity compares two
independent routes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .characters import LogWeylChar, braid, is_pinched
from .qdilog import (Flattening, RootConfig, ConstraintViolationError,
                     TWO_PI_I, d_const, lambda_table, lifted_dilog, qpoch)


class PinchedCrossingError(ValueError):
    """Operation requires a non-pinched crossing (or vice versa)."""


REGIONS = ("N", "W", "S", "E")


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
        if (abs(self.lc1.mu - self.lc1p.mu) > 1e-10
                or abs(self.lc2.mu - self.lc2p.mu) > 1e-10):
            raise ConstraintViolationError("meridian logs must be preserved")
        pairs = ((self.lc1.alpha, self.gamma_w - self.gamma_n),
                 (self.lc2.alpha, self.gamma_s - self.gamma_w),
                 (self.lc2p.alpha, self.gamma_e - self.gamma_n),
                 (self.lc1p.alpha, self.gamma_s - self.gamma_e))
        for al, diff in pairs:
            if abs(al - diff) > 1e-8:
                raise ConstraintViolationError(
                    f"segment alpha {al} does not match region difference {diff}")
        out = braid(self.lc1.char(), self.lc2.char(), self.sign)
        if not out.admissible:
            raise ConstraintViolationError("character pair is inadmissible")
        if not (out.chi1p.isclose(self.lc1p.char(), rel=1e-7)
                and out.chi2p.isclose(self.lc2p.char(), rel=1e-7)):
            raise ConstraintViolationError(
                "output characters are not the braiding of the input characters")
        if self.kappa is not None and not self.pinched:
            err = abs(cmath.exp(TWO_PI_I * self.kappa) - self._big_k())
            if err > 1e-7 * max(1.0, abs(self._big_k())):
                raise ConstraintViolationError(
                    f"kappa does not exponentiate to K (error {err:.2e})")

    def _big_k(self) -> complex:
        b1 = cmath.exp(TWO_PI_I * self.lc1.beta)
        b2p = cmath.exp(TWO_PI_I * self.lc2p.beta)
        return cmath.exp(TWO_PI_I * self.gamma_n) / (1.0 - (b2p / b1) ** self.sign)

    @property
    def pinched(self) -> bool:
        return is_pinched(self.lc1.char(), self.lc2.char())

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
        e = self.sign
        return (0.5 * e * (self.lc1p.beta - self.lc1.beta),
                0.5 * e * (self.lc2.beta - self.lc2p.beta))


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


def _logs(c: CrossingData) -> tuple:
    """(betas, mus, gammas) of c in crossing_from_logs order."""
    return ((c.lc1.beta, c.lc2.beta, c.lc1p.beta, c.lc2p.beta), (c.lc1.mu, c.lc2.mu),
            (c.gamma_n, c.gamma_w, c.gamma_s, c.gamma_e))


def crossing_zetas(c: CrossingData) -> dict:
    """{region: Flattening} of a non-pinched crossing; errors out at pinched data."""
    z0 = c.zeta0()
    if c.pinched:
        bad = min(z0.items(), key=lambda kv: abs(kv[1] - round(kv[1].real)))
        raise PinchedCrossingError(
            f"crossing is pinched (zeta0_{bad[0]} = {bad[1]} is integral)")
    z1 = c.zeta1()
    return {r: Flattening(z0[r], z1[r], tol=1e-7) for r in REGIONS}


@dataclass(frozen=True)
class RTensor:
    """Dense N^2 x N^2 tensor with entries[(n1,n2), (n1',n2')] over Z/N.

    as_operator() returns the matrix that acts on row-major coordinate
    vectors (operator[out, in]).
    """

    cfg: RootConfig
    entries: np.ndarray
    sign: int
    pinched: bool = False

    def as_operator(self) -> np.ndarray:
        return self.entries.T.copy()

    def braiding(self) -> "RTensor":
        """This R-matrix composed with the flip of the output pair."""
        N = self.cfg.N
        ent = self.entries.reshape(N, N, N, N).transpose(0, 1, 3, 2).reshape(N * N, N * N)
        return RTensor(self.cfg, ent, self.sign, self.pinched)


def _lambda_tables(c: CrossingData) -> dict:
    return {r: np.array(lambda_table(c.cfg, f)) for r, f in crossing_zetas(c).items()}


def _index_grids(N: int) -> tuple:
    """Broadcastable index grids (n1, n2, n1', n2') over Z/N, in entry order."""
    n = np.arange(N)
    return (n[:, None, None, None], n[None, :, None, None],
            n[None, None, :, None], n[None, None, None, :])


def _poch_table(q: complex, count: int) -> np.ndarray:
    """[(q; q)_0, ..., (q; q)_{count-1}]."""
    return np.array([qpoch(q, q, k) for k in range(count)])


def _region_terms(sign: int, n1, n2, n1p, n2p) -> dict:
    """{region: (d, offset, p)} of the module docstring, numerators first.

    Indices may be integers or broadcastable arrays."""
    if sign == +1:
        return {"N": (n2p - n1, 0, +1), "S": (n2 - n1p, 0, +1),
                "W": (n2 - n1, -1, -1), "E": (n2p - n1p, 0, -1)}
    return {"W": (n1 - n2, 0, +1), "E": (n1p - n2p, -1, +1),
            "S": (n1p - n2, -1, -1), "N": (n1 - n2p, -1, -1)}


def _region_ratio(terms: dict, tables: dict, num=1, power: int = 1):
    """num * prod_r tables[r][d_r + offset_r]^(power p_r), formed as one
    quotient of the numerator and denominator products in table order."""
    den = 1
    for r, (d, off, p) in terms.items():
        val = tables[r][(d + off) % len(tables[r])]
        if p * power > 0:
            num = num * val
        else:
            den = den * val
    return num / den


def _assemble(c: CrossingData) -> np.ndarray:
    """Entries of the R-matrix of a non-pinched crossing, for both signs."""
    N = c.cfg.N
    z0, z1 = c.zeta0(), c.zeta1()
    terms = _region_terms(c.sign, *_index_grids(N))
    expo = sum(p * z[r] for r, (_, off, p) in terms.items() if off for z in (z0, z1))
    pref = c.cfg.omega_pow((N - 1) * expo) / N
    R = _region_ratio(terms, _lambda_tables(c), pref * np.power(c.cfg.omega, terms["W"][0]))
    return R.reshape(N * N, N * N)


def rmat(c: CrossingData) -> RTensor:
    """The R-matrix of a non-pinched crossing (positive or negative form)."""
    if c.pinched:
        raise PinchedCrossingError("use rmat_pinched for pinched crossings")
    return RTensor(c.cfg, _assemble(c), c.sign)


def braiding_op(c: CrossingData) -> RTensor:
    """The braiding: R-matrix composed with the flip of the output pair.

    Works for pinched crossings too (closed pinched form is used there).
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
    """Structured dilogarithm factors whose composition is braiding_op(c)."""
    if c.pinched:
        raise PinchedCrossingError("no exact four-factor form at a pinched crossing")
    N = c.cfg.N
    w = c.cfg.omega_pow
    lam = _lambda_tables(c)
    z0, z1 = c.zeta0(), c.zeta1()
    n = np.arange(N)
    d_in = (n[:, None] - n[None, :])        # n1 - n2
    lamN, lamW, lamS, lamE = (lam[r] for r in REGIONS)
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


def _theta(N: int, n1, n2, n1p, n2p):
    """0/1 cutoff coupling all four indices of a pinched entry."""
    t1 = ((n1 - n2) % N) + ((n1p - n2p - 1) % N)
    t2 = ((n2p - n1) % N) + ((n2 - n1p) % N)
    return ((0 <= t1) & (t1 < N)) & ((0 <= t2) & (t2 < N))


def rmat_pinched(c: CrossingData) -> RTensor:
    """Closed-form R-matrix at a pinched crossing.

    Standard log-colorings (all zeta^0 = 0) are evaluated directly; other
    pinched log-colorings are reduced to a standard one with the integer
    shift rules and reassembled, which is exact.
    """
    if not c.pinched:
        raise PinchedCrossingError("crossing is not pinched")
    z0 = c.zeta0()
    ints = {r: round(z0[r].real) for r in REGIONS}
    for r in REGIONS:
        if abs(z0[r] - ints[r]) > 1e-7:
            raise PinchedCrossingError(
                f"pinched crossing has non-integral zeta0_{r} = {z0[r]}")
    if any(ints[r] != 0 for r in REGIONS):
        return _pinched_nonstandard(c, ints)
    N = c.cfg.N
    e = c.sign
    a1, a2 = c.lc1.char().a, c.lc2.char().a
    m1, m2 = c.lc1.char().m, c.lc2.char().m
    a1p, a2p = c.lc1p.char().a, c.lc2p.char().a
    al1, al2 = c.lc1.alpha, c.lc2.alpha
    al1p, al2p = c.lc1p.alpha, c.lc2p.alpha
    mu1, mu2 = c.lc1.mu, c.lc2.mu
    n1, n2, n1p, n2p = _index_grids(N)
    theta = _theta(N, n1, n2, n1p, n2p)
    poch = _poch_table(c.cfg.omega, N)

    def cut(x):
        return ((0 <= x) & (x < N)).astype(int)

    def warr(x):
        return np.exp(TWO_PI_I * x / N)

    if e == +1:
        amp = (a1p / a1
               * (a1 / m1) ** (2 - cut(n1 - n2) - cut(n2 - n1p))
               * (a2 * m2 + 0j) ** (-cut(n2 - n1p))
               * (a2p * m2 + 0j) ** (1 - cut(n1p - n2p - 1)))
        phase = warr(n1 * (al1 - mu1 - 1) + n2 * (al2 + mu2 + 1)
                     - n1p * (al1p - mu1) - n2p * (al2p + mu2))
    else:
        amp = ((a1 * m1 + 0j) ** (1 - cut(n1 - n2))
               * (m2 / a2p) ** cut(n1p - n2p - 1)
               * (a1 * a2 * m1 / m2) ** cut(n1p - n2 - 1))
        phase = warr(n1 * (al1 + mu1 + 1) + n2 * (al2 - mu2 - 1)
                     - n1p * (al1p + mu1) - n2p * (al2p - mu2))
    qfac = _region_ratio(_region_terms(e, n1, n2, n1p, n2p),
                         dict.fromkeys(REGIONS, poch), power=-1)
    R = theta * amp * phase * qfac / N
    return RTensor(c.cfg, R.reshape(N * N, N * N), e, pinched=True)


def _pinched_nonstandard(c: CrossingData, ints: dict) -> RTensor:
    """Reduce a non-standard pinched coloring to the standard one and map back.

    Beta shifts l move each zeta0_r by the table's d_r(l); these make every
    zeta0 vanish (with l1 = 0).
    """
    e = c.sign
    l2 = -e * ints["W"]
    shifts = (0, l2, l2 + e * ints["S"], -e * ints["N"])
    std = apply_beta_shift(c, shifts)
    rel = transform_rules(std, beta_shifts=tuple(-l for l in shifts))
    return RTensor(c.cfg, rel.predict(rmat_pinched(std)), e, pinched=True)


def beta_shift_relation(c: CrossingData, shifts: tuple) -> complex:
    """Phase relating R of a beta-shifted coloring to the original.

    With beta_i -> beta_i + l_i (integers), the new matrix satisfies
    R_new[n] = phase * R_old[n + l], with phase = omega**(sum_r p_r d_r(l)
    zeta1_r / 2) over the region table.  kappa cancels (sum_r p_r d_r = 0),
    so zeta1 is taken at kappa = 0 and the phase is finite at pinched
    crossings as well.
    """
    z1 = c.zeta1(kappa=0)
    terms = _region_terms(c.sign, *shifts)
    return c.cfg.omega_pow(sum(p * d * z1[r] for r, (d, _, p) in terms.items()) / 2.0)


def gamma_shift_relation(c: CrossingData, kshifts: dict) -> tuple:
    """(phase, coeffs) for integer region shifts gamma_r -> gamma_r + k_r.

    R_new[n] = phase * omega**(sum_r p_r k_r d_r(n)) * R_old[n] over the
    region table, with phase = omega**(sum_r p_r k_r zeta0_r / 2) and
    coeffs = (kN, kW, kS, kE).
    """
    z0 = c.zeta0()
    k = {r: kshifts.get(r, 0) for r in REGIONS}
    terms = _region_terms(c.sign, 0, 0, 0, 0)  # only the p_r are read
    phase = c.cfg.omega_pow(sum(p * k[r] * z0[r] for r, (_, _, p) in terms.items()) / 2.0)
    return phase, tuple(k[r] for r in REGIONS)


def apply_gamma_shift(c: CrossingData, kshifts: dict) -> CrossingData:
    betas, mus, gammas = _logs(c)
    return crossing_from_logs(c.cfg, c.sign, betas, mus,
                              [g + kshifts.get(r, 0) for r, g in zip(REGIONS, gammas)],
                              c.kappa)


def apply_beta_shift(c: CrossingData, shifts: tuple) -> CrossingData:
    betas, mus, gammas = _logs(c)
    return crossing_from_logs(c.cfg, c.sign, [b + l for b, l in zip(betas, shifts)],
                              mus, gammas, c.kappa)


@dataclass(frozen=True)
class TransformRelation:
    """Exact relation between the R-matrices of two integer-shifted colorings."""

    crossing: CrossingData       # the shifted crossing
    phase: complex
    index_shift: tuple           # (l1, l2, l1p, l2p) added to the entry indices
    gamma_coeffs: tuple          # (kN, kW, kS, kE)
    sign: int

    def predict(self, R_old: RTensor) -> np.ndarray:
        """Entries of the shifted crossing's R-matrix from the original one."""
        N = R_old.cfg.N
        l1, l2, l1p, l2p = self.index_shift
        n1, n2, n1p, n2p = _index_grids(N)
        Ro = R_old.entries.reshape(N, N, N, N)
        shifted = Ro[(n1 + l1) % N, (n2 + l2) % N, (n1p + l1p) % N, (n2p + l2p) % N]
        k = dict(zip(REGIONS, self.gamma_coeffs))
        terms = _region_terms(self.sign, n1, n2, n1p, n2p)
        expo = sum(p * k[r] * d for r, (d, _, p) in terms.items())
        out = self.phase * np.power(R_old.cfg.omega, expo) * shifted
        return out.reshape(N * N, N * N)


def transform_rules(c: CrossingData, gamma_shifts: dict = None,
                    beta_shifts: tuple = (0, 0, 0, 0)) -> TransformRelation:
    """Combined integer gamma- and beta-shift relation for a crossing.

    The relation composes as beta shift first (phase from the original
    crossing) and gamma shift second (phase from the beta-shifted one), so
    that the index-linear gamma factor applies at the unshifted entry indices.
    """
    gamma_shifts = gamma_shifts or {}
    for v in list(gamma_shifts.values()) + list(beta_shifts):
        if int(v) != v:
            raise ValueError("all shifts must be integers")
    phase_b = beta_shift_relation(c, beta_shifts)
    cb = apply_beta_shift(c, beta_shifts)
    phase_g, coeffs = gamma_shift_relation(cb, gamma_shifts)
    cg = apply_gamma_shift(cb, gamma_shifts)
    return TransformRelation(cg, phase_g * phase_b, tuple(beta_shifts), coeffs, c.sign)


def kashaev_rmat(cfg: RootConfig) -> RTensor:
    """The canonical cyclic R-matrix underlying the Kashaev invariant.

    Entries N omega**(n2'-n1+1/2) * theta / (four q-factorials); this is the
    alpha = mu = -1/2 specialization, up to an overall half-power of omega
    kept for compatibility with the usual normalization in the literature.
    """
    N = cfg.N
    poch_w = _poch_table(cfg.omega, N)
    poch_wb = _poch_table(cfg.omega.conjugate(), N)
    n1, n2, n1p, n2p = _index_grids(N)
    theta = _theta(N, n1, n2, n1p, n2p)
    num = N * cfg.omega_pow(0.5) * np.power(cfg.omega, (n2p - n1))
    den = (poch_w[(n2p - n1) % N] * poch_w[(n2 - n1p) % N]
           * poch_wb[(n1p - n2p - 1) % N] * poch_wb[(n1 - n2) % N])
    R = theta * num / den
    return RTensor(cfg, R.reshape(N * N, N * N), +1, pinched=True)


def weight_basis_rmat(c: CrossingData) -> RTensor:
    """Pinched R-matrix in the weight basis (discrete Fourier conjugate)."""
    from .weylrep import fourier_matrix
    if not c.pinched:
        raise PinchedCrossingError("weight-basis closed form needs a pinched crossing")
    N = c.cfg.N
    base = rmat_pinched(c)
    G = fourier_matrix(c.cfg)
    G2 = np.kron(G, G)
    G2inv = np.kron(G.conj().T, G.conj().T) / (N * N)
    op_wb = G2 @ base.as_operator() @ G2inv
    return RTensor(c.cfg, op_wb.T.copy(), c.sign, pinched=True)


def weight_basis_closed_form(c: CrossingData) -> np.ndarray:
    """Closed-form entries of the weight-basis pinched R-matrix.

    R_{n1 n2}^{n1' n2'} = delta_N(n1+n2, n1'+n2') * a1 (m2 a2 - 1) /
    (m1 + a1 (m2 a2 - 1)) / (1 - omega**(-alpha2'-mu2+n2'))
    * (1/N) * f(-alpha2'-mu2+n2', -alpha2-mu2+n2-1, alpha1'-mu1-n1').
    """
    from .qdilog import fusion_f
    if not c.pinched:
        raise PinchedCrossingError("closed form needs a pinched crossing")
    N = c.cfg.N
    w = c.cfg.omega_pow
    chi1, chi2 = c.lc1.char(), c.lc2.char()
    a1, m1, a2, m2 = chi1.a, chi1.m, chi2.a, chi2.m
    mu1, mu2 = c.lc1.mu, c.lc2.mu
    al2, al1p, al2p = c.lc2.alpha, c.lc1p.alpha, c.lc2p.alpha
    const = a1 * (m2 * a2 - 1.0) / (m1 + a1 * (m2 * a2 - 1.0)) / N
    R = np.zeros((N, N, N, N), dtype=complex)
    for n2 in range(N):
        for n2p in range(N):
            for n1p in range(N):
                fs = fusion_f(c.cfg, -al2p - mu2 + n2p, -al2 - mu2 + n2 - 1,
                              al1p - mu1 - n1p)
                val = const / (1.0 - w(-al2p - mu2 + n2p)) * fs
                for n1 in range(N):
                    if (n1 + n2 - n1p - n2p) % N == 0:
                        R[n1, n2, n1p, n2p] = val
    return R.reshape(N * N, N * N)


def nilpotent_closed_form(c: CrossingData) -> np.ndarray:
    """Weight-basis pinched R-matrix when alpha_1 = mu_1 = alpha_1'.

    With nu_2 = alpha_2 + mu_2 and k = (n2' - n2 mod N), the entries are
    delta_N(n1+n2, n1'+n2') * (1-omega**(-nu2+n2))/(1-omega**(-nu2+n2'))
    * omega**(n1'(-nu2+n2)) / <-nu2+n2 | k>
    * (w;w)_{k+n1'} / ((w;w)_k (w;w)_{n1'}).
    """
    from .qdilog import cyc_dilog
    if not c.pinched:
        raise PinchedCrossingError("closed form needs a pinched crossing")
    if (abs(c.lc1.alpha - c.lc1.mu) > 1e-9
            or abs(c.lc1p.alpha - c.lc1.alpha) > 1e-9):
        raise ConstraintViolationError("needs alpha_1 = mu_1 = alpha_1'")
    N = c.cfg.N
    w = c.cfg.omega_pow
    nu2 = c.lc2.alpha + c.lc2.mu
    poch = _poch_table(c.cfg.omega, 2 * N)
    R = np.zeros((N, N, N, N), dtype=complex)
    for n1 in range(N):
        for n2 in range(N):
            for n1p in range(N):
                for n2p in range(N):
                    if (n1 + n2 - n1p - n2p) % N != 0:
                        continue
                    k = (n2p - n2) % N
                    if k + n1p >= N:
                        continue
                    R[n1, n2, n1p, n2p] = (
                        (1.0 - w(-nu2 + n2)) / (1.0 - w(-nu2 + n2p))
                        * w(n1p * (-nu2 + n2)) / cyc_dilog(c.cfg, -nu2 + n2, k)
                        * poch[k + n1p] / (poch[k] * poch[n1p]))
    return R.reshape(N * N, N * N)


def colored_jones_closed_form(cfg: RootConfig) -> np.ndarray:
    """Weight-basis pinched R-matrix at alpha_j = mu_j = -1/2 (all j).

    Entries delta(n1+n2, n1'+n2') * omega**(n1'(1+n2))
    * (w;w)_{n2'} (w;w)_{n1} / ((w;w)_{n2} (w;w)_{n2'-n2} (w;w)_{n1'}),
    nonzero only when the index sums agree exactly and n2' >= n2; the
    framed N-th colored Jones braiding kernel.
    """
    N = cfg.N
    w = cfg.omega_pow
    poch = _poch_table(cfg.omega, N)
    R = np.zeros((N, N, N, N), dtype=complex)
    for n1 in range(N):
        for n2 in range(N):
            for n1p in range(N):
                for n2p in range(N):
                    if n1 + n2 != n1p + n2p or n2p < n2:
                        continue
                    R[n1, n2, n1p, n2p] = (w(n1p * (1 + n2))
                                           * poch[n2p] * poch[n1]
                                           / (poch[n2] * poch[n2p - n2] * poch[n1p]))
    return R.reshape(N * N, N * N)


def logdet_braiding(c: CrossingData) -> complex:
    """A logarithm of the closed-form determinant of the braiding.

    log det = -sign * N * I(c)/(2 pi i) + sign N^2 log(N/D_0^2)
              + 2 pi i N(N-1) ((gamma_W - gamma_E)/2 - lambda_1 - lambda_2)
    with I(c) = L(zeta_N) + L(zeta_S) - L(zeta_W) - L(zeta_E) and the
    half-longitudes lambda_i of the two strands.  |det| grows like
    10^(N^2/2), past the double range from N ~ 26, while this stays finite.
    """
    if c.pinched:
        raise PinchedCrossingError("determinant formula needs a non-pinched crossing")
    N = c.cfg.N
    e = c.sign
    ell = {r: lifted_dilog(f) for r, f in crossing_zetas(c).items()}
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


def det_lu(t: RTensor) -> complex:
    """Reference determinant by LU factorization of the operator matrix."""
    return complex(np.linalg.det(t.as_operator()))
