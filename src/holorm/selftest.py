"""Identity battery: every structural identity the library rests on.

Each check function (one per suite) returns {identity name: max deviation},
with the number of evaluations per identity in its .samples attribute.
IDENTITIES registers every identity with its suite, tolerance and smallest
N; run_all turns the suites' output into one result per registered identity
and N, and `holorm selftest` and the acceptance tests both read it.  What
only these identities and the tests read lives here too: the closed forms
of the pinched R-matrix (Kashaev's and the weight-basis ones), the
integer-shift rule (transform_rules), the dual group SL2* with the holonomy
map psi (SL2StarElement, z0_coords, char_product, psi_coords), the Casimir
relation and the edge-gluing defects.
Deviations are relative unless the name says otherwise, the braid-level
ones normwise on seeded probe columns (the state sums are applied, never
formed), intertwining's a normwise backward error, and the LU determinant
row's is in units of LU's error bound.
All random draws of the suites flow through one seeded generator, and the
probe columns come from their own generator seeded by their shape, so
reports are reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import sampling
from .braidgrpd import (BraidWord, DiagramGraph, LogColoring, _apply_crossings,
                        build_diagram, crossing_data, extend_log_coloring,
                        log_longitudes, on_slots, pin_bottom, word_crossings)
from .characters import LogWeylChar, braid, braid_coords
from .qdilog import (ConstraintViolationError, Flattening, RootConfig, TWO_PI_I,
                     cyc_dilog, d_const, fusion_f, lambda_table, lifted_dilog, s_norm)
from .rmatrix import (REGIONS, CrossingData, FactorOps, PinchedCrossingError,
                      RTensor, _index_grids, _region_terms, braiding_op,
                      build_crossings, crossing_from_logs, factorized_ops,
                      kashaev_crossing, kashaev_rmat, logdet_braiding, rmat,
                      rmat_pinched)
from .weylrep import (Basis, _kron, commutant_dim, fourier_matrix, matrix_power,
                      pi_tensor, rep_matrices, rw_images, rw_images_negative)


def _rel(a, b):
    """|a - b| / max(|a|, |b|), entrywise over arrays."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def _mrel(A, B):
    """max |A - B| / max(|A|, |B|) over the last two axes: a float for two
    matrices, an array over a stack of them."""
    A, B = np.asarray(A), np.asarray(B)
    ax = (-2, -1)
    return np.abs(A - B).max(axis=ax) / np.maximum(
        1e-300, np.maximum(np.abs(A).max(axis=ax), np.abs(B).max(axis=ax)))


def _qfactorials(cfg: RootConfig, count: int, s: int) -> np.ndarray:
    """[(q; q)_k for k < count] at q = omega**s, the oracles' own route."""
    return np.cumprod(np.concatenate(([1.0], 1.0 - cfg.omega_pow(s * np.arange(1, count)))))


def _sum_dev(A, B) -> float:
    """||A - B||_F / ||B||_F, the one comparison of two state sums, or of
    both applied to the same probe columns."""
    return float(np.linalg.norm(A - B) / np.linalg.norm(B))


PROBES = 4  # probe columns per braid-level comparison


def _probes(N: int, w: int) -> np.ndarray:
    """PROBES complex Gaussian columns with N^w rows.  They come from their
    own generator, seeded by (N, w), so the suites' draws stay untouched."""
    g = np.random.default_rng([N, w])
    return (g.standard_normal((N ** w, PROBES))
            + 1j * g.standard_normal((N ** w, PROBES)))


def braid_relation_deviation(cfg: RootConfig, B) -> float:
    """_sum_dev of B1 B2 B1 against B2 B1 B2 on the width-3 probes, where
    B1 = B x I and B2 = I x B; each factor acts on its two slots, so no
    N^3 x N^3 product is formed."""
    N = cfg.N

    def word(*before):
        X = _probes(N, 3)
        for k in before:
            X = on_slots(B, X, N, k)
        return X.reshape(N ** 3, -1)

    return _sum_dev(word(0, 1, 0), word(1, 0, 1))


def _det_deviation(cs: list, Bs: list) -> np.ndarray:
    """|det_closed / det_LU - 1| for each crossing c of cs and its braiding
    B in Bs, in units of the error LU may make, 1e-10 + n eps cond_1(B) for
    the n x n operator.  It is formed from logarithms, so it stays finite
    where the determinants overflow."""
    dev = []
    for c, B in zip(cs, Bs):
        op = B.as_operator()
        s, logabs = np.linalg.slogdet(op)
        bound = 1e-10 + len(op) * np.finfo(float).eps * np.linalg.cond(op, 1)
        dev.append(abs(np.exp(logdet_braiding(c) - logabs) / s - 1.0) / bound)
    return np.array(dev)


def _det_factor_deviation(c: CrossingData, f: FactorOps) -> float:
    """|log det_closed - log det of the factors f| mod 2 pi i, over max(1,
    sum |t_i|) for the terms t_i that the factor side adds, the rounding
    bound of that sum: braiding = (1/N) Z_E (Z_N x Z_S) Z_W, Z_W and Z_E
    diagonal, Z_N and Z_S circulant (eigenvalues: DFT of the first column)."""
    N = c.cfg.N
    terms = (np.log(f.zw_diag), np.log(f.ze_diag),
             N * np.log(np.fft.fft(f.zn[:, 0])), N * np.log(np.fft.fft(f.zs[:, 0])),
             np.array([-N * N * np.log(N)]))
    d = logdet_braiding(c) - sum(t.sum() for t in terms)
    size = sum(np.abs(t).sum() for t in terms)
    return float(abs(d - TWO_PI_I * round(d.imag / (2 * np.pi))) / max(1.0, size))


class _Worst(dict):
    """Worst deviation per identity; .samples counts the evaluations."""

    def __init__(self):
        super().__init__()
        self.samples = {}

    def note(self, key, val):
        """Note one deviation, or an array of them: one sample per entry,
        and the array's max (NaN if any entry is NaN) as its deviation.
        An empty array notes nothing."""
        vals = np.asarray(val, dtype=float)
        if vals.size == 0:
            return
        old, val = self.get(key, 0.0), float(vals.max())
        # a NaN compares false with everything: once noted it sticks, and
        # the identity fails (max() would drop it)
        self[key] = old if old != old or old >= val else val
        self.samples[key] = self.samples.get(key, 0) + vals.size


def r2_backward_error(*cs: CrossingData) -> np.ndarray:
    """Normwise backward error ||B'B - I|| / (||B'|| ||B||) of Reidemeister
    II, one per crossing of cs.

    B is the braiding of a positive crossing c and B' that of the negative
    crossing undoing it; the crossings and their partners are one
    build_crossings pass.  Unlike the entrywise residual, this stays near
    machine precision however badly conditioned B is.
    """
    partners = [CrossingData(c.cfg, -1, c.lc2p, c.lc1p, c.lc2, c.lc1,
                             c.gamma_n, c.gamma_e, c.gamma_s, c.gamma_w) for c in cs]
    build_crossings(list(cs) + partners)
    dev = []
    for c, p in zip(cs, partners):
        B, Binv = braiding_op(c).as_operator(), braiding_op(p).as_operator()
        dev.append(np.linalg.norm(Binv @ B - np.eye(len(B)))
                   / (np.linalg.norm(Binv) * np.linalg.norm(B)))
    return np.array(dev)


# ---------------------------------------------------------------- qdilog

def check_qdilog(cfg: RootConfig, rng: np.random.Generator, trials: int) -> dict:
    """Every trial at once.  The loop only draws, as the scalar suite drew:
    a flattening (random_flattening rejects samples), nn, and the fusion
    arguments' uniforms.  Each identity is then one array expression over
    the trials (axis 0) and its own indices (trailing axes)."""
    N = cfg.N
    w = cfg.omega_pow
    poch = _qfactorials(cfg, 2 * N, +1)  # the fusion integer form reads up to 2N - 2
    out = _Worst()
    draws = []
    for _ in range(trials):
        f = sampling.random_flattening(cfg, rng)
        nn = int(rng.integers(0, N))
        draws.append((f.zeta0, f.zeta1, nn, rng.uniform(0.1, 0.9), rng.uniform(-1, 1)))
    z0, z1, nn, ua, ub = (np.array(d) for d in zip(*draws))
    z0, z1 = z0.astype(complex), z1.astype(complex)
    c0, c1 = z0[:, None], z1[:, None]  # trial columns
    n = np.arange(N)
    # each trial's flattening and its dual, as one batch
    pair = Flattening(np.stack([z0, -z1], -1), np.stack([z1, -z0], -1))
    lam, lamd = np.moveaxis(lambda_table(cfg, pair), 1, 0)
    ell, elld = lifted_dilog(pair).T
    # the series table the R-matrix reads vs the cyclic-dilogarithm product
    # Lambda(.|0) omega**(-n zeta1) <zeta0|n>, for n in [-N, 2N]
    cyc = cyc_dilog(cfg, c0, np.arange(-N, 2 * N + 1))

    def route(k):
        return lam[:, :1] * w(-k * c1) * cyc[:, k + N]

    out.note("lambda recurrence", _rel(lam, route(n)))
    # that product is N-periodic in n
    per = np.arange(-N, N + 1)
    out.note("lambda periodicity", _rel(route(per), route(per + N)))
    # shifts
    ks = np.array([-2, -1, 1, 2])
    out.note("lambda shift (zeta0)",
             _rel(lambda_table(cfg, Flattening(c0 + ks, c1))[..., 1],
                  w(ks * c1 / 2) * lam[:, (1 + ks) % N]))
    out.note("lambda shift (zeta1)",
             _rel(lambda_table(cfg, Flattening(c0, c1 + ks))[..., 2 % N],
                  w(-ks * c0 / 2 - 2 * ks) * lam[:, [2 % N]]))
    # product over a period
    out.note("lambda product",
             _rel(np.prod(lam, axis=-1), w(-N * (N - 1) * z1 / 2) * np.exp(-ell / TWO_PI_I)))
    # inverse sum, at (k, l) = (0, 0), (1, 0), (2, 1), (0, 3 mod N)
    k, l = np.array([0, 1, 2, 0]), np.array([0, 0, 1, 3 % N])
    tot = (w(n) * lam[:, (n + k[:, None]) % N] / lam[:, (n + l[:, None] - 1) % N]).sum(-1)
    expect = np.where((l - k) % N == 0, N * w(-k) * w((N - 1) * (c0 + c1)), 0.0)
    out.note("lambda inverse sum", np.abs(tot - expect) / np.maximum(1.0, np.abs(expect)))
    # Fourier pair and its composition; S of each trial's flattening, its
    # dual, and the flattening shifted by (-1, 1, 2) in zeta0, then in zeta1
    sh = np.array([-1, 1, 2])
    S_all = s_norm(cfg, Flattening(np.concatenate([pair.zeta0, c0 + sh, c0 + 0 * sh], -1),
                                   np.concatenate([pair.zeta1, c1 + 0 * sh, c1 + sh], -1)))
    S = S_all[:, :1]
    nk = n[:, None] * n  # [n, k]
    G = w((N - 1) * c0) * N / S / lamd[:, (n - 1) % N]
    out.note("Fourier transform", _rel((lam[:, None, :] * w(nk)).sum(-1), G))
    out.note("Fourier inverse", _rel((w(-nk) / lam[:, None, :]).sum(-1),
                                     S * w((N - 1) * c1) * w(n) * lamd))
    # composing the closed-form transform with the inverse DFT returns
    # the Lambda table (N * identity after normalization)
    back = (G[:, None, :] * w(-nk)).sum(-1) / N  # [m, n]
    out.note("Fourier roundtrip", _rel(back, lam).max(axis=-1))
    # S identities
    out.note("S symmetry", _rel(S_all[:, 0], S_all[:, 1]))
    out.note("S shift (zeta0)", _rel(S_all[:, 2:5], S))
    out.note("S shift (zeta1)", _rel(S_all[:, 5:], S))
    d0 = d_const(cfg, 0.0)
    out.note("S Nth power",
             _rel(S_all[:, 0] ** N, d0 ** N * np.exp((ell + elld) / TWO_PI_I)))
    # factorization of unity
    out.note("unity factorization",
             _rel(np.prod(1 - w(c0 + n), axis=-1), 1 - np.exp(TWO_PI_I * z0)))
    # q-series transform; the fusion Nth power below reads <-zeta1|k>
    cyc_q, cyc_p = np.moveaxis(cyc_dilog(cfg, np.stack([-c1 + nn[:, None], -c1], 1), n), 1, 0)
    lhsq = (w(n * (c1 - nn[:, None])) / cyc[:, N:2 * N]).sum(-1)
    rhsq = w(nn) * w((N - 1) * (z0 + z1)) * (w(-n * c0) / cyc_q).sum(-1)
    out.note("q-series transform", _rel(lhsq, rhsq))
    # fusion identities: base and (k, l, m) = (1, 0, 0), (0, 1, -1), (2, -1, 1)
    alpha = z0 + 1j * ua
    beta = z0 - 0.3 + 0.2j * ub
    g = (1 - np.exp(TWO_PI_I * alpha)) / (1 - np.exp(TWO_PI_I * beta))
    gamma = np.log(g) / TWO_PI_I
    a, b, c = alpha[:, None], beta[:, None], gamma[:, None]
    k, l, m = np.array([[0, 1, 0, 2], [0, 0, 1, -1], [0, 0, -1, 1]])
    fus = fusion_f(cfg, a + k, b + l, c + m)
    base, k, l, m = fus[:, :1], k[1:], l[1:], m[1:]
    # <x|j> for (x, j) = (alpha-beta-1, k-l), (beta, l), (-gamma, -m),
    # (alpha, k), (alpha-beta-gamma-1, k-l-m)
    cd = cyc_dilog(cfg, np.stack([a - b - 1, b, -c, a, a - b - c - 1], 1),
                   np.stack([k - l, l, -m, k, k - l - m]))
    rhsf = base * (cd[:, 0] * cd[:, 1] * cd[:, 2]) / (
        w(l * (c + m)) * w(m * (b + 1)) * cd[:, 3] * cd[:, 4])
    out.note("fusion shift identity", np.abs(fus[:, 1:] - rhsf) / np.maximum(1.0, np.abs(base)))
    # integral gamma, at (k, l, m) = (1, 0, 0), (2, 1, -1), (0, 2, 1)
    k, l, m = np.array([[1, 2, 0], [0, 1, 2], [0, -1, 1]])
    lhsf = fusion_f(cfg, a + k, a + l - 1, m)
    mb_m, mb_kl = (-m) % N, (k - l) % N
    rhsf = (N * (1 - w(a + l)) / (1 - np.exp(TWO_PI_I * a))
            * w(mb_m * (a + l)) / cyc_dilog(cfg, a + l, mb_kl)
            * poch[mb_kl + mb_m] / (poch[mb_kl] * poch[mb_m]))
    out.note("fusion integer form", np.abs(lhsf - rhsf) / np.maximum(1.0, np.abs(lhsf)))
    # fusion Nth power (beta plays -zeta1, gamma plays -zeta0)
    bP, gP = -z1, -z0
    lhsP = (w(n * gP[:, None]) / cyc_p).sum(-1) ** N
    dP = d_const(cfg, np.stack([-gP, bP], -1))
    rhsP = (d0 ** N * w(N * (N - 1) * gP)
            * (1 - np.exp(-TWO_PI_I * gP)) ** N
            * (1 - np.exp(TWO_PI_I * bP)) ** N
            / (1 - w(-gP)) ** N / (1 - w(bP)) ** N
            / dP[:, 0] ** N / dP[:, 1] ** N)
    out.note("fusion Nth power", _rel(lhsP, rhsP))
    return out


# ------------------------------------------------------------ characters

@dataclass(frozen=True)
class SL2StarElement:
    """Dual-group element: a pair (lower, upper) of triangular 2x2 matrices,
    or a stack of them (shape (..., 2, 2)).

    lower = [[kappa, 0], [phi, 1]], upper = [[1, eps], [0, kappa]], kappa != 0.
    Group coordinates of a character chi: kappa = chi(K^N) = a,
    eps = chi(E^N) = b(a-m), phi = kappa*chi(F^N) = b^{-1}(a - 1/m).
    The properties kappa, eps and phi are arrays over the stack (0-d for
    one element).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=complex)
        up = np.asarray(self.upper, dtype=complex)
        if lo.shape[-2:] != (2, 2) or up.shape != lo.shape:
            raise ValueError("SL2* components must be 2x2")
        tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo).max(axis=(-2, -1)),
                                                np.abs(up).max(axis=(-2, -1))))
        if np.any((abs(lo[..., 0, 1]) > tol) | (abs(lo[..., 1, 1] - 1.0) > tol)
                  | (abs(up[..., 1, 0]) > tol) | (abs(up[..., 0, 0] - 1.0) > tol)
                  | (abs(lo[..., 0, 0] - up[..., 1, 1]) > tol)):
            raise ValueError("matrices do not have the SL2* triangular shape")
        if np.any(abs(lo[..., 0, 0]) < 1e-12):
            raise ValueError("kappa must be nonzero")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def kappa(self) -> np.ndarray:
        return self.lower[..., 0, 0]

    @property
    def eps(self) -> np.ndarray:
        return self.upper[..., 0, 1]

    @property
    def phi(self) -> np.ndarray:
        return self.lower[..., 1, 0]

    def holonomy(self) -> np.ndarray:
        """psi_coords of this element's character: lower @ inverse(upper)."""
        return self.lower @ np.linalg.inv(self.upper)


def _mat2(p, q, r, s) -> np.ndarray:
    """[[p, q], [r, s]] as a complex matrix; entries that are equal-shape
    arrays give a stack of matrices of that shape."""
    M = np.empty(np.broadcast(p, q, r, s).shape + (2, 2), dtype=complex)
    M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1] = p, q, r, s
    return M


def psi_coords(a, b, m) -> np.ndarray:
    """Holonomy matrix of the character (a, b, m); determinant 1.

    [[a, -b(a-m)], [b^{-1}(a - 1/m), m + 1/m - a]].  The coordinates are
    scalars, or equal-shape arrays for a stack of matrices.
    """
    return _mat2(a, -b * (a - m), (a - 1.0 / m) / b, m + 1.0 / m - a)


def z0_coords(a, b, m) -> SL2StarElement:
    """SL2* element of the character (a, b, m); psi = lower @ upper^{-1} by
    construction.  Equal-shape coordinate arrays give a stack of elements."""
    eps = b * (a - m)
    phi = (a - 1.0 / m) / b
    return SL2StarElement(_mat2(a, 0.0, phi, 1.0), _mat2(1.0, eps, 0.0, a))


def char_product(c1: SL2StarElement, c2: SL2StarElement) -> SL2StarElement:
    """Group product (componentwise matrix product); realizes the coproduct
    pairing.  Stacks multiply element by element."""
    return SL2StarElement(c1.lower @ c2.lower, c1.upper @ c2.upper)


def check_characters(cfg: RootConfig, rng: np.random.Generator, trials: int) -> dict:
    """Every trial at once: coordinate arrays through braid_coords, z0_coords,
    char_product and psi_coords, drawn as the scalar samplers draw them."""
    out = _Worst()
    a, b, m = sampling.random_char_coords(rng, (trials, 2))
    c1, c2 = (a[:, 0], b[:, 0], m[:, 0]), (a[:, 1], b[:, 1], m[:, 1])
    (o2, o1), ok = braid_coords(*c1, *c2, +1)
    c1, c2, o2, o1 = ([x[ok] for x in c] for c in (c1, c2, o2, o1))
    back, back_ok = braid_coords(*o2, *o1, -1)
    out.note("inverse pair", np.abs(np.subtract(
        (*back[0], *back[1]), (*c1, *c2))).max(axis=0)[back_ok])
    p_in = char_product(z0_coords(*c1), z0_coords(*c2))
    p_out = char_product(z0_coords(*o2), z0_coords(*o1))
    out.note("product preservation", np.maximum(
        np.abs(p_in.lower - p_out.lower).max(axis=(-2, -1)),
        np.abs(p_in.upper - p_out.upper).max(axis=(-2, -1))))
    out.note("a balance", abs(c1[0] * c2[0] - o1[0] * o2[0]))
    out.note("det psi", abs(np.linalg.det(psi_coords(*c1)) - 1.0))
    out.note("Casimir relation", casimir_relation(*c1, np.log(c1[2]) / TWO_PI_I))
    # braid relation on triples: sigma_0 sigma_1 sigma_0 = sigma_1 sigma_0 sigma_1
    a, b, m = sampling.random_char_coords(rng, (4 * trials, 3))
    triple = tuple((a[:, j], b[:, j], m[:, j]) for j in range(3))
    sides = []
    for word in ((0, 1, 0), (1, 0, 1)):
        t, t_ok = triple, True
        for i in word:
            pair, step_ok = braid_coords(*t[i], *t[i + 1], +1)
            t, t_ok = t[:i] + pair + t[i + 2:], t_ok & step_ok
        sides.append((sum(t, ()), t_ok))
    (lhs, lhs_ok), (rhs, rhs_ok) = sides
    out.note("braid relation",
             np.abs(np.subtract(lhs, rhs)).max(axis=0)[lhs_ok & rhs_ok])
    return out


class RootMismatchError(ValueError):
    """A claimed N-th root does not exponentiate to the claimed value."""


def casimir_relation(a, b, m, mu):
    """Residual of the Chebyshev/Casimir compatibility relation.

    P_N(t + 1/t) = t^N + 1/t^N with t = omega**(mu + 1/2) must match
    chi(E^N F^N - K^N - K^{-N}) for the character chi = (a, b, m); both
    sides equal -(m + 1/m).  The residual is |LHS - RHS| (absolute, both
    sides O(1)-normalized).  Scalars, or equal-shape arrays for a residual
    per entry.
    """
    mN = np.exp(TWO_PI_I * mu)
    if np.any(abs(mN - m) > 1e-9 * np.maximum(1.0, abs(m))):
        raise RootMismatchError(f"omega**(N mu) = {mN} != m = {m}")
    tN = mN * np.exp(1j * np.pi)  # omega**(N(mu+1/2)) = -m
    lhs = tN + 1.0 / tN
    rhs = b * (a - m) * (a - 1.0 / m) / (a * b) - a - 1.0 / a
    return abs(lhs - rhs)


# --------------------------------------------------------------- weylrep

def _central_scalars(el: SL2StarElement) -> tuple:
    """(kappa, eps, phi/kappa): the scalars by which K^N, E^N and F^N act on
    a module, or a tensor product of modules, whose dual-group element is el."""
    return el.kappa, el.eps, el.phi / el.kappa


def check_weylrep(cfg: RootConfig, rng: np.random.Generator, trials: int) -> dict:
    """Stacks of module matrices from rep_matrices, drawn as the scalar
    samplers draw them (a pair of characters per trial, then the commutant
    probes); the N^2 x N^2 tensor grading is formed one trial at a time."""
    N = cfg.N
    xi = cfg.xi
    out = _Worst()
    eyeN = np.eye(N)
    logs = sampling.random_char_logs(rng, (trials, 2))  # (lc, lc2) per trial
    probes = sampling.random_char_logs(rng, (max(4, trials // 2),))
    lc, lc2 = (LogWeylChar(*np.moveaxis(logs[:, i], -1, 0)) for i in (0, 1))
    el1, el2 = (z0_coords(*np.moveaxis(np.exp(TWO_PI_I * logs[:, i]), -1, 0))
                for i in (0, 1))
    cas = cfg.omega_pow(lc.mu + 0.5) + cfg.omega_pow(-(lc.mu + 0.5))
    for basis in (Basis.WEIGHT, Basis.FOURIER):
        g = rep_matrices(cfg, lc, basis)
        out.note("Weyl relation", _mrel(g.x @ g.y, cfg.omega * g.y @ g.x))
        out.note("KE = xi^2 EK", _mrel(g.K @ g.E, xi ** 2 * g.E @ g.K))
        out.note("KF = xi^-2 FK", _mrel(g.K @ g.F, g.F @ g.K / xi ** 2))
        out.note("[E,F] relation",
                 _mrel(g.E @ g.F - g.F @ g.E,
                       (xi - 1 / xi) * (g.K - np.linalg.inv(g.K))))
        out.note("Casimir scalar", _mrel(g.Omega, cas[:, None, None] * eyeN))
        out.note("central scalars", [_mrel(matrix_power(M, N), sc[:, None, None] * eyeN)
                                     for M, sc in zip((g.K, g.E, g.F), _central_scalars(el1))])
    # tensor grading; g holds the FOURIER matrices of lc
    g2 = rep_matrices(cfg, lc2, Basis.FOURIER)
    scalars = _central_scalars(char_product(el1, el2))
    eye2 = np.eye(N * N)
    for t in range(trials):
        K, E, F, K2, E2, F2 = (m[t] for m in (g.K, g.E, g.F, g2.K, g2.E, g2.F))
        M12 = (_kron(K, K2), _kron(E, K2) + _kron(eyeN, E2),
               _kron(F, eyeN) + _kron(np.linalg.inv(K), F2))
        out.note("tensor grading", np.max([_mrel(matrix_power(M, N), sc[t] * eye2)
                                           for M, sc in zip(M12, scalars)]))
    # commutant probes across the scalar/parabolic/reducible cases, one stack
    cases = np.array([(-0.5, 0.0, -0.5), (0.31, 0.11, 0.5), (0.5, 0.37, 0.5)])
    dims = commutant_dim(rep_matrices(
        cfg, LogWeylChar(*np.concatenate([probes, cases]).T), Basis.FOURIER))
    scalar, parabolic, reducible = np.abs(dims[len(probes):] - 1)
    out.note("commutant generic", np.abs(dims[:len(probes)] - 1))
    out.note("commutant scalar case", scalar)
    out.note("commutant parabolic case", parabolic)
    if N >= 3:
        out.note("commutant reducible case", reducible)
    return out


# --------------------------------------------------------------- rmatrix

def transform_rules(c: CrossingData, R: RTensor, gamma_shifts: dict = None,
                    beta_shifts: tuple = (0, 0, 0, 0)) -> tuple:
    """The one integer-shift rule: beta_i -> beta_i + l_i and gamma_r ->
    gamma_r + k_r, all integers.  Returns the shifted crossing and the
    entries its R-matrix has by the rule, predicted from R, the R-matrix
    of c (rmat or rmat_pinched).

    Over the region table the shifted crossing's R-matrix is
    R_new[n] = phase * omega**(sum_r p_r k_r d_r(n)) * R[n + l], with
    phase = phase_g * phase_b.  The beta phase is omega**(sum_r p_r d_r(l)
    zeta1_r / 2) with c's zeta1 at kappa = 0: kappa cancels (sum_r p_r d_r
    = 0), so it is finite at pinched crossings too.  The gamma phase is
    omega**(sum_r p_r k_r zeta0_r / 2) with the beta-shifted zeta0, so that
    the index-linear gamma factor applies at the unshifted entry indices.
    """
    gamma_shifts = gamma_shifts or {}
    for v in list(gamma_shifts.values()) + list(beta_shifts):
        if int(v) != v:
            raise ValueError("all shifts must be integers")
    N = c.cfg.N
    k = {r: gamma_shifts.get(r, 0) for r in REGIONS}
    betas = (c.lc1.beta, c.lc2.beta, c.lc1p.beta, c.lc2p.beta)
    gammas = (c.gamma_n, c.gamma_w, c.gamma_s, c.gamma_e)
    shifted = crossing_from_logs(c.cfg, c.sign, [b + l for b, l in zip(betas, beta_shifts)],
                                 (c.lc1.mu, c.lc2.mu),
                                 [g + k[r] for r, g in zip(REGIONS, gammas)], c.kappa)
    z1, z0 = c.zeta1(kappa=0), shifted.zeta0()  # zeta0 reads no gamma
    phase_b = c.cfg.omega_pow(sum(
        p * d * z1[r] for r, (d, _, p) in _region_terms(c.sign, *beta_shifts).items()) / 2.0)
    phase_g = c.cfg.omega_pow(sum(
        p * k[r] * z0[r] for r, (_, _, p) in _region_terms(c.sign, 0, 0, 0, 0).items()) / 2.0)
    l1, l2, l1p, l2p = beta_shifts
    n1, n2, n1p, n2p = _index_grids(N)
    moved = R.entries.reshape(N, N, N, N)[
        (n1 + l1) % N, (n2 + l2) % N, (n1p + l1p) % N, (n2p + l2p) % N]
    terms = _region_terms(c.sign, n1, n2, n1p, n2p)
    expo = sum(p * k[r] * d for r, (d, _, p) in terms.items())
    pred = phase_g * phase_b * np.power(c.cfg.omega, expo) * moved
    return shifted, pred.reshape(N * N, N * N)


def _intertwining_rows(cfg: RootConfig, cs: list, out: _Worst) -> None:
    """The intertwining row of the built crossings cs, crossing by
    crossing: a normwise backward error, like R2 contraction (R is badly
    conditioned at large N)."""
    for c in cs:
        images = rw_images if c.sign > 0 else rw_images_negative
        piu = pi_tensor(cfg, c.lc1, c.lc2)
        imgs = images(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)
        act = rmat(c).as_operator()
        for key in ("x1", "x2", "y1inv", "y2", "z1", "z2"):
            pi, rho = piu[key], imgs[key]
            out.note("intertwining", np.linalg.norm(act @ pi - rho @ act) / (
                np.linalg.norm(act) * (np.linalg.norm(pi) + np.linalg.norm(rho))))


def _generic_rows(cfg: RootConfig, rng: np.random.Generator, trials: int,
                  out: _Worst) -> None:
    """The rows of trials generic crossings of each sign, each drawn with
    its gamma and beta shifts.  Each set of variants is one build_crossings
    pass, and goes once its rows are noted: at N = 32 a crossing holds
    16 MB."""
    cs, shifts = [], []
    for sign in (+1, -1):
        for _ in range(trials):
            cs.append(sampling.random_crossing(cfg, rng, sign))
            shifts.append(({r: int(rng.integers(-2, 3)) for r in "NWSE"},
                           tuple(int(rng.integers(-2, 3)) for _ in range(4))))
    _kappa_row(cs, out)
    _intertwining_rows(cfg, cs, out)
    Bs = [braiding_op(c) for c in cs]
    fops = [factorized_ops(c) for c in cs]
    out.note("factorization", [_mrel(B.entries, f.braiding_matrix()) for B, f in zip(Bs, fops)])
    out.note("determinant closed vs LU", _det_deviation(cs, Bs))
    out.note("determinant closed vs factors",
             [_det_factor_deviation(c, f) for c, f in zip(cs, fops)])
    _shift_rows(cs, shifts, out)


def _kappa_row(cs: list, out: _Worst) -> None:
    """kappa independence: the crossings cs and their variants at kappa - 3
    and kappa + 2 are one build_crossings pass."""
    kappas = [replace(c, kappa=c.resolved_kappa() + p) for c in cs for p in (-3, 2)]
    build_crossings(cs + kappas)
    out.note("kappa independence", [_mrel(k.entries, c.entries)
                                     for k, c in zip(kappas, (c for c in cs for _ in "12"))])


def _shift_rows(cs: list, shifts: list, out: _Worst) -> None:
    """The gamma and beta shift rules of the built crossings cs, each with
    its (gamma, beta) shifts: the shifted crossings are one build_crossings
    pass."""
    rules = [transform_rules(c, rmat(c), gamma_shifts=k) for c, (k, _) in zip(cs, shifts)]
    rules += [transform_rules(c, rmat(c), beta_shifts=l) for c, (_, l) in zip(cs, shifts)]
    build_crossings([shifted for shifted, _ in rules])
    dev = [_mrel(shifted.entries, pred) for shifted, pred in rules]
    out.note("gamma shift rule", dev[:len(cs)])
    out.note("beta shift rule", dev[len(cs):])


def check_rmatrix(cfg: RootConfig, rng: np.random.Generator, trials: int) -> dict:
    """Each trial set at once.  The loops only draw, as the scalar suite
    drew; a set's crossings, with the variants its identities compare, are
    then one build_crossings pass, and the identities read the built
    crossings one by one."""
    N = cfg.N
    w = cfg.omega_pow
    out = _Worst()
    _generic_rows(cfg, rng, trials, out)
    # recurrences at a positive crossing, at every entry: np.roll(R4, 1,
    # axis) holds the entry whose index on that axis is one lower
    n1, n2, n1p, n2p = _index_grids(N)
    rec = [sampling.random_crossing(cfg, rng, +1) for _ in range(max(2, trials // 2))]
    build_crossings(rec)
    for c in rec:
        R4 = rmat(c).entries.reshape(N, N, N, N)
        z0 = c.zeta0()
        scale = np.abs(R4).max()
        al1, al2 = c.lc1.alpha, c.lc2.alpha
        al1p, al2p = c.lc1p.alpha, c.lc2p.alpha
        mu1, mu2 = c.lc1.mu, c.lc2.mu
        out.note("recurrence i", np.abs(
            R4 - np.roll(R4, 1, axis=3) * w(-al2p - mu2)
            * (1 - w(z0["E"] + n2p - n1p))
            / (1 - w(z0["N"] + n2p - n1))) / scale)
        out.note("recurrence ii", np.abs(
            R4 - np.roll(R4, 1, axis=2) * w(-al1p + mu1)
            * (1 - w(z0["S"] + n2 - n1p + 1))
            / (1 - w(z0["E"] + n2p - n1p + 1))) / scale)
        out.note("recurrence iii", np.abs(
            R4 - np.roll(R4, 1, axis=1) * w(al2 + mu2 + 1)
            * (1 - w(z0["W"] - 1 + n2 - n1))
            / (1 - w(z0["S"] + n2 - n1p))) / scale)
        out.note("recurrence iv", np.abs(
            R4 - np.roll(R4, 1, axis=0) * w(al1 - mu1 - 1)
            * (1 - w(z0["N"] + n2p - n1 + 1))
            / (1 - w(z0["W"] + n2 - n1))) / scale)
    # R2 contraction as a normwise backward error
    out.note("R2 contraction", r2_backward_error(
        *[sampling.random_crossing(cfg, rng, +1) for _ in range(trials)]))
    # pinched limit (absolute deviation) and closed pinched forms
    cpins = []
    for _ in range(max(2, trials // 3)):
        prm = _random_pinched_params(rng)
        for sign in (+1, -1):
            try:
                cpins.append(sampling.standard_pinched_crossing(cfg, *prm, sign=sign))
            except ValueError:
                continue
    out.note("pinched limit (abs)", [
        np.abs(_pinched_limit(cfg, c) - rmat_pinched(c).entries).max() for c in cpins])
    out.note("pinched R2 contraction", r2_backward_error(
        sampling.standard_pinched_crossing(cfg, *_random_pinched_params(rng))))
    # Kashaev: the region table at alpha = mu = -1/2 is the canonical matrix
    K = kashaev_rmat(cfg)
    out.note("Kashaev normalization", _mrel(K.entries, kashaev_closed_form(cfg)))
    out.note("Kashaev braid relation",
             braid_relation_deviation(cfg, K.braiding().as_operator()))
    # weight basis: conjugation vs closed form vs specializations
    prm = _random_pinched_params(rng)
    cpin = sampling.standard_pinched_crossing(cfg, *prm)
    cj = kashaev_crossing(cfg)
    al1 = prm[2]  # reuse mu1 as the nilpotent alpha1 = mu1
    cnil = sampling.standard_pinched_crossing(cfg, al1, prm[1], al1, prm[3],
                                              alpha2p=prm[1])
    build_crossings([cpin, cj, cnil])
    out.note("weight-basis closed form",
             _mrel(weight_basis_rmat(cpin).entries, weight_basis_closed_form(cpin)))
    out.note("colored-Jones form",
             _mrel(weight_basis_rmat(cj).entries, colored_jones_closed_form(cfg)))
    out.note("nilpotent form",
             _mrel(weight_basis_rmat(cnil).entries, nilpotent_closed_form(cnil)))
    return out


def _random_pinched_params(rng) -> tuple:
    return (complex(rng.uniform(0.1, 0.4) + 0.05j * rng.uniform(-1, 1)),
            complex(rng.uniform(-0.4, -0.1) + 0.05j * rng.uniform(-1, 1)),
            complex(rng.uniform(0.05, 0.3) - 0.03j * rng.uniform(-1, 1)),
            complex(rng.uniform(0.3, 0.45) + 0.04j * rng.uniform(-1, 1)))


def _pinched_limit(cfg: RootConfig, cpin: CrossingData) -> np.ndarray:
    """Richardson-extrapolated limit of the generic formula toward a pinched
    point, from seven perturbations beta_2 + 1e-2 / 2**k; the pinched
    crossing and its perturbations are one build_crossings pass."""
    def near(x, ref):
        """The logarithm of x (over 2 pi i) on the branch closest to ref."""
        lg = cmath.log(x) / TWO_PI_I
        return lg + round((ref - lg).real)

    def perturbed(t):
        lc1, lc2t = cpin.lc1, replace(cpin.lc2, beta=cpin.lc2.beta + t)
        outt = braid(lc1.char(), lc2t.char(), cpin.sign)
        if not outt.admissible or outt.pinched:
            raise RuntimeError("perturbation left the admissible range")
        g_n = cpin.gamma_n
        g_w = g_n + lc1.alpha
        betas = (lc1.beta, lc2t.beta, near(outt.chi1p.b, cpin.lc1p.beta),
                 near(outt.chi2p.b, cpin.lc2p.beta))
        gammas = (g_n, g_w, g_w + lc2t.alpha, g_n + near(outt.chi2p.a, cpin.lc2p.alpha))
        return crossing_from_logs(cfg, cpin.sign, betas, (lc1.mu, lc2t.mu), gammas)

    ts = [1e-2 / 2 ** k for k in range(7)]
    nodes = [perturbed(t) for t in ts]
    build_crossings([cpin] + nodes)
    tab = [rmat(c).entries for c in nodes]
    for j in range(1, len(tab)):
        for i in range(len(tab) - 1, j - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * ts[i] / (ts[i - j] - ts[i])
    return tab[-1]


# ------------------------------------------------------ pinched closed forms
# Kashaev's matrix (q-alg/9504020) in the Fourier basis, and the pinched
# R-matrix in the weight basis, in general and at its nilpotent and
# colored-Jones specializations.

def kashaev_closed_form(cfg: RootConfig) -> np.ndarray:
    """Kashaev's cyclic R-matrix (q-alg/9504020) in the Fourier basis.

    Entries N omega**(n2'-n1+1/2) theta / ((w;w)_[n2'-n1] (w;w)_[n2-n1']
    (wb;wb)_[n1'-n2'-1] (wb;wb)_[n1-n2]), wb = 1/omega and [x] = x mod N,
    with the cutoff theta = 1 exactly when [n1-n2] + [n1'-n2'-1] < N and
    [n2'-n1] + [n2-n1'] < N.
    """
    N = cfg.N
    poch_w = _qfactorials(cfg, N, +1)
    poch_wb = _qfactorials(cfg, N, -1)
    n1, n2, n1p, n2p = _index_grids(N)
    theta = (((n1 - n2) % N + (n1p - n2p - 1) % N < N)
             & ((n2p - n1) % N + (n2 - n1p) % N < N))
    num = N * cfg.omega_pow(0.5) * np.power(cfg.omega, (n2p - n1))
    den = (poch_w[(n2p - n1) % N] * poch_w[(n2 - n1p) % N]
           * poch_wb[(n1p - n2p - 1) % N] * poch_wb[(n1 - n2) % N])
    return (theta * num / den).reshape(N * N, N * N)


def weight_basis_rmat(c: CrossingData) -> RTensor:
    """Pinched R-matrix in the weight basis (discrete Fourier conjugate)."""
    if not c.pinched:
        raise PinchedCrossingError("weight-basis closed form needs a pinched crossing")
    N = c.cfg.N
    G = fourier_matrix(c.cfg)
    G2 = np.kron(G, G)
    G2inv = np.kron(G.conj().T, G.conj().T) / (N * N)
    op_wb = G2 @ rmat_pinched(c).as_operator() @ G2inv
    return RTensor(c.cfg, op_wb.T.copy())


def weight_basis_closed_form(c: CrossingData) -> np.ndarray:
    """Closed-form entries of the weight-basis pinched R-matrix.

    R_{n1 n2}^{n1' n2'} = delta_N(n1+n2, n1'+n2') * a1 (m2 a2 - 1) /
    (m1 + a1 (m2 a2 - 1)) / (1 - omega**(-alpha2'-mu2+n2'))
    * (1/N) * f(-alpha2'-mu2+n2', -alpha2-mu2+n2-1, alpha1'-mu1-n1').
    """
    if not c.pinched:
        raise PinchedCrossingError("closed form needs a pinched crossing")
    N = c.cfg.N
    w = c.cfg.omega_pow
    chi1, chi2 = c.lc1.char(), c.lc2.char()
    a1, m1, a2, m2 = chi1.a, chi1.m, chi2.a, chi2.m
    mu1, mu2 = c.lc1.mu, c.lc2.mu
    al2, al1p, al2p = c.lc2.alpha, c.lc1p.alpha, c.lc2p.alpha
    const = a1 * (m2 * a2 - 1.0) / (m1 + a1 * (m2 * a2 - 1.0)) / N
    n = np.arange(N)
    n2, n1p, n2p = n[:, None, None], n[None, :, None], n[None, None, :]  # val[n2, n1', n2']
    val = (const / (1.0 - w(-al2p - mu2 + n2p))
           * fusion_f(c.cfg, -al2p - mu2 + n2p, -al2 - mu2 + n2 - 1, al1p - mu1 - n1p))
    n1, n2, n1p, n2p = _index_grids(N)
    R = np.where((n1 + n2 - n1p - n2p) % N == 0, val[n2, n1p, n2p], 0.0)
    return R.reshape(N * N, N * N)


def nilpotent_closed_form(c: CrossingData) -> np.ndarray:
    """Weight-basis pinched R-matrix when alpha_1 = mu_1 = alpha_1'.

    With nu_2 = alpha_2 + mu_2 and k = (n2' - n2 mod N), the entries are
    delta_N(n1+n2, n1'+n2') * (1-omega**(-nu2+n2))/(1-omega**(-nu2+n2'))
    * omega**(n1'(-nu2+n2)) / <-nu2+n2 | k>
    * (w;w)_{k+n1'} / ((w;w)_k (w;w)_{n1'}), and zero where k + n1' >= N.
    """
    if not c.pinched:
        raise PinchedCrossingError("closed form needs a pinched crossing")
    if (abs(c.lc1.alpha - c.lc1.mu) > 1e-9
            or abs(c.lc1p.alpha - c.lc1.alpha) > 1e-9):
        raise ConstraintViolationError("needs alpha_1 = mu_1 = alpha_1'")
    N = c.cfg.N
    nu2 = c.lc2.alpha + c.lc2.mu
    poch = _qfactorials(c.cfg, 2 * N, +1)
    n = np.arange(N)
    cd = cyc_dilog(c.cfg, -nu2 + n[:, None], n)  # [n, k]
    w = c.cfg.omega_pow
    wn = w(-nu2 + n)
    n1, n2, n1p, n2p = _index_grids(N)
    k = (n2p - n2) % N
    R = np.where(((n1 + n2 - n1p - n2p) % N == 0) & (k + n1p < N),
                 (1.0 - wn[n2]) / (1.0 - wn[n2p]) * w(n1p * (-nu2 + n2))
                 / cd[n2, k] * poch[k + n1p] / (poch[k] * poch[n1p]), 0.0)
    return R.reshape(N * N, N * N)


def colored_jones_closed_form(cfg: RootConfig) -> np.ndarray:
    """Weight-basis pinched R-matrix at alpha_j = mu_j = -1/2 (all j).

    Entries delta(n1+n2, n1'+n2') * omega**(n1'(1+n2))
    * (w;w)_{n2'} (w;w)_{n1} / ((w;w)_{n2} (w;w)_{n2'-n2} (w;w)_{n1'}),
    nonzero only when the index sums agree exactly and n2' >= n2; the
    framed N-th colored Jones braiding kernel.
    """
    N = cfg.N
    poch = _qfactorials(cfg, N, +1)
    n1, n2, n1p, n2p = _index_grids(N)
    R = np.where((n1 + n2 == n1p + n2p) & (n2p >= n2),
                 cfg.omega_pow(n1p * (1 + n2)) * poch[n2p] * poch[n1]
                 / (poch[n2] * poch[(n2p - n2) % N] * poch[n1p]), 0.0)
    return R.reshape(N * N, N * N)


# -------------------------------------------------------------- braidgrpd
# The braid-level identities apply both sides to the same seeded probe
# columns (_probes) and compare the results through _sum_dev; no state sum
# is formed.  Functoriality's product side sums over the shared slot by
# einsum, a route independent of apply.

def edge_gluing_defects(cfg: RootConfig, d: DiagramGraph, lc: LogColoring) -> list:
    """Signed zeta^0 sums around internal regions (all should vanish)."""
    role_sign = {"N": +1, "W": -1, "S": +1, "E": -1}
    sums = {}
    for c in d.crossings:
        cd = crossing_data(cfg, d, lc, c)
        z0 = cd.zeta0()
        for role, reg in (("N", c.reg_n), ("W", c.reg_w),
                          ("S", c.reg_s), ("E", c.reg_e)):
            sums[reg] = sums.get(reg, 0.0) + c.sign * role_sign[role] * z0[role]
    return [abs(sums.get(r, 0.0)) for r in d.internal_regions()]


def _in_pairs(seq: list):
    """(seq[0], seq[1]), (seq[2], seq[3]), ..."""
    return zip(seq[::2], seq[1::2])


def check_braidgrpd(cfg: RootConfig, rng: np.random.Generator, trials: int) -> dict:
    """Each trial set at once.  The loops only draw, as the scalar suite
    drew; the crossings of a set's colored words are then one
    build_crossings pass (word_crossings), which _apply_crossings reads."""
    N = cfg.N
    out = _Worst()
    V2, V3 = _probes(N, 2), _probes(N, 3)
    # R2 move at the diagram level (bottom boundary must equal the top one)
    d2 = build_diagram(BraidWord(2, (1, -1)))
    lcs = []
    for _ in range(trials):
        lc = sampling.random_coloring(cfg, d2, rng)
        top = lc.top(d2)
        lcs.append(extend_log_coloring(d2, *top, lc.mu, *pin_bottom(d2, *top)))
    for lc, cds in zip(lcs, word_crossings(cfg, *[(d2, lc) for lc in lcs])):
        out.note("R2 move", _sum_dev(_apply_crossings(cfg, d2, cds, V2), V2))
    # composition functoriality: the word factors through its crossings.
    # (I x B1)(B0 x I) V is summed over the one slot the braidings share.
    d_ab = build_diagram(BraidWord(3, (1, 2)))
    lcs = [sampling.random_coloring(cfg, d_ab, rng) for _ in range(trials)]
    for lc, cds in zip(lcs, word_crossings(cfg, *[(d_ab, lc) for lc in lcs])):
        b0, b1 = (braiding_op(cd).as_operator().reshape(N, N, N, N) for cd in cds)
        b0V = np.einsum("ayij,ijkm->aykm", b0, V3.reshape(N, N, N, -1))
        m10V = np.einsum("bcyk,aykm->abcm", b1, b0V).reshape(N ** 3, -1)
        out.note("composition functoriality", _sum_dev(_apply_crossings(cfg, d_ab, cds, V3), m10V))
    # edge gluing (absolute defect)
    for word in ((1, -1), (1, 1), (1, 2, 1), (2, 1, -2, 1)):
        width = max(abs(x) for x in word) + 1
        dd = build_diagram(BraidWord(width, word))
        lc = sampling.random_coloring(cfg, dd, rng)
        defs = edge_gluing_defects(cfg, dd, lc)
        if defs:
            out.note("edge gluing (abs)", max(defs))
    # log-parameter dependence
    dd = build_diagram(BraidWord(3, (1, 2, 1)))
    pairs = []
    for _ in range(trials):
        lc0 = sampling.random_coloring(cfg, dd, rng)
        b_over = {s: lc0.beta[s] + int(rng.integers(-2, 3))
                  for s in dd.internal_segments()}
        g_over = {r: lc0.gamma[r] + int(rng.integers(-2, 3))
                  for r in dd.internal_regions()}
        pin_b, pin_g = pin_bottom(dd, *lc0.bottom(dd))
        pairs.append((lc0, extend_log_coloring(dd, *lc0.top(dd), lc0.mu,
                                               {**b_over, **pin_b}, {**g_over, **pin_g})))
    for (lc0, lc1), (cds0, cds1) in zip(pairs, _in_pairs(
            word_crossings(cfg, *[(dd, lc) for pair in pairs for lc in pair]))):
        lam0, lam1 = log_longitudes(dd, lc0), log_longitudes(dd, lc1)
        phase = cmath.exp(-TWO_PI_I / N * sum(
            (l1 - l0) * m for l1, l0, m in zip(lam1, lam0, lc0.mu)))
        out.note("log-decoration dependence",
                 _sum_dev(_apply_crossings(cfg, dd, cds1, V3), phase * _apply_crossings(cfg, dd, cds0, V3)))
    # R3 move: each pair shares its boundary data and log-longitudes
    pairs = []
    for _ in range(trials * 6):
        if len(pairs) >= trials:
            break
        try:
            pairs.append(sampling.matched_pair_colorings(
                cfg, rng, (1, 2, 1), (2, 1, 2), 3))
        except RuntimeError:
            continue
    for (before, after), (cds0, cds1) in zip(pairs, _in_pairs(
            word_crossings(cfg, *[side for pair in pairs for side in pair]))):
        out.note("R3 move", _sum_dev(_apply_crossings(cfg, before[0], cds0, V3),
                                     _apply_crossings(cfg, after[0], cds1, V3)))
    # determinant cocycle over the double diagram
    loop = build_diagram(BraidWord(3, (1, 2, 1, -1, -2, -1)))
    closed = []
    for _ in range(trials * 4):
        if len(closed) >= max(2, trials // 2):
            break
        try:
            lc = sampling.random_coloring(cfg, loop, rng)
        except RuntimeError:
            continue
        # close the braid: bottom = top and zero log-longitudes
        top = lc.top(loop)
        lc = sampling.pinned_coloring(loop, top, top, lc.mu, [0.0, 0.0, 0.0])
        if lc is not None:
            closed.append(lc)
    for cds in word_crossings(cfg, *[(loop, lc) for lc in closed]):
        prod = np.exp(sum(logdet_braiding(cd) for cd in cds))
        out.note("determinant cocycle", min(abs(prod - 1.0), abs(prod + 1.0)))
    return out


# ----------------------------------------------------------------- runner

@dataclass(frozen=True)
class Identity:
    """A registered identity: the suite that evaluates it, its tolerance, and
    the smallest N at which it applies."""

    name: str
    suite: str
    tol: float
    min_N: int = 2


IDENTITIES = {i.name: i for i in (
    Identity("lambda recurrence", "qdilog", 1e-10),
    Identity("lambda periodicity", "qdilog", 1e-10),
    Identity("lambda shift (zeta0)", "qdilog", 1e-8),
    Identity("lambda shift (zeta1)", "qdilog", 1e-8),
    Identity("lambda product", "qdilog", 1e-8),
    Identity("lambda inverse sum", "qdilog", 1e-8),
    Identity("Fourier transform", "qdilog", 1e-8),
    Identity("Fourier inverse", "qdilog", 1e-8),
    Identity("Fourier roundtrip", "qdilog", 1e-8),
    Identity("S symmetry", "qdilog", 1e-8),
    Identity("S shift (zeta0)", "qdilog", 1e-8),
    Identity("S shift (zeta1)", "qdilog", 1e-8),
    Identity("S Nth power", "qdilog", 1e-8),
    Identity("unity factorization", "qdilog", 1e-10),
    Identity("q-series transform", "qdilog", 1e-8),
    Identity("fusion shift identity", "qdilog", 1e-8),
    Identity("fusion integer form", "qdilog", 1e-8),
    Identity("fusion Nth power", "qdilog", 1e-8),
    Identity("inverse pair", "characters", 1e-10),
    Identity("braid relation", "characters", 1e-9),
    Identity("product preservation", "characters", 1e-10),
    Identity("a balance", "characters", 1e-12),
    Identity("det psi", "characters", 1e-12),
    Identity("Casimir relation", "characters", 1e-10),
    Identity("Weyl relation", "weylrep", 1e-10),
    Identity("KE = xi^2 EK", "weylrep", 1e-10),
    Identity("KF = xi^-2 FK", "weylrep", 1e-10),
    Identity("[E,F] relation", "weylrep", 1e-10),
    Identity("Casimir scalar", "weylrep", 1e-10),
    Identity("central scalars", "weylrep", 1e-9),
    Identity("tensor grading", "weylrep", 1e-8),
    Identity("commutant generic", "weylrep", 0.0),
    Identity("commutant scalar case", "weylrep", 0.0),
    Identity("commutant parabolic case", "weylrep", 0.0),
    Identity("commutant reducible case", "weylrep", 0.0, min_N=3),
    Identity("intertwining", "rmatrix", 1e-12),
    Identity("factorization", "rmatrix", 1e-9),
    Identity("kappa independence", "rmatrix", 1e-12),
    Identity("determinant closed vs LU", "rmatrix", 1.0),  # deviation / LU bound
    Identity("determinant closed vs factors", "rmatrix", 1e-11),
    Identity("gamma shift rule", "rmatrix", 1e-8),
    Identity("beta shift rule", "rmatrix", 1e-8),
    Identity("recurrence i", "rmatrix", 1e-8),
    Identity("recurrence ii", "rmatrix", 1e-8),
    Identity("recurrence iii", "rmatrix", 1e-8),
    Identity("recurrence iv", "rmatrix", 1e-8),
    Identity("R2 contraction", "rmatrix", 1e-12),
    Identity("pinched limit (abs)", "rmatrix", 1e-5),
    Identity("pinched R2 contraction", "rmatrix", 1e-12),
    Identity("Kashaev normalization", "rmatrix", 1e-12),
    Identity("Kashaev braid relation", "rmatrix", 1e-10),
    Identity("weight-basis closed form", "rmatrix", 1e-8),
    Identity("colored-Jones form", "rmatrix", 1e-8),
    Identity("nilpotent form", "rmatrix", 1e-8),
    Identity("R2 move", "braidgrpd", 1e-8),
    Identity("R3 move", "braidgrpd", 1e-7),
    Identity("composition functoriality", "braidgrpd", 1e-10),
    Identity("edge gluing (abs)", "braidgrpd", 1e-10),
    Identity("log-decoration dependence", "braidgrpd", 1e-8),
    Identity("determinant cocycle", "braidgrpd", 1e-6),
)}


@dataclass
class CheckResult:
    module: str
    name: str
    N: int
    deviation: float
    tol: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.deviation == self.deviation and self.deviation <= self.tol

    @property
    def headroom(self):
        """tol / deviation, or None where the deviation is 0 or not finite
        (or the ratio overflows)."""
        if not 0.0 < self.deviation < math.inf:  # NaN fails too
            return None
        h = self.tol / self.deviation
        return h if h < math.inf else None


def run_all(Ns=(2, 3, 5), seed: int = 7, scale: float = 1.0) -> list:
    """Run every suite at every N; one CheckResult per registered identity and N.

    An identity that its suite evaluated zero times fails with deviation NaN.
    """
    rng = np.random.default_rng(seed)
    results = []
    for N in Ns:
        cfg = RootConfig(N)
        suites = (
            ("qdilog", check_qdilog, max(4, int(30 * scale))),
            ("characters", check_characters, max(40, int(400 * scale))),
            ("weylrep", check_weylrep, max(3, int(8 * scale))),
            ("rmatrix", check_rmatrix, max(2, int(6 * scale))),
            ("braidgrpd", check_braidgrpd, max(2, int(4 * scale))),
        )
        for module, fn, trials in suites:
            out = fn(cfg, rng, trials)
            for ident in IDENTITIES.values():
                if ident.suite != module or N < ident.min_N:
                    continue
                results.append(CheckResult(
                    module, ident.name, N, out.get(ident.name, float("nan")),
                    ident.tol, out.samples.get(ident.name, 0)))
    return results
