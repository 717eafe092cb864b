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
from .braidgrpd import (BraidWord, DiagramGraph, LogColoring, apply,
                        build_diagram, crossing_data, extend_log_coloring,
                        log_longitudes, on_slots, pin_bottom)
from .characters import LogWeylChar, braid, braid_coords
from .qdilog import (ConstraintViolationError, RootConfig, TWO_PI_I, cyc_dilog,
                     d_const, fusion_f, lambda_table, lifted_dilog, s_norm)
from .rmatrix import (REGIONS, CrossingData, FactorOps, PinchedCrossingError,
                      RTensor, _index_grids, _region_terms, braiding_op,
                      crossing_from_logs, factorized_ops, kashaev_crossing,
                      kashaev_rmat, logdet_braiding, rmat, rmat_pinched)
from .weylrep import (Basis, commutant_dim, fourier_matrix, matrix_power,
                      pi_tensor, rep_matrices, rw_images, rw_images_negative)


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _mrel(A, B) -> float:
    A, B = np.asarray(A), np.asarray(B)
    return float(np.abs(A - B).max() / max(1e-300, np.abs(A).max(), np.abs(B).max()))


def _omega_arr(N: int, x):
    """omega**x elementwise over an array x."""
    return np.exp(TWO_PI_I * x / N)


def _qfactorials(N: int, count: int, s: int) -> np.ndarray:
    """[(q; q)_k for k < count] at q = omega**s, the oracles' own route."""
    return np.cumprod(np.concatenate(([1.0], 1.0 - _omega_arr(N, s * np.arange(1, count)))))


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


def _det_deviation(c: CrossingData, B) -> float:
    """|det_closed / det_LU - 1| for the braiding B of c, in units of the
    error LU may make, 1e-10 + n eps cond_1(B) for the n x n operator.  It is
    formed from logarithms, so it stays finite where the determinants
    overflow."""
    op = B.as_operator()
    s, logabs = np.linalg.slogdet(op)
    bound = 1e-10 + len(op) * np.finfo(float).eps * np.linalg.cond(op, 1)
    return float(abs(np.exp(logdet_braiding(c) - logabs) / s - 1.0) / bound)


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


def r2_backward_error(c: CrossingData) -> float:
    """Normwise backward error ||B'B - I|| / (||B'|| ||B||) of Reidemeister II.

    B is the braiding of the positive crossing c and B' that of the negative
    crossing undoing it.  Unlike the entrywise residual, this stays near
    machine precision however badly conditioned B is.
    """
    B = braiding_op(c).as_operator()
    Binv = braiding_op(CrossingData(c.cfg, -1, c.lc2p, c.lc1p, c.lc2, c.lc1,
                                    c.gamma_n, c.gamma_e, c.gamma_s,
                                    c.gamma_w)).as_operator()
    return float(np.linalg.norm(Binv @ B - np.eye(len(B)))
                 / (np.linalg.norm(Binv) * np.linalg.norm(B)))


# ---------------------------------------------------------------- qdilog

def check_qdilog(cfg: RootConfig, rng: np.random.Generator, trials: int) -> dict:
    N = cfg.N
    w = cfg.omega_pow
    poch = _qfactorials(N, 2 * N, +1)  # the fusion integer form reads up to 2N - 2
    out = _Worst()
    for _ in range(trials):
        f = sampling.random_flattening(cfg, rng)
        z0, z1 = f.zeta0, f.zeta1
        lam = lambda_table(cfg, f)
        dual = f.dual()
        lamd = lambda_table(cfg, dual)
        # the series table the R-matrix reads vs the cyclic-dilogarithm
        # product Lambda(.|0) omega**(-n zeta1) <zeta0|n>, once per entry
        for n in range(N):
            out.note("lambda recurrence",
                     _rel(lam[n], lam[0] * w(-n * z1) * cyc_dilog(cfg, z0, n)))
        # that product is N-periodic in n
        for n in range(-N, N + 1):
            route = lam[0] * w(-n * z1) * cyc_dilog(cfg, z0, n)
            routeN = lam[0] * w(-(n + N) * z1) * cyc_dilog(cfg, z0, n + N)
            out.note("lambda periodicity", _rel(route, routeN))
        # shifts
        for k in (-2, -1, 1, 2):
            out.note("lambda shift (zeta0)",
                     _rel(lambda_table(cfg, f.shifted(k0=k))[1],
                          w(k * z1 / 2) * lam[(1 + k) % N]))
            out.note("lambda shift (zeta1)",
                     _rel(lambda_table(cfg, f.shifted(k1=k))[2 % N],
                          w(-k * z0 / 2 - 2 * k) * lam[2 % N]))
        # product over a period
        out.note("lambda product",
                 _rel(np.prod(lam),
                      w(-N * (N - 1) * z1 / 2) * cmath.exp(-lifted_dilog(f) / TWO_PI_I)))
        # inverse sum
        for (k, l) in ((0, 0), (1, 0), (2, 1), (0, 3 % N)):
            tot = sum(w(n) * lam[(n + k) % N] / lam[(n + l - 1) % N] for n in range(N))
            expect = (N * w(-k) * w((N - 1) * (z0 + z1)) if (l - k) % N == 0 else 0.0)
            out.note("lambda inverse sum", abs(tot - expect) / max(1.0, abs(expect)))
        # Fourier pair and its composition
        S = s_norm(cfg, f)
        for n in range(N):
            lhs = sum(lam[k] * w(n * k) for k in range(N))
            out.note("Fourier transform",
                     _rel(lhs, w((N - 1) * z0) * N / S / lamd[(n - 1) % N]))
            lhs2 = sum(w(-n * k) / lam[k] for k in range(N))
            out.note("Fourier inverse",
                     _rel(lhs2, S * w((N - 1) * z1) * w(n) * lamd[n]))
        # composing the closed-form transform with the inverse DFT returns
        # the Lambda table (N * identity after normalization)
        G = [w((N - 1) * z0) * N / S / lamd[(n - 1) % N] for n in range(N)]
        back = [sum(G[n] * w(-n * m) for n in range(N)) / N for m in range(N)]
        out.note("Fourier roundtrip", max(_rel(back[m], lam[m]) for m in range(N)))
        # S identities
        out.note("S symmetry", _rel(S, s_norm(cfg, dual)))
        for n in (-1, 1, 2):
            out.note("S shift (zeta0)", _rel(s_norm(cfg, f.shifted(k0=n)), S))
            out.note("S shift (zeta1)", _rel(s_norm(cfg, f.shifted(k1=n)), S))
        out.note("S Nth power",
                 _rel(S ** N, d_const(cfg, 0.0) ** N
                      * cmath.exp((lifted_dilog(f) + lifted_dilog(dual)) / TWO_PI_I)))
        # factorization of unity
        prodB = np.prod([1 - w(z0 + k) for k in range(N)])
        out.note("unity factorization", _rel(prodB, 1 - cmath.exp(TWO_PI_I * z0)))
        # q-series transformation
        nn = int(rng.integers(0, N))
        lhsq = sum(w(k * (z1 - nn)) / cyc_dilog(cfg, z0, k) for k in range(N))
        rhsq = w(nn) * w((N - 1) * (z0 + z1)) * sum(
            w(-k * z0) / cyc_dilog(cfg, -z1 + nn, k) for k in range(N))
        out.note("q-series transform", _rel(lhsq, rhsq))
        # fusion identities
        alpha = z0 + 1j * rng.uniform(0.1, 0.9)
        beta = z0 - 0.3 + 0.2j * rng.uniform(-1, 1)
        g = (1 - cmath.exp(TWO_PI_I * alpha)) / (1 - cmath.exp(TWO_PI_I * beta))
        gamma = cmath.log(g) / TWO_PI_I
        base = fusion_f(cfg, alpha, beta, gamma)
        for (k, l, m) in ((1, 0, 0), (0, 1, -1), (2, -1, 1)):
            lhsf = fusion_f(cfg, alpha + k, beta + l, gamma + m)
            rhsf = base * (cyc_dilog(cfg, alpha - beta - 1, k - l)
                           * cyc_dilog(cfg, beta, l) * cyc_dilog(cfg, -gamma, -m)) / (
                w(l * (gamma + m)) * w(m * (beta + 1)) * cyc_dilog(cfg, alpha, k)
                * cyc_dilog(cfg, alpha - beta - gamma - 1, k - l - m))
            out.note("fusion shift identity",
                     abs(lhsf - rhsf) / max(1.0, abs(base)))
        for (k, l, m) in ((1, 0, 0), (2, 1, -1), (0, 2, 1)):
            lhsf = fusion_f(cfg, alpha + k, alpha + l - 1, m)
            mb_m, mb_kl = (-m) % N, (k - l) % N
            rhsf = (N * (1 - w(alpha + l)) / (1 - cmath.exp(TWO_PI_I * alpha))
                    * w(mb_m * (alpha + l)) / cyc_dilog(cfg, alpha + l, mb_kl)
                    * poch[mb_kl + mb_m] / (poch[mb_kl] * poch[mb_m]))
            out.note("fusion integer form", abs(lhsf - rhsf) / max(1.0, abs(lhsf)))
        # fusion Nth power (beta plays -zeta1, gamma plays -zeta0)
        b, g2 = -z1, -z0
        lhsP = sum(w(k * g2) / cyc_dilog(cfg, b, k) for k in range(N)) ** N
        d0 = d_const(cfg, 0.0)
        rhsP = (d0 ** N * w(N * (N - 1) * g2)
                * (1 - cmath.exp(-TWO_PI_I * g2)) ** N
                * (1 - cmath.exp(TWO_PI_I * b)) ** N
                / (1 - w(-g2)) ** N / (1 - w(b)) ** N
                / d_const(cfg, -g2) ** N / d_const(cfg, b) ** N)
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
    N = cfg.N
    xi = cfg.xi
    out = _Worst()
    eyeN = np.eye(N)
    for _ in range(trials):
        lc = sampling.random_logchar(rng)
        scalars = _central_scalars(z0_coords(*lc.char().as_tuple()))
        for basis in (Basis.WEIGHT, Basis.FOURIER):
            g = rep_matrices(cfg, lc, basis)
            out.note("Weyl relation", _mrel(g.x @ g.y, cfg.omega * g.y @ g.x))
            out.note("KE = xi^2 EK", _mrel(g.K @ g.E, xi ** 2 * g.E @ g.K))
            out.note("KF = xi^-2 FK", _mrel(g.K @ g.F, g.F @ g.K / xi ** 2))
            out.note("[E,F] relation",
                     _mrel(g.E @ g.F - g.F @ g.E,
                           (xi - 1 / xi) * (g.K - np.linalg.inv(g.K))))
            cas = cfg.omega_pow(lc.mu + 0.5) + cfg.omega_pow(-(lc.mu + 0.5))
            out.note("Casimir scalar", _mrel(g.Omega, cas * eyeN))
            for M, sc in zip((g.K, g.E, g.F), scalars):
                out.note("central scalars", _mrel(matrix_power(M, N), sc * eyeN))
        # tensor grading
        lc2 = sampling.random_logchar(rng)
        g1 = rep_matrices(cfg, lc, Basis.FOURIER)
        g2 = rep_matrices(cfg, lc2, Basis.FOURIER)
        K12 = np.kron(g1.K, g2.K)
        E12 = np.kron(g1.E, g2.K) + np.kron(eyeN, g2.E)
        F12 = np.kron(g1.F, eyeN) + np.kron(np.linalg.inv(g1.K), g2.F)
        prod = char_product(z0_coords(*lc.char().as_tuple()),
                            z0_coords(*lc2.char().as_tuple()))
        eye2 = np.eye(N * N)
        out.note("tensor grading", max(
            _mrel(matrix_power(M, N), sc * eye2)
            for M, sc in zip((K12, E12, F12), _central_scalars(prod))))
    # commutant probes across the scalar/parabolic/reducible cases
    for _ in range(max(4, trials // 2)):
        lc = sampling.random_logchar(rng)
        out.note("commutant generic",
                 abs(commutant_dim(rep_matrices(cfg, lc, Basis.FOURIER)) - 1))
    out.note("commutant scalar case",
             abs(commutant_dim(rep_matrices(cfg, LogWeylChar(-0.5, 0.0, -0.5),
                                            Basis.FOURIER)) - 1))
    out.note("commutant parabolic case",
             abs(commutant_dim(rep_matrices(cfg, LogWeylChar(0.31, 0.11, 0.5),
                                            Basis.FOURIER)) - 1))
    if N >= 3:
        out.note("commutant reducible case",
                 abs(commutant_dim(rep_matrices(cfg, LogWeylChar(0.5, 0.37, 0.5),
                                                Basis.FOURIER)) - 1))
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


def check_rmatrix(cfg: RootConfig, rng: np.random.Generator, trials: int) -> dict:
    N = cfg.N
    w = cfg.omega_pow
    out = _Worst()
    for sign in (+1, -1):
        for _ in range(trials):
            c = sampling.random_crossing(cfg, rng, sign)
            R = rmat(c)
            act = R.as_operator()
            piu = pi_tensor(cfg, c.lc1, c.lc2)
            if sign == +1:
                imgs = rw_images(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)
            else:
                imgs = rw_images_negative(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)
            # normwise backward error, like R2 contraction: R is badly
            # conditioned at large N
            for key in ("x1", "x2", "y1inv", "y2", "z1", "z2"):
                pi, rho = piu[key], imgs[key]
                out.note("intertwining", np.linalg.norm(act @ pi - rho @ act) / (
                    np.linalg.norm(act) * (np.linalg.norm(pi) + np.linalg.norm(rho))))
            B = R.braiding()
            fops = factorized_ops(c)
            out.note("factorization", _mrel(B.entries, fops.braiding_matrix()))
            kap = c.resolved_kappa()
            for p in (-3, 2):
                out.note("kappa independence",
                         _mrel(rmat(replace(c, kappa=kap + p)).entries, R.entries))
            out.note("determinant closed vs LU", _det_deviation(c, B))
            out.note("determinant closed vs factors", _det_factor_deviation(c, fops))
            ks = {r: int(rng.integers(-2, 3)) for r in "NWSE"}
            shifted, pred = transform_rules(c, R, gamma_shifts=ks)
            out.note("gamma shift rule", _mrel(rmat(shifted).entries, pred))
            ls = tuple(int(rng.integers(-2, 3)) for _ in range(4))
            shifted, pred = transform_rules(c, R, beta_shifts=ls)
            out.note("beta shift rule", _mrel(rmat(shifted).entries, pred))
    # recurrences at a positive crossing, at every entry: np.roll(R4, 1,
    # axis) holds the entry whose index on that axis is one lower
    n1, n2, n1p, n2p = _index_grids(N)
    for _ in range(max(2, trials // 2)):
        c = sampling.random_crossing(cfg, rng, +1)
        R4 = rmat(c).entries.reshape(N, N, N, N)
        z0 = c.zeta0()
        scale = np.abs(R4).max()
        al1, al2 = c.lc1.alpha, c.lc2.alpha
        al1p, al2p = c.lc1p.alpha, c.lc2p.alpha
        mu1, mu2 = c.lc1.mu, c.lc2.mu
        out.note("recurrence i", np.abs(
            R4 - np.roll(R4, 1, axis=3) * w(-al2p - mu2)
            * (1 - _omega_arr(N, z0["E"] + n2p - n1p))
            / (1 - _omega_arr(N, z0["N"] + n2p - n1))) / scale)
        out.note("recurrence ii", np.abs(
            R4 - np.roll(R4, 1, axis=2) * w(-al1p + mu1)
            * (1 - _omega_arr(N, z0["S"] + n2 - n1p + 1))
            / (1 - _omega_arr(N, z0["E"] + n2p - n1p + 1))) / scale)
        out.note("recurrence iii", np.abs(
            R4 - np.roll(R4, 1, axis=1) * w(al2 + mu2 + 1)
            * (1 - _omega_arr(N, z0["W"] - 1 + n2 - n1))
            / (1 - _omega_arr(N, z0["S"] + n2 - n1p))) / scale)
        out.note("recurrence iv", np.abs(
            R4 - np.roll(R4, 1, axis=0) * w(al1 - mu1 - 1)
            * (1 - _omega_arr(N, z0["N"] + n2p - n1 + 1))
            / (1 - _omega_arr(N, z0["W"] + n2 - n1))) / scale)
    # R2 contraction as a normwise backward error
    for _ in range(trials):
        out.note("R2 contraction",
                 r2_backward_error(sampling.random_crossing(cfg, rng, +1)))
    # pinched limit (absolute deviation) and closed pinched forms
    for _ in range(max(2, trials // 3)):
        prm = _random_pinched_params(rng)
        for sign in (+1, -1):
            try:
                cpin = sampling.standard_pinched_crossing(cfg, *prm, sign=sign)
            except ValueError:
                continue
            lim = _pinched_limit(cfg, cpin)
            out.note("pinched limit (abs)",
                     float(np.abs(lim - rmat_pinched(cpin).entries).max()))
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
    out.note("weight-basis closed form",
             _mrel(weight_basis_rmat(cpin).entries, weight_basis_closed_form(cpin)))
    cj = kashaev_crossing(cfg)
    out.note("colored-Jones form",
             _mrel(weight_basis_rmat(cj).entries, colored_jones_closed_form(cfg)))
    al1 = prm[2]  # reuse mu1 as the nilpotent alpha1 = mu1
    cnil = sampling.standard_pinched_crossing(cfg, al1, prm[1], al1, prm[3],
                                              alpha2p=prm[1])
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
    point, from seven perturbations beta_2 + 1e-2 / 2**k."""
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
        return rmat(crossing_from_logs(cfg, cpin.sign, betas, (lc1.mu, lc2t.mu),
                                       gammas)).entries

    ts = [1e-2 / 2 ** k for k in range(7)]
    tab = [perturbed(t) for t in ts]
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
    poch_w = _qfactorials(N, N, +1)
    poch_wb = _qfactorials(N, N, -1)
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
    val = np.array([const / (1.0 - w(-al2p - mu2 + n2p))
                    * fusion_f(c.cfg, -al2p - mu2 + n2p, -al2 - mu2 + n2 - 1,
                               al1p - mu1 - n1p)
                    for n2, n1p, n2p in np.ndindex(N, N, N)]).reshape(N, N, N)
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
    poch = _qfactorials(N, 2 * N, +1)
    cd = np.array([[cyc_dilog(c.cfg, -nu2 + n, k) for k in range(N)] for n in range(N)])
    wn = _omega_arr(N, -nu2 + np.arange(N))
    n1, n2, n1p, n2p = _index_grids(N)
    k = (n2p - n2) % N
    R = np.where(((n1 + n2 - n1p - n2p) % N == 0) & (k + n1p < N),
                 (1.0 - wn[n2]) / (1.0 - wn[n2p]) * _omega_arr(N, n1p * (-nu2 + n2))
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
    poch = _qfactorials(N, N, +1)
    n1, n2, n1p, n2p = _index_grids(N)
    R = np.where((n1 + n2 == n1p + n2p) & (n2p >= n2),
                 _omega_arr(N, n1p * (1 + n2)) * poch[n2p] * poch[n1]
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


def check_braidgrpd(cfg: RootConfig, rng: np.random.Generator, trials: int) -> dict:
    N = cfg.N
    out = _Worst()
    V2, V3 = _probes(N, 2), _probes(N, 3)
    # R2 move at the diagram level (bottom boundary must equal the top one)
    d2 = build_diagram(BraidWord(2, (1, -1)))
    for _ in range(trials):
        lc = sampling.random_coloring(cfg, d2, rng)
        top = lc.top(d2)
        lc = extend_log_coloring(d2, *top, lc.mu, *pin_bottom(d2, *top))
        out.note("R2 move", _sum_dev(apply(cfg, d2, lc, V2), V2))
    # composition functoriality: the word factors through its crossings.
    # (I x B1)(B0 x I) V is summed over the one slot the braidings share.
    d_ab = build_diagram(BraidWord(3, (1, 2)))
    for _ in range(trials):
        lc = sampling.random_coloring(cfg, d_ab, rng)
        b0, b1 = (braiding_op(crossing_data(cfg, d_ab, lc, c)).as_operator()
                  .reshape(N, N, N, N) for c in d_ab.crossings)
        b0V = np.einsum("ayij,ijkm->aykm", b0, V3.reshape(N, N, N, -1))
        m10V = np.einsum("bcyk,aykm->abcm", b1, b0V).reshape(N ** 3, -1)
        out.note("composition functoriality", _sum_dev(apply(cfg, d_ab, lc, V3), m10V))
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
    for _ in range(trials):
        lc0 = sampling.random_coloring(cfg, dd, rng)
        b_over = {s: lc0.beta[s] + int(rng.integers(-2, 3))
                  for s in dd.internal_segments()}
        g_over = {r: lc0.gamma[r] + int(rng.integers(-2, 3))
                  for r in dd.internal_regions()}
        pin_b, pin_g = pin_bottom(dd, *lc0.bottom(dd))
        lc1 = extend_log_coloring(dd, *lc0.top(dd), lc0.mu,
                                  {**b_over, **pin_b}, {**g_over, **pin_g})
        lam0, lam1 = log_longitudes(dd, lc0), log_longitudes(dd, lc1)
        phase = cmath.exp(-TWO_PI_I / N * sum(
            (l1 - l0) * m for l1, l0, m in zip(lam1, lam0, lc0.mu)))
        out.note("log-decoration dependence",
                 _sum_dev(apply(cfg, dd, lc1, V3), phase * apply(cfg, dd, lc0, V3)))
    # R3 move: each pair shares its boundary data and log-longitudes
    good = 0
    for _ in range(trials * 6):
        if good >= trials:
            break
        try:
            before, after = sampling.matched_pair_colorings(
                cfg, rng, (1, 2, 1), (2, 1, 2), 3)
        except RuntimeError:
            continue
        good += 1
        out.note("R3 move", _sum_dev(apply(cfg, *before, V3), apply(cfg, *after, V3)))
    # determinant cocycle over the double diagram
    loop = build_diagram(BraidWord(3, (1, 2, 1, -1, -2, -1)))
    done = 0
    for _ in range(trials * 4):
        if done >= max(2, trials // 2):
            break
        try:
            lc = sampling.random_coloring(cfg, loop, rng)
        except RuntimeError:
            continue
        # close the braid: bottom = top and zero log-longitudes
        top = lc.top(loop)
        lc = sampling.pinned_coloring(loop, top, top, lc.mu, [0.0, 0.0, 0.0])
        if lc is None:
            continue
        prod = np.exp(sum(logdet_braiding(crossing_data(cfg, loop, lc, c))
                          for c in loop.crossings))
        done += 1
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
