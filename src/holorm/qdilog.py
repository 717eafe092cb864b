"""Special functions at a root of unity.

Everything here is built from the primitive root omega = exp(2*pi*i/N) and
its fractional powers omega**x := exp(2*pi*i*x/N) for complex x.  The main
objects are the cyclic dilogarithm <zeta|k>, the normalized quantum
dilogarithm Lambda(zeta0, zeta1 | n) attached to a flattening (a coherent
pair of logarithms) and its series in n, the classical lifted dilogarithm
L, and the constants D(zeta) and S(zeta0, zeta1).

Every kernel takes complex scalars or broadcastable arrays (a Flattening may
hold arrays) and evaluates all entries in one array pass: an index j or k of
a product or sum runs along a trailing axis, and a scalar call returns a
Python complex.  A batch gives each entry the bits the scalar call gives.  A
guarded kernel tests its guards once, in the order its scalar body meets
them, and a failing batch raises at its first failing (entry, guard) in C
order: the error a loop of scalar calls meets first.

Branch convention: every logarithm is the principal one, Im log in (-pi, pi].
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI_I = 2j * math.pi
PI_SQ_OVER_6 = math.pi ** 2 / 6.0
# Below this, a factor |1 - omega**x| counts as a zero (tested in _pole only);
# characters reads it as the relative pinched threshold and admissibility window.
SINGULAR = 1e-9


class SingularArgumentError(ValueError):
    """An argument hit (or came too close to) a zero/pole of the function."""


class ConstraintViolationError(ValueError):
    """Input data violate a required algebraic constraint."""


@dataclass(frozen=True)
class RootConfig:
    """Order N >= 2 root-of-unity data: omega = exp(2 pi i/N), xi = exp(pi i/N)."""

    N: int

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N!r}")

    @property
    def omega(self) -> complex:
        return cmath.exp(TWO_PI_I / self.N)

    @property
    def xi(self) -> complex:
        return cmath.exp(TWO_PI_I / (2 * self.N))

    def omega_pow(self, x):
        """omega**x = exp(2 pi i x / N) for complex x, entrywise for an array x."""
        if isinstance(x, np.ndarray):
            return np.exp(TWO_PI_I * x / self.N)
        return cmath.exp(TWO_PI_I * x / self.N)


def _raise_first(*guards) -> None:
    """The one fault scan.  Each guard is (bad, fault): bad[..., t] says that
    test t of an entry fails, the tests along a trailing axis in the order
    the entry meets them, and fault(at, t) is the exception, at(x) the entry
    of x.  Given the guards in the order the scalar body meets them, it
    raises at the first failing (entry, guard, t) in C order; the
    exception's `entry` is the index of that entry, for a caller that
    stacked the entries of several objects."""
    if not any(b.any() for b, _ in guards):
        return
    bad = np.concatenate([b for b, _ in guards], axis=-1)
    *i, t = np.unravel_index(np.argmax(bad), bad.shape)
    for b, fault in guards:
        if t < b.shape[-1]:
            exc = fault(lambda x: np.broadcast_to(x, bad.shape[:-1])[tuple(i)], t)
            exc.entry = tuple(i)
            raise exc
        t -= b.shape[-1]


def _pole(*seqs) -> tuple:
    """The pole guard: a factor with |fac| < SINGULAR fails.  Each seq is
    (fac, msg, arg), fac[..., j - 1] = 1 - omega**(x + j) for the entries x
    of arg; factors are met by j, then in seqs order, and the message is
    msg.format(x, j=j)."""
    bad = [np.abs(fac) < SINGULAR for fac, _, _ in seqs]
    if len(seqs) > 1:
        bad = [np.stack(bad, axis=-1).reshape(bad[0].shape[:-1] + (-1,))]

    def fault(at, t):
        _, msg, arg = seqs[t % len(seqs)]
        return SingularArgumentError(msg.format(at(arg), j=t // len(seqs) + 1))
    return bad[0], fault


@dataclass(frozen=True)
class Flattening:
    """A coherent pair of logarithms: exp(2 pi i zeta1) * (1 - exp(2 pi i zeta0)) = 1.

    Equivalently exp(2 pi i zeta0) + exp(-2 pi i zeta1) = 1.  The fields are
    complex numbers, or broadcastable arrays for a batch of flattenings.  The
    constraint is checked on construction, and the first failing entry (C
    order) raises; no branch repair is attempted (which logarithm of
    1/(1 - e^{2 pi i zeta0}) the caller means is part of the data).
    """

    zeta0: complex
    zeta1: complex
    tol: float = 1e-10

    def __post_init__(self):
        err = np.abs(np.exp(TWO_PI_I * self.zeta1)
                     * (1.0 - np.exp(TWO_PI_I * self.zeta0)) - 1.0)
        _raise_first((~(err <= self.tol)[..., None],  # NaN fails too
                      lambda at, _: ConstraintViolationError(
                          f"flattening constraint violated by {at(err):.3e} "
                          f"for (zeta0, zeta1) = ({at(self.zeta0)}, {at(self.zeta1)})")))

    @classmethod
    def from_zeta0(cls, zeta0, branch=0) -> "Flattening":
        """Principal-branch partner zeta1 = -Log(1 - e^{2 pi i zeta0})/(2 pi i) + branch."""
        w = 1.0 - np.exp(TWO_PI_I * np.asarray(zeta0, dtype=complex))
        _raise_first(((np.abs(w) < 1e-12)[..., None], lambda at, _: SingularArgumentError(
            f"zeta0 = {at(zeta0)} is an integer; no flattening exists")))
        zeta1 = -np.log(w) / TWO_PI_I + branch
        return cls(zeta0, complex(zeta1) if zeta1.ndim == 0 else zeta1)

    @classmethod
    def _checked(cls, zeta0, zeta1, tol: float = 1e-10) -> "Flattening":
        """The Flattening of fields that already passed the constraint (a
        promoted, stacked or sliced copy of checked ones), built without
        evaluating the constraint again."""
        f = object.__new__(cls)
        for name, value in (("zeta0", zeta0), ("zeta1", zeta1), ("tol", tol)):
            object.__setattr__(f, name, value)
        return f

    def dual(self) -> "Flattening":
        """The mirror flattening (-zeta1, -zeta0); valid whenever self is."""
        return Flattening(-self.zeta1, -self.zeta0, tol=self.tol)

    def shifted(self, k0=0, k1=0) -> "Flattening":
        """Integer translate (zeta0 + k0, zeta1 + k1); still a flattening."""
        return Flattening(self.zeta0 + k0, self.zeta1 + k1, tol=self.tol)


def _promote(arg):
    """A scalar argument with one axis of length 1 (a RootConfig passes
    through; a Flattening is not checked a second time)."""
    if isinstance(arg, RootConfig):
        return arg
    if isinstance(arg, Flattening):
        return Flattening._checked(_promote(arg.zeta0), _promote(arg.zeta1), arg.tol)
    return np.reshape(arg, 1)


def _has_axes(arg) -> bool:
    if isinstance(arg, np.ndarray):
        return arg.ndim > 0
    if isinstance(arg, Flattening):
        return _has_axes(arg.zeta0) or _has_axes(arg.zeta1)
    return False  # a number (numpy scalars too) or the RootConfig


def _kernel(body):
    """The kernel whose array pass is body.

    The body sees its arguments with at least one axis: on 0-d arrays numpy
    returns scalars, whose arithmetic rounds differently from its array
    loops, so a scalar call would not give the bits of the same entry in a
    batch.  A call on scalars returns a Python complex (or the array along
    the kernel's trailing axis).  The body passes all its guards to one
    _raise_first call before it evaluates what they guard.
    """
    @functools.wraps(body)
    def kernel(*args):
        if any(map(_has_axes, args)):
            return body(*args)
        v = body(*map(_promote, args))[0]
        return complex(v) if v.ndim == 0 else v
    return kernel


def _seqsum(x: np.ndarray) -> np.ndarray:
    """Sum over the trailing axis in index order, as a scalar loop adds, so
    the bits of an entry do not depend on the batch around it."""
    return x.cumsum(axis=-1)[..., -1]


def _cdim(x) -> np.ndarray:
    return np.asarray(x, dtype=complex)


def _factors(cfg: RootConfig, zeta: np.ndarray, first: int, last: int) -> np.ndarray:
    """1 - omega**(zeta + j) for j = first..last along a trailing axis."""
    return 1.0 - cfg.omega_pow(zeta[..., None] + np.arange(first, last + 1))


@_kernel
def cyc_dilog(cfg: RootConfig, zeta, k):
    """Cyclic dilogarithm <zeta|k>, the reciprocal shifted q-factorial at omega.

    <zeta|0> = 1 and <zeta|k> = <zeta|k-1> / (1 - omega**(zeta+k)), so
    <zeta|k> = 1/[(1-omega**(zeta+1))...(1-omega**(zeta+k))] for k > 0 and
    <zeta|-k> = (1-omega**zeta)(1-omega**(zeta-1))...(1-omega**(zeta-k+1)).
    zeta is complex and k an integer, or broadcastable arrays: one
    cumulative product over j up to max |k| serves both signs, its factor j
    being 1 where j > |k|.  Guard: the divisors 1 - omega**(zeta+j), j = 1..k,
    are off the poles.
    """
    zeta, k = np.broadcast_arrays(_cdim(zeta), np.asarray(k))
    z, kk = zeta[..., None], k[..., None]
    j = np.arange(max(1, int(np.abs(k).max())) + 1)
    fac = np.where((0 < j) & (j <= np.abs(kk)),
                   1.0 - cfg.omega_pow(np.where(kk > 0, z + j, z + 1 - j)), 1.0)
    # only the factors of k > 0, the divisors, can be poles
    _raise_first(_pole((np.where(kk > 0, fac, 1.0)[..., 1:],
                        "<zeta|k> pole: 1 - omega**(zeta+{j}) ~ 0 at zeta={}", zeta)))
    prod = fac.cumprod(axis=-1)[..., -1]
    return np.divide(1.0, prod, out=prod, where=k > 0)


# li2 sums u**1..u**26 of its expansion: |u| <= pi/3 where it is used, and
# the coefficient of u**n is about 2 (2 pi)**-n / n, so the first term left
# out is below 1e-20.
LI2_U_TERMS = 26


@lru_cache(maxsize=None)
def _li2_u_coeffs() -> np.ndarray:
    """The coefficients B_n/(n+1)! of u**(n+1), n < LI2_U_TERMS, in the
    expansion of Li2 in u = -log(1-z).  Odd Bernoulli numbers past B_1
    vanish: those terms add exact zeros."""
    # B_0 = 1, B_m = -1/(m+1) sum_{k<m} C(m+1, k) B_k, which gives B_1 = -1/2.
    bern = [Fraction(1)]
    for m in range(1, LI2_U_TERMS):
        bern.append(-sum(math.comb(m + 1, k) * b for k, b in enumerate(bern)) / (m + 1))
    coeffs = np.array([float(b / math.factorial(n + 1)) for n, b in enumerate(bern)])
    coeffs.flags.writeable = False
    return coeffs


@_kernel
def li2(z):
    """Complex dilogarithm Li_2(z), principal branch (cut along [1, inf)).

    Entry by entry: the inversion z -> 1/z outside the unit disc, then the
    reflection w -> 1 - w where Re w > 1/2, then the expansion in
    u = -log(1 - v) on the v so reached (|v| <= 1, Re v <= 1/2, where
    |u| <= pi/3).  Absolute error ~ 1e-15; exact at z = 0 and z = 1.  On the
    cut (1, inf) the value is the limit from below, the one principal
    Log(1 - z) gives, whatever the sign of the zero imaginary part.
    """
    z = _cdim(z)
    inv = np.abs(z) > 1.0
    w = np.divide(1.0, z, out=z.copy(), where=inv)
    refl = w.real > 0.5
    v = np.where(refl, 1.0 - w, w)
    u = -np.log(1.0 - v)  # -log(w) where refl
    out = _seqsum(u[..., None].repeat(LI2_U_TERMS, axis=-1).cumprod(axis=-1)
                  * _li2_u_coeffs())
    # reflection: Li2(w) = pi^2/6 - log(w) log(1 - w) - Li2(1 - w); v = 0 at z = 1
    out = np.where(refl, PI_SQ_OVER_6 + u * np.log(v + (v == 0)) - out, out)
    # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
    log_mz = np.log(np.where(inv, -z, 1.0))
    if not z.imag.all():  # on the cut, log(-z) as from z - 0i
        np.copyto(log_mz.imag, np.pi, where=(z.imag == 0) & (z.real > 1))
    return np.where(inv, -out - PI_SQ_OVER_6 - 0.5 * log_mz ** 2, out)


def _lifted_guard(z: np.ndarray, w: np.ndarray) -> tuple:
    """lifted_dilog's guard, given z = e^(2 pi i zeta0) and w = 1 - z."""
    bad = (np.abs(z) < 1e-12) | (np.abs(w) < 1e-12)
    return bad[..., None], lambda at, _: SingularArgumentError(
        f"lifted dilogarithm undefined at e^(2 pi i zeta0) = {at(z)}")


def _lifted(tz: np.ndarray, zeta1, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """lifted_dilog's formula, given tz = 2 pi i zeta0, z = e^tz and w = 1 - z."""
    return li2(z) + tz * (0.5 * TWO_PI_I * zeta1 + np.log(w))


@_kernel
def lifted_dilog(f: Flattening):
    """Lifted dilogarithm L(zeta0, zeta1) of a flattening.

    L = Li2(e^{2 pi i zeta0}) + (2 pi i)^2/2 zeta0 zeta1
        + 2 pi i zeta0 Log(1 - e^{2 pi i zeta0}),  principal Log.
    Guard: e^(2 pi i zeta0) and 1 - e^(2 pi i zeta0) are at least 1e-12 off 0.
    Where zeta0 crosses Re zeta0 = k, an integer, from below k to above it
    at Im zeta0 < 0, e^(2 pi i zeta0) crosses the cuts of Li2 and Log, and
    L, with zeta1 continued across, jumps by 4 pi^2 k; at k = 0 or Im zeta0
    > 0 it is continuous.
    """
    tz = TWO_PI_I * _cdim(f.zeta0)
    z = np.exp(tz)
    w = 1.0 - z
    _raise_first(_lifted_guard(z, w))
    return _lifted(tz, f.zeta1, z, w)


_D_POLE = "D(zeta) singular: 1 - omega**(zeta+{j}) ~ 0 at zeta={}"


def _d(cfg: RootConfig, fac: np.ndarray) -> np.ndarray:
    """D(zeta) from its factors fac = 1 - omega**(zeta + k), k = 1..N-1,
    once the caller has passed them through _pole."""
    return np.exp(_seqsum(np.arange(1, cfg.N) * np.log(fac)) / cfg.N)


@_kernel
def d_const(cfg: RootConfig, zeta):
    """D(zeta) = exp((1/N) sum_{k=1}^{N-1} k Log(1 - omega**(zeta+k))).
    Guard: the factors 1 - omega**(zeta+k) are off the poles."""
    zeta = _cdim(zeta)
    fac = _factors(cfg, zeta, 1, cfg.N - 1)
    _raise_first(_pole((fac, _D_POLE, zeta)))
    return _d(cfg, fac)


def _series(cfg: RootConfig, start, fac: np.ndarray, zeta1) -> np.ndarray:
    """start * omega**(-k zeta1) / prod_{j<=k} fac_j, k < N, along a trailing axis."""
    minus_j = np.arange(-1, -cfg.N, -1)
    vals = (start[..., None] * cfg.omega_pow(minus_j * zeta1[..., None])
            / fac.cumprod(axis=-1))
    return np.concatenate([start[..., None], vals], axis=-1)


@_kernel
def lambda_series(cfg: RootConfig, zeta1):
    """The pinched table [omega**(-k zeta1) / (omega; omega)_k, k < N] along
    a trailing axis, every power formed by omega_pow: _series started at 1
    with zeta0 = 0, where no factor 1 - omega**j vanishes.
    """
    zeta1 = _cdim(zeta1)
    fac = _factors(cfg, np.zeros_like(zeta1), 1, cfg.N - 1)
    return _series(cfg, np.ones_like(zeta1), fac, zeta1)


@_kernel
def lambda_table(cfg: RootConfig, f: Flattening):
    """[Lambda(.|0), ..., Lambda(.|N-1)] along a trailing axis: _series
    from the closed form

    Lambda(.|0) = exp(-L/(2 pi i N)) * (1 - omega**(N zeta0))/(1 - omega**zeta0)
                  / D(zeta0),

    one set of factors 1 - omega**(zeta0 + j), j = 0..N-1, for its
    denominator, D(zeta0) and the series.  Guards, in the scalar order: poles
    of 1 - omega**(N zeta0) and this denominator, L's guard, D(zeta0)'s poles.
    """
    zeta0 = _cdim(f.zeta0)
    tz = TWO_PI_I * zeta0
    z = np.exp(tz)
    # 1 - z, then 1 - omega**(zeta0 + j) for j = 0..N-1
    fac = 1.0 - np.concatenate(
        [z[..., None], cfg.omega_pow(zeta0[..., None] + np.arange(cfg.N))], axis=-1)
    _raise_first(_pole((fac[..., :2], "Lambda singular at zeta0 = {} (integer within tolerance)",
                        zeta0)),
                 _lifted_guard(z, fac[..., 0]),
                 _pole((fac[..., 2:], _D_POLE, zeta0)))
    ell = _lifted(tz, f.zeta1, z, fac[..., 0])
    lam0 = np.exp(ell / -(TWO_PI_I * cfg.N)) * fac[..., 0] / fac[..., 1] / _d(cfg, fac[..., 2:])
    return _series(cfg, lam0, fac[..., 2:], _cdim(f.zeta1))


@_kernel
def s_norm(cfg: RootConfig, f: Flattening):
    """Normalization constant S(zeta0, zeta1).

    S = omega**((N-1) zeta0) / Lambda(zeta0, zeta1 | 0)
        * sum_{k=0}^{N-1} Lambda(-zeta1, -zeta0 | k)**(-1).
    The dual's tables and f's are one lambda_table pass (guards included),
    the dual first at each entry, as the formula meets them.  The dual is
    checked against the constraint; f, checked on construction, is not
    checked again.
    """
    zeta0, zeta1 = np.broadcast_arrays(_cdim(f.zeta0), _cdim(f.zeta1))
    dual = Flattening(-zeta1, -zeta0, f.tol)
    dual, table = np.moveaxis(lambda_table(cfg, Flattening._checked(
        np.stack([dual.zeta0, zeta0], -1), np.stack([dual.zeta1, zeta1], -1), f.tol)), -2, 0)
    return cfg.omega_pow((cfg.N - 1) * zeta0) / table[..., 0] * _seqsum(1.0 / dual)


@_kernel
def fusion_f(cfg: RootConfig, alpha, beta, gamma):
    """Fusion sum f(alpha, beta, gamma) = sum_k <alpha|k>/<beta|k> omega**(k gamma).

    N-periodic in each argument.  Guards, in the scalar order: the constraint
    (1 - omega**(N alpha))/(1 - omega**(N beta)) = omega**(N gamma); the
    factors 1 - omega**(alpha+k) and 1 - omega**(beta+k), k = 1..N-1, are
    off the poles, alpha's before beta's at equal k.
    """
    alpha, beta, gamma = np.broadcast_arrays(_cdim(alpha), _cdim(beta), _cdim(gamma))
    with np.errstate(divide="ignore", invalid="ignore"):  # beta integral: lhs inf
        lhs = (1.0 - np.exp(TWO_PI_I * alpha)) / (1.0 - np.exp(TWO_PI_I * beta))
    rhs = np.exp(TWO_PI_I * gamma)
    fa, fb = _factors(cfg, alpha, 1, cfg.N - 1), _factors(cfg, beta, 1, cfg.N - 1)
    _raise_first(((np.abs(lhs - rhs) > 1e-8 * np.maximum(1.0, np.abs(rhs)))[..., None],
                  lambda at, _: ConstraintViolationError(
                      f"fusion constraint violated: (1-w^Na)/(1-w^Nb) = {at(lhs)}, "
                      f"w^Ng = {at(rhs)}")),
                 _pole((fa, "fusion sum pole: 1 - omega**(alpha+{j}) ~ 0 at alpha={}", alpha),
                       (fb, "fusion sum pole: 1 - omega**(beta+{j}) ~ 0 at beta={}", beta)))
    ratio = (fb / fa).cumprod(axis=-1)  # <alpha|k> / <beta|k>
    k = np.arange(1, cfg.N)
    return 1.0 + _seqsum(ratio * cfg.omega_pow(k * gamma[..., None]))
