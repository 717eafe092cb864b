"""Special functions at a root of unity.

Everything here is built from the primitive root omega = exp(2*pi*i/N) and
its fractional powers omega**x := exp(2*pi*i*x/N) for complex x.  The main
objects are the cyclic dilogarithm <zeta|k>, the normalized quantum
dilogarithm Lambda(zeta0, zeta1 | n) attached to a flattening (a coherent
pair of logarithms) and its series in n, the classical lifted dilogarithm
L, and the constants D(zeta) and S(zeta0, zeta1).

Branch convention: every logarithm is the principal one, Im log in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

TWO_PI_I = 2j * math.pi
PI_SQ_OVER_6 = math.pi ** 2 / 6.0
# Below this, a factor |1 - omega**x| counts as a zero (tested in _off_pole only);
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

    def omega_pow(self, x: complex) -> complex:
        """omega**x = exp(2 pi i x / N) for arbitrary complex x."""
        return cmath.exp(TWO_PI_I * x / self.N)


@dataclass(frozen=True)
class Flattening:
    """A coherent pair of logarithms: exp(2 pi i zeta1) * (1 - exp(2 pi i zeta0)) = 1.

    Equivalently exp(2 pi i zeta0) + exp(-2 pi i zeta1) = 1.  The constraint is
    checked on construction; no branch repair is attempted (which logarithm of
    1/(1 - e^{2 pi i zeta0}) the caller means is part of the data).
    """

    zeta0: complex
    zeta1: complex
    tol: float = 1e-10

    def __post_init__(self):
        err = abs(cmath.exp(TWO_PI_I * self.zeta1)
                  * (1.0 - cmath.exp(TWO_PI_I * self.zeta0)) - 1.0)
        if not err <= self.tol:
            raise ConstraintViolationError(
                f"flattening constraint violated by {err:.3e} "
                f"for (zeta0, zeta1) = ({self.zeta0}, {self.zeta1})")

    @classmethod
    def from_zeta0(cls, zeta0: complex, branch: int = 0) -> "Flattening":
        """Principal-branch partner zeta1 = -Log(1 - e^{2 pi i zeta0})/(2 pi i) + branch."""
        w = 1.0 - cmath.exp(TWO_PI_I * zeta0)
        if abs(w) < 1e-12:
            raise SingularArgumentError("zeta0 is an integer; no flattening exists")
        return cls(zeta0, -cmath.log(w) / TWO_PI_I + branch)

    def dual(self) -> "Flattening":
        """The mirror flattening (-zeta1, -zeta0); valid whenever self is."""
        return Flattening(-self.zeta1, -self.zeta0, tol=self.tol)

    def shifted(self, k0: int = 0, k1: int = 0) -> "Flattening":
        """Integer translate (zeta0 + k0, zeta1 + k1); still a flattening."""
        return Flattening(self.zeta0 + k0, self.zeta1 + k1, tol=self.tol)


def _off_pole(fac: complex, msg: str, arg, j: int = 0) -> complex:
    """fac, or SingularArgumentError(msg.format(arg, j=j)) if it counts as a zero.
    Fixed arity: with *args, the calls made d_const at N = 9 about 30% slower."""
    if abs(fac) < SINGULAR:
        raise SingularArgumentError(msg.format(arg, j=j))
    return fac


def _factors(cfg: RootConfig, x: complex, count: int, msg: str):
    """1 - omega**(x+j) for j = 1..count, each through _off_pole(., msg, x, j)."""
    for j in range(1, count + 1):
        yield _off_pole(1.0 - cfg.omega_pow(x + j), msg, x, j)


def cyc_dilog(cfg: RootConfig, zeta: complex, k: int) -> complex:
    """Cyclic dilogarithm <zeta|k>, the reciprocal shifted q-factorial at omega.

    <zeta|0> = 1 and <zeta|k> = <zeta|k-1> / (1 - omega**(zeta+k)), so
    <zeta|k> = 1/[(1-omega**(zeta+1))...(1-omega**(zeta+k))] for k > 0 and
    <zeta|-k> = (1-omega**zeta)(1-omega**(zeta-1))...(1-omega**(zeta-k+1)).
    """
    if k > 0:
        out = 1.0 + 0.0j
        for fac in _factors(cfg, zeta, k,
                            "<zeta|k> pole: 1 - omega**(zeta+{j}) ~ 0 at zeta={}"):
            out /= fac
        return out
    out = 1.0 + 0.0j
    for j in range(0, -k):
        out *= 1.0 - cfg.omega_pow(zeta - j)
    return out


@lru_cache(maxsize=None)
def _li2_u_coeffs() -> tuple:
    """The 90 coefficients B_n/(n+1)! of the expansion of Li2 in u = -log(1-z)."""
    # B_0 = 1, B_m = -1/(m+1) sum_{k<m} C(m+1, k) B_k, which gives B_1 = -1/2.
    bern = [Fraction(1)]
    for m in range(1, 90):
        bern.append(-sum(math.comb(m + 1, k) * b for k, b in enumerate(bern)) / (m + 1))
    return tuple(float(b / math.factorial(n + 1)) for n, b in enumerate(bern))


def li2(z: complex) -> complex:
    """Complex dilogarithm Li_2(z), principal branch (cut along [1, inf)).

    Power series for small |z|, the reflection z -> 1-z near z = 1, the
    inversion z -> 1/z outside the unit disc, and otherwise the expansion in
    u = -log(1-z) (convergent for |u| < 2 pi).  Absolute error ~ 1e-14.
    On the cut (1, inf) the value is the limit from below, the one principal
    Log(1 - z) gives, whatever the sign of the zero imaginary part.
    """
    z = complex(z)
    if z.imag == 0 and z.real > 1:
        z = complex(z.real, -0.0)
    if z == 0:
        return 0.0 + 0.0j
    if z == 1:
        return complex(PI_SQ_OVER_6)
    if abs(z) > 1.0:
        return -li2(1.0 / z) - PI_SQ_OVER_6 - 0.5 * cmath.log(-z) ** 2
    if abs(1.0 - z) <= 0.4:
        w = 1.0 - z
        return PI_SQ_OVER_6 - cmath.log(z) * cmath.log(w) - _li2_series(w)
    if abs(z) <= 0.5:
        return _li2_series(z)
    u = -cmath.log(1.0 - z)
    out = 0.0 + 0.0j
    up = 1.0 + 0.0j
    for c in _li2_u_coeffs():
        up *= u
        if c == 0.0:
            continue  # odd Bernoulli numbers vanish; keep summing
        term = c * up
        out += term
        if abs(term) < 1e-18 * (1.0 + abs(out)):
            break
    return out


def _li2_series(z: complex) -> complex:
    out = 0.0 + 0.0j
    zp = 1.0 + 0.0j
    for k in range(1, 300):
        zp *= z
        term = zp / (k * k)
        out += term
        if abs(term) < 1e-18 * (1.0 + abs(out)):
            break
    return out


def lifted_dilog(f: Flattening) -> complex:
    """Lifted dilogarithm L(zeta0, zeta1) of a flattening.

    L = Li2(e^{2 pi i zeta0}) + (2 pi i)^2/2 zeta0 zeta1
        + 2 pi i zeta0 Log(1 - e^{2 pi i zeta0}),  principal Log.
    """
    z = cmath.exp(TWO_PI_I * f.zeta0)
    if abs(z) < 1e-12 or abs(1.0 - z) < 1e-12:
        raise SingularArgumentError(
            f"lifted dilogarithm undefined at e^(2 pi i zeta0) = {z}")
    return (li2(z) + 0.5 * TWO_PI_I ** 2 * f.zeta0 * f.zeta1
            + TWO_PI_I * f.zeta0 * cmath.log(1.0 - z))


def d_const(cfg: RootConfig, zeta: complex = 0.0) -> complex:
    """D(zeta) = exp((1/N) sum_{k=1}^{N-1} k Log(1 - omega**(zeta+k)))."""
    total = 0.0 + 0.0j
    facs = _factors(cfg, zeta, cfg.N - 1,
                    "D(zeta) singular: 1 - omega**(zeta+{j}) ~ 0 at zeta={}")
    for k, fac in enumerate(facs, start=1):
        total += k * cmath.log(fac)
    return cmath.exp(total / cfg.N)


def lambda0(cfg: RootConfig, f: Flattening) -> complex:
    """Closed-form value Lambda(zeta0, zeta1 | 0).

    Lambda(.|0) = exp(-L/(2 pi i N)) * (1 - omega**(N zeta0))/(1 - omega**zeta0)
                  / D(zeta0).
    """
    msg = "Lambda singular at zeta0 = {} (integer within tolerance)"
    num = _off_pole(1.0 - cmath.exp(TWO_PI_I * f.zeta0), msg, f.zeta0)
    den = _off_pole(1.0 - cfg.omega_pow(f.zeta0), msg, f.zeta0)
    ell = lifted_dilog(f)
    return cmath.exp(-ell / (TWO_PI_I * cfg.N)) * num / den / d_const(cfg, f.zeta0)


def lambda_series(cfg: RootConfig, start: complex, zeta0: complex,
                  zeta1: complex) -> list:
    """[start * omega**(-k zeta1) / prod_{j=1..k} (1 - omega**(zeta0+j)), k < N],
    every power formed by omega_pow: lambda_table from start Lambda(.|0), and
    the pinched table omega**(-k zeta1) / (omega; omega)_k from start 1 at
    zeta0 = 0.  No factor needs a guard: at zeta0 = 0 none vanishes, and else
    they are D(zeta0)'s, which lambda0 passes through _off_pole, bit for bit.
    """
    vals = [start]
    den = 1.0
    for j in range(1, cfg.N):
        den *= 1.0 - cfg.omega_pow(zeta0 + j)
        vals.append(start * cfg.omega_pow(-j * zeta1) / den)
    return vals


def lambda_table(cfg: RootConfig, f: Flattening) -> list:
    """[Lambda(.|0), ..., Lambda(.|N-1)]: lambda_series from lambda0."""
    return lambda_series(cfg, lambda0(cfg, f), f.zeta0, f.zeta1)


def s_norm(cfg: RootConfig, f: Flattening) -> complex:
    """Normalization constant S(zeta0, zeta1).

    S = omega**((N-1) zeta0) / Lambda(zeta0, zeta1 | 0)
        * sum_{k=0}^{N-1} Lambda(-zeta1, -zeta0 | k)**(-1).
    """
    dual = f.dual()
    total = sum(1.0 / v for v in lambda_table(cfg, dual))
    return cfg.omega_pow((cfg.N - 1) * f.zeta0) / lambda0(cfg, f) * total


def fusion_f(cfg: RootConfig, alpha: complex, beta: complex, gamma: complex) -> complex:
    """Fusion sum f(alpha, beta, gamma) = sum_k <alpha|k>/<beta|k> omega**(k gamma).

    Requires (1 - omega**(N alpha))/(1 - omega**(N beta)) = omega**(N gamma);
    N-periodic in each argument.
    """
    lhs = (1.0 - cmath.exp(TWO_PI_I * alpha)) / (1.0 - cmath.exp(TWO_PI_I * beta))
    rhs = cmath.exp(TWO_PI_I * gamma)
    if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
        raise ConstraintViolationError(
            f"fusion constraint violated: (1-w^Na)/(1-w^Nb) = {lhs}, w^Ng = {rhs}")
    # zip draws alpha's k-th factor, then beta's, so alpha's pole is met first
    steps = zip(_factors(cfg, alpha, cfg.N - 1,
                         "fusion sum pole: 1 - omega**(alpha+{j}) ~ 0 at alpha={}"),
                _factors(cfg, beta, cfg.N - 1,
                         "fusion sum pole: 1 - omega**(beta+{j}) ~ 0 at beta={}"))
    total = num = den = 1.0 + 0.0j  # the k = 0 term
    for k, (a, b) in enumerate(steps, start=1):
        num /= a
        den /= b
        total += num / den * cfg.omega_pow(k * gamma)
    return total
