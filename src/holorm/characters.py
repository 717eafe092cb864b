"""Central characters of the cyclic Weyl algebra and their braiding.

A character is the triple (a, b, m) of values on the central N-th powers
(x^N, y^N, z^N).  Characters correspond to elements of the dual group SL2*
(pairs of triangular matrices) and map to SL2 holonomy matrices via the
birational map psi.  The braiding B acts on pairs of characters; it is only
partially defined, and the places where it degenerates (inadmissible pairs,
pinched pairs) drive all the special-casing downstream.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .qdilog import SINGULAR, TWO_PI_I


@dataclass(frozen=True)
class WeylChar:
    """Central character: a = chi(x^N), b = chi(y^N), m = chi(z^N), all nonzero."""

    a: complex
    b: complex
    m: complex

    def __post_init__(self):
        for name in ("a", "b", "m"):
            if abs(getattr(self, name)) < 1e-12:
                raise ValueError(f"character coordinate {name} must be nonzero")

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.m)

    def isclose(self, other: "WeylChar", rel: float = 1e-9) -> bool:
        return all(
            abs(x - y) <= rel * max(1.0, abs(x), abs(y))
            for x, y in zip(self.as_tuple(), other.as_tuple()))


@dataclass(frozen=True)
class LogWeylChar:
    """Chosen logarithms (alpha, beta, mu) of a character: a = e^{2 pi i alpha} etc."""

    alpha: complex
    beta: complex
    mu: complex

    def char(self) -> WeylChar:
        return WeylChar(cmath.exp(TWO_PI_I * self.alpha),
                        cmath.exp(TWO_PI_I * self.beta),
                        cmath.exp(TWO_PI_I * self.mu))


@dataclass(frozen=True)
class SL2StarElement:
    """Dual-group element: a pair (lower, upper) of triangular 2x2 matrices.

    lower = [[kappa, 0], [phi, 1]], upper = [[1, eps], [0, kappa]], kappa != 0.
    Group coordinates of a character chi: kappa = chi(K^N) = a,
    eps = chi(E^N) = b(a-m), phi = kappa*chi(F^N) = b^{-1}(a - 1/m).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=complex)
        up = np.asarray(self.upper, dtype=complex)
        if lo.shape != (2, 2) or up.shape != (2, 2):
            raise ValueError("SL2* components must be 2x2")
        scale = max(1.0, float(np.abs(lo).max()), float(np.abs(up).max()))
        if (abs(lo[0, 1]) > 1e-9 * scale or abs(lo[1, 1] - 1.0) > 1e-9 * scale
                or abs(up[1, 0]) > 1e-9 * scale or abs(up[0, 0] - 1.0) > 1e-9 * scale
                or abs(lo[0, 0] - up[1, 1]) > 1e-9 * scale):
            raise ValueError("matrices do not have the SL2* triangular shape")
        if abs(lo[0, 0]) < 1e-12:
            raise ValueError("kappa must be nonzero")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def kappa(self) -> complex:
        return self.lower[0, 0]

    @property
    def eps(self) -> complex:
        return self.upper[0, 1]

    @property
    def phi(self) -> complex:
        return self.lower[1, 0]

    def holonomy(self) -> np.ndarray:
        """psi of this element: lower @ inverse(upper)."""
        return self.lower @ np.linalg.inv(self.upper)


def psi(chi: WeylChar) -> np.ndarray:
    """Holonomy matrix of a character; determinant 1.

    [[a, -b(a-m)], [b^{-1}(a - 1/m), m + 1/m - a]]
    """
    a, b, m = chi.a, chi.b, chi.m
    return np.array([[a, -b * (a - m)],
                     [(a - 1.0 / m) / b, m + 1.0 / m - a]], dtype=complex)


def to_z0_char(chi: WeylChar) -> SL2StarElement:
    """SL2* element of a character; psi(chi) = lower @ upper^{-1} by construction."""
    a, b, m = chi.a, chi.b, chi.m
    eps = b * (a - m)
    phi = (a - 1.0 / m) / b
    lower = np.array([[a, 0.0], [phi, 1.0]], dtype=complex)
    upper = np.array([[1.0, eps], [0.0, a]], dtype=complex)
    return SL2StarElement(lower, upper)


def char_product(c1: SL2StarElement, c2: SL2StarElement) -> SL2StarElement:
    """Group product (componentwise matrix product); realizes the coproduct pairing."""
    return SL2StarElement(c1.lower @ c2.lower, c1.upper @ c2.upper)


@dataclass(frozen=True)
class BraidOutcome:
    """Result of braiding a pair of characters.

    chi2p/chi1p are the outputs in braid order (the pair returned is
    (chi_{2'}, chi_{1'})); meridians are preserved: m_{i'} = m_i.
    """

    chi2p: WeylChar
    chi1p: WeylChar
    admissible: bool
    pinched: bool


def is_pinched(chi1: WeylChar, chi2: WeylChar) -> bool:
    """Pinched pair: b2 = m1 b1 (all four equivalent degeneracies collapse here)."""
    b2, m1b1 = chi2.b, chi1.m * chi1.b
    return abs(b2 - m1b1) <= SINGULAR * max(abs(b2), abs(m1b1))


def _window_ok(*vals) -> bool:
    return all(SINGULAR < abs(v) < 1.0 / SINGULAR for v in vals)


def _braid_positive(a1, b1, m1, a2, b2, m2):
    """(a2', b2', a1', b1') of the braiding B, or None outside the window."""
    A = 1.0 - (m1 * b1 / b2) * (1.0 - a1 / m1) * (1.0 - 1.0 / (m2 * a2))
    den = 1.0 - m2 * a2 * (1.0 - b2 / (m1 * b1))
    if not _window_ok(A, den):
        return None
    out = (a2 * A, b1 * (1.0 - (m1 / a1) * (1.0 - b2 / (m1 * b1))),
           a1 / A, (m2 * b2 / m1) / den)
    return out if _window_ok(*out) else None


def braid(chi1: WeylChar, chi2: WeylChar, sign: int) -> BraidOutcome:
    """Braiding B (sign=+1) or its inverse (sign=-1) on a pair of characters.

    The inverse is B conjugated by tau(a, b, m) = (a, 1/b, 1/m) on both
    characters.  Returns the outputs plus flags instead of raising, so
    coloring propagation can report exactly where a diagram degenerates.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    a1, b1, m1 = chi1.as_tuple()
    a2, b2, m2 = chi2.as_tuple()
    pinched = is_pinched(chi1, chi2)
    if sign == +1:
        out = _braid_positive(a1, b1, m1, a2, b2, m2)
    else:
        out = _braid_positive(a1, 1.0 / b1, 1.0 / m1, a2, 1.0 / b2, 1.0 / m2)
        if out is not None:  # tau on the outputs; their meridians are m2, m1
            out = (out[0], 1.0 / out[1], out[2], 1.0 / out[3])
    if out is None:
        return BraidOutcome(chi2, chi1, admissible=False, pinched=pinched)
    a2p, b2p, a1p, b1p = out
    return BraidOutcome(WeylChar(a2p, b2p, m2), WeylChar(a1p, b1p, m1),
                        admissible=True, pinched=pinched)

