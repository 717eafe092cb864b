"""Central characters of the cyclic Weyl algebra and their braiding.

A character is the triple (a, b, m) of values on the central N-th powers
(x^N, y^N, z^N).  The braiding B acts on pairs of characters; it is only
partially defined, and the places where it degenerates (inadmissible pairs,
pinched pairs) drive all the special-casing downstream.  braid_coords is
the one braiding kernel, on coordinates; braid applies it to a WeylChar
pair.  The dual group SL2* and the holonomy map psi, which only the identity
battery reads, live in selftest.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .qdilog import SINGULAR, TWO_PI_I


@dataclass(frozen=True)
class WeylChar:
    """Central character: a = chi(x^N), b = chi(y^N), m = chi(z^N), all
    finite and nonzero."""

    a: complex
    b: complex
    m: complex

    def __post_init__(self):
        for name in ("a", "b", "m"):
            v = getattr(self, name)
            if not (cmath.isfinite(v) and abs(v) >= 1e-12):
                raise ValueError(f"character coordinate {name} must be finite "
                                 "and nonzero")

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


def _in_window(*vals):
    """SINGULAR < |v| < 1/SINGULAR for every v: a bool for scalars, an
    entrywise mask for arrays."""
    ok = True
    for v in vals:
        r = abs(v)
        ok = ok & (SINGULAR < r) & (r < 1.0 / SINGULAR)
    return ok


def braid_coords(a1, b1, m1, a2, b2, m2, sign: int):
    """Braiding B (sign=+1) or its inverse (sign=-1) on character coordinates.

    Returns ((a2', b2', m2), (a1', b1', m1)), ok: the outputs in braid order
    (meridians pass through) and whether the pair is admissible, i.e. every
    intermediate and output lies in the window SINGULAR < |.| < 1/SINGULAR.
    The inverse is B conjugated by tau(a, b, m) = (a, 1/b, 1/m) on both
    characters.  The coordinates are complex scalars, or equal-shape arrays
    for a batch of pairs: then ok is a mask and the entries where it is False
    hold no braiding.  A scalar pair outside the window returns (None, False)
    before any division by a vanishing factor.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    m1_in, m2_in = m1, m2
    if sign == -1:
        b1, m1, b2, m2 = 1.0 / b1, 1.0 / m1, 1.0 / b2, 1.0 / m2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        A = 1.0 - (m1 * b1 / b2) * (1.0 - a1 / m1) * (1.0 - 1.0 / (m2 * a2))
        den = 1.0 - m2 * a2 * (1.0 - b2 / (m1 * b1))
        ok = _in_window(A, den)
        if ok is False:
            return None, False
        a2p, b2p, a1p, b1p = (a2 * A, b1 * (1.0 - (m1 / a1) * (1.0 - b2 / (m1 * b1))),
                              a1 / A, (m2 * b2 / m1) / den)
        ok = ok & _in_window(a2p, b2p, a1p, b1p)
        if ok is False:
            return None, False
        if sign == -1:  # tau on the outputs
            b2p, b1p = 1.0 / b2p, 1.0 / b1p
    return ((a2p, b2p, m2_in), (a1p, b1p, m1_in)), ok


def braid(chi1: WeylChar, chi2: WeylChar, sign: int) -> BraidOutcome:
    """Braiding B (sign=+1) or its inverse (sign=-1) on a pair of characters.

    braid_coords on the pair's coordinates.  Returns the outputs plus flags
    instead of raising, so coloring propagation can report exactly where a
    diagram degenerates.
    """
    out, ok = braid_coords(*chi1.as_tuple(), *chi2.as_tuple(), sign)
    pinched = is_pinched(chi1, chi2)
    if not ok:
        return BraidOutcome(chi2, chi1, admissible=False, pinched=pinched)
    return BraidOutcome(WeylChar(*out[0]), WeylChar(*out[1]),
                        admissible=True, pinched=pinched)
