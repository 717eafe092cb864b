"""Seeded random generators for flattenings, characters, crossings, colorings.

Used by the self-test battery and the test suite.  Sampling boxes are chosen
so that principal-branch logarithms behave tamely: real parts of log-data
stay within about half a unit of 0 and imaginary parts are small, which keeps
every quantum-dilogarithm argument far from its poles unless explicitly
requested otherwise.
"""

from __future__ import annotations

import numpy as np

from .braidgrpd import (BraidWord, DiagramGraph, InadmissibleColoringError,
                        LogColoring, build_diagram, crossing_data,
                        extend_log_coloring, log_longitudes, pin_bottom)
from .characters import LogWeylChar
from .qdilog import TWO_PI_I, Flattening, RootConfig
from .rmatrix import CrossingData, kashaev_crossing  # noqa: F401 (perfbench reads it here)


def random_flattening(cfg: RootConfig, rng: np.random.Generator) -> Flattening:
    """Random flattening with dist(zeta0, Z) > 0.05 and branch in -2..2."""
    while True:
        z0 = rng.uniform(0.0, 1.0) + 1j * rng.uniform(-0.25, 0.25)
        if min(abs(z0 - round(z0.real)), abs(z0 - round(z0.real) - 1),
               abs(z0 - round(z0.real) + 1)) <= 0.05:
            continue
        z0 += int(rng.integers(-1, 2))
        return Flattening.from_zeta0(z0, branch=int(rng.integers(-2, 3)))


def random_value(rng: np.random.Generator, scale: float, im: float) -> complex:
    return rng.uniform(-scale, scale) + 1j * rng.uniform(-im, im)


# each log of a sampled character: |Re| < 0.4, |Im| < 0.15
CHAR_LOG_BOX = (0.4, 0.15)


def random_logchar(rng: np.random.Generator) -> LogWeylChar:
    return LogWeylChar(*(random_value(rng, *CHAR_LOG_BOX) for _ in range(3)))


def random_char_logs(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A shape + (3,) array of random character logs (alpha, beta, mu).

    Draws the same numbers from the stream, in the same order, as
    prod(shape) random_logchar(rng) calls in C order, so either route
    leaves the generator in the same state.
    """
    re, im = CHAR_LOG_BOX
    return rng.uniform([-re, -im], [re, im], size=(*shape, 3, 2)).view(complex)[..., 0]


def random_char_coords(rng: np.random.Generator, shape: tuple) -> tuple:
    """Coordinate arrays (a, b, m) of a `shape` array of random characters:
    random_char_logs exponentiated, so the same draws as prod(shape)
    random_logchar(rng).char() calls."""
    return tuple(np.moveaxis(np.exp(TWO_PI_I * random_char_logs(rng, shape)), -1, 0))


def letter_crossing(cfg: RootConfig, sign: int, lc1: LogWeylChar, lc2: LogWeylChar,
                    gamma_n: complex, alpha2p: complex = None) -> CrossingData:
    """The crossing of the one-letter word (sign,) with input logs lc1, lc2
    and region N log gamma_n.

    extend_log_coloring picks the output logs; the E region's
    gamma_n + alpha2p overrides its choice when given.
    """
    d = build_diagram(BraidWord(2, (sign,)))
    c = d.crossings[0]
    gammas = {} if alpha2p is None else {c.reg_e: gamma_n + alpha2p}
    gamma_w = gamma_n + lc1.alpha
    lc = extend_log_coloring(d, [lc1.beta, lc2.beta],
                             [gamma_n, gamma_w, gamma_w + lc2.alpha],
                             [lc1.mu, lc2.mu], gamma_overrides=gammas)
    return crossing_data(cfg, d, lc, c)


def random_crossing(cfg: RootConfig, rng: np.random.Generator,
                    sign: int = +1) -> CrossingData:
    """Random non-pinched crossing with all zeta0 at distance > 0.05 from Z."""
    for _ in range(500):
        lc1, lc2 = random_logchar(rng), random_logchar(rng)
        try:
            c = letter_crossing(cfg, sign, lc1, lc2, random_value(rng, 0.3, 0.1))
        except ValueError:  # every holorm error is one
            continue
        z0 = c.zeta0()
        if min(abs(z0[r] - round(z0[r].real)) for r in "NWSE") < 0.05:
            continue
        return c
    raise RuntimeError("could not sample a crossing")


def standard_pinched_crossing(cfg: RootConfig, al1: complex, al2: complex,
                              mu1: complex, mu2: complex, sign: int = +1,
                              alpha2p: complex = None) -> CrossingData:
    """Pinched crossing (b2 = m1 b1) at beta_1 = 0 and gamma_N = 0.1, with
    the standard log-coloring extend_log_coloring picks at a pinched crossing."""
    return letter_crossing(cfg, sign, LogWeylChar(al1, 0.0, mu1),
                           LogWeylChar(al2, mu1, mu2), 0.1, alpha2p=alpha2p)


def random_coloring(cfg: RootConfig, d: DiagramGraph, rng: np.random.Generator,
                    tries: int = 300) -> LogColoring:
    for _ in range(tries):
        top_b = [random_value(rng, 0.35, 0.12) for _ in range(d.width)]
        top_g = [random_value(rng, 0.35, 0.12) for _ in range(d.width + 1)]
        mus = [random_value(rng, 0.35, 0.12) for _ in range(d.width)]
        try:
            return extend_log_coloring(d, top_b, top_g, mus)
        except InadmissibleColoringError:
            continue
    raise RuntimeError("could not sample an admissible coloring")


def matched_pair_colorings(cfg: RootConfig, rng: np.random.Generator,
                           word_a: tuple, word_b: tuple, width: int) -> tuple:
    """Colorings of two words with identical boundary data and log-longitudes.

    The second word is the pinned_coloring of the first word's boundary
    data and log-longitudes (always reachable when the two words are
    related by braid moves).
    """
    da, db = build_diagram(BraidWord(width, word_a)), build_diagram(BraidWord(width, word_b))
    for _ in range(300):
        try:
            lca = random_coloring(cfg, da, rng, tries=50)
        except RuntimeError:
            continue
        lcb = pinned_coloring(db, lca.top(da), lca.bottom(da), lca.mu,
                              log_longitudes(da, lca))
        if lcb is not None:
            return (da, lca), (db, lcb)
    raise RuntimeError("no matched pair of colorings found")


def pinned_coloring(d: DiagramGraph, top: tuple, bottom: tuple, mus: list,
                    longitudes: list) -> LogColoring | None:
    """The log-coloring of d from top data `top` and meridian logs mus that
    ends on `bottom` (both (betas, gammas), as LogColoring.top gives them)
    with log-longitudes `longitudes`.

    Internal betas are shifted by integers until the longitudes match; each
    shift is found by re-coloring with that beta bumped by 1, so pinched
    crossings are handled too.  None means the pinned coloring is
    inadmissible or no integer shift reaches `longitudes`.
    """
    overrides, g_over = pin_bottom(d, *bottom)
    try:
        lc = extend_log_coloring(d, *top, mus, overrides, g_over)
    except InadmissibleColoringError:
        return None
    # the re-colorings below cannot fail: their characters are the ones that
    # just passed, and overrides only choose logarithms
    for s in d.internal_segments():
        lam = log_longitudes(d, lc)
        remaining = [t - x for t, x in zip(longitudes, lam)]
        if max(abs(x) for x in remaining) <= 1e-9:
            return lc
        probe = extend_log_coloring(d, *top, mus, {**overrides, s: lc.beta[s] + 1},
                                    g_over)
        eff = [x - y for x, y in zip(log_longitudes(d, probe), lam)]
        j = int(np.argmax([abs(e) for e in eff]))
        if abs(eff[j]) < 0.4:
            continue
        shift = remaining[j] / eff[j]
        if abs(shift - round(shift.real)) > 1e-9:
            return None
        overrides[s] = lc.beta[s] + round(shift.real)
        lc = extend_log_coloring(d, *top, mus, overrides, g_over)
    lam = log_longitudes(d, lc)
    return lc if max(abs(t - x) for t, x in zip(longitudes, lam)) <= 1e-9 else None
