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
from .rmatrix import CrossingData


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


def random_char_coords(rng: np.random.Generator, shape: tuple) -> tuple:
    """Coordinate arrays (a, b, m) of a `shape` array of random characters.

    Draws the same numbers from the stream, in the same order, as
    prod(shape) random_logchar(rng).char() calls in C order, so either route
    leaves the generator in the same state.
    """
    re, im = CHAR_LOG_BOX
    logs = rng.uniform([-re, -im], [re, im], size=(*shape, 3, 2)).view(complex)[..., 0]
    return tuple(np.moveaxis(np.exp(TWO_PI_I * logs), -1, 0))


def letter_crossing(cfg: RootConfig, sign: int, lc1: LogWeylChar, lc2: LogWeylChar,
                    gamma_n: complex, beta1p: complex = None, beta2p: complex = None,
                    alpha2p: complex = None) -> CrossingData:
    """The crossing of the one-letter word (sign,) with input logs lc1, lc2
    and region N log gamma_n.

    extend_log_coloring picks the output logs; beta1p, beta2p and the E
    region's gamma_n + alpha2p override its choice when given.
    """
    d = build_diagram(BraidWord(2, (sign,)))
    c = d.crossings[0]
    betas = {s: b for s, b in ((c.seg1p, beta1p), (c.seg2p, beta2p)) if b is not None}
    gammas = {} if alpha2p is None else {c.reg_e: gamma_n + alpha2p}
    gamma_w = gamma_n + lc1.alpha
    lc = extend_log_coloring(d, [lc1.beta, lc2.beta],
                             [gamma_n, gamma_w, gamma_w + lc2.alpha],
                             [lc1.mu, lc2.mu], betas, gammas)
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


def kashaev_crossing(cfg: RootConfig) -> CrossingData:
    """The alpha = mu = -1/2 pinched crossing underlying the Kashaev matrix."""
    return standard_pinched_crossing(cfg, -0.5, -0.5, -0.5, -0.5, alpha2p=-0.5)


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

    The second word is colored with the first word's boundary values imposed
    on its bottom segments and regions, and one internal beta is shifted by
    an integer to equalize the log-longitudes (always possible when the two
    words are related by braid moves).
    """
    da, db = build_diagram(BraidWord(width, word_a)), build_diagram(BraidWord(width, word_b))
    for _ in range(300):
        try:
            lca = random_coloring(cfg, da, rng, tries=50)
        except RuntimeError:
            continue
        top_b, top_g = lca.top(da)
        pins = pin_bottom(db, *lca.bottom(da))
        try:
            lcb = extend_log_coloring(db, top_b, top_g, lca.mu, *pins)
        except InadmissibleColoringError:
            continue
        lama = log_longitudes(da, lca)
        if max(abs(x - y) for x, y in zip(lama, log_longitudes(db, lcb))) > 1e-9:
            lcb = _tune_longitudes(db, lcb, pins, lama)
        if lcb is None:
            continue
        if max(abs(x - y) for x, y in zip(lama, log_longitudes(db, lcb))) > 1e-9:
            continue
        return (da, lca), (db, lcb)
    raise RuntimeError("no matched pair of colorings found")


def _tune_longitudes(d, lc, pins, target):
    """Shift internal betas of lc by integers to steer its longitudes to `target`.

    pins are the (beta, gamma) overrides lc was built with; returns None
    when no integer shift gets there.
    """
    top_b, top_g = lc.top(d)
    overrides, g_over = dict(pins[0]), pins[1]
    for s in d.internal_segments():
        remaining = [t - l for t, l in zip(target, log_longitudes(d, lc))]
        if max(abs(x) for x in remaining) <= 1e-9:
            break
        try:
            probe = extend_log_coloring(d, top_b, top_g, lc.mu,
                                        {**overrides, s: lc.beta[s] + 1}, g_over)
        except InadmissibleColoringError:
            return None
        eff = [x - y for x, y in zip(log_longitudes(d, probe), log_longitudes(d, lc))]
        j = int(np.argmax([abs(e) for e in eff]))
        if abs(eff[j]) < 0.4:
            continue
        shift = remaining[j] / eff[j]
        if abs(shift - round(shift.real)) > 1e-9:
            return None
        overrides[s] = lc.beta[s] + round(shift.real)
        try:
            lc = extend_log_coloring(d, top_b, top_g, lc.mu, overrides, g_over)
        except InadmissibleColoringError:
            return None
    return lc
