"""Braid diagrams as labelled graphs, coloring propagation, and the state sum.

A braid word on `width` strands is read top to bottom; strands are numbered
right to left, so generator i braids the strands at positions i and i+1 and
position 1 is the rightmost.  Tensor slot j of the state-sum matrix carries
strand position j (slot 1 most significant in the row-major flat index).

Crossings break strands into segments (width + 2 * crossings of them) and
regions come in width+1 columns, the middle columns subdivided by the
crossings acting there.  A coloring assigns a central character to every
segment; a log-coloring additionally fixes logarithms: beta per segment,
gamma per region, mu per component.

propagate_chi is the one pass that braids characters through a diagram;
extend_log_coloring runs it on the characters of the top logs and then only
chooses logarithms.  pin_bottom turns bottom boundary data into the
overrides that make a log-coloring end on it (bottom = top closes a braid).

jfunc_eval composes the braidings of the crossings into the state sum;
apply applies them, crossing by crossing, to a block of vectors without
forming it.  Both build the braidings of a word in one pass.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .characters import LogWeylChar, braid
from .qdilog import RootConfig, TWO_PI_I
from .rmatrix import (CrossingData, _half_longitudes, braiding_op, build_crossings,
                      crossing_from_logs)


class InadmissibleColoringError(ValueError):
    def __init__(self, crossing: int, msg: str = ""):
        self.crossing = crossing
        super().__init__(msg or f"coloring degenerates at crossing {crossing}")


@dataclass(frozen=True)
class BraidWord:
    """width >= 1 strands; letters are signed generator indices in 1..width-1."""

    width: int
    letters: tuple

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        for x in self.letters:
            if not (1 <= abs(x) <= self.width - 1):
                raise ValueError(f"generator {x} out of range for width {self.width}")


@dataclass
class Crossing:
    """One crossing: indices of its four segments and four regions.

    seg1/seg2 enter at positions pos/pos+1; seg2p/seg1p leave at positions
    pos/pos+1 (the strands swap sides).  Regions: N right, W above, S left,
    E below (the freshly created region).
    """

    index: int
    sign: int
    pos: int
    seg1: int
    seg2: int
    seg1p: int
    seg2p: int
    reg_n: int
    reg_w: int
    reg_s: int
    reg_e: int


@dataclass
class DiagramGraph:
    """Deterministic combinatorial data of a braid word."""

    word: BraidWord
    crossings: list
    n_segments: int
    n_regions: int
    seg_component: list          # component id (top position of the strand)
    top_segments: list           # per position 1..w (index 0 unused)
    bottom_segments: list
    top_regions: list            # per column 0..w
    bottom_regions: list
    perm: list                   # bottom position -> component there

    @property
    def width(self) -> int:
        return self.word.width

    def internal_regions(self) -> list:
        """Regions bounded above and below by crossings of their column."""
        opened = {c.reg_e: c.index for c in self.crossings}
        closed = {}
        for c in self.crossings:
            if c.reg_w not in closed:
                closed[c.reg_w] = c.index
        return [r for r in opened if r in closed]

    def internal_segments(self) -> list:
        out = []
        touched_top = set(self.top_segments[1:])
        touched_bot = set(self.bottom_segments[1:])
        for s in range(self.n_segments):
            if s not in touched_top and s not in touched_bot:
                out.append(s)
        return out


def build_diagram(word: BraidWord) -> DiagramGraph:
    """Thread the strands through the word, recording segments and regions."""
    w = word.width
    seg_component = list(range(w))        # initial segments 0..w-1; component = index
    cur_seg = list(range(w))              # cur_seg[p-1] = segment at position p
    cur_reg = list(range(w + 1))          # initial regions 0..w, one per column
    top_segments = [None] + list(range(w))
    top_regions = list(range(w + 1))
    crossings = []
    for t, letter in enumerate(word.letters):
        i = abs(letter)
        sign = 1 if letter > 0 else -1
        s1, s2 = cur_seg[i - 1], cur_seg[i]
        # strands swap positions: position i continues strand 2, i+1 strand 1
        s2p = len(seg_component)
        seg_component.append(seg_component[s2])
        s1p = len(seg_component)
        seg_component.append(seg_component[s1])
        cur_seg[i - 1], cur_seg[i] = s2p, s1p
        reg_e = w + 1 + t                 # the region each crossing opens below it
        crossings.append(Crossing(t, sign, i, s1, s2, s1p, s2p,
                                  cur_reg[i - 1], cur_reg[i], cur_reg[i + 1], reg_e))
        cur_reg[i] = reg_e
    return DiagramGraph(word=word, crossings=crossings,
                        n_segments=len(seg_component),
                        n_regions=w + 1 + len(crossings),
                        seg_component=seg_component,
                        top_segments=top_segments,
                        bottom_segments=[None] + list(cur_seg),
                        top_regions=top_regions,
                        bottom_regions=list(cur_reg),
                        perm=[None] + [seg_component[s] for s in cur_seg])


@dataclass
class ChiColoring:
    """Character per segment plus pinched flags per crossing."""

    colors: list                 # WeylChar per segment id
    pinched_crossings: list


def propagate_chi(d: DiagramGraph, top: list) -> ChiColoring:
    """Color every segment by braiding the top characters through the word.

    `top` lists the characters of positions 1..width.  Raises
    InadmissibleColoringError naming the first crossing that degenerates.
    """
    if len(top) != d.width:
        raise ValueError(f"need {d.width} top characters, got {len(top)}")
    colors = [None] * d.n_segments
    for p in range(1, d.width + 1):
        colors[d.top_segments[p]] = top[p - 1]
    pinched = []
    for c in d.crossings:
        out = braid(colors[c.seg1], colors[c.seg2], c.sign)
        if not out.admissible:
            raise InadmissibleColoringError(
                c.index, f"inadmissible pair at crossing {c.index} (letter "
                         f"{d.word.letters[c.index]}, positions {c.pos},{c.pos+1})")
        if out.pinched:
            pinched.append(c.index)
        colors[c.seg1p] = out.chi1p
        colors[c.seg2p] = out.chi2p
    return ChiColoring(colors, pinched)


@dataclass
class LogColoring:
    """beta per segment, gamma per region, mu per component.

    pinched_crossings lists the crossings found pinched by the pass that
    built the coloring.
    """

    beta: list
    gamma: list
    mu: list
    pinched_crossings: list = field(default_factory=list)

    def top(self, d: DiagramGraph) -> tuple:
        """(betas of positions 1..width, gammas of columns 0..width) at the top."""
        return ([self.beta[s] for s in d.top_segments[1:]],
                [self.gamma[r] for r in d.top_regions])

    def bottom(self, d: DiagramGraph) -> tuple:
        """(betas of positions 1..width, gammas of columns 0..width) at the bottom."""
        return ([self.beta[s] for s in d.bottom_segments[1:]],
                [self.gamma[r] for r in d.bottom_regions])


def top_characters(d: DiagramGraph, top_betas: list, top_gammas: list,
                   mus: list) -> list:
    """Characters of positions 1..width read off top log data."""
    w = d.width
    if len(top_betas) != w or len(top_gammas) != w + 1 or len(mus) != w:
        raise ValueError("boundary data sizes do not match the diagram")
    return [LogWeylChar(top_gammas[p] - top_gammas[p - 1], top_betas[p - 1],
                        mus[p - 1]).char() for p in range(1, w + 1)]


def extend_log_coloring(d: DiagramGraph, top_betas: list, top_gammas: list,
                        mus: list, beta_overrides: dict = None,
                        gamma_overrides: dict = None) -> LogColoring:
    """Choose logarithms for the coloring that propagate_chi gives the top data.

    Per crossing, the two output betas and the new region gamma default to
    principal logarithms of the propagated characters; at a pinched crossing
    the output betas take the standard branch instead, on which all region
    flattenings vanish exactly.  Per-segment/region overrides choose other
    branches; they must be logarithms of the propagated characters, which
    are not re-derived from them.
    """
    col = propagate_chi(d, top_characters(d, top_betas, top_gammas, mus))
    beta_overrides = beta_overrides or {}
    gamma_overrides = gamma_overrides or {}
    beta = [None] * d.n_segments
    for s, b in zip(d.top_segments[1:], top_betas):
        beta[s] = b
    gamma = list(top_gammas) + [None] * len(d.crossings)
    pinched = set(col.pinched_crossings)
    for c in d.crossings:
        chi1p, chi2p = col.colors[c.seg1p], col.colors[c.seg2p]
        if c.index in pinched:
            b1p = beta[c.seg1] + mus[d.seg_component[c.seg2]]
            b2p = beta[c.seg1]
        else:
            b1p = cmath.log(chi1p.b) / TWO_PI_I
            b2p = cmath.log(chi2p.b) / TWO_PI_I
        beta[c.seg1p] = beta_overrides.get(c.seg1p, b1p)
        beta[c.seg2p] = beta_overrides.get(c.seg2p, b2p)
        gamma[c.reg_e] = gamma_overrides.get(
            c.reg_e, gamma[c.reg_n] + cmath.log(chi2p.a) / TWO_PI_I)
    return LogColoring(beta, gamma, list(mus), col.pinched_crossings)


def pin_bottom(d: DiagramGraph, betas: list, gammas: list) -> tuple:
    """(beta_overrides, gamma_overrides) that make extend_log_coloring end on
    the bottom data (betas of positions 1..width, gammas of columns 0..width).

    A bottom region that is also a top region (a column no crossing acts in)
    keeps its top value and gets no override.
    """
    beta_overrides = dict(zip(d.bottom_segments[1:], betas))
    gamma_overrides = {r: g for r, g in zip(d.bottom_regions, gammas)
                       if r not in d.top_regions}
    return beta_overrides, gamma_overrides


def crossing_data(cfg: RootConfig, d: DiagramGraph, lc: LogColoring,
                  c: Crossing) -> CrossingData:
    b, g = lc.beta, lc.gamma
    return crossing_from_logs(
        cfg, c.sign, (b[c.seg1], b[c.seg2], b[c.seg1p], b[c.seg2p]),
        (lc.mu[d.seg_component[c.seg1]], lc.mu[d.seg_component[c.seg2]]),
        (g[c.reg_n], g[c.reg_w], g[c.reg_s], g[c.reg_e]))


def word_crossings(cfg: RootConfig, *colored: tuple) -> list:
    """For each (diagram, log-coloring) pair of colored, the CrossingData of
    its crossings in word order; the R-matrices of all of them are one
    build_crossings pass."""
    cds = [[crossing_data(cfg, d, lc, c) for c in d.crossings] for d, lc in colored]
    build_crossings([c for word in cds for c in word])
    return cds


def log_longitudes(d: DiagramGraph, lc: LogColoring) -> list:
    """lambda per component: half-sum of signed betas over half-segments."""
    lam, b = [0.0 + 0.0j] * d.width, lc.beta
    for c in d.crossings:
        lam1, lam2 = _half_longitudes(c.sign, b[c.seg1], b[c.seg2], b[c.seg1p], b[c.seg2p])
        lam[d.seg_component[c.seg1]] += lam1
        lam[d.seg_component[c.seg2]] += lam2
    return lam


def on_slots(b: np.ndarray, X: np.ndarray, N: int, before: int) -> np.ndarray:
    """The N^2 x N^2 operator b applied to the two tensor slots of X's rows
    that follow the first `before` slots (rows row-major over slots of
    dimension N): b times the middle axis of the view (N^before, N^2, rest),
    returned in that shape."""
    return b @ X.reshape(N ** before, N * N, -1)


def apply(cfg: RootConfig, d: DiagramGraph, lc: LogColoring,
          V: np.ndarray) -> np.ndarray:
    """The state sum of the log-colored diagram applied to V, whose N^w rows
    are row-major over the slots, without forming the state sum.

    Top crossing first, each braiding acts on slots pos and pos+1 of the
    columns (pinched crossings are routed to the closed pinched braiding):
    N^(w+2) multiply-adds per crossing and column.  The braidings are built
    in one pass (word_crossings).  The empty word returns V.
    """
    N, w = cfg.N, d.width
    if V.shape[0] != N ** w:
        raise ValueError(f"V has {V.shape[0]} rows; width {w} at N = {N} needs {N ** w}")
    crossings, = word_crossings(cfg, (d, lc))
    return _apply_crossings(cfg, d, crossings, V)


def _apply_crossings(cfg: RootConfig, d: DiagramGraph, crossings: list,
                     V: np.ndarray) -> np.ndarray:
    """apply, given the CrossingData of d's crossings in word order (one
    word of a word_crossings pass over several words)."""
    if len(crossings) != len(d.crossings):
        raise ValueError(f"{len(crossings)} crossings given for a word of {len(d.crossings)}")
    for c, cd in zip(d.crossings, crossings):
        b = braiding_op(cd).as_operator()
        V = on_slots(b, V, cfg.N, c.pos - 1).reshape(V.shape)
    return V


def _light_cone_order(positions) -> list:
    """Indices of the crossings at generator positions `positions` (word
    order) in the order jfunc_eval contracts them.

    A crossing may go before earlier crossings only if it shares no slot
    with any of them (|pos - pos'| >= 2): braidings on disjoint slots
    commute, so the product is the word's.  Among the crossings that may go
    next, the first one inside the slots lo..hi reached so far goes, else
    the first left in word order.
    """
    left = list(range(len(positions)))
    order, lo, hi = [], 1, 0
    while left:
        k, taken = left[0], set()   # taken: slots of the crossings passed
        for i in left:
            p = positions[i]
            if lo <= p < hi and not taken & {p, p + 1}:
                k = i
                break
            taken |= {p, p + 1}
        left.remove(k)
        order.append(k)
        p = positions[k]
        lo, hi = (p, p + 1) if hi < lo else (min(lo, p), max(hi, p + 1))
    return order


def jfunc_eval(cfg: RootConfig, d: DiagramGraph, lc: LogColoring) -> np.ndarray:
    """State-sum matrix of the log-colored diagram (operator[out, in]).

    Top crossing acts first; pinched crossings are routed to the closed
    pinched braiding automatically, and every braiding of the word is built
    in one pass (word_crossings).  Rows are row-major over the slots.  The
    running operator `op` is dense on the slots lo..hi reached so far and the
    identity acts on the others.  Crossings are contracted in the light-cone
    order of _light_cone_order, which depends only on the generator
    positions: a crossing that shares no slot with the earlier ones it
    passes, and lies inside lo..hi, goes before any crossing that widens
    lo..hi.  With h the slots of lo..hi before the crossing:
    - the first braiding is `op`, at no cost;
    - a crossing inside lo..hi multiplies the middle axis of the view
      (N^(pos-lo), N^2, everything else): N^(2h+2) multiply-adds;
    - a crossing that reaches one new slot sums over the one index it
      shares with `op`, in one broadcast matmul: N^(2h+3) multiply-adds;
    - the identity is put in by kron only on slots skipped between
      crossings (then the crossing reaches one new slot) and on the outer
      slots at the end: N^(2h) entries written for the h slots after it.
    The result is one N^(2w) output.  The empty word gives the identity,
    the only case that builds np.eye(N^w).  apply on np.eye(N^w) gives the
    same matrix, but pays N^(2w+2) per crossing from the first one on.
    """
    N, w = cfg.N, d.width
    cds, = word_crossings(cfg, (d, lc))
    op = None
    for i in _light_cone_order([c.pos for c in d.crossings]):
        c = d.crossings[i]
        b = braiding_op(cds[i]).as_operator()
        p = c.pos
        if op is None:
            op, lo, hi = b, p, p + 1
            continue
        if p > hi:
            op, hi = np.kron(op, np.eye(N ** (p - hi))), p
        elif p + 1 < lo:
            op, lo = np.kron(np.eye(N ** (lo - p - 1)), op), p + 1
        h = hi - lo + 1
        b3 = b.reshape(N * N, N, N)      # [out pair, in slot p, in slot p+1]
        if p == hi:
            # out[a, k, m, j] = sum_i op[a, i, m] b3[k, i, j]
            out = op.reshape(N ** (h - 1), 1, N, N ** h).transpose(0, 1, 3, 2) @ b3
            op, hi = out.reshape(N ** (h + 1), N ** (h + 1)), hi + 1
        elif p + 1 == lo:
            # out[k, a, j, m] = sum_i b3[k, j, i] op[i, a, m]
            out = b3[:, None] @ op.reshape(N, N ** (h - 1), N ** h).transpose(1, 0, 2)
            op, lo = out.reshape(N ** (h + 1), N ** (h + 1)), lo - 1
        else:
            op = on_slots(b, op, N, p - lo).reshape(N ** h, N ** h)
    if op is None:
        return np.eye(N ** w, dtype=complex)
    if lo > 1:
        op = np.kron(np.eye(N ** (lo - 1)), op)
    if hi < w:
        op = np.kron(op, np.eye(N ** (w - hi)))
    return op
