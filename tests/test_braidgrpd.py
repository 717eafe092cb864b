"""Braid diagrams, coloring propagation, the state sum, and moves."""

import cmath
import itertools
import tracemalloc

import numpy as np
import pytest

from holorm import braidgrpd, rmatrix
from holorm import selftest
from holorm.braidgrpd import (BraidWord, InadmissibleColoringError, LogColoring,
                              _light_cone_order, apply, build_diagram, crossing_data,
                              extend_log_coloring, jfunc_eval, log_longitudes,
                              pin_bottom, propagate_chi, top_characters)
from holorm.characters import WeylChar
from holorm.qdilog import RootConfig, TWO_PI_I
from holorm.rmatrix import braiding_op, kashaev_rmat, logdet_braiding
from holorm.sampling import (matched_pair_colorings, pinned_coloring,
                             random_coloring)
from holorm.selftest import (IDENTITIES, _sum_dev, braid_relation_deviation,
                             check_braidgrpd, edge_gluing_defects)

from conftest import mrel

EPS = np.finfo(float).eps

KASHAEV_TRIPLE = [WeylChar(-1, 1, -1), WeylChar(-1, -1, -1), WeylChar(-1, 1, -1)]
# top betas, gammas and meridians whose characters are KASHAEV_TRIPLE
KASHAEV_LOGS = ([0.0, -0.5, -1.0], [0.0, -0.5, -1.0, -1.5], [-0.5, -0.5, -0.5])


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(2, (2,))


def test_word_takes_integers_and_rejects_other_numbers():
    # integral floats and numpy integers become ints; a fraction would
    # otherwise be truncated into another word, and a bool is no number
    word = BraidWord(np.int64(3), (np.int32(1), -2.0))
    assert word == BraidWord(3, (1, -2)) and type(word.width) is int
    assert all(type(x) is int for x in word.letters)
    for width, letters in [(3, (1.7, -2.2)), (3.5, (1,)), (True, ()), (3, (True,)),
                           (3, (np.bool_(True),)), (float("inf"), ()), (3, (1 + 0j,))]:
        with pytest.raises(ValueError, match="must be an integer"):
            BraidWord(width, letters)


def test_build_diagram_counts():
    d = build_diagram(BraidWord(3, ()))
    assert d.n_segments == 3 and len(d.crossings) == 0 and d.n_regions == 4
    # each crossing ends two segments and starts two new ones
    d = build_diagram(BraidWord(2, (1,)))
    assert d.n_segments == 4 and len(d.crossings) == 1
    # matches the one-crossing three-strand picture: five segments total
    d = build_diagram(BraidWord(3, (-2,)))
    assert d.n_segments == 5 and d.n_regions == 5
    c = d.crossings[0]
    assert c.sign == -1 and c.pos == 2


def test_strand_following():
    d = build_diagram(BraidWord(3, (1, 2, 1)))
    assert d.n_segments == 9
    assert sorted(d.perm[1:]) == [0, 1, 2]
    # sigma1 sigma2 sigma1 reverses the strand order
    assert d.perm[1:] == [2, 1, 0]
    assert len(d.internal_segments()) == 3


def test_propagate_chi_identity_and_failure(rng):
    d = build_diagram(BraidWord(3, ()))
    tops = [WeylChar(1 + 0.2j, 0.8, 1.1), WeylChar(0.9, 1.2, 0.7), WeylChar(1, 1, 1)]
    col = propagate_chi(d, tops)
    for p in (1, 2, 3):
        assert col.colors[d.bottom_segments[p]] is tops[p - 1]
    # the A = 0 pair fails, and the report names the crossing
    d = build_diagram(BraidWord(2, (1,)))
    with pytest.raises(InadmissibleColoringError) as exc:
        propagate_chi(d, [WeylChar(2, 1, 1), WeylChar(0.5, 1, 1)])
    assert exc.value.crossing == 0
    with pytest.raises(ValueError, match="need 2 top characters, got 3"):
        propagate_chi(d, tops)


def test_propagate_chi_kashaev_triple():
    d = build_diagram(BraidWord(3, (1, 2, 1)))
    col = propagate_chi(d, KASHAEV_TRIPLE)
    assert col.pinched_crossings == [0, 1, 2]


def _seeded_colorings(cfg, word, rng):
    """Log-colorings of the word: two random ones, then one whose first
    crossing is pinched (b2 = m1 b1 there); the Kashaev data for "kashaev"."""
    if word == "kashaev":
        d = build_diagram(BraidWord(3, (1, 2, 1)))
        assert all(x.isclose(y) for x, y in
                   zip(top_characters(d, *KASHAEV_LOGS), KASHAEV_TRIPLE))
        return d, [extend_log_coloring(d, *KASHAEV_LOGS)]
    d = build_diagram(BraidWord(max(abs(x) for x in word) + 1, word))
    out = [random_coloring(cfg, d, rng) for _ in range(2)]
    top_b, top_g = out[0].top(d)
    i = abs(word[0])
    top_b[i] = top_b[i - 1] + out[0].mu[i - 1]
    out.append(extend_log_coloring(d, top_b, top_g, out[0].mu))
    return d, out


SEEDED_WORDS = [(1, -1), (1, 2, 1), (2, 1, -2, 1), "kashaev"]


@pytest.mark.parametrize("word", SEEDED_WORDS)
def test_log_coloring_pinched_crossings_come_from_its_one_pass(word, rng):
    cfg = RootConfig(3)
    d, colorings = _seeded_colorings(cfg, word, rng)
    for lc in colorings:
        col = propagate_chi(d, top_characters(d, *lc.top(d), lc.mu))
        assert lc.pinched_crossings == col.pinched_crossings
        assert lc.pinched_crossings == [
            c.index for c in d.crossings if crossing_data(cfg, d, lc, c).pinched]
    assert colorings[-1].pinched_crossings[:1] == [0]


@pytest.mark.parametrize("word", SEEDED_WORDS)
def test_pin_bottom_sets_the_bottom_boundary(word, rng):
    # other branches of the bottom logs: integer shifts, except in the two
    # outer columns, whose regions no crossing reaches
    d, colorings = _seeded_colorings(RootConfig(3), word, rng)
    for lc in colorings:
        betas, gammas = lc.bottom(d)
        betas = [b + int(rng.integers(-2, 3)) for b in betas]
        gammas = ([gammas[0]] + [g + int(rng.integers(-2, 3)) for g in gammas[1:-1]]
                  + [gammas[-1]])
        pinned = extend_log_coloring(d, *lc.top(d), lc.mu,
                                     *pin_bottom(d, betas, gammas))
        assert pinned.bottom(d) == (betas, gammas)
        assert pinned.top(d) == lc.top(d)


def test_log_longitudes_single_crossing(rng):
    d = build_diagram(BraidWord(2, (1,)))
    lc = random_coloring(RootConfig(3), d, rng)
    lam = log_longitudes(d, lc)
    c = d.crossings[0]
    assert abs(lam[0] - 0.5 * (lc.beta[c.seg1p] - lc.beta[c.seg1])) < 1e-14
    assert abs(lam[1] - 0.5 * (lc.beta[c.seg2] - lc.beta[c.seg2p])) < 1e-14
    # identity braid has no half-segments at all
    d0 = build_diagram(BraidWord(2, ()))
    lc0 = random_coloring(RootConfig(3), d0, rng)
    assert log_longitudes(d0, lc0) == [0, 0]


def test_log_longitudes_negative_example(rng):
    # one negative crossing of strands 2 and 3
    d = build_diagram(BraidWord(3, (-2,)))
    lc = random_coloring(RootConfig(3), d, rng)
    lam = log_longitudes(d, lc)
    c = d.crossings[0]
    assert lam[0] == 0
    assert abs(lam[1] - 0.5 * (lc.beta[c.seg1] - lc.beta[c.seg1p])) < 1e-14
    assert abs(lam[2] - 0.5 * (lc.beta[c.seg2p] - lc.beta[c.seg2])) < 1e-14


@pytest.mark.parametrize("word", [BraidWord(2, (1, -1, 1)), BraidWord(3, (1, -2, 1, 2)),
                                  BraidWord(3, (-1, -2)), BraidWord(4, (1, -3, 2, -1, 3)),
                                  BraidWord(4, (-2, 3, -1))])
def test_log_longitudes_sum_the_crossings_half_longitudes(word, rng):
    # each component's log-longitude is the sum of the CrossingData
    # half-longitude terms of the crossings its strands pass through
    cfg = RootConfig(3)
    d = build_diagram(word)
    for _ in range(3):
        lc = random_coloring(cfg, d, rng)
        lam = [0j] * d.width
        for c in d.crossings:
            lam1, lam2 = crossing_data(cfg, d, lc, c).log_longitudes()
            lam[d.seg_component[c.seg1]] += lam1
            lam[d.seg_component[c.seg2]] += lam2
        assert max(abs(x - y) for x, y in zip(log_longitudes(d, lc), lam)) <= 1e-14


def test_jfunc_identity_word(rng):
    cfg = RootConfig(3)
    d = build_diagram(BraidWord(2, ()))
    lc = random_coloring(cfg, d, rng)
    assert mrel(jfunc_eval(cfg, d, lc), np.eye(9)) == 0.0


def _matched_r2_coloring(cfg, d, rng):
    lc = random_coloring(cfg, d, rng)
    top = lc.top(d)
    return extend_log_coloring(d, *top, lc.mu, *pin_bottom(d, *top))


@pytest.mark.parametrize("N", [2, 3, 5])
def test_jfunc_r2_identity(N, rng):
    cfg = RootConfig(N)
    d = build_diagram(BraidWord(2, (1, -1)))
    for _ in range(3):
        lc = _matched_r2_coloring(cfg, d, rng)
        assert np.abs(jfunc_eval(cfg, d, lc) - np.eye(N * N)).max() < 1e-10


def test_jfunc_r2_pinched(rng):
    # both crossings pinched: the closed pinched braiding is routed in
    cfg = RootConfig(3)
    d = build_diagram(BraidWord(2, (1, -1)))
    top_b = [0.0, -0.5]
    top_g = [0.1, -0.4, -0.9]
    mus = [-0.5, -0.5]
    lc = extend_log_coloring(d, top_b, top_g, mus, *pin_bottom(d, top_b, top_g))
    assert lc.pinched_crossings == [0, 1]
    assert np.abs(jfunc_eval(cfg, d, lc) - np.eye(9)).max() < 1e-10


def _dense_state_sum(cfg, d, lc):
    """Test-only oracle: the product of kron(I, B, I) over the crossings, top
    crossing first, and the same product of the |B| (the rounding scale)."""
    N, w = cfg.N, d.width
    J = np.eye(N ** w, dtype=complex)
    J_abs = np.eye(N ** w)
    for c in d.crossings:
        b = braiding_op(crossing_data(cfg, d, lc, c)).as_operator()
        left, right = np.eye(N ** (c.pos - 1)), np.eye(N ** (w - c.pos - 1))
        J = np.kron(left, np.kron(b, right)) @ J
        J_abs = np.kron(left, np.kron(np.abs(b), right)) @ J_abs
    return J, J_abs


def _oracle_tol(cfg, d):
    """Each crossing sums N^2 terms per entry and the product N^w."""
    return 4 * (len(d.crossings) * cfg.N ** 2 + cfg.N ** d.width) * EPS


def _assert_matches_dense_oracle(cfg, d, lc):
    """Normwise, in units of the rounding scale of the product."""
    J_ref, J_abs = _dense_state_sum(cfg, d, lc)
    J = jfunc_eval(cfg, d, lc)
    assert np.linalg.norm(J - J_ref) <= _oracle_tol(cfg, d) * np.linalg.norm(J_abs)


def _assert_apply_matches_jfunc(cfg, d, lc, rng):
    """apply(V) against jfunc_eval @ V, in the bound of the dense oracle
    times ||V||."""
    V = rng.standard_normal((cfg.N ** d.width, 3)) + 1j * rng.standard_normal(
        (cfg.N ** d.width, 3))
    J_abs = _dense_state_sum(cfg, d, lc)[1]
    dev = np.linalg.norm(apply(cfg, d, lc, V) - jfunc_eval(cfg, d, lc) @ V)
    assert dev <= _oracle_tol(cfg, d) * np.linalg.norm(J_abs) * np.linalg.norm(V)


# every generator position with both signs; then one word per way a
# crossing meets the slots reached before it: a new slot on the left, a
# skipped slot, outer slots never reached, a single letter
ORACLE_WORDS = [
    (3, 5, (1, -2, -1, 2)),
    (4, 4, (1, -2, 3, -1, 2, -3)),
    (5, 3, (1, -2, 3, -4, -1, 2, -3, 4)),
    (3, 5, (2, 1, -2)),
    (5, 3, (1, 4, -2, 3)),
    (4, 4, (2, -2)),
    (4, 4, (2,)),
    (2, 5, (-1,)),
    # the second crossing lands left of the reached slots 3..4, past a gap
    (4, 3, (3, 1)),
    # far-commuting letters that the light-cone order moves ahead
    (5, 3, (1, 2, -3, 4, -1, 2)),
    (6, 2, (1, 3, 5, 2, -4)),
    (4, 4, (1, -2, 3, 1, -2)),
]


@pytest.mark.parametrize("width, N, word", ORACLE_WORDS)
def test_jfunc_matches_dense_oracle(width, N, word, rng):
    cfg = RootConfig(N)
    d = build_diagram(BraidWord(width, word))
    for _ in range(2):
        _assert_matches_dense_oracle(cfg, d, random_coloring(cfg, d, rng))


# positions 2 and 3 carry the pinched pair of test_jfunc_r2_pinched
PINCHED_LOGS = ([0.13 + 0.05j, 0.0, -0.5, -0.21 + 0.03j],
                [0.02 - 0.04j, 0.1, -0.4, -0.9, -0.6 + 0.07j],
                [0.17 - 0.02j, -0.5, -0.5, 0.23 + 0.04j])


def _pinch_second_crossing(d):
    """PINCHED_LOGS with one top beta re-chosen so that the second crossing,
    positive at positions pos and pos+1, is pinched: b(pos+1) = m(pos) b(pos).
    The beta re-chosen is that of the position the first crossing misses."""
    top_b, top_g, mus = (list(x) for x in PINCHED_LOGS)
    lc = extend_log_coloring(d, top_b, top_g, mus)
    c0, c1 = d.crossings[:2]
    if c0.pos == c1.pos - 1:       # the first crossing leaves seg1p at pos
        top_b[c1.pos] = lc.beta[c0.seg1p] + mus[d.seg_component[c0.seg1p]]
    else:                          # and seg2p at pos+1
        top_b[c1.pos - 1] = lc.beta[c0.seg2p] - mus[c1.pos - 1]
    return top_b, top_g, mus


@pytest.mark.parametrize("word, pinched", [
    ((2, -1, 3, -2), 0),
    ((2,), 0),
    ((-1, 2, -3), 1),
    ((-3, 2, -1), 1),
    # sigma1 sigma2 bring the pinched pair to slots 1, 2, where the light-cone
    # order contracts crossing 3 before crossing 2
    ((1, 2, -3, 1), 3),
], ids=["first-then-both-sides", "first-and-only", "extends-right", "extends-left",
        "moved-ahead"])
def test_jfunc_pinched_crossing_matches_dense_oracle(word, pinched, monkeypatch):
    cfg = RootConfig(3)
    d = build_diagram(BraidWord(4, word))
    logs = _pinch_second_crossing(d) if pinched == 1 else PINCHED_LOGS
    lc = extend_log_coloring(d, *logs)
    assert lc.pinched_crossings == [pinched]
    calls = []
    real = rmatrix.rmat_pinched
    monkeypatch.setattr(rmatrix, "rmat_pinched", lambda c: calls.append(c) or real(c))
    jfunc_eval(cfg, d, lc)
    assert len(calls) == 1
    _assert_matches_dense_oracle(cfg, d, lc)
    calls.clear()
    apply(cfg, d, lc, np.ones((3 ** 4, 1)))
    assert len(calls) == 1
    _assert_apply_matches_jfunc(cfg, d, lc, np.random.default_rng(5))


def _position_words(max_width=6, max_len=6):
    """(width, generator positions) of every word of width <= max_width and
    length 1..max_len; signs do not enter the contraction order."""
    for w in range(2, max_width + 1):
        for n in range(1, max_len + 1):
            yield from ((w, pos) for pos in itertools.product(range(1, w), repeat=n))


def _modeled_cost(positions, order, N, w):
    """Multiply-adds of jfunc_eval contracting the crossings in `order`, by
    the terms of its docstring: N^(2h+2) inside the h reached slots, N^(2h+3)
    to reach one new slot, N^(2h) per kron onto h slots, nothing for the
    first braiding."""
    cost, lo, hi = 0, 1, 0
    for k in order:
        p = positions[k]
        if hi < lo:
            lo, hi = p, p + 1
            continue
        if p > hi or p + 1 < lo:
            lo, hi = min(lo, p + 1), max(hi, p)
            cost += N ** (2 * (hi - lo + 1))
        h = hi - lo + 1
        if p == hi or p + 1 == lo:
            cost += N ** (2 * h + 3)
            lo, hi = min(lo, p), max(hi, p + 1)
        else:
            cost += N ** (2 * h + 2)
    cost += (lo > 1) * N ** (2 * hi) + (hi < w) * N ** (2 * w)
    return cost


def test_light_cone_order_keeps_crossings_that_share_a_slot_in_word_order():
    for _, pos in _position_words():
        at = {k: t for t, k in enumerate(_light_cone_order(pos))}
        assert sorted(at) == list(range(len(pos)))
        for i, j in itertools.combinations(range(len(pos)), 2):
            if abs(pos[i] - pos[j]) < 2:
                assert at[i] < at[j], pos
        if all(abs(p - q) < 2 for p, q in itertools.combinations(pos, 2)):
            assert list(at) == list(range(len(pos))), pos
    # the far-commuting sigma1 goes inside the reached slots 1..3 before
    # sigma3 widens them
    assert _light_cone_order((1, 2, 3, 1)) == [0, 1, 3, 2]


def test_light_cone_order_never_costs_more_than_word_order():
    cheaper = 0
    for w, pos in _position_words():
        for N in (2, 5):
            word = _modeled_cost(pos, range(len(pos)), N, w)
            cone = _modeled_cost(pos, _light_cone_order(pos), N, w)
            assert cone <= word, (w, pos, N)
            cheaper += cone < word
    assert cheaper > 0
    # the statesum benchmark's (width, N, crossings) = (5, 4, 6) word
    pos = (1, 2, 3, 4, 1, 2)
    assert _modeled_cost(pos, _light_cone_order(pos), 4, 5) == 5_586_944
    assert _modeled_cost(pos, range(6), 4, 5) == 38_027_264


@pytest.mark.parametrize("width, N, word", [
    (3, 5, (1, -2, -1, 2)), (3, 4, (2, 1, 2, -1, -2)), (4, 3, (2, 3, -2, 3, -3)),
    (2, 5, (1, -1, 1)), (4, 3, (3, -2, 3))])
def test_jfunc_without_far_commuting_letters_keeps_word_order_bits(
        width, N, word, rng, monkeypatch):
    # no two letters commute far apart, so nothing may move: the state sum
    # is the word-order contraction bit for bit
    assert all(abs(abs(x) - abs(y)) < 2 for x, y in itertools.combinations(word, 2))
    cfg = RootConfig(N)
    d = build_diagram(BraidWord(width, word))
    lc = random_coloring(cfg, d, rng)
    J = jfunc_eval(cfg, d, lc)
    monkeypatch.setattr(braidgrpd, "_light_cone_order", lambda pos: range(len(pos)))
    assert np.array_equal(J, jfunc_eval(cfg, d, lc))


@pytest.mark.parametrize("width, N, word", ORACLE_WORDS)
def test_apply_matches_jfunc(width, N, word, rng):
    cfg = RootConfig(N)
    d = build_diagram(BraidWord(width, word))
    for _ in range(2):
        _assert_apply_matches_jfunc(cfg, d, random_coloring(cfg, d, rng), rng)


def test_apply_vector_empty_word_and_shape(rng):
    cfg = RootConfig(3)
    d = build_diagram(BraidWord(3, (1, -2)))
    lc = random_coloring(cfg, d, rng)
    v = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    assert np.array_equal(apply(cfg, d, lc, v), apply(cfg, d, lc, v[:, None])[:, 0])
    d0 = build_diagram(BraidWord(3, ()))
    lc0 = extend_log_coloring(d0, *lc.top(d), lc.mu)
    assert np.array_equal(apply(cfg, d0, lc0, v), v)
    for rows in (9, 28, 81):
        with pytest.raises(ValueError):
            apply(cfg, d, lc, np.ones((rows, 2)))


def test_composition_functoriality(rng):
    cfg = RootConfig(3)
    d = build_diagram(BraidWord(3, (1, 2)))
    from holorm.rmatrix import braiding_op
    lc = random_coloring(cfg, d, rng)
    c0, c1 = d.crossings
    m0 = np.kron(braiding_op(crossing_data(cfg, d, lc, c0)).as_operator(), np.eye(3))
    m1 = np.kron(np.eye(3), braiding_op(crossing_data(cfg, d, lc, c1)).as_operator())
    assert mrel(jfunc_eval(cfg, d, lc), m1 @ m0) < 1e-10


@pytest.mark.parametrize("word", [(1, -1), (1, 1), (1, 2, 1), (2, 1, -2, 1)])
def test_edge_gluing(word, rng):
    cfg = RootConfig(3)
    width = max(abs(x) for x in word) + 1
    d = build_diagram(BraidWord(width, word))
    lc = random_coloring(cfg, d, rng)
    for defect in edge_gluing_defects(cfg, d, lc):
        assert defect < 1e-10


def test_log_decoration_dependence(rng):
    cfg = RootConfig(3)
    d = build_diagram(BraidWord(3, (1, 2, 1)))
    lc0 = random_coloring(cfg, d, rng)
    b_over = {s: lc0.beta[s] + int(rng.integers(-2, 3)) for s in d.internal_segments()}
    g_over = {r: lc0.gamma[r] + int(rng.integers(-2, 3)) for r in d.internal_regions()}
    pin_b, pin_g = pin_bottom(d, *lc0.bottom(d))
    lc1 = extend_log_coloring(d, *lc0.top(d), lc0.mu,
                              {**b_over, **pin_b}, {**g_over, **pin_g})
    lam0, lam1 = log_longitudes(d, lc0), log_longitudes(d, lc1)
    phase = cmath.exp(-TWO_PI_I / 3 * sum((l1 - l0) * m
                                          for l1, l0, m in zip(lam1, lam0, lc0.mu)))
    assert mrel(jfunc_eval(cfg, d, lc1), phase * jfunc_eval(cfg, d, lc0)) < 1e-10


@pytest.mark.parametrize("N", [2, 3])
def test_r3_move(N, rng):
    cfg = RootConfig(N)
    done = 0
    for _ in range(20):
        if done >= 3:
            break
        try:
            before, after = matched_pair_colorings(cfg, rng, (1, 2, 1), (2, 1, 2), 3)
        except RuntimeError:
            continue
        assert _sum_dev(jfunc_eval(cfg, *before), jfunc_eval(cfg, *after)) < 1e-8
        done += 1
    assert done >= 1


def test_r2_move_report(rng):
    cfg = RootConfig(2)
    d2 = build_diagram(BraidWord(2, (1, -1)))
    d0 = build_diagram(BraidWord(2, ()))
    lc2 = _matched_r2_coloring(cfg, d2, rng)
    lc0 = extend_log_coloring(d0, *lc2.top(d2), lc2.mu)
    assert _sum_dev(jfunc_eval(cfg, d2, lc2), jfunc_eval(cfg, d0, lc0)) < 1e-10


def test_r3_move_fails_on_broken_beta_condition(rng):
    # an internal beta shifted by 1 keeps every character but breaks the
    # beta + beta'' = beta' + beta~' condition: once the log-longitudes
    # differ, the state sums differ by more than the R3 row's tolerance
    cfg = RootConfig(2)
    for _ in range(20):
        try:
            (dL, lcL), (dR, lcR) = matched_pair_colorings(cfg, rng,
                                                          (1, 2, 1), (2, 1, 2), 3)
        except RuntimeError:
            continue
        for s in dR.internal_segments():
            bad = list(lcR.beta)
            bad[s] += 1.0
            lcbad = LogColoring(bad, lcR.gamma, lcR.mu)
            lam_gap = max(abs(x - y) for x, y in zip(log_longitudes(dL, lcL),
                                                     log_longitudes(dR, lcbad)))
            if lam_gap > 1e-9:
                dev = _sum_dev(jfunc_eval(cfg, dL, lcL), jfunc_eval(cfg, dR, lcbad))
                assert dev > IDENTITIES["R3 move"].tol
                return
    pytest.fail("no internal beta shift moved a log-longitude")


def test_det_cocycle_r3_double(rng):
    cfg = RootConfig(3)
    loop = build_diagram(BraidWord(3, (1, 2, 1, -1, -2, -1)))
    done = 0
    for _ in range(30):
        if done >= 2:
            break
        try:
            lc = random_coloring(cfg, loop, rng)
        except RuntimeError:
            continue
        top = lc.top(loop)
        lc = pinned_coloring(loop, top, top, lc.mu, [0.0, 0.0, 0.0])
        if lc is None:
            continue
        assert lc.bottom(loop) == top
        assert max(abs(x) for x in log_longitudes(loop, lc)) <= 1e-9
        prod = np.exp(sum(logdet_braiding(crossing_data(cfg, loop, lc, c))
                          for c in loop.crossings))
        assert min(abs(prod - 1), abs(prod + 1)) < 1e-6
        done += 1
    assert done >= 1


def _integer_shift_target(d, lc0):
    """Log-longitudes that lc0's boundary data reach only with a non-zero
    integer shift of an internal beta: those of lc0 re-colored with the
    first internal beta that moves a longitude shifted by 2."""
    top, pins = lc0.top(d), pin_bottom(d, *lc0.bottom(d))
    lam0 = log_longitudes(d, lc0)
    for s in d.internal_segments():
        lc = extend_log_coloring(d, *top, lc0.mu, {**pins[0], s: lc0.beta[s] + 2},
                                 pins[1])
        lam = log_longitudes(d, lc)
        if max(abs(x - y) for x, y in zip(lam, lam0)) > 0.5:
            return lam
    pytest.fail("no internal beta shift moved a log-longitude")


def test_pinned_coloring(rng):
    d = build_diagram(BraidWord(3, (1, 2, 1)))
    lc0 = random_coloring(RootConfig(3), d, rng)
    top, bottom = lc0.top(d), lc0.bottom(d)
    # the target needs a non-zero integer shift: reached, on that bottom
    target = _integer_shift_target(d, lc0)
    lc = pinned_coloring(d, top, bottom, lc0.mu, target)
    assert lc is not None
    assert lc.top(d) == top and lc.bottom(d) == bottom
    assert max(abs(x - y) for x, y in zip(log_longitudes(d, lc), target)) <= 1e-9
    assert any(abs(lc.beta[s] - lc0.beta[s]) > 0.5 for s in d.internal_segments())
    # no integer shift moves the longitudes by 0.3
    off = [x + 0.3 for x in target]
    assert pinned_coloring(d, top, bottom, lc0.mu, off) is None
    # top logs of the A = 0 pair of test_propagate_chi_identity_and_failure
    d1 = build_diagram(BraidWord(2, (1,)))
    al = cmath.log(2) / TWO_PI_I
    bad = ([0.0, 0.0], [0.0, al, 0.0])
    assert pinned_coloring(d1, bad, bad, [0.0, 0.0], [0.0, 0.0]) is None


def test_matched_pair_colorings_share_boundary_and_longitudes(rng):
    cfg = RootConfig(3)
    (da, lca), (db, lcb) = matched_pair_colorings(cfg, rng, (1, 2, 1), (2, 1, 2), 3)
    assert lca.top(da) == lcb.top(db) and lca.bottom(da) == lcb.bottom(db)
    assert lca.mu == lcb.mu
    assert max(abs(x - y) for x, y in zip(log_longitudes(da, lca),
                                          log_longitudes(db, lcb))) <= 1e-9


def test_braid_rows_are_matrix_free():
    # one dense width-3 state sum at N = 16 holds 16^6 complex entries
    # (268 MB), and one N^3 x N^3 kron product as many
    cfg = RootConfig(16)
    limit = 64 * 2 ** 20
    tracemalloc.start()
    try:
        out = check_braidgrpd(cfg, np.random.default_rng(1), 2)
        rows_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kashaev = braid_relation_deviation(cfg, kashaev_rmat(cfg).braiding().as_operator())
        kashaev_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows_peak < limit and kashaev_peak < limit
    for name in ("R2 move", "R3 move", "composition functoriality",
                 "log-decoration dependence"):
        assert out.samples[name] > 0 and out[name] <= IDENTITIES[name].tol
    assert kashaev <= IDENTITIES["Kashaev braid relation"].tol


@pytest.mark.parametrize("N", [3, 4, 5, 9])
def test_kashaev_braid_relation_needs_the_output_flip(N):
    # the R-matrix without the flip of its output pair is no braiding (its
    # transpose would be, so transposing is no mutation here)
    cfg = RootConfig(N)
    K = kashaev_rmat(cfg)
    tol = IDENTITIES["Kashaev braid relation"].tol
    assert braid_relation_deviation(cfg, K.braiding().as_operator()) <= tol
    assert braid_relation_deviation(cfg, K.as_operator()) > 0.1


def test_log_decoration_row_fails_without_the_phase(monkeypatch):
    # equal log-longitudes make the predicted phase 1
    cfg = RootConfig(3)
    tol = IDENTITIES["log-decoration dependence"].tol
    assert check_braidgrpd(cfg, np.random.default_rng(4), 4)[
        "log-decoration dependence"] <= tol
    monkeypatch.setattr(selftest, "log_longitudes", lambda d, lc: [0j] * d.width)
    assert check_braidgrpd(cfg, np.random.default_rng(4), 4)[
        "log-decoration dependence"] > tol


def test_a_word_is_built_in_one_pass(rng, monkeypatch):
    # jfunc_eval and apply build the braidings of all five crossings with
    # one lambda_table call, and _apply_crossings reads crossings built
    # elsewhere, a whole word of them
    cfg = RootConfig(3)
    d = build_diagram(BraidWord(4, (1, -2, 3, 2, -1)))
    lc = random_coloring(cfg, d, rng)
    assert not lc.pinched_crossings
    calls = []
    real = rmatrix.lambda_table
    monkeypatch.setattr(rmatrix, "lambda_table", lambda *a: calls.append(a) or real(*a))
    V = np.random.default_rng(1).standard_normal((3 ** 4, 2))
    for run in (lambda: jfunc_eval(cfg, d, lc), lambda: apply(cfg, d, lc, V)):
        calls.clear()
        run()
        assert len(calls) == 1 and np.shape(calls[0][1].zeta0) == (5 * 4,)
    cds, = braidgrpd.word_crossings(cfg, (d, lc))
    calls.clear()
    assert np.array_equal(braidgrpd._apply_crossings(cfg, d, cds, V), apply(cfg, d, lc, V))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="4 crossings given for a word of 5"):
        braidgrpd._apply_crossings(cfg, d, cds[:4], V)


def test_each_braid_trial_builds_its_words_in_one_pass(monkeypatch):
    # one lambda_table call per trial, four flattenings per crossing of all
    # its words: R2 move and composition (one word of two crossings each),
    # log-decoration dependence and R3 move (a pair of three-crossing
    # words each) and the determinant cocycle (two closed words of six)
    calls = []
    real = rmatrix.lambda_table
    monkeypatch.setattr(rmatrix, "lambda_table", lambda *a: calls.append(a) or real(*a))
    check_braidgrpd(RootConfig(3), np.random.default_rng(1), 4)
    assert [np.shape(f.zeta0) for _, f in calls] == [(8,)] * 8 + [(24,)] * 8 + [(24,)] * 2


@pytest.mark.parametrize("N", [5, 7])
def test_the_braid_suites_peak_does_not_grow_with_its_trials(N):
    # each trial builds and reads its own words; with whole trial sets in
    # one pass, 8 trials peaked 2.4-2.9x above 2
    cfg = RootConfig(N)
    check_braidgrpd(cfg, np.random.default_rng(0), 2)

    def peak(trials):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check_braidgrpd(cfg, np.random.default_rng(1), trials)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(8) < 1.5 * peak(2)
