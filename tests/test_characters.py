"""Central characters, the SL2* coordinates, and the braiding map."""

import cmath
import warnings

import numpy as np
import pytest

from holorm.characters import WeylChar, braid, braid_coords, is_pinched
from holorm.qdilog import TWO_PI_I, RootConfig
from holorm.sampling import random_char_coords, random_logchar
from holorm.selftest import (RootMismatchError, SL2StarElement, _central_scalars,
                             casimir_relation, char_product, check_characters,
                             psi_coords, z0_coords)

from conftest import mrel, rel

KASHAEV1 = WeylChar(-1, 1, -1)
KASHAEV2 = WeylChar(-1, -1, -1)


def test_weylchar_validation():
    with pytest.raises(ValueError):
        WeylChar(0.0, 1.0, 1.0)


def test_psi_sigma_hat_is_minus_identity():
    assert mrel(psi_coords(*KASHAEV1.as_tuple()), -np.eye(2)) < 1e-14


def test_psi_structure(rng):
    for _ in range(50):
        chi = random_logchar(rng).char()
        M = psi_coords(*chi.as_tuple())
        assert rel(np.trace(M), chi.m + 1 / chi.m) < 1e-12
        assert abs(np.linalg.det(M) - 1) < 1e-12
    chi = WeylChar(0.7 + 0.1j, 2.0, 0.7 + 0.1j)  # a = m
    assert abs(psi_coords(*chi.as_tuple())[0, 1]) < 1e-14


def test_to_z0_char():
    ident = z0_coords(1.0, 0.63 - 0.2j, 1.0)
    assert mrel(ident.lower, np.eye(2)) < 1e-14
    assert mrel(ident.upper, np.eye(2)) < 1e-14
    el = z0_coords(*KASHAEV1.as_tuple())
    assert mrel(el.lower, np.diag([-1.0, 1.0])) < 1e-14
    assert mrel(el.upper, np.diag([1.0, -1.0])) < 1e-14


def test_to_z0_char_holonomy_consistency(rng):
    for _ in range(50):
        chi = random_logchar(rng).char()
        el = z0_coords(*chi.as_tuple())
        assert mrel(el.holonomy(), psi_coords(*chi.as_tuple())) < 1e-11
        # character values on the central powers
        kn, en, fn = _central_scalars(el)
        assert rel(kn, chi.a) < 1e-14
        assert rel(en, chi.b * (chi.a - chi.m)) < 1e-13
        assert rel(fn, (chi.a - 1 / chi.m) / (chi.a * chi.b)) < 1e-13


def test_char_product_unit_laws(rng):
    e = z0_coords(1.0, 1.0, 1.0)
    c = z0_coords(*random_logchar(rng).char().as_tuple())
    assert mrel(char_product(e, c).lower, c.lower) < 1e-14
    assert mrel(char_product(c, e).upper, c.upper) < 1e-14
    c2 = z0_coords(*random_logchar(rng).char().as_tuple())
    assert rel(char_product(c, c2).kappa, c.kappa * c2.kappa) < 1e-13


def test_braid_kashaev_pair():
    out = braid(KASHAEV1, KASHAEV2, +1)
    assert out.admissible and out.pinched
    assert out.chi2p.isclose(WeylChar(-1, 1, -1))
    assert out.chi1p.isclose(WeylChar(-1, -1, -1))
    assert not is_pinched(WeylChar(1, 2, 1), WeylChar(1, -1, 1))


def test_braid_inadmissible_pair():
    out = braid(WeylChar(2, 1, 1), WeylChar(0.5, 1, 1), +1)
    assert not out.admissible  # the A factor vanishes


def test_braid_inverse_pair(rng):
    for sign in (+1, -1):
        for _ in range(500):
            c1, c2 = random_logchar(rng).char(), random_logchar(rng).char()
            out = braid(c1, c2, sign)
            if not out.admissible:
                continue
            back = braid(out.chi2p, out.chi1p, -sign)
            assert back.admissible
            assert back.chi2p.isclose(c1, rel=1e-10)
            assert back.chi1p.isclose(c2, rel=1e-10)
            # fully exact meridian preservation
            assert out.chi1p.m == c1.m and out.chi2p.m == c2.m


def test_braid_relation(rng):
    def bx(t):
        o = braid(t[0], t[1], +1)
        return (o.chi2p, o.chi1p, t[2]) if o.admissible else None

    def xb(t):
        o = braid(t[1], t[2], +1)
        return (t[0], o.chi2p, o.chi1p) if o.admissible else None

    checked = 0
    for _ in range(2000):
        triple = tuple(random_logchar(rng).char() for _ in range(3))
        lhs = rhs = triple
        for step in (bx, xb, bx):
            lhs = step(lhs) if lhs is not None else None
        for step in (xb, bx, xb):
            rhs = step(rhs) if rhs is not None else None
        if lhs is None or rhs is None:
            continue
        checked += 1
        for u, v in zip(lhs, rhs):
            assert u.isclose(v, rel=1e-9)
    assert checked >= 500


def test_product_preservation_and_a_balance(rng):
    for _ in range(200):
        c1, c2 = random_logchar(rng).char(), random_logchar(rng).char()
        out = braid(c1, c2, +1)
        if not out.admissible:
            continue
        p_in = char_product(z0_coords(*c1.as_tuple()), z0_coords(*c2.as_tuple()))
        p_out = char_product(z0_coords(*out.chi2p.as_tuple()),
                             z0_coords(*out.chi1p.as_tuple()))
        s = max(1.0, np.abs(p_in.lower).max(), np.abs(p_in.upper).max())
        assert np.abs(p_in.lower - p_out.lower).max() <= 1e-10 * s
        assert np.abs(p_in.upper - p_out.upper).max() <= 1e-10 * s
        assert abs(c1.a * c2.a - out.chi1p.a * out.chi2p.a) < 1e-12 * max(
            1.0, abs(c1.a * c2.a))


def test_casimir_relation(rng):
    for _ in range(100):
        chi = random_logchar(rng).char()
        mu = cmath.log(chi.m) / TWO_PI_I + int(rng.integers(-2, 3))
        assert casimir_relation(*chi.as_tuple(), mu) < 1e-10
    # sigma-hat with mu = -1/2: both sides equal 2
    chi = KASHAEV1
    m = cmath.exp(TWO_PI_I * (-0.5))
    assert rel(-m - 1 / m, 2.0) < 1e-14
    assert casimir_relation(*chi.as_tuple(), -0.5) < 1e-14
    with pytest.raises(RootMismatchError):
        casimir_relation(*chi.as_tuple(), 0.2)


# numpy's complex products round differently from CPython's, so array and
# scalar routes agree to rounding (a few eps), not bit for bit
ARRAY_VS_SCALAR = 1e-13


def _crafted_pairs(sign):
    """Pairs on both sides of the window.  (a1, 1, 1), (0.5, 1, 1) has
    A = 2 - a1, and (0.5, 1, 1), (-1 + d, b2, 1) with b2 = 2 after tau has
    den = d.  A = 1.5e-9 passes the first window, but a1/A leaves it."""
    b2 = 2.0 if sign == +1 else 0.5
    pairs = [(WeylChar(a1, 1, 1), WeylChar(0.5, 1, 1))
             for a1 in (2.0, 2.0 - 5e-10, 2.0 - 1.5e-9, 2.0 - 4e-9, 1.5)]
    pairs += [(WeylChar(0.5, 1, 1), WeylChar(-1.0 + d, b2, 1))
              for d in (0.0, 5e-10, 4e-9, 0.5)]
    return pairs


@pytest.mark.parametrize("sign", (+1, -1))
def test_braid_coords_on_arrays_matches_braid(rng, sign):
    pairs = [(random_logchar(rng).char(), random_logchar(rng).char())
             for _ in range(1000)]
    pairs += _crafted_pairs(sign)
    cols = [np.array([getattr(p[i], k) for p in pairs], dtype=complex)
            for i in (0, 1) for k in "abm"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # masked entries divide silently
        (o2, o1), ok = braid_coords(*cols, sign)
    outs = [braid(c1, c2, sign) for c1, c2 in pairs]
    assert list(ok) == [o.admissible for o in outs]
    assert [o.admissible for o in outs[1000:]] == [False, False, False, True, True,
                                                   False, False, True, True]
    for j, o in enumerate(outs):
        if o.admissible:
            for x, y in zip(o2 + o1, o.chi2p.as_tuple() + o.chi1p.as_tuple()):
                assert rel(x[j], y) <= ARRAY_VS_SCALAR


@pytest.mark.parametrize("sign", (+1, -1))
def test_braid_coords_scalar_path_exits_before_dividing(sign):
    for c1, c2 in _crafted_pairs(sign):
        out, ok = braid_coords(*c1.as_tuple(), *c2.as_tuple(), sign)
        assert ok is braid(c1, c2, sign).admissible
        if not ok:
            assert out is None
    with pytest.raises(ValueError):
        braid_coords(1, 1, 1, 1, 1, 1, 0)


@pytest.mark.parametrize("sign", (+1, -1))
def test_braid_coords_meridians_pass_through_exactly(rng, sign):
    c1, c2 = random_logchar(rng).char(), random_logchar(rng).char()
    (o2, o1), ok = braid_coords(*c1.as_tuple(), *c2.as_tuple(), sign)
    assert ok and o2[2] == c2.m and o1[2] == c1.m
    a, b, m = random_char_coords(rng, (50, 2))
    (o2, o1), ok = braid_coords(a[:, 0], b[:, 0], m[:, 0], a[:, 1], b[:, 1], m[:, 1], sign)
    assert ok.all()
    assert np.array_equal(o2[2], m[:, 1]) and np.array_equal(o1[2], m[:, 0])


def test_coordinate_forms_on_arrays_match_the_character_forms(rng):
    a, b, m = random_char_coords(rng, (2, 20))
    chars = [[WeylChar(a[i, j], b[i, j], m[i, j]) for j in range(20)] for i in (0, 1)]
    P = psi_coords(a, b, m)
    prod = char_product(z0_coords(a[0], b[0], m[0]), z0_coords(a[1], b[1], m[1]))
    assert P.shape == (2, 20, 2, 2) and prod.lower.shape == (20, 2, 2)
    for j in range(20):
        assert mrel(P[0, j], psi_coords(*chars[0][j].as_tuple())) <= ARRAY_VS_SCALAR
        one = char_product(z0_coords(*chars[0][j].as_tuple()),
                           z0_coords(*chars[1][j].as_tuple()))
        assert mrel(prod.lower[j], one.lower) <= ARRAY_VS_SCALAR
        assert mrel(prod.upper[j], one.upper) <= ARRAY_VS_SCALAR
    el = z0_coords(a, b, m)
    bad = el.lower.copy()
    bad[1, 3, 0, 1] = 1.0  # one element of the stack is not lower triangular
    with pytest.raises(ValueError):
        SL2StarElement(bad, el.upper)


def test_random_char_coords_draw_as_random_char():
    a, b, m = random_char_coords(np.random.default_rng(8), (30, 2))
    rng = np.random.default_rng(8)
    for i in range(30):
        for j in range(2):
            chi = random_logchar(rng).char()
            for x, y in zip((a[i, j], b[i, j], m[i, j]), chi.as_tuple()):
                assert rel(x, y) <= 1e-15


@pytest.mark.parametrize("trials", (40, 100))
def test_check_characters_draws_84_uniforms_per_trial(trials):
    """Each trial draws 2 characters, and 4 triples for the braid relation:
    14 characters of 6 uniforms, so later suites see an unshifted stream."""
    rng, ref = np.random.default_rng(trials), np.random.default_rng(trials)
    check_characters(RootConfig(3), rng, trials)
    for _ in range(84 * trials):
        ref.uniform()
    assert rng.bit_generator.state == ref.bit_generator.state
