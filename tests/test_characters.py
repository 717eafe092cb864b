"""Central characters, the SL2* coordinates, and the braiding map."""

import cmath

import numpy as np
import pytest

from holorm.characters import (WeylChar, braid, char_product, is_pinched,
                               psi, to_z0_char)
from holorm.qdilog import TWO_PI_I
from holorm.sampling import random_char
from holorm.selftest import RootMismatchError, _central_scalars, casimir_relation

from conftest import mrel, rel

KASHAEV1 = WeylChar(-1, 1, -1)
KASHAEV2 = WeylChar(-1, -1, -1)


def test_weylchar_validation():
    with pytest.raises(ValueError):
        WeylChar(0.0, 1.0, 1.0)


def test_psi_sigma_hat_is_minus_identity():
    assert mrel(psi(KASHAEV1), -np.eye(2)) < 1e-14


def test_psi_structure(rng):
    for _ in range(50):
        chi = random_char(rng)
        M = psi(chi)
        assert rel(np.trace(M), chi.m + 1 / chi.m) < 1e-12
        assert abs(np.linalg.det(M) - 1) < 1e-12
    chi = WeylChar(0.7 + 0.1j, 2.0, 0.7 + 0.1j)  # a = m
    assert abs(psi(chi)[0, 1]) < 1e-14


def test_to_z0_char():
    ident = to_z0_char(WeylChar(1.0, 0.63 - 0.2j, 1.0))
    assert mrel(ident.lower, np.eye(2)) < 1e-14
    assert mrel(ident.upper, np.eye(2)) < 1e-14
    el = to_z0_char(KASHAEV1)
    assert mrel(el.lower, np.diag([-1.0, 1.0])) < 1e-14
    assert mrel(el.upper, np.diag([1.0, -1.0])) < 1e-14


def test_to_z0_char_holonomy_consistency(rng):
    for _ in range(50):
        chi = random_char(rng)
        el = to_z0_char(chi)
        assert mrel(el.holonomy(), psi(chi)) < 1e-11
        # character values on the central powers
        kn, en, fn = _central_scalars(el)
        assert rel(kn, chi.a) < 1e-14
        assert rel(en, chi.b * (chi.a - chi.m)) < 1e-13
        assert rel(fn, (chi.a - 1 / chi.m) / (chi.a * chi.b)) < 1e-13


def test_char_product_unit_laws(rng):
    e = to_z0_char(WeylChar(1.0, 1.0, 1.0))
    c = to_z0_char(random_char(rng))
    assert mrel(char_product(e, c).lower, c.lower) < 1e-14
    assert mrel(char_product(c, e).upper, c.upper) < 1e-14
    c2 = to_z0_char(random_char(rng))
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
            c1, c2 = random_char(rng), random_char(rng)
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
        triple = tuple(random_char(rng) for _ in range(3))
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
        c1, c2 = random_char(rng), random_char(rng)
        out = braid(c1, c2, +1)
        if not out.admissible:
            continue
        p_in = char_product(to_z0_char(c1), to_z0_char(c2))
        p_out = char_product(to_z0_char(out.chi2p), to_z0_char(out.chi1p))
        s = max(1.0, np.abs(p_in.lower).max(), np.abs(p_in.upper).max())
        assert np.abs(p_in.lower - p_out.lower).max() <= 1e-10 * s
        assert np.abs(p_in.upper - p_out.upper).max() <= 1e-10 * s
        assert abs(c1.a * c2.a - out.chi1p.a * out.chi2p.a) < 1e-12 * max(
            1.0, abs(c1.a * c2.a))


def test_casimir_relation(rng):
    for _ in range(100):
        chi = random_char(rng)
        mu = cmath.log(chi.m) / TWO_PI_I + int(rng.integers(-2, 3))
        assert casimir_relation(chi, mu) < 1e-10
    # sigma-hat with mu = -1/2: both sides equal 2
    chi = KASHAEV1
    m = cmath.exp(TWO_PI_I * (-0.5))
    assert rel(-m - 1 / m, 2.0) < 1e-14
    assert casimir_relation(chi, -0.5) < 1e-14
    with pytest.raises(RootMismatchError):
        casimir_relation(chi, 0.2)
