"""Special functions: roots of unity, q-Pochhammer, dilogarithms, fusion sums."""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holorm.qdilog import (ConstraintViolationError, Flattening, RootConfig,
                           SingularArgumentError, TWO_PI_I, _li2_u_coeffs,
                           cyc_dilog, d_const, fusion_f,
                           lambda0, lambda_dilog, li2,
                           lifted_dilog, qpoch, s_norm)
from holorm.sampling import random_flattening

from conftest import rel


def test_root_config_validation():
    with pytest.raises(ValueError):
        RootConfig(1)
    cfg = RootConfig(4)
    assert abs(cfg.omega ** 4 - 1) < 1e-14
    assert abs(cfg.xi ** 2 - cfg.omega) < 1e-14


def test_omega_pow_values():
    assert abs(RootConfig(4).omega_pow(1) - 1j) < 1e-14
    assert abs(RootConfig(7).omega_pow(0) - 1) < 1e-14
    assert abs(RootConfig(2).omega_pow(0.5) - 1j) < 1e-14


def test_omega_pow_additive(rng):
    cfg = RootConfig(5)
    for _ in range(20):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert rel(cfg.omega_pow(x + y), cfg.omega_pow(x) * cfg.omega_pow(y)) < 1e-12


def test_qpoch_basic():
    assert qpoch(0.3 + 0.1j, 0.7, 0) == 1.0
    cfg = RootConfig(5)
    assert abs(qpoch(cfg.omega, cfg.omega, 5)) < 1e-13  # contains 1 - omega^5
    a, q = 0.4 + 0.2j, 1.1 - 0.3j
    assert rel(qpoch(a, q, -1), 1.0 / (1.0 - a / q)) < 1e-14


def test_qpoch_negative_singular():
    with pytest.raises(SingularArgumentError):
        qpoch(0.5, 0.5, -1)  # 1 - a/q = 0


def test_cyc_dilog_values(rng):
    cfg = RootConfig(5)
    z = 0.31 + 0.07j
    assert cyc_dilog(cfg, z, 0) == 1.0
    assert rel(cyc_dilog(cfg, z, -1), 1 - cfg.omega_pow(z)) < 1e-14
    assert rel(cyc_dilog(RootConfig(2), 0.0, 1), 0.5) < 1e-14
    for k in range(-5, 6):
        assert rel(cyc_dilog(cfg, z, k),
                   1.0 / qpoch(cfg.omega_pow(z + 1), cfg.omega, k)) < 1e-13


def test_cyc_dilog_singular():
    cfg = RootConfig(3)
    with pytest.raises(SingularArgumentError):
        cyc_dilog(cfg, -1.0, 1)  # 1 - omega^(zeta+1) = 0


def test_li2_special_values():
    assert li2(0) == 0
    assert rel(li2(1), math.pi ** 2 / 6) < 1e-14
    # independent oracle for the classical value at -1
    assert abs(li2(-1) - complex(mp.polylog(2, -1))) < 1e-14
    assert rel(li2(-1), -math.pi ** 2 / 12) < 1e-13


def test_li2_against_mpmath(rng):
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z - 1) < 1e-3:
            continue
        worst = max(worst, abs(li2(z) - complex(mp.polylog(2, z))))
    for _ in range(300):
        z = complex(rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        if abs(z - 1) < 1e-3:
            continue
        worst = max(worst, abs(li2(z) - complex(mp.polylog(2, z))))
    assert worst < 1e-12


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_li2_on_its_cut_takes_the_value_from_below(zero):
    # on (1, inf) principal Log(1 - z) is the limit from below, and so is
    # mpmath's Li2, whichever signed zero the imaginary part carries
    for x in (1.0 + 1e-9, 1.2, 1.4, 1.5, 2.0, 3.7, 10.0, 1e6):
        ref = complex(mp.polylog(2, x))
        assert abs(li2(complex(x, zero)) - ref) < 1e-14 * max(1.0, abs(ref))


def _flattening_near(zeta0, ref_zeta1):
    """The flattening over zeta0 whose zeta1 is the branch nearest ref_zeta1."""
    f = Flattening.from_zeta0(zeta0)
    return f.shifted(k1=round((ref_zeta1 - f.zeta1).real))


@settings(derandomize=True, database=None, deadline=None)
@given(y=st.floats(0.005, 1.0), eps=st.floats(1e-12, 1e-9),
       N=st.sampled_from([2, 3, 5]))
def test_lifted_dilog_and_lambda0_continuous_across_the_cut(y, eps, N):
    # e^(2 pi i zeta0) crosses (1, inf) where Re zeta0 = 0 and Im zeta0 < 0;
    # with zeta1 moving continuously, L and Lambda(.|0) must not jump there,
    # whichever signed zero Re zeta0 carries on the cut itself
    cfg = RootConfig(N)
    ref = Flattening.from_zeta0(complex(-eps, -y)).zeta1
    vals = [(lifted_dilog(f), lambda0(cfg, f))
            for f in (_flattening_near(complex(x, -y), ref)
                      for x in (-eps, -0.0, 0.0, eps))]
    for ell, lam in vals[1:]:
        assert abs(ell - vals[0][0]) < 1e-6
        assert rel(lam, vals[0][1]) < 1e-6


@settings(derandomize=True, database=None, deadline=None)
@given(k=st.sampled_from([-2, -1, 1, 2]), y=st.floats(0.005, 1.0),
       eps=st.floats(1e-12, 1e-10), N=st.sampled_from([2, 3, 5]))
def test_lifted_dilog_jumps_by_4pi2k_across_re_zeta0_k(k, y, eps, N):
    # e^(2 pi i zeta0) crosses (1, inf) at every integer Re zeta0 = k; with
    # zeta1 moving continuously, L jumps by 4 pi^2 k there and Lambda(.|0),
    # whose D(zeta0) crosses a cut too, does not jump
    cfg = RootConfig(N)
    ref = Flattening.from_zeta0(complex(k - eps, -y)).zeta1
    below, above = (_flattening_near(complex(k + x, -y), ref) for x in (-eps, eps))
    assert abs(lifted_dilog(above) - lifted_dilog(below) - 4 * math.pi ** 2 * k) < 1e-6
    assert rel(lambda0(cfg, above), lambda0(cfg, below)) < 1e-6


def test_li2_u_coeffs_are_bernoulli_over_factorial():
    coeffs = _li2_u_coeffs()
    assert len(coeffs) == 90
    for k, c in enumerate(coeffs):
        assert c == float(Fraction(*mp.bernfrac(k)) / math.factorial(k + 1))


def test_lifted_dilog_singular():
    with pytest.raises(ConstraintViolationError):
        Flattening(0.0, 0.0)  # no flattening over an integral zeta0
    f = Flattening.from_zeta0(0.25)
    assert abs(cmath.exp(TWO_PI_I * f.zeta1) * (1 - cmath.exp(TWO_PI_I * f.zeta0)) - 1) < 1e-12
    with pytest.raises(SingularArgumentError):
        Flattening.from_zeta0(2.0)


def test_d_const_values():
    assert rel(d_const(RootConfig(2), 0.0), math.sqrt(2)) < 1e-14
    # brute-force oracle: independent high-precision log sum
    cfg = RootConfig(3)
    z = 0.3 + 0.1j
    total = mp.mpc(0)
    for k in range(1, 3):
        total += k * mp.log(1 - mp.e ** (2j * mp.pi * (z + k) / 3))
    assert abs(d_const(cfg, z) - complex(mp.e ** (total / 3))) < 1e-13


def test_d_const_nth_power_definition(rng):
    # D(zeta)^N against the product of powers, compared through moduli
    cfg = RootConfig(5)
    for _ in range(5):
        z = rng.uniform(0.1, 0.9) + 0.2j * rng.uniform(-1, 1)
        prod = np.prod([(1 - cfg.omega_pow(z + k)) ** k for k in range(1, 5)])
        assert rel(abs(d_const(cfg, z) ** 5), abs(prod)) < 1e-12


def test_d_const_singular():
    with pytest.raises(SingularArgumentError):
        d_const(RootConfig(4), -1.0)


@pytest.mark.parametrize("N", [2, 3, 5, 7])
def test_lambda_recurrence_and_periodicity(N, rng):
    cfg = RootConfig(N)
    w = cfg.omega_pow
    for _ in range(10):
        f = random_flattening(cfg, rng)
        lam0 = lambda0(cfg, f)
        for n in range(-N, N + 1):
            route = lam0 * w(-n * f.zeta1) * cyc_dilog(cfg, f.zeta0, n)
            assert rel(route, lambda_dilog(cfg, f, n)) < 1e-10
            routeN = lam0 * w(-(n + N) * f.zeta1) * cyc_dilog(cfg, f.zeta0, n + N)
            assert rel(route, routeN) < 1e-10
            # same code path is periodic by construction
            assert lambda_dilog(cfg, f, n) == lambda_dilog(cfg, f, n + N)


def test_lambda_shift_rules(rng):
    cfg = RootConfig(5)
    w = cfg.omega_pow
    for _ in range(10):
        f = random_flattening(cfg, rng)
        for k in (-2, -1, 1, 2):
            assert rel(lambda_dilog(cfg, f.shifted(k1=k), 0),
                       w(-k * f.zeta0 / 2) * lambda_dilog(cfg, f, 0)) < 1e-10
            assert rel(lambda_dilog(cfg, f.shifted(k0=k), 1),
                       w(k * f.zeta1 / 2) * lambda_dilog(cfg, f, 1 + k)) < 1e-10


def test_lambda_singular_at_integer():
    cfg = RootConfig(3)
    f = Flattening(1e-13, -12.0, tol=1.0)  # constraint meaningless this close
    with pytest.raises(SingularArgumentError):
        lambda0(cfg, f)


@pytest.mark.parametrize("N", [2, 3, 5])
def test_s_norm_identities(N, rng):
    cfg = RootConfig(N)
    for _ in range(10):
        f = random_flattening(cfg, rng)
        S = s_norm(cfg, f)
        assert rel(S, s_norm(cfg, f.dual())) < 1e-10
        # S is invariant under integer shifts of either slot (the shifted
        # flattening is a different point with the same S value)
        for n in (-1, 1, 2):
            assert rel(S, s_norm(cfg, f.shifted(k0=n))) < 1e-10
            assert rel(S, s_norm(cfg, f.shifted(k1=n))) < 1e-10
        rhs = d_const(cfg, 0.0) ** N * cmath.exp(
            (lifted_dilog(f) + lifted_dilog(f.dual())) / TWO_PI_I)
        assert rel(S ** N, rhs) < 1e-10


def test_fusion_geometric_case():
    cfg = RootConfig(5)
    alpha = 0.27 + 0.05j
    # f(alpha, alpha, gamma) with integral gamma is a plain geometric sum
    assert abs(fusion_f(cfg, alpha, alpha, 2)) < 1e-12
    assert rel(fusion_f(cfg, alpha, alpha, 5), 5.0) < 1e-12
    assert rel(fusion_f(cfg, alpha, alpha, 0), 5.0) < 1e-12


def test_fusion_constraint_violation():
    cfg = RootConfig(3)
    with pytest.raises(ConstraintViolationError):
        fusion_f(cfg, 0.3, 0.7 + 0.2j, 0.11)


def test_fusion_shift_identity(rng):
    cfg = RootConfig(5)
    w = cfg.omega_pow
    for _ in range(5):
        z0 = rng.uniform(0.1, 0.9) + 0.1j
        alpha = z0 + 1j * rng.uniform(0.1, 0.9)
        beta = z0 - 0.3
        g = (1 - cmath.exp(TWO_PI_I * alpha)) / (1 - cmath.exp(TWO_PI_I * beta))
        gamma = cmath.log(g) / TWO_PI_I
        base = fusion_f(cfg, alpha, beta, gamma)
        for (k, l, m) in ((1, 0, 0), (0, 1, -1), (2, -1, 1)):
            lhs = fusion_f(cfg, alpha + k, beta + l, gamma + m)
            rhs = base * (cyc_dilog(cfg, alpha - beta - 1, k - l)
                          * cyc_dilog(cfg, beta, l) * cyc_dilog(cfg, -gamma, -m)) / (
                w(l * (gamma + m)) * w(m * (beta + 1)) * cyc_dilog(cfg, alpha, k)
                * cyc_dilog(cfg, alpha - beta - gamma - 1, k - l - m))
            assert abs(lhs - rhs) / max(1.0, abs(base)) < 1e-10


def test_fusion_integer_gamma_closed_form(rng):
    cfg = RootConfig(5)
    w = cfg.omega_pow
    alpha = 0.31 + 0.11j
    for (k, l, m) in ((1, 0, 0), (2, 1, -1), (1, 1, 0)):
        lhs = fusion_f(cfg, alpha + k, alpha + l - 1, m)
        mb_m, mb_kl = (-m) % 5, (k - l) % 5
        rhs = (5 * (1 - w(alpha + l)) / (1 - cmath.exp(TWO_PI_I * alpha))
               * w(mb_m * (alpha + l)) / cyc_dilog(cfg, alpha + l, mb_kl)
               * qpoch(cfg.omega, cfg.omega, mb_kl + mb_m)
               / (qpoch(cfg.omega, cfg.omega, mb_kl) * qpoch(cfg.omega, cfg.omega, mb_m)))
        assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-10
