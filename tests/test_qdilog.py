"""Special functions: roots of unity, q-factorials, dilogarithms, fusion sums."""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holorm import selftest
from holorm.qdilog import (LI2_U_TERMS, ConstraintViolationError, Flattening, RootConfig,
                           SingularArgumentError, TWO_PI_I, _li2_u_coeffs,
                           cyc_dilog, d_const, fusion_f,
                           lambda_series, lambda_table,
                           li2, lifted_dilog, s_norm)
from holorm.sampling import random_flattening

from conftest import mrel, rel


def test_root_config_validation():
    with pytest.raises(ValueError):
        RootConfig(1)
    cfg = RootConfig(4)
    assert abs(cfg.omega ** 4 - 1) < 1e-14
    assert abs(cfg.xi ** 2 - cfg.omega) < 1e-14


def test_root_config_takes_numpy_integers():
    # N is stored as an int: numpy integers and integral floats become one,
    # as BraidWord's width does, and a bool or a fraction is refused
    cfg = RootConfig(np.int64(5))
    assert cfg.N == 5 and type(cfg.N) is int and cfg == RootConfig(5)
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="must be an integer"):
            RootConfig(bad)
    assert selftest.run_all(Ns=np.array([2]), scale=0.1)


def test_omega_pow_values():
    assert abs(RootConfig(4).omega_pow(1) - 1j) < 1e-14
    assert abs(RootConfig(7).omega_pow(0) - 1) < 1e-14
    assert abs(RootConfig(2).omega_pow(0.5) - 1j) < 1e-14


def test_omega_pow_additive(rng):
    cfg = RootConfig(5)
    for _ in range(20):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert rel(cfg.omega_pow(x + y), cfg.omega_pow(x) * cfg.omega_pow(y)) < 1e-12


def _mp_qfactorials(N: int, count: int) -> list:
    """[(omega; omega)_k for k < count] from mpmath at 40 digits."""
    with mp.workdps(40):
        q = mp.exp(2j * mp.pi / N)
        return [complex(mp.qp(q, q, k)) for k in range(count)]


@pytest.mark.parametrize("N", [2, 3, 8, 23, 32])
def test_lambda_series_q_factorials(N):
    # (omega; omega)_k is 1/series at zeta1 = 0
    cfg = RootConfig(N)
    series = lambda_series(cfg, 0.0)
    assert len(series) == N and series[0] == 1.0
    for k, ref in enumerate(_mp_qfactorials(N, N)):
        assert rel(1.0 / series[k], ref) < 1e-14


def test_cyc_dilog_values(rng):
    cfg = RootConfig(5)
    z = 0.31 + 0.07j
    assert cyc_dilog(cfg, z, 0) == 1.0
    assert rel(cyc_dilog(cfg, z, -1), 1 - cfg.omega_pow(z)) < 1e-14
    assert rel(cyc_dilog(RootConfig(2), 0.0, 1), 0.5) < 1e-14
    # <z|k> = 1/(omega**(z+1); omega)_k and <z|-k> = (omega**z; omega**-1)_k
    q, a = mp.exp(2j * mp.pi / 5), mp.exp(2j * mp.pi * z / 5)
    for k in range(6):
        assert rel(cyc_dilog(cfg, z, k), complex(1 / mp.qp(a * q, q, k))) < 1e-13
        assert rel(cyc_dilog(cfg, z, -k), complex(mp.qp(a, 1 / q, k))) < 1e-13


def test_cyc_dilog_singular():
    cfg = RootConfig(3)
    with pytest.raises(SingularArgumentError):
        cyc_dilog(cfg, -1.0, 1)  # 1 - omega^(zeta+1) = 0
    # |1 - omega^(zeta+1)| = 2 pi delta / 3: 8.4e-10 is a pole, 1.26e-9 is not
    with pytest.raises(SingularArgumentError):
        cyc_dilog(cfg, -1.0 + 4e-10, 1)
    assert rel(cyc_dilog(cfg, -1.0 + 6e-10, 1), 3j / (2 * math.pi * 6e-10)) < 1e-6


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
    vals = [(lifted_dilog(f), lambda_table(cfg, f)[..., 0])
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
    assert rel(lambda_table(cfg, above)[..., 0], lambda_table(cfg, below)[..., 0]) < 1e-6


def test_li2_u_coeffs_are_bernoulli_over_factorial():
    coeffs = _li2_u_coeffs()
    assert len(coeffs) == LI2_U_TERMS == 26
    for k, c in enumerate(coeffs):
        assert c == float(Fraction(*mp.bernfrac(k)) / math.factorial(k + 1))


def test_lifted_dilog_singular():
    with pytest.raises(ConstraintViolationError):
        Flattening(0.0, 0.0)  # no flattening over an integral zeta0
    f = Flattening.from_zeta0(0.25)
    assert abs(cmath.exp(TWO_PI_I * f.zeta1) * (1 - cmath.exp(TWO_PI_I * f.zeta0)) - 1) < 1e-12
    with pytest.raises(SingularArgumentError):
        Flattening.from_zeta0(2.0)
    # flattenings that exist but where L is undefined: e^(2 pi i zeta0)
    # within 1e-12 of 0, or of 1 (from_zeta0 refuses that one, the
    # constructor takes it with its exact partner)
    z0 = 1e-14
    near_one = Flattening(z0, -cmath.log(1 - cmath.exp(TWO_PI_I * z0)) / TWO_PI_I)
    for f in (Flattening.from_zeta0(5j), near_one):
        with pytest.raises(SingularArgumentError, match="lifted dilogarithm undefined"):
            lifted_dilog(f)


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
        lam0 = lambda_table(cfg, f)[..., 0]
        table = lambda_table(cfg, f)  # the series rmat reads
        for n in range(-N, N + 1):
            m = n % N
            assert rel(table[m], lam0 * w(-m * f.zeta1) * cyc_dilog(cfg, f.zeta0, m)) < 1e-10
            route = lam0 * w(-n * f.zeta1) * cyc_dilog(cfg, f.zeta0, n)
            routeN = lam0 * w(-(n + N) * f.zeta1) * cyc_dilog(cfg, f.zeta0, n + N)
            assert rel(route, routeN) < 1e-10


def test_lambda_shift_rules(rng):
    cfg = RootConfig(5)
    w = cfg.omega_pow
    for _ in range(10):
        f = random_flattening(cfg, rng)
        lam = lambda_table(cfg, f)
        for k in (-2, -1, 1, 2):
            assert rel(lambda_table(cfg, f.shifted(k1=k))[0],
                       w(-k * f.zeta0 / 2) * lam[0]) < 1e-10
            assert rel(lambda_table(cfg, f.shifted(k0=k))[1],
                       w(k * f.zeta1 / 2) * lam[(1 + k) % 5]) < 1e-10


def test_lambda_rows_check_the_table_the_rmatrix_reads(monkeypatch):
    # every Lambda the battery's rows read comes from lambda_table, the
    # series rmat reads: one entry off by 1e-6 fails each row that reads it
    # at an index, not only the recurrence and the period product.  The
    # suite reads its tables in batches: entry 1 of every table is perturbed
    real = selftest.lambda_table

    def perturbed(cfg, f):
        table = real(cfg, f)
        table[..., 1] *= 1 + 1e-6
        return table

    monkeypatch.setattr(selftest, "lambda_table", perturbed)
    out = selftest.check_qdilog(RootConfig(5), np.random.default_rng(5), 4)
    failed = {k for k, v in out.items() if not v <= selftest.IDENTITIES[k].tol}
    assert failed == {"lambda recurrence", "lambda product", "lambda shift (zeta0)",
                      "lambda inverse sum", "Fourier transform", "Fourier inverse",
                      "Fourier roundtrip"}


def test_lambda_singular_at_integer():
    cfg = RootConfig(3)
    f = Flattening(1e-13, -12.0, tol=1.0)  # constraint meaningless this close
    with pytest.raises(SingularArgumentError):
        lambda_table(cfg, f)[..., 0]
    # zeta0 + 1 = 3e-10 = 0 mod 3: |1 - e^(2 pi i zeta0)| = 1.9e-9 is no
    # pole, but the factor 1 - omega**(zeta0+1) of Lambda(.|1) is; D(zeta0),
    # inside Lambda(.|0), is the guard that meets it
    with pytest.raises(SingularArgumentError, match=r"D\(zeta\) singular"):
        lambda_table(cfg, Flattening.from_zeta0(-1.0 + 3e-10))


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


def _across_the_cut(k, y):
    """The flattenings at zeta0 = k - 1e-8 + iy and k + 1e-8 + iy: zeta1 is
    principal at the first and continued to the second, not re-taken as
    principal there."""
    lo = Flattening.from_zeta0(complex(k - 1e-8, y))
    hi = Flattening.from_zeta0(complex(k + 1e-8, y))
    return lo, hi.shifted(k1=round((lo.zeta1 - hi.zeta1).real))


# Re zeta0 = k: below the axis (y < 0), e^(2 pi i zeta0) is real and > 1,
# on the cuts of Li2 and of Log(1 - e^(2 pi i zeta0))
CUT_POINTS = [(k, y) for k in range(-2, 3) for y in (0.1, -0.1)]


@pytest.mark.parametrize("N", [2, 3, 7])
def test_lambda_table_and_s_norm_are_continuous_across_re_zeta0_integral(N):
    # the jumps of L and of D(zeta0) cancel in Lambda (a relative change of
    # at most 1.7e-7 over the 2e-8 step); S changes by at most 1.5e-14
    cfg = RootConfig(N)
    for k, y in CUT_POINTS:
        lo, hi = _across_the_cut(k, y)
        assert mrel(lambda_table(cfg, lo), lambda_table(cfg, hi)) < 1e-6, (k, y)
        assert rel(s_norm(cfg, lo), s_norm(cfg, hi)) < 1e-12, (k, y)


def test_lifted_dilog_jumps_by_4_pi_squared_k_across_re_zeta0_integral():
    for k, y in CUT_POINTS:
        lo, hi = _across_the_cut(k, y)
        jump = lifted_dilog(hi) - lifted_dilog(lo)
        assert abs(jump - (4 * math.pi ** 2 * k if y < 0 else 0.0)) < 1e-5, (k, y)


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


@pytest.mark.parametrize("alpha, beta, gamma, pole", [
    pytest.param(-1, 0.3, 5j, "alpha", id="-1"),
    pytest.param(-1 - 1e-10, 0.3, 5j, "alpha", id="-1.0000000001"),
    pytest.param(0.3, -1 - 1e-10, None, "beta", id="beta-denominator")])
def test_fusion_numerator_pole(alpha, beta, gamma, pole):
    # 1 - omega**(alpha + 1) vanishes (or nearly) although the constraint
    # holds; the denominator's factors 1 - omega**(beta + k) are checked too
    if gamma is None:  # the gamma that meets the constraint
        gamma = cmath.log((1 - cmath.exp(TWO_PI_I * alpha))
                          / (1 - cmath.exp(TWO_PI_I * beta))) / TWO_PI_I
    with pytest.raises(SingularArgumentError, match=pole):
        fusion_f(RootConfig(3), alpha, beta, gamma)


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
    poch = _mp_qfactorials(5, 10)
    alpha = 0.31 + 0.11j
    for (k, l, m) in ((1, 0, 0), (2, 1, -1), (1, 1, 0)):
        lhs = fusion_f(cfg, alpha + k, alpha + l - 1, m)
        mb_m, mb_kl = (-m) % 5, (k - l) % 5
        rhs = (5 * (1 - w(alpha + l)) / (1 - cmath.exp(TWO_PI_I * alpha))
               * w(mb_m * (alpha + l)) / cyc_dilog(cfg, alpha + l, mb_kl)
               * poch[mb_kl + mb_m] / (poch[mb_kl] * poch[mb_m]))
        assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-10


# ---------------------------------------------------------------- array kernels

def _flattening_batch(rng, shape):
    """Seeded flattenings as one batch: zeta0 at least 0.05 off the integers
    in its real part, |Im zeta0| < 0.25, branch in -2..2."""
    z0 = (rng.uniform(0.05, 0.95, shape) + rng.integers(-1, 2, shape)
          + 1j * rng.uniform(-0.25, 0.25, shape))
    return Flattening.from_zeta0(z0, branch=rng.integers(-2, 3, shape))


def _per_entry(kernel, shape, *args):
    """kernel called on each entry of its broadcast arguments (scalars and
    Flattenings of scalars), stacked back into shape."""
    def entry(a, i):
        if isinstance(a, RootConfig):
            return a
        if isinstance(a, Flattening):
            return Flattening(*(complex(np.broadcast_to(x, shape)[i])
                                for x in (a.zeta0, a.zeta1)), a.tol)
        return np.broadcast_to(a, shape)[i].item()
    vals = [kernel(*(entry(a, i) for a in args)) for i in np.ndindex(shape)]
    return np.array(vals).reshape(shape + np.shape(vals[0]))


def _kernel_cases(N, rng):
    cfg = RootConfig(N)
    f = _flattening_batch(rng, (3, 4))
    zeta = rng.uniform(-1, 1, (3, 4)) + 1j * rng.uniform(-0.3, 0.3, (3, 4))
    alpha = zeta + 1j * rng.uniform(0.1, 0.9, (3, 4))
    beta = zeta - 0.3 + 0.2j * rng.uniform(-1, 1, (3, 4))
    gamma = np.log((1 - np.exp(TWO_PI_I * alpha)) / (1 - np.exp(TWO_PI_I * beta))) / TWO_PI_I
    # every branch of li2, its cut from both sides, and the exact points
    z = np.concatenate([rng.uniform(-3, 3, 14) + 1j * rng.uniform(-3, 3, 14),
                        [0.0, 1.0, complex(1.5, 0.0), complex(1.5, -0.0),
                         complex(4.0, 0.0), -2.0]]).reshape(4, 5)
    return {
        "li2": (li2, z),
        "lifted_dilog": (lifted_dilog, f),
        "d_const": (d_const, cfg, zeta),
        "lambda0": (lambda c, f: lambda_table(c, f)[..., 0], cfg, f),
        "lambda_series": (lambda_series, cfg, f.zeta1),
        "lambda_table": (lambda_table, cfg, f),
        "s_norm": (s_norm, cfg, f),
        "cyc_dilog, k in -N..2N": (cyc_dilog, cfg, zeta[:, :1, None], np.arange(-N, 2 * N + 1)),
        "cyc_dilog, k per entry": (cyc_dilog, cfg, zeta, rng.integers(-2 * N, 2 * N, (3, 4))),
        "fusion_f": (fusion_f, cfg, alpha, beta, gamma),
        "fusion_f, integral gamma": (fusion_f, cfg, alpha, alpha - 1, rng.integers(-2, 3, (3, 4))),
    }


@pytest.mark.parametrize("N", [2, 5])
@pytest.mark.parametrize("case", list(_kernel_cases(2, np.random.default_rng(0))))
def test_stacked_call_equals_per_entry_calls_bit_for_bit(N, case):
    # one array pass gives each entry the bits the scalar call gives: its
    # sums run in index order, whatever the batch around the entry
    kernel, *args = _kernel_cases(N, np.random.default_rng([N, 11]))[case]
    stacked = kernel(*args)
    shape = np.broadcast_shapes(*(np.shape(a.zeta0) if isinstance(a, Flattening)
                                  else np.shape(a) for a in args
                                  if not isinstance(a, RootConfig)))
    one_by_one = _per_entry(kernel, shape, *args)
    assert stacked.shape == one_by_one.shape
    assert np.array_equal(stacked, one_by_one)


def test_scalar_calls_return_python_complex():
    cfg = RootConfig(3)
    f = Flattening.from_zeta0(0.3 - 0.1j, branch=1)
    for v in (li2(0.6 + 0.5j), lifted_dilog(f), d_const(cfg, 0.2),
              s_norm(cfg, f), cyc_dilog(cfg, 0.2, 2), fusion_f(cfg, 0.27, 0.27, 3)):
        assert type(v) is complex
    assert lambda_table(cfg, f).shape == (3,)


def _li2_branch_points(rng, count):
    """count points in each branch li2 picks: |z| <= 1 with Re z <= 1/2 (the
    u-expansion alone), with Re z > 1/2 (reflection), and outside the unit
    disc with Re(1/z) <= 1/2 (inversion) and > 1/2 (both)."""
    w = np.sqrt(rng.uniform(0.01, 1, 8 * count)) * np.exp(2j * np.pi * rng.uniform(size=8 * count))
    plain, refl = w[w.real <= 0.5][:count], w[w.real > 0.5][:count]
    return {"plain": plain, "reflection": refl, "inversion": 1 / plain[np.abs(plain) < 0.99],
            "inversion and reflection": 1 / refl[np.abs(refl) < 0.99]}


def test_li2_on_arrays_against_mpmath(rng):
    for branch, z in _li2_branch_points(rng, 300).items():
        ref = np.array([complex(mp.polylog(2, x)) for x in z])
        assert np.all(np.abs(li2(z) - ref) <= 1e-14 * np.abs(ref)), branch
    # the cut from either signed zero takes the value from below, and 0, 1 are exact
    cut = np.array([1.0 + 1e-9, 1.2, 2.0, 3.7, 1e6])
    ref = np.array([complex(mp.polylog(2, x)) for x in cut])
    for zero in (0.0, -0.0):
        z = np.array([complex(x, zero) for x in cut])
        assert np.all(np.abs(li2(z) - ref) <= 1e-14 * np.abs(ref))
    assert np.array_equal(li2(np.array([0.0, 1.0])), [0.0, math.pi ** 2 / 6])


def _raised(call) -> str:
    with pytest.raises(SingularArgumentError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("kernel", ["cyc_dilog", "d_const", "lambda_table"])
def test_array_with_a_pole_raises_the_scalar_message_of_its_first_pole(kernel):
    cfg = RootConfig(3)
    # entries 1 and 3 sit on poles (the first within SINGULAR, the second
    # exactly), entries 0 and 2 do not
    zeta = np.array([0.3 + 0.1j, -1.0 + 4e-10, 0.2, -1.0])
    calls = {"cyc_dilog": lambda z: cyc_dilog(cfg, z, 1),
             "d_const": lambda z: d_const(cfg, z),
             "lambda_table": lambda z: lambda_table(
                 cfg, Flattening(z, -np.log(1 - np.exp(TWO_PI_I * z)) / TWO_PI_I, tol=1.0))}
    call = calls[kernel]
    msg = _raised(lambda: call(zeta))
    assert msg == _raised(lambda: call(zeta[1]))
    assert msg != _raised(lambda: call(zeta[3]))
    assert msg == _raised(lambda: call(zeta[1:].reshape(3, 1)))


def test_fusion_pole_order_in_an_array():
    # scalar loops test alpha's factor j, then beta's factor j, then j + 1:
    # entry 0 meets beta's pole at j = 1 before alpha's at j = 2, entry 1
    # meets alpha's and beta's poles at j = 1 and reports alpha's
    cfg = RootConfig(3)
    alpha = np.array([0.3 + 0.2j, -2.0, -1.0])
    beta = np.array([0.1, -1.0 + 1e-10, -1.0 - 1e-10])
    gamma = np.log((1 - np.exp(TWO_PI_I * alpha)) / (1 - np.exp(TWO_PI_I * beta))) / TWO_PI_I
    first = _raised(lambda: fusion_f(cfg, alpha[1], beta[1], gamma[1]))
    assert "beta" in first
    assert _raised(lambda: fusion_f(cfg, alpha, beta, gamma)) == first
    both = _raised(lambda: fusion_f(cfg, alpha[2:], beta[2:], gamma[2:]))
    assert "alpha" in both
    assert both == _raised(lambda: fusion_f(cfg, alpha[2], beta[2], gamma[2]))


# A batch fails at its first failing entry in C order, and there at the first
# guard the scalar body meets, even where a later entry fails an earlier guard.

def test_fusion_pole_at_entry_0_comes_before_a_constraint_violation_at_entry_1():
    cfg = RootConfig(3)
    # entry 0 meets the constraint and sits on alpha's pole at j = 2; entry 1
    # violates the constraint, which a scalar call tests before the poles
    alpha, beta, gamma = (np.array(x) for x in ([-2.0, 0.3], [0.3, 0.7 + 0.2j], [5j, 0.11]))
    first = _raised(lambda: fusion_f(cfg, alpha[0], beta[0], gamma[0]))
    assert first == "fusion sum pole: 1 - omega**(alpha+2) ~ 0 at alpha=(-2+0j)"
    with pytest.raises(ConstraintViolationError):
        fusion_f(cfg, alpha[1], beta[1], gamma[1])
    assert _raised(lambda: fusion_f(cfg, alpha, beta, gamma)) == first


def test_lambda_table_lifted_guard_at_entry_0_comes_before_a_pole_at_entry_1():
    cfg = RootConfig(3)
    # e^(2 pi i zeta0) is 2e-14 at entry 0; entry 1 sits on the pole
    # 1 - omega**zeta0 that a scalar call tests before L
    lifted = Flattening.from_zeta0(5j)
    pole = Flattening(-3.0 + 4e-10, -np.log(1 - np.exp(TWO_PI_I * 4e-10)) / TWO_PI_I, tol=1.0)
    first = _raised(lambda: lambda_table(cfg, lifted))
    assert first.startswith("lifted dilogarithm undefined")
    assert _raised(lambda: lambda_table(cfg, pole)).startswith("Lambda singular")
    batch = Flattening(np.array([lifted.zeta0, pole.zeta0]),
                       np.array([lifted.zeta1, pole.zeta1]), tol=1.0)
    assert _raised(lambda: lambda_table(cfg, batch)) == first


def test_s_norm_primal_fault_at_entry_0_comes_before_a_dual_fault_at_entry_1():
    cfg = RootConfig(3)
    # D(zeta0) has a pole at each primal zeta0 below, whose dual flattening
    # is regular: entry 0 fails only in its primal table, entry 1 (a dual)
    # only in its dual table, which a scalar call evaluates first
    primal = Flattening.from_zeta0(-1.0 + 3e-10)
    dual = Flattening.from_zeta0(-2.0 + 3e-10).dual()
    for regular in (primal.dual(), dual):  # entry 0's dual, entry 1's primal
        lambda_table(cfg, regular)
    first = _raised(lambda: s_norm(cfg, primal))
    assert first.startswith("D(zeta) singular")
    assert first != _raised(lambda: s_norm(cfg, dual))
    batch = Flattening(np.array([primal.zeta0, dual.zeta0]),
                       np.array([primal.zeta1, dual.zeta1]))
    assert _raised(lambda: s_norm(cfg, batch)) == first


def test_from_zeta0_names_the_first_integral_entry():
    msg = _raised(lambda: Flattening.from_zeta0(np.array([[0.3, 2.0], [-1.0, 0.2]])))
    assert msg == _raised(lambda: Flattening.from_zeta0(2.0))
    assert msg == "zeta0 = 2.0 is an integer; no flattening exists"


# ------------------------------------------------------------ the batched suite

QDILOG_SAMPLES = {  # per trial, at order N
    "lambda recurrence": lambda N: N, "lambda periodicity": lambda N: 2 * N + 1,
    "lambda shift (zeta0)": lambda N: 4, "lambda shift (zeta1)": lambda N: 4,
    "lambda product": lambda N: 1, "lambda inverse sum": lambda N: 4,
    "Fourier transform": lambda N: N, "Fourier inverse": lambda N: N,
    "Fourier roundtrip": lambda N: 1, "S symmetry": lambda N: 1,
    "S shift (zeta0)": lambda N: 3, "S shift (zeta1)": lambda N: 3,
    "S Nth power": lambda N: 1, "unity factorization": lambda N: 1,
    "q-series transform": lambda N: 1, "fusion shift identity": lambda N: 3,
    "fusion integer form": lambda N: 3, "fusion Nth power": lambda N: 1,
}


@pytest.mark.parametrize("trials", [3, 7])
@pytest.mark.parametrize("N", [2, 3, 7])
def test_check_qdilog_draws_as_the_scalar_suite_drew(N, trials):
    """The suite's loop only draws: per trial a flattening, nn and two
    uniforms, in that order, so later suites see the stream a trial-by-trial
    suite leaves; and it notes each registered identity as often."""
    cfg = RootConfig(N)
    rng, ref = np.random.default_rng(trials), np.random.default_rng(trials)
    out = selftest.check_qdilog(cfg, rng, trials)
    for _ in range(trials):
        random_flattening(cfg, ref)
        ref.integers(0, N)
        ref.uniform(0.1, 0.9)
        ref.uniform(-1, 1)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert out.samples == {k: n(N) * trials for k, n in QDILOG_SAMPLES.items()}
    assert all(v <= selftest.IDENTITIES[k].tol for k, v in out.items())


def test_a_scalar_call_checks_its_flattening_once(monkeypatch):
    # the Flattening a caller builds is checked on construction; promoting
    # it to one axis is not checked again, and s_norm checks only its dual
    checks = []
    real = Flattening.__post_init__
    monkeypatch.setattr(Flattening, "__post_init__", lambda f: checks.append(f) or real(f))
    cfg = RootConfig(5)
    for kernel, dual in ((lambda f: lambda_table(cfg, f), False), (lifted_dilog, False),
                         (lambda f: s_norm(cfg, f), True)):
        checks.clear()
        f = Flattening(0.3 - 0.1j, -cmath.log(1 - cmath.exp(TWO_PI_I * (0.3 - 0.1j))) / TWO_PI_I)
        kernel(f)
        assert checks[0] is f
        assert [(c.zeta0, c.zeta1) for c in checks[1:]] == ([(-f.zeta1, -f.zeta0)] if dual else [])


def test_s_norm_checks_the_dual_of_its_flattening():
    # a flattening within tol whose dual is not: s_norm refuses it, as the
    # dual's constraint is the one its sum reads
    zeta0 = 0.3 + 1.0j
    zeta1 = -cmath.log(1 - cmath.exp(TWO_PI_I * zeta0)) / TWO_PI_I + 5e-12
    f = Flattening(zeta0, zeta1)
    with pytest.raises(ConstraintViolationError):
        Flattening(-zeta1, -zeta0)
    with pytest.raises(ConstraintViolationError):
        s_norm(RootConfig(5), f)
