"""R-matrix assembly: zetas, closed forms, factorization, pinched limits."""

import cmath
import dataclasses
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from holorm.characters import LogWeylChar
from holorm.qdilog import Flattening, RootConfig, TWO_PI_I, lambda_table
from holorm.rmatrix import (REGIONS, CrossingData, PinchedCrossingError, _index_grids,
                            _region_terms, braiding_op, crossing_from_logs,
                            det_braiding, det_lu, factorized_ops,
                            kashaev_crossing, kashaev_rmat, logdet_braiding,
                            rmat, rmat_pinched)
from holorm.braidgrpd import (BraidWord, build_diagram, crossing_data,
                              extend_log_coloring)
from holorm.sampling import (letter_crossing, random_crossing,
                             standard_pinched_crossing)
from holorm import rmatrix, sampling, selftest
from holorm.selftest import (IDENTITIES, _det_deviation, _det_factor_deviation,
                             _pinched_limit, _random_pinched_params,
                             colored_jones_closed_form, kashaev_closed_form,
                             nilpotent_closed_form, r2_backward_error,
                             transform_rules, weight_basis_closed_form,
                             weight_basis_rmat)

from conftest import mrel, rel


def test_crossing_zetas_standard_pinched():
    cfg = RootConfig(3)
    c = kashaev_crossing(cfg)
    assert c.pinched
    z0 = c.zeta0()
    assert all(abs(z0[r]) < 1e-12 for r in "NWSE")
    assert c.integral_zeta0() == {"N": 0, "W": 0, "S": 0, "E": 0}
    with pytest.raises(PinchedCrossingError):
        c.flattening_batch


def test_crossing_zetas_balance(rng):
    cfg = RootConfig(4)
    for sign in (+1, -1):
        c = random_crossing(cfg, rng, sign)
        assert c.integral_zeta0() == {}
        f = c.flattening_batch
        z0 = dict(zip(REGIONS, f.zeta0))
        assert abs(z0["N"] + z0["S"] - z0["W"] - z0["E"]) < 1e-12
        assert np.abs(np.exp(TWO_PI_I * f.zeta1)
                      * (1 - np.exp(TWO_PI_I * f.zeta0)) - 1).max() < 1e-9


def test_kappa_shift_leaves_rmatrix_fixed(rng):
    cfg = RootConfig(3)
    c = random_crossing(cfg, rng, +1)
    base = rmat(c).entries
    kap = c.resolved_kappa()
    for p in (-3, -1, 1, 2, 3):
        shifted = dataclasses.replace(c, kappa=kap + p)
        assert mrel(rmat(shifted).entries, base) < 1e-12
    with pytest.raises(ValueError):  # replace runs the checks again
        dataclasses.replace(c, kappa=kap + 0.5)


def test_rmat_rejects_pinched():
    # the one pinched check is CrossingData.flattening_batch: it names the
    # integral zeta0 before anything asks for the undefined kappa
    cfg = RootConfig(2)
    for f in (rmat, factorized_ops, logdet_braiding):
        with pytest.raises(PinchedCrossingError, match=r"zeta0_N = 0.0 is integral"):
            f(kashaev_crossing(cfg))


def _inadmissible_fields(c):
    # the pair of test_braid_inadmissible_pair, a = 2 and a = 1/2 with
    # b = m = 1, whose A factor vanishes; the region logs match its alphas
    al = cmath.log(2) / TWO_PI_I
    zero = LogWeylChar(0.0, 0.0, 0.0)
    return dict(lc1=LogWeylChar(al, 0.0, 0.0), lc2=LogWeylChar(-al, 0.0, 0.0),
                lc1p=zero, lc2p=zero, gamma_n=0.0, gamma_w=al, gamma_s=0.0,
                gamma_e=0.0)


@pytest.mark.parametrize("edit, match", [
    (lambda c: dict(sign=0), "crossing sign must be"),
    (lambda c: dict(lc1p=dataclasses.replace(c.lc1p, mu=c.lc1p.mu + 1e-6)),
     "meridian logs must be preserved"),
    (lambda c: dict(lc2=dataclasses.replace(c.lc2, alpha=c.lc2.alpha + 1e-6)),
     "does not match region difference"),
    (_inadmissible_fields, "character pair is inadmissible"),
    (lambda c: dict(lc2p=dataclasses.replace(c.lc2p, beta=c.lc2p.beta + 0.01)),
     "not the braiding"),
], ids=["sign-0", "meridian-out", "alpha", "inadmissible", "not-braided"])
def test_crossing_data_validation(edit, match):
    # the positional constructor, as the inverse crossings and perfbench
    # build crossings, runs every check of __post_init__
    c = random_crossing(RootConfig(3), np.random.default_rng(5), +1)
    fields = {f.name: getattr(c, f.name) for f in dataclasses.fields(c)}
    with pytest.raises(ValueError, match=match):
        CrossingData(*{**fields, **edit(c)}.values())


def test_resolved_kappa_is_undefined_at_a_pinched_crossing():
    with pytest.raises(PinchedCrossingError, match="kappa is undefined"):
        kashaev_crossing(RootConfig(3)).resolved_kappa()


def test_kashaev_crossing_is_the_standard_pinched_one():
    # the one set of Kashaev logs is what letter_crossing picks at
    # alpha = mu = -1/2, and sampling re-exports it
    for N in (2, 3, 7):
        cfg = RootConfig(N)
        assert kashaev_crossing(cfg) == standard_pinched_crossing(
            cfg, -0.5, -0.5, -0.5, -0.5, alpha2p=-0.5)
    assert sampling.kashaev_crossing is kashaev_crossing


@pytest.mark.parametrize("N", [2, 3, 5])
def test_r2_contraction(N, rng):
    cfg = RootConfig(N)
    for _ in range(5):
        c = random_crossing(cfg, rng, +1)
        b1 = braiding_op(c)
        cinv = CrossingData(cfg, -1, c.lc2p, c.lc1p, c.lc2, c.lc1,
                            c.gamma_n, c.gamma_e, c.gamma_s, c.gamma_w)
        b2 = braiding_op(cinv)
        assert np.abs(b2.as_operator() @ b1.as_operator()
                      - np.eye(N * N)).max() < 1e-10


def test_r2_backward_error_at_n32():
    # cond(B) is about 1e14 here: the entrywise residual |B'B - I| reaches
    # 1e-4, while the normwise backward error stays at rounding level
    c = random_crossing(RootConfig(32), np.random.default_rng(0), +1)
    assert r2_backward_error(c) <= IDENTITIES["R2 contraction"].tol


def test_braiding_is_flipped_rmat(rng):
    cfg = RootConfig(3)
    c = random_crossing(cfg, rng, +1)
    R = rmat(c).entries.reshape(3, 3, 3, 3)
    B = braiding_op(c).entries.reshape(3, 3, 3, 3)
    assert mrel(B, R.transpose(0, 1, 3, 2)) == 0.0
    # the flip is an involution
    assert mrel(B.transpose(0, 1, 3, 2), R) == 0.0


def test_recurrence_i(rng):
    cfg = RootConfig(4)
    N = 4
    w = cfg.omega_pow
    c = random_crossing(cfg, rng, +1)
    R4 = rmat(c).entries.reshape(N, N, N, N)
    z0 = c.zeta0()
    scale = np.abs(R4).max()
    for idx in np.ndindex(N, N, N, N):
        n1, n2, n1p, n2p = idx
        pred = (R4[n1, n2, n1p, (n2p - 1) % N] * w(-c.lc2p.alpha - c.lc2.mu)
                * (1 - w(z0["E"] + n2p - n1p)) / (1 - w(z0["N"] + n2p - n1)))
        assert abs(R4[idx] - pred) / scale < 1e-10


@pytest.mark.parametrize("sign", [+1, -1])
def test_factorization_matches_braiding(sign, rng):
    cfg = RootConfig(3)
    for _ in range(4):
        c = random_crossing(cfg, rng, sign)
        f = factorized_ops(c)
        assert mrel(f.braiding_matrix(), braiding_op(c).entries) < 1e-11
        # circulant structure: the slot kernels depend only on n' - n mod N
        for M in (f.zn, f.zs):
            for shift in range(1, 3):
                assert mrel(M, np.roll(np.roll(M, shift, axis=0), shift, axis=1)) < 1e-12


def test_crossing_evaluates_its_tables_and_dilogarithms_once(rng, monkeypatch):
    # rmat, factorized_ops and logdet_braiding read the crossing's cached
    # Lambda tables and lifted dilogarithms, one pass of each
    calls = []
    for name in ("lambda_table", "lifted_dilog"):
        real = getattr(rmatrix, name)
        monkeypatch.setattr(rmatrix, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    c = random_crossing(RootConfig(5), rng, -1)
    rmat(c), factorized_ops(c), logdet_braiding(c), logdet_braiding(c)
    assert sorted(calls) == ["lambda_table", "lifted_dilog"]
    for cached in (c.lambda_tables, c.lifted_dilogs):
        with pytest.raises(ValueError):
            cached[0] = 0


def test_factor_ze_diagonal_entries(rng):
    cfg = RootConfig(3)
    c = random_crossing(cfg, rng, +1)
    f = factorized_ops(c)
    fb = c.flattening_batch  # E is the last of REGIONS
    lam_e = lambda_table(cfg, Flattening(complex(fb.zeta0[3]), complex(fb.zeta1[3])))
    for n1 in range(3):
        for n2 in range(3):
            assert rel(f.ze_diag[3 * n1 + n2], 1.0 / lam_e[(n1 - n2) % 3]) < 1e-12


def test_rmat_matches_factorization_route(rng):
    # two independent code paths for the same tensor at N = 2
    cfg = RootConfig(2)
    c = random_crossing(cfg, rng, +1)
    direct = braiding_op(c).entries
    assembled = factorized_ops(c).braiding_matrix()
    assert mrel(direct, assembled) < 1e-12


def test_det_closed_form_vs_lu(rng):
    for N in (2, 3, 5):
        cfg = RootConfig(N)
        for sign in (+1, -1):
            c = random_crossing(cfg, rng, sign)
            s, logabs = det_lu(braiding_op(c))
            assert rel(det_braiding(c), s * np.exp(logabs)) < 1e-7


@pytest.mark.parametrize("N, seed, sign", [(26, 10, +1), (32, 1, -1)])
def test_logdet_beyond_the_double_range(N, seed, sign):
    # |det| is about e^748 and e^919 here, past the largest double (e^709.8).
    # The four factors of the braiding give its log determinant on their own.
    # The row divides by the sum of the |terms| the factor side adds, 1.2e4
    # and 1.9e4 here (at least |log det|, below 3e3): 5e-14 of it is within
    # 1e-9 absolute.
    c = random_crossing(RootConfig(N), np.random.default_rng(seed), sign)
    assert abs(logdet_braiding(c)) < 3e3
    assert _det_factor_deviation(c, factorized_ops(c)) < 5e-14
    with pytest.raises(OverflowError):
        det_braiding(c)


def test_det_selftest_row_is_finite_past_the_double_range():
    # the crossing of test_cli::test_rmat_determinant_overflow_is_a_json_error
    c = random_crossing(RootConfig(26), np.random.default_rng(10), +1)
    assert np.isfinite(_det_deviation([c], [braiding_op(c)])[0])


@pytest.mark.parametrize("sign", [+1, -1])
def test_det_selftest_row_holds_at_n32(sign, monkeypatch):
    # closed form and LU differ by 6.8e-6 and 3.3e-5 here, past the row's
    # former fixed 1e-7; LU's own error grows with cond_1(B), and so does the
    # row's bound
    c = random_crossing(RootConfig(32), np.random.default_rng(5), sign)
    B, f = braiding_op(c), factorized_ops(c)
    lu_tol = IDENTITIES["determinant closed vs LU"].tol
    factor_tol = IDENTITIES["determinant closed vs factors"].tol
    assert _det_deviation([c], [B])[0] <= lu_tol
    assert _det_factor_deviation(c, f) <= factor_tol
    # a closed determinant off by a factor 2 is within LU's bound at this N,
    # but not within the factor row's
    monkeypatch.setattr(selftest, "logdet_braiding",
                        lambda c: logdet_braiding(c) + np.log(2.0))
    assert _det_deviation([c], [B])[0] <= lu_tol
    assert _det_factor_deviation(c, f) > factor_tol


def test_det_selftest_row_rejects_a_wrong_determinant(rng, monkeypatch):
    # at small N the bound is below the former 1e-7: a closed log
    # determinant off by 1e-8, which 1e-7 let pass, fails the row
    c = random_crossing(RootConfig(3), rng, +1)
    B = braiding_op(c)
    assert _det_deviation([c], [B])[0] <= IDENTITIES["determinant closed vs LU"].tol
    monkeypatch.setattr(selftest, "logdet_braiding",
                        lambda c: logdet_braiding(c) + 1e-8)
    assert _det_deviation([c], [B])[0] > IDENTITIES["determinant closed vs LU"].tol


def test_det_sign_flip_inverts_constant(rng):
    # the (N / D0^2)^(sign N^2) factor inverts under a sign flip
    from holorm.qdilog import d_const
    cfg = RootConfig(3)
    d0 = d_const(cfg, 0.0)
    const = (3 / d0 ** 2) ** 9
    cpos = random_crossing(cfg, rng, +1)
    cneg = random_crossing(cfg, rng, -1)
    # strip the longitude and dilogarithm parts by dividing them out
    from holorm.qdilog import lifted_dilog
    for c, expo in ((cpos, +1), (cneg, -1)):
        ell = dict(zip(REGIONS, lifted_dilog(c.flattening_batch)))
        i_c = ell["N"] + ell["S"] - ell["W"] - ell["E"]
        lam1, lam2 = c.log_longitudes()
        rest = (cmath.exp(-c.sign * 3 * i_c / TWO_PI_I)
                * cmath.exp(TWO_PI_I * ((c.gamma_w - c.gamma_e) / 2
                                        - lam1 - lam2)) ** 6)
        assert rel(det_braiding(c) / rest, const ** expo) < 1e-9


def test_transform_rules_zero_shift(rng):
    cfg = RootConfig(3)
    c = random_crossing(cfg, rng, +1)
    shifted, pred = transform_rules(c, rmat(c))
    assert shifted == c
    assert np.array_equal(pred, rmat(c).entries)


def test_transform_rules_gamma_n(rng):
    cfg = RootConfig(3)
    N = 3
    c = random_crossing(cfg, rng, +1)
    R = rmat(c)
    crossing, _ = transform_rules(c, R, gamma_shifts={"N": 1})
    # entries scale by omega**(zeta_N^0 / 2) * omega**(n2' - n1)
    z0 = c.zeta0()
    w = cfg.omega_pow
    shifted = rmat(crossing).entries.reshape(N, N, N, N)
    base = R.entries.reshape(N, N, N, N)
    for idx in np.ndindex(N, N, N, N):
        n1, n2, n1p, n2p = idx
        assert rel(shifted[idx],
                   w(z0["N"] / 2) * w(n2p - n1) * base[idx]) < 1e-10


def test_transform_rules_beta1(rng):
    cfg = RootConfig(3)
    N = 3
    c = random_crossing(cfg, rng, +1)
    R = rmat(c)
    crossing, _ = transform_rules(c, R, beta_shifts=(1, 0, 0, 0))
    # beta_1 enters d_N = n2' - n1 (numerator) and d_W = n2 - n1
    # (denominator): a common phase omega**((zeta1_W - zeta1_N) / 2), kappa = 0
    z1 = c.zeta1(kappa=0)
    phase = cfg.omega_pow((z1["W"] - z1["N"]) / 2)
    shifted = rmat(crossing).entries.reshape(N, N, N, N)
    base = R.entries.reshape(N, N, N, N)
    for idx in np.ndindex(N, N, N, N):
        n1, n2, n1p, n2p = idx
        assert rel(shifted[idx], phase * base[(n1 + 1) % N, n2, n1p, n2p]) < 1e-10


@pytest.mark.parametrize("sign", [+1, -1])
def test_transform_rules_random_shifts(sign, rng):
    for N in (2, 3, 4, 5, 7):
        cfg = RootConfig(N)
        for _ in range(4):
            c = random_crossing(cfg, rng, sign)
            ks = {r: int(rng.integers(-2, 3)) for r in "NWSE"}
            ls = tuple(int(rng.integers(-2, 3)) for _ in range(4))
            shifted, pred = transform_rules(c, rmat(c), gamma_shifts=ks,
                                            beta_shifts=ls)
            assert mrel(rmat(shifted).entries, pred) < 1e-10
    with pytest.raises(ValueError):
        transform_rules(c, rmat(c), beta_shifts=(0.5, 0, 0, 0))
    with pytest.raises(ValueError):
        transform_rules(c, rmat(c), gamma_shifts={"N": 0.5})


def test_pinched_theta_zero_entry():
    cfg = RootConfig(2)
    t = rmat_pinched(kashaev_crossing(cfg)).entries.reshape(2, 2, 2, 2)
    # [n1-n2] + [n1'-n2'-1] = [1] + [1] = 2 >= N kills this entry
    assert t[1, 0, 0, 0] == 0.0


def test_kashaev_entries_and_zero_pattern():
    cfg = RootConfig(2)
    K = kashaev_rmat(cfg).entries.reshape(2, 2, 2, 2)
    assert rel(K[0, 0, 0, 0], 1j) < 1e-13
    for idx in np.ndindex(2, 2, 2, 2):
        n1, n2, n1p, n2p = idx
        t1 = ((n1 - n2) % 2) + ((n1p - n2p - 1) % 2)
        t2 = ((n2p - n1) % 2) + ((n2 - n1p) % 2)
        if t1 >= 2 or t2 >= 2:
            assert K[idx] == 0.0


def test_kashaev_is_pinched_specialization():
    # the closed pinched form at alpha = mu = -1/2 equals the canonical
    # Kashaev matrix up to the overall factor omega**(1/2) the latter carries,
    # and both equal Kashaev's explicit q-factorial formula
    for N in (2, 3, 5, 7):
        cfg = RootConfig(N)
        K = kashaev_rmat(cfg).entries
        Rp = rmat_pinched(kashaev_crossing(cfg)).entries
        assert mrel(Rp * cfg.omega_pow(0.5), K) < 1e-12
        assert mrel(K, kashaev_closed_form(cfg)) < 1e-12


def _kashaev_reference(N: int) -> np.ndarray:
    """Kashaev's explicit matrix (the formula of kashaev_closed_form) with
    40-digit q-factorials: entries T[a, b] U[c, d] with a = [n2'-n1],
    b = [n2-n1'], c = [n1'-n2'-1], d = [n1-n2], T[a, b] = N omega**(a+1/2)
    / ((w;w)_a (w;w)_b), U[c, d] = 1/((wb;wb)_c (wb;wb)_d), under the cutoff
    a + b < N and c + d < N.  Only the final product is rounded."""
    with mp.workdps(40):
        q = mp.exp(2j * mp.pi / N)
        pw = [mp.qp(q, q, k) for k in range(N)]
        pwb = [mp.qp(1 / q, 1 / q, k) for k in range(N)]
        T = np.array([[complex(N * q ** (a + mp.mpf(1) / 2) / (pw[a] * pw[b]))
                       for b in range(N)] for a in range(N)])
        U = np.array([[complex(1 / (pwb[c] * pwb[d])) for d in range(N)]
                      for c in range(N)])
    n1, n2, n1p, n2p = _index_grids(N)
    a, b = (n2p - n1) % N, (n2 - n1p) % N
    c, d = (n1p - n2p - 1) % N, (n1 - n2) % N
    R = np.where((a + b < N) & (c + d < N), T[a, b] * U[c, d], 0.0)
    return R.reshape(N * N, N * N)


@pytest.mark.parametrize("N", [8, 16, 23, 24, 32])
def test_kashaev_rmat_accuracy(N):
    # the reference rounds only its last product, so its own error is a few
    # eps; the bound leaves room for the matrix's rounding, not for more
    ref = _kashaev_reference(N)
    K = kashaev_rmat(RootConfig(N)).entries
    assert np.linalg.norm(K - ref) / np.linalg.norm(ref) < 4e-15


@pytest.mark.parametrize("N", [2, 3, 5, 7])
def test_kashaev_braid_relation_exact(N):
    cfg = RootConfig(N)
    B = kashaev_rmat(cfg).braiding().as_operator()
    eye = np.eye(N)
    B1, B2 = np.kron(B, eye), np.kron(eye, B)
    assert mrel(B1 @ B2 @ B1, B2 @ B1 @ B2) < 1e-10


@pytest.mark.parametrize("sign", [+1, -1])
def test_pinched_limit(sign, rng):
    cfg = RootConfig(3)
    prm = _random_pinched_params(rng)
    c = standard_pinched_crossing(cfg, *prm, sign=sign)
    lim = _pinched_limit(cfg, c)
    assert np.abs(lim - rmat_pinched(c).entries).max() < 1e-5


def test_pinched_nonstandard_reduction(rng):
    cfg = RootConfig(3)
    prm = _random_pinched_params(rng)
    base = standard_pinched_crossing(cfg, *prm)
    shifts = (0, 1, -1, 2)
    shifted, _ = transform_rules(base, rmat_pinched(base), beta_shifts=shifts)
    ints = shifted.integral_zeta0()
    assert set(ints) == set("NWSE") and any(ints.values())
    got = rmat_pinched(shifted).entries
    lim = _pinched_limit(cfg, shifted)
    assert np.abs(lim - got).max() < 1e-5


@pytest.mark.parametrize("N", (2, 3, 4, 5, 7))
def test_gamma_shift_rule_at_pinched_crossings(N, rng):
    # rmat_pinched evaluates every crossing on its own, so it and the shift
    # rule are independent routes to the shifted crossing's matrix; beta
    # shifts make the crossing non-standard (some zeta0 a nonzero integer)
    cfg = RootConfig(N)
    for sign in (+1, -1):
        for _ in range(4):
            c = standard_pinched_crossing(cfg, *_random_pinched_params(rng), sign=sign)
            ks = {r: int(rng.integers(-2, 3)) for r in "NWSE"}
            ls = tuple(int(l) for l in rng.integers(-3, 4, size=4))
            R = rmat_pinched(c)
            for shifted, pred in (transform_rules(c, R, gamma_shifts=ks),
                                  transform_rules(c, R, beta_shifts=ls)):
                assert mrel(rmat_pinched(shifted).entries, pred) < 1e-10


@pytest.mark.parametrize("sign", [+1, -1])
def test_region_table_cutoff_is_kashaev_theta(sign):
    # the table's cutoff sum_r p_r floor((d_r + offset_r)/N) = 1 is the
    # explicit [n1-n2] + [n1'-n2'-1] < N and [n2'-n1] + [n2-n1'] < N
    for N in range(2, 33):
        n1, n2, n1p, n2p = _index_grids(N)
        terms = _region_terms(sign, n1, n2, n1p, n2p)
        cut = sum(p * ((d + off) // N) for d, off, p in terms.values()) == 1
        theta = (((n1 - n2) % N + (n1p - n2p - 1) % N < N)
                 & ((n2p - n1) % N + (n2 - n1p) % N < N))
        assert np.array_equal(cut, theta), N


def test_rmat_pinched_rejects_generic(rng):
    cfg = RootConfig(3)
    c = random_crossing(cfg, rng, +1)
    with pytest.raises(PinchedCrossingError):
        rmat_pinched(c)
    with pytest.raises(PinchedCrossingError):
        weight_basis_rmat(c)


def test_weight_basis_delta_rule(rng):
    cfg = RootConfig(4)
    prm = _random_pinched_params(rng)
    c = standard_pinched_crossing(cfg, *prm)
    wb = weight_basis_rmat(c).entries.reshape(4, 4, 4, 4)
    for idx in np.ndindex(4, 4, 4, 4):
        n1, n2, n1p, n2p = idx
        if (n1 + n2 - n1p - n2p) % 4 != 0:
            assert abs(wb[idx]) < 1e-10


def test_weight_basis_closed_form(rng):
    for N in (2, 3, 5):
        cfg = RootConfig(N)
        prm = _random_pinched_params(rng)
        c = standard_pinched_crossing(cfg, *prm)
        assert mrel(weight_basis_rmat(c).entries,
                    weight_basis_closed_form(c)) < 1e-10


def test_nilpotent_closed_form(rng):
    for N in (2, 3, 5):
        cfg = RootConfig(N)
        prm = _random_pinched_params(rng)
        al1 = prm[2]
        c = standard_pinched_crossing(cfg, al1, prm[1], al1, prm[3],
                                      alpha2p=prm[1])
        assert mrel(weight_basis_rmat(c).entries, nilpotent_closed_form(c)) < 1e-10


def test_colored_jones_closed_form():
    for N in (2, 3, 5):
        cfg = RootConfig(N)
        c = kashaev_crossing(cfg)
        assert mrel(weight_basis_rmat(c).entries,
                    colored_jones_closed_form(cfg)) < 1e-10
    # hand value at N = 2: entry (1,0) -> (0,1) is (w;w)_1 = 1 - omega = 2
    cj = colored_jones_closed_form(RootConfig(2)).reshape(2, 2, 2, 2)
    assert rel(cj[1, 0, 0, 1], 2.0) < 1e-13
    assert cj[0, 1, 1, 0] == 0.0  # n2' < n2 entries vanish


def test_crossing_from_logs_derives_every_alpha(rng):
    def alphas_are_region_differences(c):
        return (c.lc1.alpha == c.gamma_w - c.gamma_n
                and c.lc2.alpha == c.gamma_s - c.gamma_w
                and c.lc1p.alpha == c.gamma_s - c.gamma_e
                and c.lc2p.alpha == c.gamma_e - c.gamma_n)

    cfg = RootConfig(3)
    for sign in (+1, -1):
        c = random_crossing(cfg, rng, sign)
        betas = (c.lc1.beta, c.lc2.beta, c.lc1p.beta, c.lc2p.beta)
        gammas = (c.gamma_n, c.gamma_w, c.gamma_s, c.gamma_e)
        assert crossing_from_logs(cfg, sign, betas, (c.lc1.mu, c.lc2.mu), gammas) == c
        R = rmat(c)
        for built in (c, transform_rules(c, R, gamma_shifts={"N": 1, "E": -2})[0],
                      transform_rules(c, R, beta_shifts=(1, 0, -1, 2))[0],
                      standard_pinched_crossing(cfg, *_random_pinched_params(rng),
                                                sign=sign)):
            assert alphas_are_region_differences(built)


def test_letter_crossing_validation(rng):
    cfg = RootConfig(3)
    with pytest.raises(ValueError, match="generator 0"):
        letter_crossing(cfg, 0, LogWeylChar(0.25, 0.0, 0.0),
                        LogWeylChar(-0.25, 0.0, 0.0), 0.0)


@pytest.mark.parametrize("sign", [+1, -1])
def test_letter_crossing_takes_the_standard_branch_at_pinched_pairs(sign, rng):
    # b2 = m1 b1 with beta_1 off 0: principal output logs would leave some
    # zeta0 at +-1, the standard branch puts all four at 0
    cfg = RootConfig(3)
    d = build_diagram(BraidWord(2, (sign,)))
    for _ in range(50):
        al1, al2, mu1, mu2 = _random_pinched_params(rng)
        beta1, gamma_n = rng.uniform(-0.45, 0.45), complex(rng.uniform(-0.3, 0.3))
        lc1, lc2 = LogWeylChar(al1, beta1, mu1), LogWeylChar(al2, beta1 + mu1, mu2)
        c = letter_crossing(cfg, sign, lc1, lc2, gamma_n)
        assert c.pinched
        assert all(abs(z) < 1e-9 for z in c.zeta0().values())
        gamma_w = gamma_n + al1
        lc = extend_log_coloring(d, [lc1.beta, lc2.beta],
                                 [gamma_n, gamma_w, gamma_w + al2], [mu1, mu2])
        assert c == crossing_data(cfg, d, lc, d.crossings[0])


def _mixed_crossings(cfg, rng):
    """Generic crossings of both signs, standard pinched ones of both signs,
    a pinched one with nonzero integral zeta0 and kashaev_crossing."""
    cs = [random_crossing(cfg, rng, sign) for sign in (+1, -1, -1, +1)]
    prm = _random_pinched_params(rng)
    cs += [standard_pinched_crossing(cfg, *prm, sign=sign) for sign in (+1, -1)]
    base = cs[-2]
    cs.append(transform_rules(base, rmat_pinched(base), beta_shifts=(0, 1, -1, 2))[0])
    assert any(cs[-1].integral_zeta0().values())
    return cs + [kashaev_crossing(cfg)]


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_a_mixed_batch_equals_the_crossings_built_one_by_one(N, rng):
    cfg = RootConfig(N)
    cs = _mixed_crossings(cfg, rng)
    alone = [braiding_op(dataclasses.replace(c)).entries for c in cs]
    rmatrix.build_crossings(cs)
    for c, one in zip(cs, alone):
        assert np.array_equal(braiding_op(c).entries, one)
        if not c.pinched:
            fresh = dataclasses.replace(c)
            assert np.array_equal(c.lambda_tables, fresh.lambda_tables)
            assert np.array_equal(c.lifted_dilogs, fresh.lifted_dilogs)
            assert logdet_braiding(c) == logdet_braiding(fresh)
    with pytest.raises(ValueError):
        c.entries[0, 0] = 0


def test_a_built_crossing_is_not_evaluated_again(rng, monkeypatch):
    cfg = RootConfig(4)
    cs = _mixed_crossings(cfg, rng)
    calls = []
    for name in ("lambda_table", "lambda_series", "lifted_dilog"):
        real = getattr(rmatrix, name)
        monkeypatch.setattr(rmatrix, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    rmatrix.build_crossings(cs)
    assert sorted(calls) == ["lambda_series", "lambda_table"]
    rmatrix.build_crossings(cs), [rmat_pinched(c) if c.pinched else rmat(c) for c in cs]
    assert sorted(calls) == ["lambda_series", "lambda_table"]
    # a crossing whose Lambda tables are cached reads them
    c = random_crossing(cfg, rng, -1)
    factorized_ops(c)
    calls.clear()
    rmat(c)
    assert calls == []
    with pytest.raises(ValueError, match="one N"):
        rmatrix.build_crossings([random_crossing(RootConfig(3), rng), cs[0]])


@pytest.mark.parametrize("read", ["flattening_batch", "lambda_tables"])
def test_reading_a_crossings_tables_builds_the_crossing(read, rng, monkeypatch):
    # build_crossings is the one writer of a generic crossing's flattening,
    # Lambda tables and entries, and fills the three together
    calls = []
    real = rmatrix.lambda_table
    monkeypatch.setattr(rmatrix, "lambda_table", lambda *a: calls.append(a) or real(*a))
    c = random_crossing(RootConfig(3), rng, -1)
    getattr(c, read)
    assert len(calls) == 1
    assert {"flattening_batch", "lambda_tables", "entries"} <= vars(c).keys()
    rmat(c), factorized_ops(c), logdet_braiding(c)
    assert len(calls) == 1
    cs = _mixed_crossings(RootConfig(3), rng)
    rmatrix.build_crossings(cs)
    assert all({"flattening_batch", "lambda_tables"} <= vars(c).keys()
               for c in cs if not c.pinched)


def test_a_failing_batch_raises_the_error_of_its_first_failing_crossing():
    # the near-pinched crossings of test_cli: at t = 3e-9 a dilogarithm
    # pole, at t = 1e-9 the flattening constraint.  Stacked, the later
    # crossing's constraint is checked before the earlier one's poles.
    cfg = RootConfig(12)
    cp = standard_pinched_crossing(cfg, 0.21 + 0.01j, -0.23 + 0.02j,
                                   0.12 - 0.01j, 0.37 + 0.01j)

    def near(t):
        return letter_crossing(cfg, +1, cp.lc1,
                               dataclasses.replace(cp.lc2, beta=cp.lc2.beta + t), cp.gamma_n)

    rng = np.random.default_rng(2)
    for first, second in ((3e-9, 1e-9), (1e-9, 3e-9)):
        with pytest.raises(ValueError) as alone:
            rmat(near(first))
        good = random_crossing(cfg, rng, +1)
        batch = [good, dataclasses.replace(cp), near(first), near(second)]
        calls = []
        real = rmatrix.lambda_table
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rmatrix, "lambda_table", lambda *a: calls.append(a) or real(*a))
            with pytest.raises(ValueError) as raised:
                rmatrix.build_crossings(batch)
        assert type(raised.value) is type(alone.value)
        assert str(raised.value) == str(alone.value)
        # one scan: nothing is evaluated a second time, and the crossings
        # past the failing one are not evaluated at all
        assert len(calls) == 1
    # the constraint fails first at near(1e-9): lambda_table ran on good
    # alone, and the crossings ahead of the failing one are built
    assert str(alone.value).startswith("flattening constraint violated")
    assert np.shape(calls[0][1].zeta0) == (4,)
    assert all("entries" in vars(c) for c in batch[:2])


@pytest.mark.parametrize("N", [5, 8])
def test_a_builds_temporaries_do_not_grow_with_its_crossings(N, rng):
    # build_crossings assembles one crossing at a time.  Beyond the cached
    # entries, 8 crossings peaked 1.3x (N = 5) and 1.06x (N = 8) above 1
    # crossing; (sign, zeta0)-grouped passes of up to 128 KiB arrays peaked
    # 3.9x and 2.0x above it
    cfg = RootConfig(N)
    rmatrix.build_crossings([random_crossing(cfg, rng, sign) for sign in (+1, -1)])

    def extra(n):
        cs = [random_crossing(cfg, rng, (-1) ** i) for i in range(n)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rmatrix.build_crossings(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base - sum(c.entries.nbytes for c in cs)

    assert extra(8) < 1.5 * extra(1)
