"""R-matrix assembly: zetas, closed forms, factorization, pinched limits."""

import cmath
import dataclasses

import numpy as np
import pytest

from holorm.characters import LogWeylChar
from holorm.qdilog import RootConfig, TWO_PI_I
from holorm.rmatrix import (CrossingData, PinchedCrossingError,
                            apply_beta_shift, apply_gamma_shift, braiding_op,
                            colored_jones_closed_form, crossing_from_logs,
                            crossing_zetas, det_braiding, det_lu, factorized_ops,
                            kashaev_rmat, logdet_braiding, nilpotent_closed_form,
                            rmat, rmat_pinched, transform_rules,
                            weight_basis_closed_form, weight_basis_rmat)
from holorm.braidgrpd import (BraidWord, build_diagram, crossing_data,
                              extend_log_coloring)
from holorm.sampling import (kashaev_crossing, letter_crossing, random_crossing,
                             standard_pinched_crossing)
from holorm.selftest import (IDENTITIES, _det_deviation, _pinched_limit,
                             _random_pinched_params, r2_backward_error)

from conftest import mrel, rel


def test_crossing_zetas_standard_pinched():
    cfg = RootConfig(3)
    c = kashaev_crossing(cfg)
    assert c.pinched
    z0 = c.zeta0()
    assert all(abs(z0[r]) < 1e-12 for r in "NWSE")
    with pytest.raises(PinchedCrossingError):
        crossing_zetas(c)


def test_crossing_zetas_balance(rng):
    cfg = RootConfig(4)
    for sign in (+1, -1):
        c = random_crossing(cfg, rng, sign)
        zs = crossing_zetas(c)
        assert abs(zs["N"].zeta0 + zs["S"].zeta0 - zs["W"].zeta0 - zs["E"].zeta0) < 1e-12
        for f in zs.values():
            assert abs(cmath.exp(TWO_PI_I * f.zeta1)
                       * (1 - cmath.exp(TWO_PI_I * f.zeta0)) - 1) < 1e-9


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
    cfg = RootConfig(2)
    with pytest.raises(PinchedCrossingError):
        rmat(kashaev_crossing(cfg))
    with pytest.raises(PinchedCrossingError):
        factorized_ops(kashaev_crossing(cfg))


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


def test_factor_ze_diagonal_entries(rng):
    cfg = RootConfig(3)
    c = random_crossing(cfg, rng, +1)
    f = factorized_ops(c)
    from holorm.qdilog import lambda_dilog
    fe = crossing_zetas(c)["E"]
    for n1 in range(3):
        for n2 in range(3):
            assert rel(f.ze_diag[3 * n1 + n2],
                       1.0 / lambda_dilog(cfg, fe, n1 - n2)) < 1e-12


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
            assert rel(det_braiding(c), det_lu(braiding_op(c))) < 1e-7


@pytest.mark.parametrize("N, seed, sign", [(26, 10, +1), (32, 1, -1)])
def test_logdet_beyond_the_double_range(N, seed, sign):
    # |det| is about e^748 and e^919 here, past the largest double (e^709.8).
    # The four factors of braiding = (1/N) Z_E (Z_N x Z_S) Z_W give its log
    # determinant on their own: Z_W, Z_E are diagonal and Z_N, Z_S circulant,
    # with eigenvalues the DFT of their first column.
    c = random_crossing(RootConfig(N), np.random.default_rng(seed), sign)
    f = factorized_ops(c)
    from_factors = (np.log(f.zw_diag).sum() + np.log(f.ze_diag).sum()
                    + N * np.log(np.fft.fft(f.zn[:, 0])).sum()
                    + N * np.log(np.fft.fft(f.zs[:, 0])).sum() - N * N * np.log(N))
    d = logdet_braiding(c) - from_factors
    assert abs(d - TWO_PI_I * round(d.imag / (2 * cmath.pi))) < 1e-9
    with pytest.raises(OverflowError):
        det_braiding(c)


def test_det_selftest_row_is_finite_past_the_double_range():
    # the crossing of test_cli::test_rmat_determinant_overflow_is_a_json_error
    c = random_crossing(RootConfig(26), np.random.default_rng(10), +1)
    assert np.isfinite(_det_deviation(c, braiding_op(c)))


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
        ell = {r: lifted_dilog(f) for r, f in crossing_zetas(c).items()}
        i_c = ell["N"] + ell["S"] - ell["W"] - ell["E"]
        lam1, lam2 = c.log_longitudes()
        rest = (cmath.exp(-c.sign * 3 * i_c / TWO_PI_I)
                * cmath.exp(TWO_PI_I * ((c.gamma_w - c.gamma_e) / 2
                                        - lam1 - lam2)) ** 6)
        assert rel(det_braiding(c) / rest, const ** expo) < 1e-9


def test_transform_rules_zero_shift(rng):
    cfg = RootConfig(3)
    c = random_crossing(cfg, rng, +1)
    relzero = transform_rules(c)
    assert relzero.phase == 1.0
    assert relzero.index_shift == (0, 0, 0, 0)
    assert mrel(relzero.predict(rmat(c)), rmat(c).entries) == 0.0


def test_transform_rules_gamma_n(rng):
    cfg = RootConfig(3)
    N = 3
    c = random_crossing(cfg, rng, +1)
    R = rmat(c)
    tr = transform_rules(c, gamma_shifts={"N": 1})
    # entries scale by omega**(zeta_N^0 / 2) * omega**(n2' - n1)
    z0 = c.zeta0()
    w = cfg.omega_pow
    shifted = rmat(tr.crossing).entries.reshape(N, N, N, N)
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
    tr = transform_rules(c, beta_shifts=(1, 0, 0, 0))
    shifted = rmat(tr.crossing).entries.reshape(N, N, N, N)
    base = R.entries.reshape(N, N, N, N)
    for idx in np.ndindex(N, N, N, N):
        n1, n2, n1p, n2p = idx
        assert rel(shifted[idx], tr.phase * base[(n1 + 1) % N, n2, n1p, n2p]) < 1e-10


@pytest.mark.parametrize("sign", [+1, -1])
def test_transform_rules_random_shifts(sign, rng):
    for N in (2, 3, 4, 5, 7):
        cfg = RootConfig(N)
        for _ in range(4):
            c = random_crossing(cfg, rng, sign)
            ks = {r: int(rng.integers(-2, 3)) for r in "NWSE"}
            ls = tuple(int(rng.integers(-2, 3)) for _ in range(4))
            tr = transform_rules(c, gamma_shifts=ks, beta_shifts=ls)
            assert mrel(rmat(tr.crossing).entries, tr.predict(rmat(c))) < 1e-10
    with pytest.raises(ValueError):
        transform_rules(c, beta_shifts=(0.5, 0, 0, 0))


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
    # Kashaev matrix up to the overall factor omega**(1/2) the latter carries
    for N in (2, 3, 5, 7):
        cfg = RootConfig(N)
        Rp = rmat_pinched(kashaev_crossing(cfg)).entries
        assert mrel(Rp * cfg.omega_pow(0.5), kashaev_rmat(cfg).entries) < 1e-12


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
    from holorm.rmatrix import apply_beta_shift
    shifts = (0, 1, -1, 2)
    shifted = apply_beta_shift(base, shifts)
    z0 = shifted.zeta0()
    assert any(abs(round(z0[r].real)) > 0 for r in "NWSE")
    got = rmat_pinched(shifted).entries
    lim = _pinched_limit(cfg, shifted)
    assert np.abs(lim - got).max() < 1e-5


@pytest.mark.parametrize("N", (2, 3, 4, 5, 7))
def test_gamma_shift_rule_at_pinched_crossings(N, rng):
    # the closed pinched form and the region table's shift rule are
    # independent routes to the shifted crossing's matrix
    cfg = RootConfig(N)
    for sign in (+1, -1):
        for _ in range(4):
            c = standard_pinched_crossing(cfg, *_random_pinched_params(rng), sign=sign)
            ks = {r: int(rng.integers(-2, 3)) for r in "NWSE"}
            shifted = transform_rules(c, gamma_shifts=ks)
            assert mrel(rmat_pinched(shifted.crossing).entries,
                        shifted.predict(rmat_pinched(c))) < 1e-10


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
        for built in (c, apply_gamma_shift(c, {"N": 1, "E": -2}),
                      apply_beta_shift(c, (1, 0, -1, 2)),
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
