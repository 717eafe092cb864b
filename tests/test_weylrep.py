"""Cyclic modules, quantum-group matrices, braiding images, commutants."""

import cmath
import tracemalloc

import numpy as np
import pytest

from holorm.characters import LogWeylChar, braid
from holorm.qdilog import RootConfig, TWO_PI_I
from holorm import selftest
from holorm.sampling import random_char_logs, random_crossing, random_logchar
from holorm.selftest import _central_scalars, char_product, z0_coords
from holorm.weylrep import (Basis, commutant_dim, fourier_matrix,
                            matrix_power, pi_tensor, rep_matrices, rw_images,
                            rw_images_negative)

from conftest import mrel


def test_weight_and_fourier_shapes(rng):
    cfg = RootConfig(4)
    lc = random_logchar(rng)
    gw = rep_matrices(cfg, lc, Basis.WEIGHT)
    assert mrel(gw.x, np.diag([cfg.omega_pow(lc.alpha - n) for n in range(4)])) < 1e-14
    gf = rep_matrices(cfg, lc, Basis.FOURIER)
    assert mrel(gf.y, np.diag([cfg.omega_pow(lc.beta + n) for n in range(4)])) < 1e-14
    cas = cfg.omega_pow(lc.mu + 0.5) + cfg.omega_pow(-(lc.mu + 0.5))
    assert mrel(gf.Omega, cas * np.eye(4)) < 1e-12
    assert mrel(gw.Omega, cas * np.eye(4)) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 5, 7])
def test_algebra_relations(N, rng):
    cfg = RootConfig(N)
    xi = cfg.xi
    for _ in range(5):
        lc = random_logchar(rng)
        for basis in (Basis.WEIGHT, Basis.FOURIER):
            g = rep_matrices(cfg, lc, basis)
            assert mrel(g.x @ g.y, cfg.omega * g.y @ g.x) < 1e-10
            assert mrel(g.K @ g.E, xi ** 2 * g.E @ g.K) < 1e-10
            assert mrel(g.K @ g.F, g.F @ g.K / xi ** 2) < 1e-10
            assert mrel(g.E @ g.F - g.F @ g.E,
                        (xi - 1 / xi) * (g.K - np.linalg.inv(g.K))) < 1e-10


def test_fourier_basis_change(rng):
    cfg = RootConfig(5)
    G = fourier_matrix(cfg)
    assert mrel(G @ G.conj().T / 5, np.eye(5)) < 1e-13
    assert mrel(fourier_matrix(RootConfig(2)), np.array([[1, 1], [1, -1]])) < 1e-14
    lc = random_logchar(rng)
    gw = rep_matrices(cfg, lc, Basis.WEIGHT)
    gf = rep_matrices(cfg, lc, Basis.FOURIER)
    Ginv = np.linalg.inv(G)
    for Mw, Mf in ((gw.x, gf.x), (gw.y, gf.y), (gw.E, gf.E), (gw.F, gf.F)):
        assert mrel(G @ Mf @ Ginv, Mw) < 1e-12
        assert mrel(Ginv @ Mw @ G, Mf) < 1e-12


def test_central_scalars(rng):
    cfg = RootConfig(5)
    lc = random_logchar(rng)
    sc = _central_scalars(z0_coords(*lc.char().as_tuple()))
    assert abs(sc[0] - lc.char().a) < 1e-13
    lc_am = LogWeylChar(0.21 + 0.05j, 0.4, 0.21 + 0.05j)  # a = m
    assert abs(_central_scalars(z0_coords(*lc_am.char().as_tuple()))[1]) < 1e-13
    for basis in (Basis.WEIGHT, Basis.FOURIER):
        g = rep_matrices(cfg, lc, basis)
        for M, s in zip((g.K, g.E, g.F), sc):
            assert mrel(matrix_power(M, 5), s * np.eye(5)) < 1e-9


def test_tensor_grading(rng):
    cfg = RootConfig(5)
    N = 5
    eye = np.eye(N)
    for _ in range(5):
        lc1, lc2 = random_logchar(rng), random_logchar(rng)
        g1 = rep_matrices(cfg, lc1, Basis.FOURIER)
        g2 = rep_matrices(cfg, lc2, Basis.FOURIER)
        K12 = np.kron(g1.K, g2.K)
        E12 = np.kron(g1.E, g2.K) + np.kron(eye, g2.E)
        F12 = np.kron(g1.F, eye) + np.kron(np.linalg.inv(g1.K), g2.F)
        prod = char_product(z0_coords(*lc1.char().as_tuple()),
                            z0_coords(*lc2.char().as_tuple()))
        eye2 = np.eye(N * N)
        for M, s in zip((K12, E12, F12), _central_scalars(prod)):
            assert mrel(matrix_power(M, N), s * eye2) < 1e-8


def test_rw_images_center_and_cancellation(rng):
    cfg = RootConfig(3)
    for _ in range(5):
        lc1, lc2 = random_logchar(rng), random_logchar(rng)
        if not braid(lc1.char(), lc2.char(), +1).admissible:
            continue
        out = braid(lc1.char(), lc2.char(), +1)
        lc1p = LogWeylChar(cmath.log(out.chi1p.a) / TWO_PI_I,
                           cmath.log(out.chi1p.b) / TWO_PI_I, lc1.mu)
        lc2p = LogWeylChar(cmath.log(out.chi2p.a) / TWO_PI_I,
                           cmath.log(out.chi2p.b) / TWO_PI_I, lc2.mu)
        imgs = rw_images(cfg, lc1, lc2, lc1p, lc2p)
        assert mrel(imgs["z1"], cfg.omega_pow(lc1.mu) * np.eye(9)) < 1e-12
        assert mrel(imgs["z2"], cfg.omega_pow(lc2.mu) * np.eye(9)) < 1e-12
        # g cancels between the images of x1 and x2
        prim = pi_tensor(cfg, lc1p, lc2p)
        assert mrel(imgs["x1"] @ imgs["x2"], prim["x1"] @ prim["x2"]) < 1e-10


def test_intertwining_via_rmatrix(rng):
    # full matrix check against the R-matrix for one random crossing per sign
    from holorm.rmatrix import rmat
    cfg = RootConfig(3)
    c = random_crossing(cfg, rng, +1)
    act = rmat(c).as_operator()
    piu = pi_tensor(cfg, c.lc1, c.lc2)
    imgs = rw_images(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)
    for key in ("x1", "x2", "y1inv", "y2", "z1", "z2"):
        assert mrel(act @ piu[key], imgs[key] @ act) < 1e-9
    c = random_crossing(cfg, rng, -1)
    act = rmat(c).as_operator()
    piu = pi_tensor(cfg, c.lc1, c.lc2)
    imgs = rw_images_negative(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)
    for key in ("x1", "x2", "y1inv", "y2", "z1", "z2"):
        assert mrel(act @ piu[key], imgs[key] @ act) < 1e-9


def test_commutant_dim(rng):
    cfg = RootConfig(5)
    # generic cyclic module: scalars only
    g = rep_matrices(cfg, random_logchar(rng), Basis.FOURIER)
    assert commutant_dim(g.K, g.E, g.F) == 1
    # block-diagonal doubling has a 2x2 matrix commutant
    assert commutant_dim(*(np.kron(np.eye(2), M) for M in (g.K, g.E, g.F))) == 4
    # scalar-holonomy simple case (a = m = -1, 2 mu = -1 mod N), the
    # reducible-indecomposable case (still scalar endomorphisms only) and
    # the parabolic case
    for lc in (LogWeylChar(-0.5, 0.0, -0.5), LogWeylChar(0.5, 0.37, 0.5),
               LogWeylChar(0.31, 0.11, 0.5)):
        g = rep_matrices(cfg, lc, Basis.FOURIER)
        assert commutant_dim(g.K, g.E, g.F) == 1


@pytest.mark.parametrize("basis", list(Basis))
def test_stacked_modules_equal_the_single_ones(basis, rng):
    # rep_matrices and matrix_power on a stack give each module what the
    # call on that module alone gives
    cfg = RootConfig(4)
    logs = random_char_logs(rng, (2, 3))
    g = rep_matrices(cfg, LogWeylChar(*np.moveaxis(logs, -1, 0)), basis)
    assert g.E.shape == (2, 3, 4, 4)
    for i in np.ndindex(2, 3):
        one = rep_matrices(cfg, LogWeylChar(*logs[i]), basis)
        for field in ("x", "y", "z", "K", "E", "F", "Omega"):
            assert np.array_equal(getattr(g, field)[i], getattr(one, field))
        assert np.array_equal(matrix_power(g.E, 4)[i], matrix_power(one.E, 4))
    assert np.array_equal(selftest._kron(g.K[1, 2], g.E[1, 2]), np.kron(g.K[1, 2], g.E[1, 2]))


def test_random_char_logs_draw_as_random_logchar(rng):
    ref = np.random.default_rng(5)
    logs = random_char_logs(np.random.default_rng(5), (3, 2))
    assert logs.shape == (3, 2, 3)
    for i in np.ndindex(3, 2):
        lc = random_logchar(ref)
        assert tuple(logs[i]) == (lc.alpha, lc.beta, lc.mu)


@pytest.mark.parametrize("trials", [3, 7])
@pytest.mark.parametrize("N", [2, 3, 7])
def test_check_weylrep_draws_as_the_scalar_suite_drew(N, trials):
    """One draw of shape (trials, 2, 3, 2) and one of (max(4, trials // 2),
    3, 2) leave the stream where two characters per trial and then the
    commutant probes, drawn one by one, leave it; each registered identity
    is noted as often as the trial-by-trial suite noted it."""
    rng, ref = np.random.default_rng(trials), np.random.default_rng(trials)
    out = selftest.check_weylrep(RootConfig(N), rng, trials)
    for _ in range(2 * trials + max(4, trials // 2)):
        random_logchar(ref)
    assert rng.bit_generator.state == ref.bit_generator.state
    per_trial = {"Weyl relation": 2, "KE = xi^2 EK": 2, "KF = xi^-2 FK": 2,
                 "[E,F] relation": 2, "Casimir scalar": 2, "central scalars": 6,
                 "tensor grading": 1}
    expect = {k: n * trials for k, n in per_trial.items()}
    expect.update({"commutant generic": max(4, trials // 2),
                   "commutant scalar case": 1, "commutant parabolic case": 1})
    if N >= 3:
        expect["commutant reducible case"] = 1
    assert out.samples == expect
    assert all(v <= selftest.IDENTITIES[k].tol for k, v in out.items())


@pytest.mark.parametrize("N, trials, bound", [(4, 8, 1.4), (5, 8, 1.4), (9, 32, 2.0)],
                         ids=["4", "5", "9"])
def test_check_weylrep_memory_does_not_grow_with_trials(N, trials, bound):
    # the N^2 x N^2 tensor grading is formed one trial at a time, so the
    # traced peak at 8 trials stays within 1.4 times the peak at 2 (one
    # stack of every trial's tensor matrices reads 1.7 to 1.8 times); the
    # commutant system is formed one probe module at a time, so at N = 9
    # the peak at 32 trials, with 19 probes against 7, stays within 2.0
    # times the peak at 2 (one stack of every probe's system reads 2.6
    # times; at 8 trials there are 7 probes, as at 2)
    def peak(trials):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            selftest.check_weylrep(RootConfig(N), np.random.default_rng(1), trials)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    selftest.check_weylrep(RootConfig(N), np.random.default_rng(1), 2)  # warm-up
    assert peak(trials) < bound * peak(2)


def test_tensor_inverse_comes_from_the_factor(rng):
    # pi_tensor's y1inv is the kron of the inverted N x N factor with the
    # identity, and equals the formed product's inverse
    cfg = RootConfig(4)
    c = random_crossing(cfg, rng, +1)
    y1 = np.kron(rep_matrices(cfg, c.lc1).y, np.eye(4))
    assert np.array_equal(pi_tensor(cfg, c.lc1, c.lc2)["y1inv"], np.linalg.inv(y1))


def test_checked_inverse_decides_by_the_condition_number():
    # a matrix past COND_MAX is singular
    from holorm.weylrep import COND_MAX, _checked_inv
    for cond in (1.0, 0.99 * COND_MAX):
        g = np.diag([1.0, 1.0, 1.0 / cond]).astype(complex)
        assert np.array_equal(_checked_inv(g, "g"), np.linalg.inv(g))
    for bad in (np.diag([1.0, 1.0, 1.0 / (1.01 * COND_MAX)]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="g is numerically singular"):
            _checked_inv(bad.astype(complex), "g")
