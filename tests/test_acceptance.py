"""Acceptance criteria, read from the identity registry.

Criteria 1-11 run the selftest suites at N in {2, 3, 5, 7} and check every
registered identity they cover against its registry tolerance, at every N
from its smallest one up, with at least the evaluation counts the criteria
were first stated with.  Each test prints one PASS/FAIL line per identity
(run pytest with -s).  Criterion 12 keeps its own random commutant probes.
"""

import functools

import numpy as np
import pytest

from holorm import selftest
from holorm.characters import LogWeylChar
from holorm.qdilog import RootConfig
from holorm.sampling import random_logchar
from holorm.weylrep import Basis, commutant_dim, matrix_power, rep_matrices

ALL_N = (2, 3, 5, 7)
SUITES = ("qdilog", "characters", "weylrep", "rmatrix", "braidgrpd")
# Trials per suite call.  check_characters ignores N, so its four calls
# together draw 4 * 4 * 250 = 4000 braid-relation triples.
TRIALS = {"qdilog": 100, "characters": 250, "weylrep": 5, "rmatrix": 25,
          "braidgrpd": 20}


def _names(suite):
    return [n for n, i in selftest.IDENTITIES.items() if i.suite == suite]


CRITERIA = {
    1: _names("qdilog"),
    2: ["intertwining"],
    3: ["recurrence i", "recurrence ii", "recurrence iii", "recurrence iv"],
    4: ["R2 contraction", "pinched R2 contraction", "R2 move"],
    5: ["R3 move", "Kashaev braid relation", "composition functoriality"],
    6: ["factorization"],
    7: ["pinched limit (abs)", "Kashaev normalization"],
    8: ["determinant closed vs LU", "determinant closed vs factors",
        "determinant cocycle"],
    9: ["weight-basis closed form", "colored-Jones form", "nilpotent form"],
    10: ["kappa independence", "gamma shift rule", "beta shift rule",
         "log-decoration dependence", "edge gluing (abs)"],
    11: _names("characters"),
    12: _names("weylrep"),
}


def _at_least(count, Ns=ALL_N):
    return lambda N: count if N in Ns else 1


# Evaluations per N the criteria made before they read the registry.
MIN_SAMPLES = {
    "intertwining": _at_least(2 * 25 * 6),   # 25 crossings per sign, 6 generators
    **{name: (lambda N: 5 * N ** 4) for name in CRITERIA[3]},  # 5 crossings, all entries
    "R2 contraction": _at_least(8),
    "R3 move": _at_least(20, (2, 3, 5)),
    "factorization": _at_least(2 * 6),
    "pinched limit (abs)": _at_least(2 * 2, (2, 3, 5)),
    "determinant closed vs LU": _at_least(2 * 5, (2, 3, 5)),
    "kappa independence": _at_least(4 * 4),
    "gamma shift rule": _at_least(4),
    "beta shift rule": _at_least(4),
    "log-decoration dependence": _at_least(4, (2, 3, 5)),
}


def _trials(suite, N):
    # the braid-level criteria were stated for N <= 5; at N = 7 the state
    # sums are 343 x 343, so the braidgrpd suite runs at its smallest count
    return 2 if suite == "braidgrpd" and N == 7 else TRIALS[suite]


@functools.lru_cache(maxsize=None)
def _suite(suite, N):
    """One seeded run of a suite, shared by every criterion that reads it."""
    rng = np.random.default_rng([N, SUITES.index(suite)])
    return getattr(selftest, "check_" + suite)(RootConfig(N), rng, _trials(suite, N))


def _check_criterion(num) -> dict:
    """Checks the criterion's identities; returns {name: samples over all N}."""
    totals, failures = {}, []
    for name in CRITERIA[num]:
        ident = selftest.IDENTITIES[name]
        need = MIN_SAMPLES.get(name, _at_least(1))
        worst, totals[name], bad = 0.0, 0, []
        for N in (N for N in ALL_N if N >= ident.min_N):
            out = _suite(ident.suite, N)
            dev, samples = out.get(name, float("nan")), out.samples.get(name, 0)
            worst, totals[name] = max(worst, dev), totals[name] + samples
            if not (dev <= ident.tol and samples >= need(N)):
                bad.append(f"{name} at N={N}: dev {dev:.3e} (tol {ident.tol:.1e}), "
                           f"{samples} samples (need {need(N)})")
        print(f"ACCEPTANCE {num:2d} [{name}]: {'FAIL' if bad else 'PASS'}  "
              f"max dev {worst:.3e}  tol {ident.tol:.1e}  samples {totals[name]}")
        failures += bad
    assert not failures, f"criterion {num}: " + "; ".join(failures)
    return totals


def test_every_registered_identity_belongs_to_a_criterion():
    names = [n for names in CRITERIA.values() for n in names]
    assert sorted(names) == sorted(selftest.IDENTITIES)


@pytest.mark.parametrize("suite", SUITES)
def test_suite_notes_only_registered_identities(suite):
    # run_all reports registered names only, so a note under any other name
    # would vanish from every report
    out = _suite(suite, 3)
    assert set(out) == set(out.samples) == set(_names(suite))


def test_unevaluated_identity_fails(monkeypatch):
    real = selftest.check_weylrep

    def skips_one(cfg, rng, trials):
        out = real(cfg, rng, trials)
        del out["Weyl relation"], out.samples["Weyl relation"]
        return out

    monkeypatch.setattr(selftest, "check_weylrep", skips_one)
    res = {r.name: r for r in selftest.run_all(Ns=[2], seed=1, scale=0.1)}
    assert res["Weyl relation"].samples == 0
    assert not res["Weyl relation"].passed
    assert res["Weyl relation"].deviation != res["Weyl relation"].deviation
    assert res["Casimir scalar"].passed
    assert "commutant reducible case" not in res  # registered from N = 3 on


def test_nan_evaluation_fails(monkeypatch):
    real = selftest.check_weylrep
    counts = {}

    def notes_nan(cfg, rng, trials):
        out = real(cfg, rng, trials)
        out.note("Weyl relation", float("nan"))
        # an array note counts one sample per entry; a NaN entry sticks
        counts["before"] = out.samples["[E,F] relation"]
        out.note("[E,F] relation", np.zeros((2, 3)))
        out.note("[E,F] relation", np.array([[0.0, np.nan], [0.0, 0.0]]))
        return out

    monkeypatch.setattr(selftest, "check_weylrep", notes_nan)
    res = {r.name: r for r in selftest.run_all(Ns=[2], seed=1, scale=0.1)}
    assert res["Weyl relation"].samples > 1  # finite evaluations came first
    assert not res["Weyl relation"].passed
    assert res["[E,F] relation"].samples == counts["before"] + 6 + 4
    assert not res["[E,F] relation"].passed
    assert res["Casimir scalar"].passed


def test_criterion_01_dilogarithm_suite():
    _check_criterion(1)


def test_criterion_02_intertwining():
    _check_criterion(2)


def test_criterion_03_recurrences():
    _check_criterion(3)


def test_criterion_04_r2_contraction():
    _check_criterion(4)


def test_criterion_05_r3_and_kashaev_ybe():
    _check_criterion(5)


def test_criterion_06_factorization():
    _check_criterion(6)


def test_criterion_07_pinched_limit_and_kashaev():
    _check_criterion(7)


def test_criterion_08_determinant():
    _check_criterion(8)


def test_criterion_09_weight_basis():
    _check_criterion(9)


def test_criterion_10_log_dependence_and_transforms():
    _check_criterion(10)


def test_criterion_11_character_layer():
    totals = _check_criterion(11)
    assert totals["braid relation"] >= 1000


def _report(num, label, dev, tol):
    status = "PASS" if dev <= tol else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{label}]: {status}  max dev {dev:.3e}  tol {tol:.1e}")
    assert dev <= tol, f"criterion {num} ({label}): {dev:.3e} > {tol:.1e}"


def test_criterion_12_representation_probes():
    _check_criterion(12)
    rng = np.random.default_rng(112)
    worst_comm = 0
    for N in ALL_N:
        cfg = RootConfig(N)
        instances = []
        # (a) parabolic: m = +-1, a != m
        for _ in range(7):
            mu = float(rng.integers(0, 2)) / 1.0 - 0.5  # -0.5 or 0.5
            instances.append(LogWeylChar(
                complex(rng.uniform(0.05, 0.45)), complex(rng.uniform(-0.4, 0.4)),
                complex(mu)))
        # (b) scalar holonomy, 2 mu = -1 mod N
        for _ in range(7):
            instances.append(LogWeylChar(-0.5, complex(rng.uniform(-0.4, 0.4)), -0.5))
        # (c) scalar holonomy, 2 mu = k mod N for k in 1..N-2
        for _ in range(6):
            if N == 2:
                instances.append(LogWeylChar(
                    complex(rng.uniform(0.05, 0.45)) + 0.1j, 0.2, 0.0))
            else:
                k = int(rng.integers(1, N - 1))
                mu = k / 2.0
                instances.append(LogWeylChar(mu, complex(rng.uniform(-0.4, 0.4)), mu))
        for lc in instances:
            dim = commutant_dim(rep_matrices(cfg, lc, Basis.FOURIER))
            worst_comm = max(worst_comm, abs(dim - 1))
    _report(12, "commutant dimension = 1", float(worst_comm), 0.0)
    # tensor grading at a tighter tolerance than the registry's 1e-8
    worst = 0.0
    for N in ALL_N:
        cfg = RootConfig(N)
        eyeN = np.eye(N)
        for _ in range(5):
            lc, lc2 = random_logchar(rng), random_logchar(rng)
            g1 = rep_matrices(cfg, lc, Basis.FOURIER)
            g2 = rep_matrices(cfg, lc2, Basis.FOURIER)
            K12 = np.kron(g1.K, g2.K)
            E12 = np.kron(g1.E, g2.K) + np.kron(eyeN, g2.E)
            F12 = np.kron(g1.F, eyeN) + np.kron(np.linalg.inv(g1.K), g2.F)
            prod = selftest.char_product(selftest.z0_coords(*lc.char().as_tuple()),
                                         selftest.z0_coords(*lc2.char().as_tuple()))
            eye2 = np.eye(N * N)
            for M, s in zip((K12, E12, F12), selftest._central_scalars(prod)):
                P = matrix_power(M, N)
                worst = max(worst, float(np.abs(P - s * eye2).max()
                                         / max(1.0, abs(s))))
    _report(12, "tensor grading", worst, 1e-10)
