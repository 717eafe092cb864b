"""Identity battery: every structural identity the library rests on.

Each check function (one per suite) returns {identity name: max deviation},
with the number of evaluations per identity in its .samples attribute.
IDENTITIES registers every identity with its suite, tolerance and smallest
N; run_all turns the suites' output into one result per registered identity
and N, and `holorm selftest` and the acceptance tests both read it.
Deviations are relative unless the name says otherwise.  All randomness
flows through one seeded generator, so reports are reproducible.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from . import sampling
from .braidgrpd import (BraidWord, InadmissibleColoringError, build_diagram,
                        check_move, crossing_data, edge_gluing_defects,
                        extend_log_coloring, jfunc_eval, log_longitudes,
                        pin_bottom)
from .characters import (LogWeylChar, braid, casimir_relation, char_product,
                         psi, to_z0_char)
from .qdilog import (RootConfig, TWO_PI_I, cyc_dilog, d_const, fusion_f,
                     lambda_dilog, lambda_table, lifted_dilog, qpoch, s_norm)
from .rmatrix import (CrossingData, braiding_op, colored_jones_closed_form,
                      factorized_ops, kashaev_rmat, logdet_braiding,
                      nilpotent_closed_form, rmat, rmat_pinched, transform_rules,
                      weight_basis_closed_form, weight_basis_rmat)
from .weylrep import (Basis, central_scalars, commutant_dim, matrix_power,
                      pi_tensor, rep_matrices, rw_images, rw_images_negative)


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _mrel(A, B) -> float:
    A, B = np.asarray(A), np.asarray(B)
    return float(np.abs(A - B).max() / max(1e-300, np.abs(A).max(), np.abs(B).max()))


def _det_deviation(c: CrossingData, B) -> float:
    """|det_closed / det_LU - 1| for the braiding B of c, formed from
    logarithms so that it stays finite where the determinants overflow."""
    s, logabs = np.linalg.slogdet(B.as_operator())
    return float(abs(np.exp(logdet_braiding(c) - logabs) / s - 1.0))


class _Worst(dict):
    """Worst deviation per identity; .samples counts the evaluations."""

    def __init__(self):
        super().__init__()
        self.samples = {}

    def note(self, key, val):
        old = self.get(key, 0.0)
        # a NaN compares false with everything: once noted it sticks, and
        # the identity fails (max() would drop it)
        self[key] = old if old != old or old >= val else float(val)
        self.samples[key] = self.samples.get(key, 0) + 1


def r2_backward_error(c: CrossingData) -> float:
    """Normwise backward error ||B'B - I|| / (||B'|| ||B||) of Reidemeister II.

    B is the braiding of the positive crossing c and B' that of the negative
    crossing undoing it.  Unlike the entrywise residual, this stays near
    machine precision however badly conditioned B is.
    """
    B = braiding_op(c).as_operator()
    Binv = braiding_op(CrossingData(c.cfg, -1, c.lc2p, c.lc1p, c.lc2, c.lc1,
                                    c.gamma_n, c.gamma_e, c.gamma_s,
                                    c.gamma_w)).as_operator()
    return float(np.linalg.norm(Binv @ B - np.eye(len(B)))
                 / (np.linalg.norm(Binv) * np.linalg.norm(B)))


# ---------------------------------------------------------------- qdilog

def check_qdilog(cfg: RootConfig, rng: np.random.Generator, trials: int = 40) -> dict:
    N = cfg.N
    w = cfg.omega_pow
    out = _Worst()
    for _ in range(trials):
        f = sampling.random_flattening(cfg, rng)
        z0, z1 = f.zeta0, f.zeta1
        lam = lambda_table(cfg, f)
        # recurrence route vs reduced route, n in [-N, N]
        for n in range(-N, N + 1):
            route = lam[0] * w(-n * z1) * cyc_dilog(cfg, z0, n)
            out.note("lambda recurrence", _rel(route, lambda_dilog(cfg, f, n)))
            routeN = lam[0] * w(-(n + N) * z1) * cyc_dilog(cfg, z0, n + N)
            out.note("lambda periodicity", _rel(route, routeN))
        # shifts
        for k in (-2, -1, 1, 2):
            out.note("lambda shift (zeta0)",
                     _rel(lambda_dilog(cfg, f.shifted(k0=k), 1),
                          w(k * z1 / 2) * lambda_dilog(cfg, f, 1 + k)))
            out.note("lambda shift (zeta1)",
                     _rel(lambda_dilog(cfg, f.shifted(k1=k), 2),
                          w(-k * z0 / 2 - 2 * k) * lambda_dilog(cfg, f, 2)))
        # product over a period
        out.note("lambda product",
                 _rel(np.prod(lam),
                      w(-N * (N - 1) * z1 / 2) * cmath.exp(-lifted_dilog(f) / TWO_PI_I)))
        # inverse sum
        for (k, l) in ((0, 0), (1, 0), (2, 1), (0, 3 % N)):
            tot = sum(w(n) * lambda_dilog(cfg, f, n + k)
                      / lambda_dilog(cfg, f, n + l - 1) for n in range(N))
            expect = (N * w(-k) * w((N - 1) * (z0 + z1)) if (l - k) % N == 0 else 0.0)
            out.note("lambda inverse sum", abs(tot - expect) / max(1.0, abs(expect)))
        # Fourier pair and its composition
        S = s_norm(cfg, f)
        dual = f.dual()
        for n in range(N):
            lhs = sum(lambda_dilog(cfg, f, k) * w(n * k) for k in range(N))
            out.note("Fourier transform",
                     _rel(lhs, w((N - 1) * z0) * N / S / lambda_dilog(cfg, dual, n - 1)))
            lhs2 = sum(w(-n * k) / lambda_dilog(cfg, f, k) for k in range(N))
            out.note("Fourier inverse",
                     _rel(lhs2, S * w((N - 1) * z1) * w(n) * lambda_dilog(cfg, dual, n)))
        # composing the closed-form transform with the inverse DFT returns
        # the Lambda table (N * identity after normalization)
        G = [w((N - 1) * z0) * N / S / lambda_dilog(cfg, dual, n - 1)
             for n in range(N)]
        back = [sum(G[n] * w(-n * m) for n in range(N)) / N for m in range(N)]
        out.note("Fourier roundtrip",
                 max(_rel(back[m], lambda_dilog(cfg, f, m)) for m in range(N)))
        # S identities
        out.note("S symmetry", _rel(S, s_norm(cfg, dual)))
        for n in (-1, 1, 2):
            out.note("S shift (zeta0)", _rel(s_norm(cfg, f.shifted(k0=n)), S))
            out.note("S shift (zeta1)", _rel(s_norm(cfg, f.shifted(k1=n)), S))
        out.note("S Nth power",
                 _rel(S ** N, d_const(cfg, 0.0) ** N
                      * cmath.exp((lifted_dilog(f) + lifted_dilog(dual)) / TWO_PI_I)))
        # factorization of unity
        prodB = np.prod([1 - w(z0 + k) for k in range(N)])
        out.note("unity factorization", _rel(prodB, 1 - cmath.exp(TWO_PI_I * z0)))
        # q-series transformation
        nn = int(rng.integers(0, N))
        lhsq = sum(w(k * (z1 - nn)) / cyc_dilog(cfg, z0, k) for k in range(N))
        rhsq = w(nn) * w((N - 1) * (z0 + z1)) * sum(
            w(-k * z0) / cyc_dilog(cfg, -z1 + nn, k) for k in range(N))
        out.note("q-series transform", _rel(lhsq, rhsq))
        # fusion identities
        alpha = z0 + 1j * rng.uniform(0.1, 0.9)
        beta = z0 - 0.3 + 0.2j * rng.uniform(-1, 1)
        g = (1 - cmath.exp(TWO_PI_I * alpha)) / (1 - cmath.exp(TWO_PI_I * beta))
        gamma = cmath.log(g) / TWO_PI_I
        base = fusion_f(cfg, alpha, beta, gamma)
        for (k, l, m) in ((1, 0, 0), (0, 1, -1), (2, -1, 1)):
            lhsf = fusion_f(cfg, alpha + k, beta + l, gamma + m)
            rhsf = base * (cyc_dilog(cfg, alpha - beta - 1, k - l)
                           * cyc_dilog(cfg, beta, l) * cyc_dilog(cfg, -gamma, -m)) / (
                w(l * (gamma + m)) * w(m * (beta + 1)) * cyc_dilog(cfg, alpha, k)
                * cyc_dilog(cfg, alpha - beta - gamma - 1, k - l - m))
            out.note("fusion shift identity",
                     abs(lhsf - rhsf) / max(1.0, abs(base)))
        for (k, l, m) in ((1, 0, 0), (2, 1, -1), (0, 2, 1)):
            lhsf = fusion_f(cfg, alpha + k, alpha + l - 1, m)
            mb_m, mb_kl = (-m) % N, (k - l) % N
            rhsf = (N * (1 - w(alpha + l)) / (1 - cmath.exp(TWO_PI_I * alpha))
                    * w(mb_m * (alpha + l)) / cyc_dilog(cfg, alpha + l, mb_kl)
                    * qpoch(cfg.omega, cfg.omega, mb_kl + mb_m)
                    / (qpoch(cfg.omega, cfg.omega, mb_kl)
                       * qpoch(cfg.omega, cfg.omega, mb_m)))
            out.note("fusion integer form", abs(lhsf - rhsf) / max(1.0, abs(lhsf)))
        # fusion Nth power (beta plays -zeta1, gamma plays -zeta0)
        b, g2 = -z1, -z0
        lhsP = sum(w(k * g2) / cyc_dilog(cfg, b, k) for k in range(N)) ** N
        d0 = d_const(cfg, 0.0)
        rhsP = (d0 ** N * w(N * (N - 1) * g2)
                * (1 - cmath.exp(-TWO_PI_I * g2)) ** N
                * (1 - cmath.exp(TWO_PI_I * b)) ** N
                / (1 - w(-g2)) ** N / (1 - w(b)) ** N
                / d_const(cfg, -g2) ** N / d_const(cfg, b) ** N)
        out.note("fusion Nth power", _rel(lhsP, rhsP))
    return out


# ------------------------------------------------------------ characters

def check_characters(cfg: RootConfig, rng: np.random.Generator,
                     trials: int = 500) -> dict:
    out = _Worst()
    for _ in range(trials):
        c1, c2 = sampling.random_char(rng), sampling.random_char(rng)
        o = braid(c1, c2, +1)
        if not o.admissible:
            continue
        back = braid(o.chi2p, o.chi1p, -1)
        if back.admissible:
            out.note("inverse pair", max(
                max(map(abs, np.subtract(back.chi2p.as_tuple(), c1.as_tuple()))),
                max(map(abs, np.subtract(back.chi1p.as_tuple(), c2.as_tuple())))))
        out.note("meridian preservation",
                 max(abs(o.chi1p.m - c1.m), abs(o.chi2p.m - c2.m)))
        p_in = char_product(to_z0_char(c1), to_z0_char(c2))
        p_out = char_product(to_z0_char(o.chi2p), to_z0_char(o.chi1p))
        out.note("product preservation", float(
            max(np.abs(p_in.lower - p_out.lower).max(),
                np.abs(p_in.upper - p_out.upper).max())))
        out.note("a balance", abs(c1.a * c2.a - o.chi1p.a * o.chi2p.a))
        out.note("det psi", abs(np.linalg.det(psi(c1)) - 1.0))
        mu = cmath.log(c1.m) / TWO_PI_I
        out.note("Casimir relation", casimir_relation(c1, mu))
    for _ in range(trials * 4):
        lhs = rhs = tuple(sampling.random_char(rng) for _ in range(3))
        for i in (0, 1, 0):
            lhs = lhs and _sigma(lhs, i)
        for i in (1, 0, 1):
            rhs = rhs and _sigma(rhs, i)
        if lhs is None or rhs is None:
            continue
        out.note("braid relation", max(
            abs(x - y) for u, v in zip(lhs, rhs)
            for x, y in zip(u.as_tuple(), v.as_tuple())))
    return out


def _sigma(t: tuple, i: int):
    """Braid generator i (0 or 1) on a triple of characters; None if inadmissible."""
    o = braid(t[i], t[i + 1], +1)
    if not o.admissible:
        return None
    return t[:i] + (o.chi2p, o.chi1p) + t[i + 2:]


# --------------------------------------------------------------- weylrep

def check_weylrep(cfg: RootConfig, rng: np.random.Generator,
                  trials: int = 10) -> dict:
    N = cfg.N
    xi = cfg.xi
    out = _Worst()
    eyeN = np.eye(N)
    for _ in range(trials):
        lc = sampling.random_logchar(rng)
        for basis in (Basis.WEIGHT, Basis.FOURIER):
            g = rep_matrices(cfg, lc, basis)
            out.note("Weyl relation", _mrel(g.x @ g.y, cfg.omega * g.y @ g.x))
            out.note("KE = xi^2 EK", _mrel(g.K @ g.E, xi ** 2 * g.E @ g.K))
            out.note("KF = xi^-2 FK", _mrel(g.K @ g.F, g.F @ g.K / xi ** 2))
            out.note("[E,F] relation",
                     _mrel(g.E @ g.F - g.F @ g.E,
                           (xi - 1 / xi) * (g.K - np.linalg.inv(g.K))))
            cas = cfg.omega_pow(lc.mu + 0.5) + cfg.omega_pow(-(lc.mu + 0.5))
            out.note("Casimir scalar", _mrel(g.Omega, cas * eyeN))
            sc = central_scalars(cfg, lc)
            for key, M in (("KN", g.K), ("EN", g.E), ("FN", g.F)):
                out.note("central scalars",
                         _mrel(matrix_power(M, N), sc[key] * eyeN))
        # tensor grading
        lc2 = sampling.random_logchar(rng)
        g1 = rep_matrices(cfg, lc, Basis.FOURIER)
        g2 = rep_matrices(cfg, lc2, Basis.FOURIER)
        K12 = np.kron(g1.K, g2.K)
        E12 = np.kron(g1.E, g2.K) + np.kron(eyeN, g2.E)
        F12 = np.kron(g1.F, eyeN) + np.kron(np.linalg.inv(g1.K), g2.F)
        prod = char_product(to_z0_char(lc.char()), to_z0_char(lc2.char()))
        eye2 = np.eye(N * N)
        out.note("tensor grading", max(
            _mrel(matrix_power(K12, N), prod.chi_KN * eye2),
            _mrel(matrix_power(E12, N), prod.chi_EN * eye2),
            _mrel(matrix_power(F12, N), prod.chi_FN * eye2)))
    # commutant probes across the scalar/parabolic/reducible cases
    for _ in range(max(4, trials // 2)):
        lc = sampling.random_logchar(rng)
        out.note("commutant generic",
                 abs(commutant_dim(rep_matrices(cfg, lc, Basis.FOURIER)) - 1))
    out.note("commutant scalar case",
             abs(commutant_dim(rep_matrices(cfg, LogWeylChar(-0.5, 0.0, -0.5),
                                            Basis.FOURIER)) - 1))
    out.note("commutant parabolic case",
             abs(commutant_dim(rep_matrices(cfg, LogWeylChar(0.31, 0.11, 0.5),
                                            Basis.FOURIER)) - 1))
    if N >= 3:
        out.note("commutant reducible case",
                 abs(commutant_dim(rep_matrices(cfg, LogWeylChar(0.5, 0.37, 0.5),
                                                Basis.FOURIER)) - 1))
    return out


# --------------------------------------------------------------- rmatrix

def check_rmatrix(cfg: RootConfig, rng: np.random.Generator,
                  trials: int = 8) -> dict:
    N = cfg.N
    w = cfg.omega_pow
    out = _Worst()
    for sign in (+1, -1):
        for _ in range(trials):
            c = sampling.random_crossing(cfg, rng, sign)
            R = rmat(c)
            act = R.as_operator()
            piu = pi_tensor(cfg, c.lc1, c.lc2)
            if sign == +1:
                imgs = rw_images(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)
            else:
                imgs = rw_images_negative(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)
            for key in ("x1", "x2", "y1inv", "y2", "z1", "z2"):
                out.note("intertwining", _mrel(act @ piu[key], imgs[key] @ act))
            B = braiding_op(c)
            out.note("factorization",
                     _mrel(B.entries, factorized_ops(c).braiding_matrix()))
            kap = c.resolved_kappa()
            for p in (-3, 2):
                out.note("kappa independence",
                         _mrel(rmat(replace(c, kappa=kap + p)).entries, R.entries))
            out.note("determinant closed vs LU", _det_deviation(c, B))
            ks = {r: int(rng.integers(-2, 3)) for r in "NWSE"}
            rel_g = transform_rules(c, gamma_shifts=ks)
            out.note("gamma shift rule",
                     _mrel(rmat(rel_g.crossing).entries, rel_g.predict(R)))
            ls = tuple(int(rng.integers(-2, 3)) for _ in range(4))
            rel_b = transform_rules(c, beta_shifts=ls)
            out.note("beta shift rule",
                     _mrel(rmat(rel_b.crossing).entries, rel_b.predict(R)))
    # recurrences at a positive crossing
    for _ in range(max(2, trials // 2)):
        c = sampling.random_crossing(cfg, rng, +1)
        R4 = rmat(c).entries.reshape(N, N, N, N)
        z0 = c.zeta0()
        scale = np.abs(R4).max()
        al1, al2 = c.lc1.alpha, c.lc2.alpha
        al1p, al2p = c.lc1p.alpha, c.lc2p.alpha
        mu1, mu2 = c.lc1.mu, c.lc2.mu
        for n1 in range(N):
            for n2 in range(N):
                for n1p in range(N):
                    for n2p in range(N):
                        lhs = R4[n1, n2, n1p, n2p]
                        out.note("recurrence i", abs(
                            lhs - R4[n1, n2, n1p, (n2p - 1) % N] * w(-al2p - mu2)
                            * (1 - w(z0["E"] + n2p - n1p))
                            / (1 - w(z0["N"] + n2p - n1))) / scale)
                        out.note("recurrence ii", abs(
                            lhs - R4[n1, n2, (n1p - 1) % N, n2p] * w(-al1p + mu1)
                            * (1 - w(z0["S"] + n2 - n1p + 1))
                            / (1 - w(z0["E"] + n2p - n1p + 1))) / scale)
                        out.note("recurrence iii", abs(
                            lhs - R4[n1, (n2 - 1) % N, n1p, n2p] * w(al2 + mu2 + 1)
                            * (1 - w(z0["W"] - 1 + n2 - n1))
                            / (1 - w(z0["S"] + n2 - n1p))) / scale)
                        out.note("recurrence iv", abs(
                            lhs - R4[(n1 - 1) % N, n2, n1p, n2p] * w(al1 - mu1 - 1)
                            * (1 - w(z0["N"] + n2p - n1 + 1))
                            / (1 - w(z0["W"] + n2 - n1))) / scale)
    # R2 contraction as a normwise backward error
    for _ in range(trials):
        out.note("R2 contraction",
                 r2_backward_error(sampling.random_crossing(cfg, rng, +1)))
    # pinched limit (absolute deviation) and closed pinched forms
    for _ in range(max(2, trials // 3)):
        prm = _random_pinched_params(rng)
        for sign in (+1, -1):
            try:
                cpin = sampling.standard_pinched_crossing(cfg, *prm, sign=sign)
            except Exception:
                continue
            lim = _pinched_limit(cfg, cpin)
            out.note("pinched limit (abs)",
                     float(np.abs(lim - rmat_pinched(cpin).entries).max()))
    out.note("pinched R2 contraction", r2_backward_error(
        sampling.standard_pinched_crossing(cfg, *_random_pinched_params(rng))))
    # Kashaev: closed pinched form times omega^(1/2) is the canonical matrix
    K = kashaev_rmat(cfg)
    ck = sampling.kashaev_crossing(cfg)
    out.note("Kashaev normalization", _mrel(rmat_pinched(ck).entries * w(0.5), K.entries))
    B = K.braiding().as_operator()
    B1, B2 = np.kron(B, np.eye(N)), np.kron(np.eye(N), B)
    out.note("Kashaev braid relation", _mrel(B1 @ B2 @ B1, B2 @ B1 @ B2))
    # weight basis: conjugation vs closed form vs specializations
    prm = _random_pinched_params(rng)
    cpin = sampling.standard_pinched_crossing(cfg, *prm)
    out.note("weight-basis closed form",
             _mrel(weight_basis_rmat(cpin).entries, weight_basis_closed_form(cpin)))
    cj = sampling.kashaev_crossing(cfg)
    out.note("colored-Jones form",
             _mrel(weight_basis_rmat(cj).entries, colored_jones_closed_form(cfg)))
    al1 = prm[2]  # reuse mu1 as the nilpotent alpha1 = mu1
    cnil = sampling.standard_pinched_crossing(cfg, al1, prm[1], al1, prm[3],
                                              alpha2p=prm[1])
    out.note("nilpotent form",
             _mrel(weight_basis_rmat(cnil).entries, nilpotent_closed_form(cnil)))
    return out


def _random_pinched_params(rng) -> tuple:
    return (complex(rng.uniform(0.1, 0.4) + 0.05j * rng.uniform(-1, 1)),
            complex(rng.uniform(-0.4, -0.1) + 0.05j * rng.uniform(-1, 1)),
            complex(rng.uniform(0.05, 0.3) - 0.03j * rng.uniform(-1, 1)),
            complex(rng.uniform(0.3, 0.45) + 0.04j * rng.uniform(-1, 1)))


def _pinched_limit(cfg: RootConfig, cpin: CrossingData) -> np.ndarray:
    """Richardson-extrapolated limit of the generic formula toward a pinched
    point, from seven perturbations beta_2 + 1e-2 / 2**k."""
    def near(x, ref):
        """The logarithm of x (over 2 pi i) on the branch closest to ref."""
        lg = cmath.log(x) / TWO_PI_I
        return lg + round((ref - lg).real)

    def perturbed(t):
        lc2t = replace(cpin.lc2, beta=cpin.lc2.beta + t)
        outt = braid(cpin.lc1.char(), lc2t.char(), cpin.sign)
        if not outt.admissible or outt.pinched:
            raise RuntimeError("perturbation left the admissible range")
        return rmat(sampling.letter_crossing(
            cfg, cpin.sign, cpin.lc1, lc2t, cpin.gamma_n,
            near(outt.chi1p.b, cpin.lc1p.beta), near(outt.chi2p.b, cpin.lc2p.beta),
            near(outt.chi2p.a, cpin.lc2p.alpha))).entries

    ts = [1e-2 / 2 ** k for k in range(7)]
    tab = [perturbed(t) for t in ts]
    for j in range(1, len(tab)):
        for i in range(len(tab) - 1, j - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * ts[i] / (ts[i - j] - ts[i])
    return tab[-1]


# -------------------------------------------------------------- braidgrpd

def check_braidgrpd(cfg: RootConfig, rng: np.random.Generator,
                    trials: int = 5) -> dict:
    N = cfg.N
    out = _Worst()
    # R2 move at the diagram level (bottom boundary must equal the top one)
    d2 = build_diagram(BraidWord(2, (1, -1)))
    for _ in range(trials):
        lc = sampling.random_coloring(cfg, d2, rng)
        top = lc.top(d2)
        lc = extend_log_coloring(d2, *top, lc.mu, *pin_bottom(d2, *top))
        out.note("R2 move", float(np.abs(jfunc_eval(cfg, d2, lc)
                                         - np.eye(N * N)).max()))
    # composition functoriality: the word factors through its crossings
    d_ab = build_diagram(BraidWord(3, (1, 2)))
    for _ in range(trials):
        lc = sampling.random_coloring(cfg, d_ab, rng)
        full = jfunc_eval(cfg, d_ab, lc)
        c0, c1 = d_ab.crossings
        m0 = np.kron(braiding_op(crossing_data(cfg, d_ab, lc, c0)).as_operator(),
                     np.eye(N))
        m1 = np.kron(np.eye(N),
                     braiding_op(crossing_data(cfg, d_ab, lc, c1)).as_operator())
        out.note("composition functoriality", _mrel(full, m1 @ m0))
    # edge gluing (absolute defect)
    for word in ((1, -1), (1, 1), (1, 2, 1), (2, 1, -2, 1)):
        width = max(abs(x) for x in word) + 1
        dd = build_diagram(BraidWord(width, word))
        lc = sampling.random_coloring(cfg, dd, rng)
        defs = edge_gluing_defects(cfg, dd, lc)
        if defs:
            out.note("edge gluing (abs)", max(defs))
    # log-parameter dependence
    dd = build_diagram(BraidWord(3, (1, 2, 1)))
    for _ in range(trials):
        lc0 = sampling.random_coloring(cfg, dd, rng)
        b_over = {s: lc0.beta[s] + int(rng.integers(-2, 3))
                  for s in dd.internal_segments()}
        g_over = {r: lc0.gamma[r] + int(rng.integers(-2, 3))
                  for r in dd.internal_regions()}
        pin_b, pin_g = pin_bottom(dd, *lc0.bottom(dd))
        lc1 = extend_log_coloring(dd, *lc0.top(dd), lc0.mu,
                                  {**b_over, **pin_b}, {**g_over, **pin_g})
        lam0, lam1 = log_longitudes(dd, lc0), log_longitudes(dd, lc1)
        phase = cmath.exp(-TWO_PI_I / N * sum(
            (l1 - l0) * m for l1, l0, m in zip(lam1, lam0, lc0.mu)))
        out.note("log-decoration dependence",
                 _mrel(jfunc_eval(cfg, dd, lc1),
                       phase * jfunc_eval(cfg, dd, lc0)))
    # R3 move
    good = 0
    for _ in range(trials * 6):
        if good >= trials:
            break
        try:
            before, after = sampling.matched_pair_colorings(
                cfg, rng, (1, 2, 1), (2, 1, 2), 3)
        except RuntimeError:
            continue
        rep = check_move(cfg, before, after, "R3")
        if not rep.eligible and "mismatch" in rep.reason:
            continue
        good += 1
        out.note("R3 move", rep.deviation)
    # determinant cocycle over the double diagram
    loop = build_diagram(BraidWord(3, (1, 2, 1, -1, -2, -1)))
    done = 0
    for _ in range(trials * 4):
        if done >= max(2, trials // 2):
            break
        try:
            lc = sampling.random_coloring(cfg, loop, rng)
        except RuntimeError:
            continue
        # impose boundary match bottom = top, then zero the longitudes
        top = lc.top(loop)
        pins = pin_bottom(loop, *top)
        try:
            lc = extend_log_coloring(loop, *top, lc.mu, *pins)
        except InadmissibleColoringError:
            continue
        lc = sampling._tune_longitudes(loop, lc, pins, [0.0, 0.0, 0.0])
        if lc is None:
            continue
        if max(abs(x) for x in log_longitudes(loop, lc)) > 1e-9:
            continue
        prod = np.exp(sum(logdet_braiding(crossing_data(cfg, loop, lc, c))
                          for c in loop.crossings))
        done += 1
        out.note("determinant cocycle", min(abs(prod - 1.0), abs(prod + 1.0)))
    return out


# ----------------------------------------------------------------- runner

@dataclass(frozen=True)
class Identity:
    """A registered identity: the suite that evaluates it, its tolerance, and
    the smallest N at which it applies."""

    name: str
    suite: str
    tol: float
    min_N: int = 2


IDENTITIES = {i.name: i for i in (
    Identity("lambda recurrence", "qdilog", 1e-10),
    Identity("lambda periodicity", "qdilog", 1e-10),
    Identity("lambda shift (zeta0)", "qdilog", 1e-8),
    Identity("lambda shift (zeta1)", "qdilog", 1e-8),
    Identity("lambda product", "qdilog", 1e-8),
    Identity("lambda inverse sum", "qdilog", 1e-8),
    Identity("Fourier transform", "qdilog", 1e-8),
    Identity("Fourier inverse", "qdilog", 1e-8),
    Identity("Fourier roundtrip", "qdilog", 1e-8),
    Identity("S symmetry", "qdilog", 1e-8),
    Identity("S shift (zeta0)", "qdilog", 1e-8),
    Identity("S shift (zeta1)", "qdilog", 1e-8),
    Identity("S Nth power", "qdilog", 1e-8),
    Identity("unity factorization", "qdilog", 1e-10),
    Identity("q-series transform", "qdilog", 1e-8),
    Identity("fusion shift identity", "qdilog", 1e-8),
    Identity("fusion integer form", "qdilog", 1e-8),
    Identity("fusion Nth power", "qdilog", 1e-8),
    Identity("inverse pair", "characters", 1e-10),
    Identity("braid relation", "characters", 1e-9),
    Identity("meridian preservation", "characters", 0.0),
    Identity("product preservation", "characters", 1e-10),
    Identity("a balance", "characters", 1e-12),
    Identity("det psi", "characters", 1e-12),
    Identity("Casimir relation", "characters", 1e-10),
    Identity("Weyl relation", "weylrep", 1e-10),
    Identity("KE = xi^2 EK", "weylrep", 1e-10),
    Identity("KF = xi^-2 FK", "weylrep", 1e-10),
    Identity("[E,F] relation", "weylrep", 1e-10),
    Identity("Casimir scalar", "weylrep", 1e-10),
    Identity("central scalars", "weylrep", 1e-9),
    Identity("tensor grading", "weylrep", 1e-8),
    Identity("commutant generic", "weylrep", 0.0),
    Identity("commutant scalar case", "weylrep", 0.0),
    Identity("commutant parabolic case", "weylrep", 0.0),
    Identity("commutant reducible case", "weylrep", 0.0, min_N=3),
    Identity("intertwining", "rmatrix", 1e-8),
    Identity("factorization", "rmatrix", 1e-9),
    Identity("kappa independence", "rmatrix", 1e-12),
    Identity("determinant closed vs LU", "rmatrix", 1e-7),
    Identity("gamma shift rule", "rmatrix", 1e-8),
    Identity("beta shift rule", "rmatrix", 1e-8),
    Identity("recurrence i", "rmatrix", 1e-8),
    Identity("recurrence ii", "rmatrix", 1e-8),
    Identity("recurrence iii", "rmatrix", 1e-8),
    Identity("recurrence iv", "rmatrix", 1e-8),
    Identity("R2 contraction", "rmatrix", 1e-12),
    Identity("pinched limit (abs)", "rmatrix", 1e-5),
    Identity("pinched R2 contraction", "rmatrix", 1e-12),
    Identity("Kashaev normalization", "rmatrix", 1e-12),
    Identity("Kashaev braid relation", "rmatrix", 1e-10),
    Identity("weight-basis closed form", "rmatrix", 1e-8),
    Identity("colored-Jones form", "rmatrix", 1e-8),
    Identity("nilpotent form", "rmatrix", 1e-8),
    Identity("R2 move", "braidgrpd", 1e-8),
    Identity("R3 move", "braidgrpd", 1e-7),
    Identity("composition functoriality", "braidgrpd", 1e-10),
    Identity("edge gluing (abs)", "braidgrpd", 1e-10),
    Identity("log-decoration dependence", "braidgrpd", 1e-8),
    Identity("determinant cocycle", "braidgrpd", 1e-6),
)}


@dataclass
class CheckResult:
    module: str
    name: str
    N: int
    deviation: float
    tol: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.deviation == self.deviation and self.deviation <= self.tol


def run_all(Ns=(2, 3, 5), seed: int = 7, scale: float = 1.0) -> list:
    """Run every suite at every N; one CheckResult per registered identity and N.

    An identity that its suite evaluated zero times fails with deviation NaN.
    """
    rng = np.random.default_rng(seed)
    results = []
    for N in Ns:
        cfg = RootConfig(N)
        suites = (
            ("qdilog", check_qdilog, max(4, int(30 * scale))),
            ("characters", check_characters, max(40, int(400 * scale))),
            ("weylrep", check_weylrep, max(3, int(8 * scale))),
            ("rmatrix", check_rmatrix, max(2, int(6 * scale))),
            ("braidgrpd", check_braidgrpd, max(2, int(4 * scale))),
        )
        for module, fn, trials in suites:
            out = fn(cfg, rng, trials)
            for ident in IDENTITIES.values():
                if ident.suite != module or N < ident.min_N:
                    continue
                results.append(CheckResult(
                    module, ident.name, N, out.get(ident.name, float("nan")),
                    ident.tol, out.samples.get(ident.name, 0)))
    return results
