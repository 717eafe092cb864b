"""Output checks written apart from the library.

Each check returns a ``Check(name, deviation, tol)``; it passes when the
deviation is finite and at most the tolerance.  No check is an absolute
entrywise comparison: the braiding's condition number grows like e^(cN)
(about 1.6e7 at N=16 and 3.5e14 at N=32), so errors are measured normwise
and tolerances that depend on conditioning scale with cond * eps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.deviation) and self.deviation <= self.tol


def fro_rel(a, b) -> float:
    """||a - b||_F / ||b||_F."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def wrap_phase(x: float) -> float:
    """x reduced to (-pi, pi]."""
    return x - 2 * math.pi * math.ceil((x - math.pi) / (2 * math.pi))


# ------------------------------------------------------------ index layout

def rtensor4(entries) -> np.ndarray:
    """(N^2, N^2) entries[(n1,n2),(n1',n2')] -> R[n1, n2, n1', n2']."""
    n = math.isqrt(entries.shape[0])
    return np.asarray(entries).reshape(n, n, n, n)


def braiding_from_rmat(entries) -> np.ndarray:
    """The braiding's operator[out, in] from R-matrix entries.

    The braiding is the R-matrix followed by the flip of the output pair:
    braiding entries[(n1,n2),(n2',n1')] = R_{n1 n2}^{n1' n2'}, and the
    operator acting on row-major coordinate vectors is their transpose.
    """
    R = rtensor4(entries)
    n = R.shape[0]
    return R.transpose(0, 1, 3, 2).reshape(n * n, n * n).T


def json_matrix(rows) -> np.ndarray:
    """Nested [[re, im], ...] rows -> complex array."""
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def json_complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


# -------------------------------------------------------------- state sums

def apply_slots(X: np.ndarray, op4: np.ndarray, slot: int) -> np.ndarray:
    """Contract op4[out1, out2, in1, in2] into slots (slot, slot+1) of X.

    X has one axis per strand position (slot 0 = position 1, the most
    significant in the row-major flat index) and a trailing batch axis.
    """
    w = X.ndim - 1
    idx = "abcdefghijklmnop"[:w]
    out = list(idx)
    out[slot], out[slot + 1] = "X", "Y"
    sub = f"XY{idx[slot]}{idx[slot + 1]},{idx}z->{''.join(out)}z"
    return np.einsum(sub, op4, X)


def statesum_product(J_V: np.ndarray, V: np.ndarray, ops: list, N: int,
                     width: int) -> Check:
    """J V against the braidings contracted slot by slot onto V.

    ops is [(operator[out, in] of one crossing, its generator position)],
    top crossing first.  Rounding in either route is bounded entrywise by
    a multiple of eps |B_c|...|B_1| |V|, so the error is measured against
    the norm of that absolute-value contraction: each crossing sums N^2
    terms per entry and J V sums N^w.
    """
    X = V.reshape((N,) * width + (V.shape[1],))
    X_abs = np.abs(X)
    for op, pos in ops:
        X = apply_slots(X, op.reshape(N, N, N, N), pos - 1)
        X_abs = apply_slots(X_abs, np.abs(op).reshape(N, N, N, N), pos - 1)
    ref = X.reshape(N ** width, V.shape[1])
    dev = float(np.linalg.norm(J_V - ref) / np.linalg.norm(X_abs))
    tol = 4 * (len(ops) * N * N + N ** width) * EPS
    return Check("state sum vs slot contraction", dev, tol)


def statesum_logdet(J: np.ndarray, crossing_logdets: list, N: int, width: int,
                    cond: float) -> Check:
    """log det J against N^(w-2) * sum of the per-crossing log determinants.

    Each crossing acts as I (x) B (x) I on N^(w-2) copies, so
    det J = prod det(B_c)^(N^(w-2)).  crossing_logdets are complex logs of
    the closed-form determinants.  The deviation is the larger of the
    error in log|det| relative to max(1, |log|det||) and the phase error;
    LU perturbs log det by up to n * eps * cond(J).
    """
    sign, logabs = np.linalg.slogdet(J)
    expect = N ** (width - 2) * sum(crossing_logdets)
    scale = max(1.0, abs(expect.real))
    dev_abs = abs(logabs - expect.real) / scale
    dev_phase = abs(wrap_phase(cmath.phase(complex(sign)) - expect.imag)) / scale
    tol = 1e-10 + J.shape[0] * EPS * cond / scale
    return Check("log det vs closed form", max(dev_abs, dev_phase), tol)


# ---------------------------------------------------------------- crossings

def recurrences(R4: np.ndarray, z0: dict, al: tuple, mu: tuple) -> Check:
    """The four coefficient recurrences (i)-(iv) of a positive crossing.

    Each expresses an entry through its neighbour one step down in one
    index; deviations are relative to max |entry|.
    al = (alpha1, alpha2, alpha1', alpha2'), mu = (mu1, mu2).
    """
    N = R4.shape[0]

    def w(x):  # omega**x
        return np.exp(2j * np.pi * x / N)

    n = np.arange(N)
    n1 = n[:, None, None, None]
    n2 = n[None, :, None, None]
    n1p = n[None, None, :, None]
    n2p = n[None, None, None, :]
    al1, al2, al1p, al2p = al
    mu1, mu2 = mu
    cases = (
        (3, w(-al2p - mu2)
         * (1 - w(z0["E"] + n2p - n1p)) / (1 - w(z0["N"] + n2p - n1))),
        (2, w(-al1p + mu1)
         * (1 - w(z0["S"] + n2 - n1p + 1)) / (1 - w(z0["E"] + n2p - n1p + 1))),
        (1, w(al2 + mu2 + 1)
         * (1 - w(z0["W"] - 1 + n2 - n1)) / (1 - w(z0["S"] + n2 - n1p))),
        (0, w(al1 - mu1 - 1)
         * (1 - w(z0["N"] + n2p - n1 + 1)) / (1 - w(z0["W"] + n2 - n1))),
    )
    scale = np.abs(R4).max()
    dev = max(float(np.abs(R4 - np.roll(R4, 1, axis=ax) * fac).max())
              for ax, fac in cases)
    return Check("recurrences i-iv", dev / scale, 1e-11)


def intertwining(act: np.ndarray, pi_in: dict, pi_out: dict) -> Check:
    """R pi(u) = rho(u) R for the six generators, normwise relative.

    The error of each side is of order eps times the product of the norms,
    so the deviation is divided by ||R|| (||pi(u)|| + ||rho(u)||).
    """
    nA = np.linalg.norm(act)
    dev = 0.0
    for key, P in pi_in.items():
        Q = pi_out[key]
        d = np.linalg.norm(act @ P - Q @ act) / (
            nA * (np.linalg.norm(P) + np.linalg.norm(Q)))
        dev = max(dev, float(d))
    return Check("intertwining", dev, 1e4 * act.shape[0] * EPS)


def factorization(braiding_entries: np.ndarray, factored: np.ndarray) -> Check:
    """Braiding entries against the composed four-dilogarithm factors."""
    return Check("four-dilogarithm factorization",
                 fro_rel(braiding_entries, factored), 1e-12)


def determinant(name: str, det: complex, B: np.ndarray) -> Check:
    """A reported determinant against slogdet of the braiding operator.

    Compared as logs, so neither side has to be representable as a float
    power; LU moves log det by up to n * eps * cond(B), which sets the
    tolerance (cond estimated in the 1-norm).
    """
    sign, logabs = np.linalg.slogdet(B)
    if not (det != 0 and cmath.isfinite(det)):
        return Check(name, math.inf, 0.0)
    d = cmath.log(det)
    dev = max(abs(d.real - logabs),
              abs(wrap_phase(d.imag - cmath.phase(complex(sign)))))
    cond = float(np.linalg.cond(B, 1))
    return Check(name, dev, 1e-10 + B.shape[0] * EPS * cond)


def backward_r2(B: np.ndarray, B_inv_crossing: np.ndarray, name: str) -> Check:
    """Reidemeister II as a backward error: ||B' B - I|| / (||B'|| ||B||)."""
    n = B.shape[0]
    dev = float(np.linalg.norm(B_inv_crossing @ B - np.eye(n))
                / (np.linalg.norm(B_inv_crossing) * np.linalg.norm(B)))
    return Check(name, dev, 64 * n * EPS)


def braid_relation(B: np.ndarray, N: int) -> Check:
    """B1 B2 B1 = B2 B1 B2 on three strands, normwise relative."""
    eye = np.eye(N, dtype=complex)
    B1, B2 = np.kron(B, eye), np.kron(eye, B)
    lhs, rhs = B1 @ B2 @ B1, B2 @ B1 @ B2
    return Check("Kashaev braid relation", fro_rel(lhs, rhs), 1e-11)


# -------------------------------------------------------------- dilogarithm

def li2_mpmath(z: complex, li2_value: complex) -> Check:
    """Li2 against mpmath.polylog(2, z), relative to max(1, |Li2|)."""
    import mpmath
    ref = complex(mpmath.polylog(2, mpmath.mpc(z.real, z.imag)))
    return Check("li2 vs mpmath", abs(li2_value - ref) / max(1.0, abs(ref)), 1e-12)


def lifted_dilog_mpmath(zeta0: complex, zeta1: complex, value: complex) -> Check:
    """L(zeta0, zeta1) against the defining formula evaluated in mpmath.

    L = Li2(e^{2 pi i zeta0}) + (2 pi i)^2 zeta0 zeta1 / 2
        + 2 pi i zeta0 Log(1 - e^{2 pi i zeta0}).
    """
    import mpmath
    with mpmath.workdps(30):
        tpi = 2j * mpmath.pi
        z0, z1 = mpmath.mpc(zeta0.real, zeta0.imag), mpmath.mpc(zeta1.real, zeta1.imag)
        e = mpmath.exp(tpi * z0)
        ref = complex(mpmath.polylog(2, e) + tpi ** 2 * z0 * z1 / 2
                      + tpi * z0 * mpmath.log(1 - e))
    return Check("lifted_dilog vs mpmath",
                 abs(value - ref) / max(1.0, abs(ref)), 1e-12)
