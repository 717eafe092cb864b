"""Cyclic N-dimensional modules of the Weyl algebra and their quantum-group structure.

The module V(alpha, beta, mu) is C^N with x, y acting by a weighted shift and
a diagonal (which is which depends on the basis).  The quantum-group
generators K, E, F act through the homomorphism K = x, E = xi*y*(z - x),
F = y^{-1}(1 - (zx)^{-1}); all matrices here are dense complex arrays.

Two distinguished bases: WEIGHT (x diagonal) and FOURIER (y diagonal); the
R-matrix coefficients elsewhere in the library are taken in the FOURIER basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .characters import LogWeylChar
from .qdilog import RootConfig


class Basis(Enum):
    WEIGHT = "weight"
    FOURIER = "fourier"


@dataclass(frozen=True)
class GenMatrices:
    """Matrices of the Weyl generators and the quantum-group generators they induce."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    K: np.ndarray
    E: np.ndarray
    F: np.ndarray
    Omega: np.ndarray


def _placed(vals: np.ndarray, rows: np.ndarray, N: int) -> np.ndarray:
    """Stack of N x N matrices with vals[..., n] (or vals[..., 0] for all n)
    at (rows[n], n), zero elsewhere."""
    M = np.zeros(vals.shape[:-1] + (N, N), dtype=complex)
    M[..., rows, np.arange(N)] = vals
    return M


def _weyl_xyz(cfg: RootConfig, lc: LogWeylChar, basis: Basis) -> tuple:
    """The matrices (x, y, z) of V(alpha, beta, mu), as rep_matrices
    documents them."""
    N = cfg.N
    n = np.arange(N)
    alpha, beta, mu = (np.asarray(v, dtype=complex)[..., None]
                       for v in (lc.alpha, lc.beta, lc.mu))
    down = (n - 1) % N  # the shift sends basis vector n to n - 1 mod N
    if basis == Basis.WEIGHT:
        x = _placed(cfg.omega_pow(alpha - n), n, N)
        y = _placed(cfg.omega_pow(beta), down, N)
    else:
        x = _placed(cfg.omega_pow(alpha), down, N)
        y = _placed(cfg.omega_pow(beta + n), n, N)
    return x, y, cfg.omega_pow(mu)[..., None] * np.eye(N, dtype=complex)


def rep_matrices(cfg: RootConfig, lc: LogWeylChar, basis: Basis = Basis.FOURIER) -> GenMatrices:
    """Generator matrices of V(alpha, beta, mu) in the requested basis.

    WEIGHT:  x v_n = omega**(alpha-n) v_n,  y v_n = omega**beta v_{n-1}.
    FOURIER: x w_n = omega**alpha w_{n-1},  y w_n = omega**(beta+n) w_n.
    The logs are complex numbers, or equal-shape arrays for a stack of
    modules: then every matrix is a stack of that shape.
    """
    N = cfg.N
    x, y, z = _weyl_xyz(cfg, lc, basis)
    xi = cfg.xi
    K = x
    E = xi * y @ (z - x)
    F = np.linalg.inv(y) @ (np.eye(N) - np.linalg.inv(z @ x))
    Omega = E @ F + K / xi + xi * np.linalg.inv(K)
    return GenMatrices(x=x, y=y, z=z, K=K, E=E, F=F, Omega=Omega)


def fourier_matrix(cfg: RootConfig) -> np.ndarray:
    """Change of basis G with (FOURIER vector n) = sum_k omega**(nk) (WEIGHT vector k)."""
    N = cfg.N
    return np.array([[cfg.omega_pow(n * k) for n in range(N)] for k in range(N)],
                    dtype=complex)


def matrix_power(M: np.ndarray, n: int) -> np.ndarray:
    """Repeated multiplication (exactness over speed for small N), of one
    matrix or of each matrix of a stack."""
    out = np.eye(M.shape[-1], dtype=complex)
    for _ in range(n):
        out = out @ M
    return out


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, as one broadcast product."""
    (m, n), (p, q) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(m * p, n * q)


def _pi2(cfg: RootConfig, lc1: LogWeylChar, lc2: LogWeylChar, inverted: tuple) -> tuple:
    """Tensor-product matrices {x1, y1, z1, x2, y2, z2} (in that order) of
    the elementary generators on V(lc1) (x) V(lc2), one crossing's pair, and
    the inverses of those named in inverted (in its order): the kron of the
    inverted N x N factor with the identity, never an inverse of the N^2 x
    N^2 product."""
    eye = np.eye(cfg.N, dtype=complex)
    factors = {}
    for i, lc in (("1", lc1), ("2", lc2)):
        factors.update(zip((k + i for k in "xyz"), _weyl_xyz(cfg, lc, Basis.FOURIER)))

    def placed(key, M):
        return _kron(M, eye) if key.endswith("1") else _kron(eye, M)
    return ({k: placed(k, M) for k, M in factors.items()},
            {k: placed(k, np.linalg.inv(factors[k])) for k in inverted})


def pi_tensor(cfg: RootConfig, lc1: LogWeylChar, lc2: LogWeylChar) -> dict:
    """Generator matrices {x1, x2, y1inv, y2, z1, z2} of the unprimed tensor
    action on one crossing's input pair."""
    m, inv = _pi2(cfg, lc1, lc2, ("y1",))
    return {"x1": m["x1"], "x2": m["x2"], "y1inv": inv["y1"], "y2": m["y2"],
            "z1": m["z1"], "z2": m["z2"]}


COND_MAX = 1e12  # condition number beyond which a braiding element g counts as singular


def _checked_inv(g: np.ndarray, what: str) -> np.ndarray:
    """inv(g) of one matrix, unless cond_2(g) > COND_MAX."""
    if np.linalg.cond(g) > COND_MAX:
        raise ValueError(f"{what} is numerically singular")
    return np.linalg.inv(g)


def rw_images(cfg: RootConfig, lc1: LogWeylChar, lc2: LogWeylChar,
              lc1p: LogWeylChar, lc2p: LogWeylChar) -> dict:
    """Matrices of the braiding automorphism on generators, in the primed action.

    Each generator u of the doubled Weyl algebra is sent to an explicit
    rational expression; this returns that expression evaluated, for one
    crossing, in the representation attached to the *output*
    log-characters (lc1p, lc2p).  The input logs lc1 and lc2 are not read;
    callers, perfbench among them, pass all four by position.
    """
    (x1, y1, z1, x2, y2, z2), (x1i, x2i, y1i, y2i, z2i) = (
        m.values() for m in _pi2(cfg, lc1p, lc2p, ("x1", "x2", "y1", "y2", "z2")))
    eye = np.eye(x1.shape[-1], dtype=complex)
    g = eye - x1i @ y1 @ (z1 - x1) @ y2i @ (x2 - z2i)
    gi = _checked_inv(g, "braiding element g")
    return {
        "x1": x1 @ g,
        "x2": gi @ x2,
        "y1inv": y2i + (y1i - z2i @ y2i) @ x2i,
        "y2": z1 @ z2i @ y1 + (y2 - z2i @ y1) @ x1,
        "z1": z1, "z2": z2,
    }


def rw_images_negative(cfg: RootConfig, lc1: LogWeylChar, lc2: LogWeylChar,
                       lc1p: LogWeylChar, lc2p: LogWeylChar) -> dict:
    """Generator images intertwined by the negative R-matrix.

    The negative crossing realizes the inverse braiding automorphism
    conjugated by the tensor swap; on generators it reads
        x1 -> g x1,   x2 -> x2 g^{-1},
        y1 -> y2 + (y1 - z2 y2) x2^{-1},
        y2^{-1} -> (z2/z1) y1^{-1} + (y2^{-1} - z2 y1^{-1}) x1,
    with g = 1 - y2 (z2 - x2) y1^{-1} (1 - (z1 x1)^{-1}), evaluated for one
    crossing in the output representation (lc1, lc2 unread, as in rw_images).
    """
    (x1, y1, z1, x2, y2, z2), (x1i, x2i, y1i, y2i, z1i) = (
        m.values() for m in _pi2(cfg, lc1p, lc2p, ("x1", "x2", "y1", "y2", "z1")))
    eye = np.eye(x1.shape[-1], dtype=complex)
    g = eye - y2 @ (z2 - x2) @ y1i @ (eye - z1i @ x1i)
    gi = _checked_inv(g, "negative braiding element")
    y1_img = y2 + (y1 - z2 @ y2) @ x2i
    return {
        "x1": g @ x1,
        "x2": x2 @ gi,
        "y1inv": np.linalg.inv(y1_img),
        "y2": np.linalg.inv(z2 @ z1i @ y1i + (y2i - z2 @ y1i) @ x1),
        "z1": z1, "z2": z2,
    }


def commutant_dim(K: np.ndarray, E: np.ndarray, F: np.ndarray) -> int:
    """Dimension of {A : [A, K] = [A, E] = [A, F] = 0} for one module's
    N x N matrices, from the nullspace of the stacked (3 N^2, N^2) system.

    Singular values below 1e-8 times the largest one count as zero.
    """
    N = K.shape[-1]
    n = np.arange(N)
    stack = np.zeros((3, N, N, N, N), dtype=complex)
    for block, M in zip(stack, (K, E, F)):
        # kron(M, I) - kron(I, M^T), written in place: entry ((a, b), (c, d))
        # is M[a, c] [b = d] - [a = c] M[d, b]
        block[:, n, :, n] = M
        block[n, :, n, :] -= M.T
    svals = np.linalg.svd(stack.reshape(3 * N * N, N * N), compute_uv=False)
    return int(N * N - np.sum(svals > 1e-8 * svals[0]))
