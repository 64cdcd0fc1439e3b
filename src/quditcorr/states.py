"""Constructors for test and benchmark states.

All randomized constructors are pure functions of their seed: they draw
from ``numpy.random.default_rng(seed)`` (the PCG64 generator), so a given
seed reproduces the same matrix bit for bit on any platform.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _checks

__all__ = [
    "swap_operator",
    "werner_state",
    "bell_state",
    "random_density",
    "random_cq_state",
]


def swap_operator(d: int) -> np.ndarray:
    """Permutation F = sum_jk |jk><kj| on two d-dimensional systems; F|jk> = |kj>."""
    _checks.dims(d)
    f = np.zeros(d**4, dtype=complex)
    f[np.concatenate(_werner_positions(d)[1:])] = 1.0
    return f.reshape(d * d, d * d)


def werner_state(d: int, w) -> np.ndarray:
    """Werner state ((d-w) I + (dw-1) F) / (d(d^2-1)) on d x d, for w in [-1, 1].

    Both marginals are maximally mixed, and Tr(F rho) = w. An array of w
    gives a stack of states, shape w.shape + (d^2, d^2).
    """
    _checks.dims(d)
    w = np.asarray(w, dtype=float)
    inside = (w >= -1.0) & (w <= 1.0)
    if not inside.all():
        raise ValueError(f"Werner parameter must lie in [-1, 1], got {w[~inside]}")
    # Entries are written straight into one zeroed array, through flat
    # positions: the identity alone on |jk><jk| (j != k), the swap alone on
    # |jk><kj|, both on |jj><jj|. Multiplying by 1/(d(d^2-1)) rounds exactly
    # as dividing the complex matrix (d-w) I + (dw-1) F by d(d^2-1) does.
    scale = 1.0 / (d * (d * d - 1))
    same = (d - w)[..., None]
    swap = (d * w - 1)[..., None]
    n = d * d
    identity, swapped, both = _werner_positions(d)
    rho = np.zeros(w.shape + (n * n,), dtype=complex)
    rho[..., identity] = same * scale
    rho[..., swapped] = swap * scale
    rho[..., both] = (same + swap) * scale
    return rho.reshape(w.shape + (n, n))


@lru_cache(maxsize=None)
def _werner_positions(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only flat positions of |jk><jk| and |jk><kj| (j != k), and of |jj><jj|."""
    n = d * d
    j, k = np.divmod(np.arange(n), d)
    jk = np.flatnonzero(j != k)
    positions = (jk * (n + 1), jk * n + k[jk] * d + j[jk], np.flatnonzero(j == k) * (n + 1))
    for p in positions:
        p.setflags(write=False)
    return positions


def bell_state(d: int) -> np.ndarray:
    """Projector onto the maximally entangled ket sum_j |jj> / sqrt(d)."""
    _checks.dims(d)
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(psi, psi.conj())


def _ginibre_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_density(d: int, seed: int) -> np.ndarray:
    """Random full-rank density matrix G G†/Tr(G G†), G complex Gaussian."""
    _checks.dims(d)
    return _ginibre_density(d, np.random.default_rng(seed))


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    # QR of a Ginibre matrix; fixing the R-diagonal phases makes Q Haar.
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = r.diagonal().copy()
    ph /= np.abs(ph)
    return q * ph


def random_cq_state(da: int, db: int, seed: int) -> np.ndarray:
    """Random classical-quantum state sum_j p_j |a_j><a_j| x rho_j.

    The |a_j> are the columns of a Haar-random unitary, p is a normalized
    uniform draw, and each rho_j is an independent Ginibre density matrix
    on side b. States of this form carry zero discord with respect to
    measurements on side a.
    """
    _checks.dims(da, db)
    rng = np.random.default_rng(seed)
    basis = _haar_unitary(da, rng)
    p = rng.random(da)
    p /= p.sum()
    rho = np.zeros((da * db, da * db), dtype=complex)
    for j in range(da):
        proj = np.outer(basis[:, j], basis[:, j].conj())
        rho += p[j] * np.kron(proj, _ginibre_density(db, rng))
    return rho
