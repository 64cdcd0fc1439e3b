"""Partial traces of bipartite density matrices, and the eigensolver of ``discord_hs``.

Matrices are plain numpy arrays (complex128, row-major). Math indices in
docstrings are 1-based, kets |k> run k = 1..d; storage is 0-based as usual.
A bipartite basis ket |np> sits at flat index (n-1)*db + (p-1). The partial
traces also take stacks of shape (..., n, n) and act on each matrix of the
stack. ``_eig_sym`` is private to ``discord_hs``; for any other symmetric
matrix ``numpy.linalg.eigvalsh(m)[..., ::-1]`` gives its eigenvalues, and
``numpy.kron`` and ``numpy.trace`` give Kronecker products and traces.
"""

from __future__ import annotations

import numpy as np

from . import _checks

__all__ = ["ConvergenceError", "ptrace_a", "ptrace_b"]

#: Off-diagonal convergence threshold of the Jacobi sweep, relative to the
#: Frobenius norm of the input.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Raised when an iterative eigensolve exhausts its sweep budget."""


def ptrace_b(rho, da: int, db: int) -> np.ndarray:
    """Trace out subsystem b: rho_a[m,n] = sum_p rho[(m-1)db+p, (n-1)db+p]."""
    rho = _checks.bipartite(rho, da, db, floor=1)
    return np.einsum("...ijkj->...ik", rho.reshape(*rho.shape[:-2], da, db, da, db))


def ptrace_a(rho, da: int, db: int) -> np.ndarray:
    """Trace out subsystem a: rho_b[p,q] = sum_m rho[(m-1)db+p, (m-1)db+q]."""
    rho = _checks.bipartite(rho, da, db, floor=1)
    return np.einsum("...jijk->...ik", rho.reshape(*rho.shape[:-2], da, db, da, db))


def _norms(x) -> np.ndarray:
    """Euclidean norm of each row, reduced as np.linalg.norm reduces one vector.

    The pre-check of ``_eig_sym`` keeps the zeroed diagonal in each row, so
    its first convergence test can differ from ``_jacobi``'s in the last bit.
    """
    return np.sqrt(np.vecdot(x, x))


def _eig_sym(a, floor) -> np.ndarray:
    """Eigenvalues of the exactly symmetric float stack a, which it may overwrite.

    A matrix converges at off-diagonal Frobenius mass max(JACOBI_TOL ||a||_F,
    floor), floor a scalar or one per matrix. One test over the stack gives
    the sorted diagonal of each matrix that passes; the others are rotated.
    """
    n = a.shape[-1]
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    flat = a.reshape(-1, n * n)
    thresh = np.maximum(JACOBI_TOL * _norms(flat), np.ravel(floor))
    lam = np.sort(diag, axis=-1)[..., ::-1]
    # Off-diagonal mass: zero the diagonal, take the norms, restore it.
    saved = flat[:, :: n + 1].copy()
    flat[:, :: n + 1] = 0.0
    done = _norms(flat) <= thresh
    flat[:, :: n + 1] = saved
    if done.all():
        return lam
    lam = lam.reshape(-1, n)
    for k in np.flatnonzero(~done):
        lam[k] = _jacobi(flat[k].reshape(n, n), thresh[k])
    return lam.reshape(diag.shape)


def _jacobi(a, thresh) -> np.ndarray:
    """Rotate the symmetric matrix a in place until its off-diagonal mass is below thresh."""
    n = a.shape[0]
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        if np.linalg.norm(a[off_mask]) <= thresh:
            return np.sort(a.diagonal())[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-3 * thresh / n:
                    continue
                # Symmetric Schur rotation annihilating a[p,q].
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[p, q] = a[q, p] = 0.0
    if np.linalg.norm(a[off_mask]) <= thresh:
        return np.sort(a.diagonal())[::-1]
    raise ConvergenceError(
        f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps"
    )
