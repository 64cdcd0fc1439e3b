"""Helpers shared by the test modules: state builders whose discord has a
closed form, and discord's eigensolver without its floor."""

import numpy as np

from quditcorr import bell_state
from quditcorr.linalg import _eig_sym


def eig_no_floor(m) -> np.ndarray:
    """Eigenvalues of the symmetric matrix or stack m from discord's solver at floor 0."""
    return _eig_sym(np.array(m, dtype=float), 0.0)


def isotropic_state(d: int, p: float) -> np.ndarray:
    """p Phi_d + (1 - p) I/d^2, Phi_d the maximally entangled projector on d x d."""
    return p * bell_state(d) + (1.0 - p) * np.eye(d * d) / (d * d)


def random_pure_state(da: int, db: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A random pure state on da x db and its squared Schmidt coefficients."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
    psi /= np.linalg.norm(psi)
    schmidt = np.linalg.svd(psi, compute_uv=False) ** 2
    return np.outer(psi.ravel(), psi.ravel().conj()), schmidt
