"""Hilbert-Schmidt discord quantifiers for bipartite states.

The side-a quantifier is the eigenvalue sum

    D_hs = lambda_da + ... + lambda_(da^2-1),

where the lambda_j are the non-increasing eigenvalues of the symmetric
positive-semidefinite matrix

    Xi_a = (2/(da^2 db)) (a a^t + (2/db) C C^t) = M M^t,
    M = sqrt(2/(da^2 db)) [a | sqrt(2/db) C],

built from the side-a Bloch vector and the correlation matrix. M has db^2
columns, so Xi has rank at most db^2, and the Gram M^t M has the same
nonzero eigenvalues. The eigensolver gets the smaller Gram: M^t M when
db^2 < da^2 - 1, Xi otherwise. Every reported eigenvalue of Xi after the
first min(da^2 - 1, db^2) is then an exact zero. Either Gram is exactly
symmetric as numpy forms it and goes to the solver unchecked, which stops
rotating at off-diagonal mass max(1e-13 ||Xi||_F, eps^2 P(rho_other));
both Grams have the same Frobenius norm. The floor is quadratic in rho
like Xi, so it scales with the input, and it skips a Xi of rounding noise
(Werner, d w = 1). The ameliorated quantifier divides by the purity of
the opposite marginal, D_hsa = D_hs / P(rho_b), read from its Bloch vector
as P(rho_b) = (Tr rho)^2/db + 2 |b|^2/db^2 with no partial trace.
Appending a local ancilla sigma to the unmeasured side (rho x sigma)
multiplies D_hs by P(sigma) and leaves D_hsa unchanged (Piani, PRA 86,
034101); that invariance is what the rescaling is for. Side b mirrors
side a with C^t C in place of C C^t. Both values vanish exactly on
classical-quantum states sum_j p_j |a_j><a_j| x rho_j.

The variational definition of the Hilbert-Schmidt discord (a minimum over
classical-quantum states) is not solved here; the closed-form eigenvalue
expression above is what this module computes and reports. It is exact on a
measured qubit and a lower bound on a side of dimension >= 3.

Every function here also takes a stack of states (or of Bloch vectors and
correlation matrices) along leading axes and returns one result per state.
``werner_sweep`` checks the computed discord of Werner states against
their closed form, ``werner_analytic``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks
from .bloch import bloch_of_subsystem, corrmat_opt
from .linalg import _eig_sym
from .states import werner_state

__all__ = [
    "DiscordReport",
    "xi_matrix",
    "purity",
    "discord_hs",
    "discord_hsa",
    "werner_analytic",
    "werner_sweep",
]


@dataclass(frozen=True)
class DiscordReport:
    """Eigenvalues of Xi plus both discord values for one side.

    xi_eigenvalues has d_side^2 - 1 entries. The eigensolver gets M^t M, not
    Xi = M M^t, when d_other^2 < d_side^2 - 1, and every entry after the
    first min(d_side^2 - 1, d_other^2) is then an exact zero. hs_value is
    the eigenvalue tail sum (clamped at zero), purity_other the purity of
    the untouched marginal, and hsa_value = hs_value/purity_other.
    For one state the values are floats and xi_eigenvalues is 1-D; for a
    stack of states they are arrays shaped like the stack's leading axes,
    and xi_eigenvalues has one more axis.
    """

    side: str
    xi_eigenvalues: np.ndarray
    hs_value: float | np.ndarray
    purity_other: float | np.ndarray
    hsa_value: float | np.ndarray


def purity(rho_s) -> float | np.ndarray:
    """P(rho) = sum_jk |rho_jk|^2, which equals Tr(rho^2) for Hermitian rho."""
    rho_s = _checks.square(rho_s)
    p = np.sum(np.abs(rho_s) ** 2, axis=(-2, -1))
    return float(p) if p.ndim == 0 else p


def _m_matrix(vec, c, d_other: int) -> np.ndarray:
    """M = sqrt(2/(d^2 d_other)) [a | sqrt(2/d_other) C], so that Xi = M M^t.

    d^2 = len(a) + 1; the inputs are not checked.
    """
    scale = np.sqrt(2.0 / ((vec.shape[-1] + 1) * d_other))
    m = np.empty((*c.shape[:-1], c.shape[-1] + 1))
    np.multiply(vec, scale, out=m[..., 0])
    np.multiply(c, scale * np.sqrt(2.0 / d_other), out=m[..., 1:])
    return m


def xi_matrix(a, c, d_other: int) -> np.ndarray:
    """Xi = (2/(d^2 d_other)) (a a^t + (2/d_other) C C^t) = M M^t for the side owning a.

    For side b pass the side-b Bloch vector together with C transposed.
    A stack of vectors (..., n) with matching matrices (..., n, m) gives a
    stack of Xi, one per leading index.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    n = a.shape[-1] if a.ndim else 0
    d = _checks.bloch_dim(n)
    _checks.dims(d_other)
    if c.ndim != a.ndim + 1 or c.shape[-2:] != (n, d_other * d_other - 1):
        raise ValueError(f"correlation matrix shape {c.shape} does not match dims ({d}, {d_other})")
    m = _m_matrix(a, c, d_other)
    # numpy makes M M^t exactly symmetric.
    return m @ np.swapaxes(m, -1, -2)


def discord_hs(rho, da: int, db: int, side: str = "a") -> DiscordReport:
    """Hilbert-Schmidt discord report for the given side.

    Its two headline fields are hs_value, the plain Hilbert-Schmidt
    discord, and hsa_value, the ameliorated one; ``discord_hsa`` is the
    same function under the second name. Like ``corrmat_opt`` it reads
    rho's lower triangle and the real part of its diagonal only.
    """
    vec = bloch_of_subsystem(rho, da, db, side)
    c = corrmat_opt(rho, da, db)
    if side == "a":
        d_side, d_other, other = da, db, "b"
    else:
        d_side, d_other, other, c = db, da, "a", np.swapaxes(c, -1, -2)
    s = bloch_of_subsystem(rho, da, db, other)
    t = np.trace(rho, axis1=-2, axis2=-1).real
    pur = t * t / d_other + 2.0 * np.vecdot(s, s) / d_other**2
    pur = float(pur) if pur.ndim == 0 else pur
    m = _m_matrix(vec, c, d_other)
    mt = np.swapaxes(m, -1, -2)
    floor = np.finfo(float).eps ** 2 * pur
    rank = d_other * d_other
    if rank < d_side * d_side - 1:
        # M^t M is the smaller Gram: it has Xi's nonzero eigenvalues and the
        # same Frobenius norm, and Xi's other eigenvalues are zero.
        lam = np.zeros(m.shape[:-1])
        lam[..., :rank] = _eig_sym(mt @ m, floor)
    else:
        lam = _eig_sym(m @ mt, floor)
    # Tail sum over positions d_side..d_side^2-1 (1-based); noise can leave
    # it a hair negative, so clamp.
    tail = lam[..., d_side - 1 :].sum(axis=-1)
    hs = max(0.0, float(tail)) if lam.ndim == 1 else np.maximum(0.0, tail)
    return DiscordReport(side, lam, hs, pur, hs / pur)


discord_hsa = discord_hs


def werner_analytic(d: int, w: float) -> float:
    """Closed-form ameliorated discord of the Werner state: (dw-1)^2/((d-1)(d+1)^2)."""
    _checks.dims(d)
    return (d * w - 1) ** 2 / ((d - 1) * (d + 1) ** 2)


# Most density-matrix entries one stacked discord call of the Werner sweep
# holds: the whole w grid for small d, a few states per call for large d,
# so that the sweep's memory stays bounded however large d gets.
_SWEEP_CHUNK_ENTRIES = 2**14


def werner_sweep(
    dmin: int, dmax: int, wsteps: int
) -> list[tuple[int, float, float, float, float]]:
    """Rows (d, w, hs_numeric, hsa_numeric, hsa_analytic) over a uniform w grid."""
    if dmin < 2:
        raise ValueError(f"dmin must be >= 2, got {dmin}")
    if dmax < dmin:
        raise ValueError(f"dmax must be >= dmin, got {dmax} < {dmin}")
    if wsteps < 2:
        raise ValueError(f"wsteps must be >= 2, got {wsteps}")
    # All three past the floors above, so this applies only the integer rule.
    _checks.dims(dmin, dmax)
    _checks.dims(wsteps, name="wsteps")
    grid = np.linspace(-1.0, 1.0, wsteps)
    rows = []
    for d in range(dmin, dmax + 1):
        chunk = max(1, _SWEEP_CHUNK_ENTRIES // d**4)
        for start in range(0, wsteps, chunk):
            ws = grid[start : start + chunk]
            rep = discord_hsa(werner_state(d, ws), d, d, "a")
            hs, hsa, exact = rep.hs_value, rep.hsa_value, werner_analytic(d, ws)
            rows += zip([d] * ws.size, ws.tolist(), hs.tolist(), hsa.tolist(), exact.tolist())
    return rows
