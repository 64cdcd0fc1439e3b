"""Coherence (Bloch) vectors and correlation matrices of qudit states.

For a d-dimensional state rho_s the Bloch components are
s_j = (d/2) Tr(G_j rho_s); for a bipartite rho the correlation matrix is
c_jk = (da*db/4) Tr((G_j x G_k) rho). Components follow the flat index
order of :mod:`quditcorr.gellmann` (diagonal, symmetric, antisymmetric),
so a correlation matrix splits into nine blocks, one per group pair.

Every quantity comes in two forms. The naive form materializes each
generator (and each Kronecker product G_j x G_k) and evaluates the trace
by definition. The optimized form never builds an operator. The
correlation matrix reads the O(da^2 db^2) density-matrix elements its
blocks need, and no others, through one flat index per (da, db): element
<np|rho|mq> sits at ((n-1)*db + p-1) * da*db + (m-1)*db + q-1 of the
flattened matrix. The index is built once and cached, so each call makes a
single gather and writes the nine blocks in place. This drops the cost from
O(da^4 db^4) to O(da^2 db^2). Both forms agree to machine precision and
serve as mutual cross-checks.

The optimized forms also take a stack of states, shape (..., n, n), and
return one result per state, stacked on the same leading axes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _checks
from .gellmann import gellmann_basis
from .linalg import ptrace_a, ptrace_b

__all__ = [
    "ReadCounter",
    "bloch_naive",
    "bloch_opt",
    "bloch_of_subsystem",
    "corrmat_naive",
    "corrmat_opt",
    "corrmat_read_count",
    "reconstruct",
]

# Largest imaginary residue tolerated when the naive path discards the
# imaginary part of a trace; larger values indicate a non-Hermitian input.
IMAG_TOL = 1e-10


class ReadCounter:
    """Tallies density-matrix element reads performed by the optimized paths."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


@lru_cache(maxsize=None)
def _pairs(d: int):
    """Index pairs (k,l), k<l, 0-based, in lexicographic order."""
    kk, ll = np.triu_indices(d, 1)
    kk.setflags(write=False)
    ll.setflags(write=False)
    return kk, ll


@lru_cache(maxsize=None)
def _diag_weights(d: int) -> np.ndarray:
    """Row j-1 holds the diagonal-generator weights sqrt(2/(j(j+1)))*(1,..,1,-j,0,..)."""
    w = np.zeros((d - 1, d))
    for j in range(1, d):
        scale = np.sqrt(2.0 / (j * (j + 1)))
        w[j - 1, :j] = scale
        w[j - 1, j] = -j * scale
    w.setflags(write=False)
    return w


def bloch_naive(rho_s) -> np.ndarray:
    """Bloch vector via materialized generators: s_j = (d/2) Re Tr(G_j rho)."""
    rho_s = _checks.square(rho_s, stack=False, floor=2)
    d = rho_s.shape[0]
    rho_t = rho_s.T
    comps = np.empty(d * d - 1)
    worst = 0.0
    for j, g in enumerate(gellmann_basis(d)):
        t = (g * rho_t).sum()
        worst = max(worst, abs(t.imag))
        comps[j] = 0.5 * d * t.real
    if worst > IMAG_TOL:
        raise ValueError(
            f"trace has imaginary residue {worst:.3e} > {IMAG_TOL}; input is not Hermitian"
        )
    return comps


def bloch_opt(rho_s) -> np.ndarray:
    """Bloch vector read directly from matrix elements, no generators built.

    Diagonal components are weighted sums of diagonal elements; the
    symmetric and antisymmetric components are d*Re<l|rho|k> and
    d*Im<l|rho|k> for k < l.
    """
    rho_s = _checks.square(rho_s, floor=2)
    d = rho_s.shape[-1]
    kk, ll = _pairs(d)
    off = rho_s[..., ll, kk]
    diag = rho_s.diagonal(0, -2, -1).real
    s1 = 0.5 * d * (_diag_weights(d) @ diag[..., None])[..., 0]
    return np.concatenate([s1, d * off.real, d * off.imag], axis=-1)


def bloch_of_subsystem(rho, da: int, db: int, side: str = "a") -> np.ndarray:
    """Bloch vector of one marginal: partial-trace, then the optimized path."""
    rho = _checks.bipartite(rho, da, db)
    if side == "a":
        return bloch_opt(ptrace_b(rho, da, db))
    if side == "b":
        return bloch_opt(ptrace_a(rho, da, db))
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def corrmat_naive(rho, da: int, db: int) -> np.ndarray:
    """Correlation matrix by definition: one Kronecker product per entry."""
    rho = _checks.bipartite(rho, da, db, stack=False)
    ga = gellmann_basis(da)
    gb = gellmann_basis(db)
    rho_t = rho.T
    sig = da * db / 4.0
    c = np.empty((da * da - 1, db * db - 1))
    worst = 0.0
    for j, gj in enumerate(ga):
        for k, gk in enumerate(gb):
            t = (np.kron(gj, gk) * rho_t).sum()
            worst = max(worst, abs(t.imag))
            c[j, k] = sig * t.real
    if worst > IMAG_TOL:
        raise ValueError(
            f"trace has imaginary residue {worst:.3e} > {IMAG_TOL}; input is not Hermitian"
        )
    return c


@lru_cache(maxsize=None)
def _corr_plan(da: int, db: int) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Flat indices into rho.reshape(..., (da*db)**2) of every element corrmat_opt reads.

    The index lists, each in row-major order, the diagonal grid <mp|rho|mp>
    (da x db), the one-sided off-diagonals g1 = <mq|rho|mp> (da x pairs_b)
    and g2 = <np|rho|mp> (pairs_a x db), and the two-sided off-diagonals
    e1 = <nq|rho|mp> and e2 = <np|rho|mq> (pairs_a x pairs_b), with m < n on
    side a and p < q on side b. The tuple holds the four offsets where one
    group ends and the next begins. No element is listed twice, so the
    index length is the read count.
    """
    n = da * db
    ma, na = _pairs(da)
    pb, qb = _pairs(db)
    ar = np.arange(da)[:, None]
    br = np.arange(db)[None, :]
    ma, na = ma[:, None], na[:, None]
    pb, qb = pb[None, :], qb[None, :]

    def flat(rows_a, rows_b, cols_a, cols_b):
        return ((rows_a * db + rows_b) * n + cols_a * db + cols_b).ravel()

    groups = [
        flat(ar, br, ar, br),
        flat(ar, qb, ar, pb),
        flat(na, br, ma, br),
        flat(na, qb, ma, pb),
        flat(na, pb, ma, qb),
    ]
    index = np.concatenate(groups).astype(np.intp)
    index.setflags(write=False)
    ends = np.cumsum([g.size for g in groups[:-1]])
    return index, tuple(int(e) for e in ends)


def corrmat_read_count(da: int, db: int) -> int:
    """Density-matrix elements the optimized correlation matrix touches."""
    _checks.dims(da, db)
    return _corr_plan(da, db)[0].size


def corrmat_opt(rho, da: int, db: int, reads: ReadCounter | None = None) -> np.ndarray:
    """Correlation matrix from matrix elements alone, block by block.

    One gather through the cached flat index of ``_corr_plan`` reads the
    diagonal grid <mp|rho|mp>, the one-sided off-diagonals <mq|rho|mp> and
    <np|rho|mp>, and the two-sided off-diagonals <nq|rho|mp> and
    <np|rho|mq> (m < n on side a, p < q on side b); they feed all nine
    group blocks, which are written in place into one output array.
    Hermiticity of rho makes any other element redundant. Pass a
    ReadCounter to tally the elements touched, summed over every state of
    a stack.
    """
    rho = _checks.bipartite(rho, da, db)
    lead = rho.shape[:-2]
    n = da * db
    index, (c1, c2, c3, c4) = _corr_plan(da, db)
    g = rho.reshape(*lead, n * n).take(index, axis=-1)
    if reads is not None:
        reads.add(g.size)
    pairs_a = da * (da - 1) // 2
    pairs_b = db * (db - 1) // 2
    diag = g[..., :c1].real.reshape(*lead, da, db)
    g1 = g[..., c1:c2].reshape(*lead, da, pairs_b)
    g2 = g[..., c2:c3].reshape(*lead, pairs_a, db)
    e1 = g[..., c3:c4].reshape(*lead, pairs_a, pairs_b)
    e2 = g[..., c4:].reshape(*lead, pairs_a, pairs_b)
    wa = _diag_weights(da)
    wb = _diag_weights(db)

    # Group boundaries on each side: diagonal | symmetric | antisymmetric.
    a1, a2 = da - 1, da - 1 + pairs_a
    b1, b2 = db - 1, db - 1 + pairs_b
    c = np.empty((*lead, da * da - 1, db * db - 1))
    np.matmul(wa @ diag, wb.T, out=c[..., :a1, :b1])
    np.matmul(wa, g1.real, out=c[..., :a1, b1:b2])
    np.matmul(wa, g1.imag, out=c[..., :a1, b2:])
    np.matmul(g2.real, wb.T, out=c[..., a1:a2, :b1])
    np.matmul(g2.imag, wb.T, out=c[..., a2:, :b1])
    np.add(e1.real, e2.real, out=c[..., a1:a2, b1:b2])
    np.subtract(e1.imag, e2.imag, out=c[..., a1:a2, b2:])
    np.add(e1.imag, e2.imag, out=c[..., a2:, b1:b2])
    np.subtract(e2.real, e1.real, out=c[..., a2:, b2:])
    # Every block but diagonal x diagonal carries a factor 2: halve that one,
    # then scale all by 2 * da*db/4.
    c[..., :a1, :b1] *= 0.5
    c *= da * db / 2.0
    return c


def reconstruct(a, b, c) -> np.ndarray:
    """Rebuild rho from its Bloch vectors and correlation matrix.

    rho = (I + sum_j a_j G_j x I + sum_k b_k I x G_k
             + sum_jk c_jk G_j x G_k) / (da*db)
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float)
    da = _checks.bloch_dim(a.size)
    db = _checks.bloch_dim(b.size)
    if c.shape != (a.size, b.size):
        raise ValueError(
            f"correlation matrix shape {c.shape} does not match vectors ({a.size}, {b.size})"
        )
    ga = np.stack(gellmann_basis(da))
    gb = np.stack(gellmann_basis(db))
    rho = np.eye(da * db, dtype=complex)
    rho += np.kron(np.tensordot(a, ga, axes=1), np.eye(db))
    rho += np.kron(np.eye(da), np.tensordot(b, gb, axes=1))
    for j in range(a.size):
        rho += np.kron(ga[j], np.tensordot(c[j], gb, axes=1))
    return rho / (da * db)
