"""Coherence (Bloch) vectors and correlation matrices of qudit states.

For a d-dimensional state rho_s the Bloch components are
s_j = (d/2) Tr(G_j rho_s); for a bipartite rho the correlation matrix is
c_jk = (da*db/4) Tr((G_j x G_k) rho). Components follow the flat index
order of :mod:`quditcorr.gellmann` (diagonal, symmetric, antisymmetric),
so a correlation matrix splits into nine blocks, one per group pair.

Every quantity comes in two forms. The naive form materializes each
generator (and each Kronecker product G_j x G_k) and evaluates the trace
by definition. The optimized form never builds an operator: it views rho
as interleaved (re, im) floats and gathers, through one flat index cached
per dimension pair, exactly the O(da^2 db^2) floats it needs, laid out as
its blocks use them. The correlation matrix scales them once and writes
its nine blocks in place; a marginal's Bloch vector sums its partial trace
inside the gather. This drops the cost from O(da^4 db^4) to O(da^2 db^2).
Both forms agree to machine precision and serve as mutual cross-checks.

The optimized forms also take a stack of states, shape (..., n, n), and
return one result per state, stacked on the same leading axes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import _checks
from .gellmann import _diag_weights, _pairs, gellmann_basis

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

# Largest imaginary residue of a trace Tr(G_j rho) that bloch_naive,
# bloch_opt and corrmat_naive tolerate; more means a non-Hermitian input.
IMAG_TOL = 1e-10


class ReadCounter:
    """Tallies density-matrix element reads performed by the optimized paths."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def _reject_imag_residue(worst: float) -> None:
    if worst > IMAG_TOL:
        raise ValueError(
            f"trace has imaginary residue {worst:.3e} > {IMAG_TOL}; input is not Hermitian"
        )


def _floats(rho, n: int) -> np.ndarray:
    """(..., n, n) rho as (..., 2*n*n) floats: Re rho[r, c] at 2*(r*n + c), Im next to it."""
    rho = np.ascontiguousarray(rho, dtype=complex)
    return rho.reshape(*rho.shape[:-2], n * n).view(float)


def _traces(ops, rho, scale: float) -> np.ndarray:
    """scale * Re Tr(op rho) for every op in turn, each trace summed by definition."""
    rho_t = rho.T
    t = np.array([(op * rho_t).sum() for op in ops])
    _reject_imag_residue(np.maximum.reduce(np.abs(t.imag)))
    return scale * t.real


def bloch_naive(rho_s) -> np.ndarray:
    """Bloch vector via materialized generators: s_j = (d/2) Re Tr(G_j rho)."""
    rho_s = _checks.square(rho_s, stack=False, floor=2)
    d = rho_s.shape[0]
    return _traces(gellmann_basis(d), rho_s, 0.5 * d)


@lru_cache(maxsize=None)
def _bloch_plan(da: int, db: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Gather index into ``_floats`` and diagonal weights for one marginal's Bloch vector.

    Row r of the (d*d, k) index holds the k floats, one per traced-out
    ket, whose sum is float r of the marginal: Re of the diagonal, then Re
    and Im of the lower off-diagonals. It is cut from ``_corr_plan``'s
    index: side a stacks the diagonal grid over g2, side b the transposed
    grid over the transposed g1. One state is da = d, db = 1. The (d, d-1)
    weights carry the factor d/2.
    """
    corr, (c1, c2, c3) = _corr_plan(da, db)[:2]
    grid = corr[:c1].reshape(da, db)
    if side == "a":
        d, index = da, np.vstack([grid, corr[c2:c3].reshape(-1, db)])
    else:
        d, index = db, np.vstack([grid.T, corr[c1:c2].reshape(da, -1).T])
    weights = 0.5 * d * _diag_weights(d).T
    index.setflags(write=False)
    weights.setflags(write=False)
    return index, weights


def _bloch(rho, da: int, db: int, side: str) -> np.ndarray:
    """Bloch vector of one marginal of an already checked (..., da*db, da*db) stack."""
    index, weights = _bloch_plan(da, db, side)
    d = weights.shape[0]
    g = np.add.reduce(_floats(rho, da * db).take(index, axis=-1), axis=-1)
    s = np.empty((*g.shape[:-1], d * d - 1))
    np.matmul(g[..., :d], weights, out=s[..., : d - 1])
    np.multiply(g[..., d:], d, out=s[..., d - 1 :])
    return s


def bloch_opt(rho_s) -> np.ndarray:
    """Bloch vector read directly from matrix elements, no generators built.

    Diagonal components are weighted sums of diagonal elements; the
    symmetric and antisymmetric components are d*Re<l|rho|k> and
    d*Im<l|rho|k> for k < l. Like ``bloch_naive`` it rejects a
    non-Hermitian input.
    """
    rho_s = _checks.square(rho_s, floor=2)
    d = rho_s.shape[-1]
    # The residues Im Tr(G_j rho) = Tr(G_j A), A = (rho - rho^dagger)/(2i),
    # are 1/d times the Bloch vector of 2A.
    anti = (rho_s - np.swapaxes(rho_s, -1, -2).conj()) * -1j
    _reject_imag_residue(np.maximum.reduce(np.abs(_bloch(anti, d, 1, "a")), None, initial=0.0) / d)
    return _bloch(rho_s, d, 1, "a")


def bloch_of_subsystem(rho, da: int, db: int, side: str = "a") -> np.ndarray:
    """Bloch vector of one marginal, gathered from rho with no partial trace or Hermiticity test.

    It reads rho's strict lower triangle and the real part of its diagonal
    only. On a non-Hermitian rho it returns the Bloch vector of the
    Hermitian matrix built from those entries and the lower triangle's
    conjugate transpose, not that of (rho + rho^dagger)/2.
    """
    rho = _checks.bipartite(rho, da, db)
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    return _bloch(rho, da, db, side)


def corrmat_naive(rho, da: int, db: int) -> np.ndarray:
    """Correlation matrix by definition: one Kronecker product per entry."""
    rho = _checks.bipartite(rho, da, db, stack=False)
    gb = gellmann_basis(db)
    ops = (np.kron(gj, gk) for gj in gellmann_basis(da) for gk in gb)
    return _traces(ops, rho, da * db / 4.0).reshape(da * da - 1, db * db - 1)


@lru_cache(maxsize=None)
def _corr_plan(da: int, db: int):
    """Gather index into ``_floats`` of every element corrmat_opt reads, in block layout.

    With m < n on side a and p < q on side b, the index lists, row-major:
    Re of the diagonal grid <mp|rho|mp> (da, db); g1 = <mq|rho|mp> as
    (da, 2*pairs_b), Re then Im in each row; g2 = <np|rho|mp> as
    (2*pairs_a, db), Re rows over Im rows; e1 = <nq|rho|mp>, e2 = <np|rho|mq>
    as (4, pairs_a, pairs_b): Re e1, Im e1, Re e2, Im e2. No element is
    listed twice. Also returned: the group ends, the complex elements read,
    side a's diagonal weights whole and halved, and side b's transposed.
    ``_bloch_plan`` cuts both marginals' gathers from this index, so it is
    the one map from kets to float offsets.
    """
    n = da * db
    ma, na = _pairs(da)
    pb, qb = _pairs(db)
    ar = np.arange(da)[:, None]
    br = np.arange(db)[None, :]
    ma, na = ma[:, None], na[:, None]
    pb, qb = pb[None, :], qb[None, :]

    def flat(rows_a, rows_b, cols_a, cols_b):
        return 2 * ((rows_a * db + rows_b) * n + cols_a * db + cols_b)

    g1, g2 = flat(ar, qb, ar, pb), flat(na, br, ma, br)
    e1, e2 = flat(na, qb, ma, pb), flat(na, pb, ma, qb)
    groups = [flat(ar, br, ar, br), np.hstack([g1, g1 + 1]), np.vstack([g2, g2 + 1])]
    groups.append(np.stack([e1, e1 + 1, e2, e2 + 1]))
    index = np.concatenate([g.ravel() for g in groups]).astype(np.intp)
    ends = tuple(int(e) for e in np.cumsum([g.size for g in groups[:-1]]))
    wa = _diag_weights(da)
    half_wa = 0.5 * wa
    wbt = np.ascontiguousarray(_diag_weights(db).T)
    for a in (index, half_wa, wbt):
        a.setflags(write=False)
    return index, ends, n + (index.size - n) // 2, wa, half_wa, wbt


def corrmat_read_count(da: int, db: int) -> int:
    """Density-matrix elements the optimized correlation matrix touches."""
    _checks.dims(da, db)
    return _corr_plan(da, db)[2]


def corrmat_opt(rho, da: int, db: int, reads: ReadCounter | None = None) -> np.ndarray:
    """Correlation matrix from matrix elements alone, block by block.

    One gather through the cached index of ``_corr_plan`` reads the
    diagonal grid <mp|rho|mp>, the one-sided off-diagonals <mq|rho|mp>
    and <np|rho|mp>, and the two-sided off-diagonals <nq|rho|mp> and
    <np|rho|mq> (m < n on side a, p < q on side b) for all nine group
    blocks; Hermiticity of rho makes any other element redundant. It reads
    that strict lower triangle and the real part of the diagonal only, and
    does not test Hermiticity: on a non-Hermitian rho it returns the
    correlation matrix of the Hermitian matrix built from those entries and
    the lower triangle's conjugate transpose. Pass a ReadCounter to tally
    the elements touched, summed over a stack.
    """
    rho = _checks.bipartite(rho, da, db)
    lead = rho.shape[:-2]
    index, (c1, c2, c3), count, wa, half_wa, wbt = _corr_plan(da, db)
    if reads is not None:
        reads.add(count * math.prod(lead))
    # Every block but diagonal x diagonal carries a factor 2 and all carry
    # da*db/4: scale the gathered values once by da*db/2, and let the
    # halved weights take the diagonal x diagonal block back.
    g = _floats(rho, da * db).take(index, axis=-1)
    g *= da * db / 2.0
    pairs_a, pairs_b = da * (da - 1) // 2, db * (db - 1) // 2
    diag = g[..., :c1].reshape(*lead, da, db)
    g1 = g[..., c1:c2].reshape(*lead, da, 2 * pairs_b)
    g2 = g[..., c2:c3].reshape(*lead, 2 * pairs_a, db)
    e = g[..., c3:].reshape(*lead, 4, pairs_a, pairs_b)
    e1_re, e1_im, e2_re, e2_im = e[..., 0, :, :], e[..., 1, :, :], e[..., 2, :, :], e[..., 3, :, :]

    # Group boundaries on each side: diagonal | symmetric | antisymmetric.
    a1, a2 = da - 1, da - 1 + pairs_a
    b1, b2 = db - 1, db - 1 + pairs_b
    c = np.empty((*lead, da * da - 1, db * db - 1))
    np.matmul(half_wa @ diag, wbt, out=c[..., :a1, :b1])
    np.matmul(wa, g1, out=c[..., :a1, b1:])
    np.matmul(g2, wbt, out=c[..., a1:, :b1])
    np.add(e1_re, e2_re, out=c[..., a1:a2, b1:b2])
    np.subtract(e1_im, e2_im, out=c[..., a1:a2, b2:])
    np.add(e1_im, e2_im, out=c[..., a2:, b1:b2])
    np.subtract(e2_re, e1_re, out=c[..., a2:, b2:])
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
    # sum_jk T_jk A_j x B_k, T = [[1, b^t], [a, C]], as A^t T B over flattened (I, G_1, ...).
    ops_a = np.stack([np.eye(da), *gellmann_basis(da)]).reshape(da * da, da * da)
    ops_b = np.stack([np.eye(db), *gellmann_basis(db)]).reshape(db * db, db * db)
    t = np.block([[1.0, b], [a[:, None], c]])
    rho = (ops_a.T @ (t @ ops_b)).reshape(da, da, db, db).transpose(0, 2, 1, 3)
    return rho.reshape(da * db, da * db) / (da * db)
