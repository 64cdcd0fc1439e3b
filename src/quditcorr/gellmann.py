"""Generalized Gell-Mann generators of SU(d) and their flat index map.

The d^2-1 traceless Hermitian generators come in three groups:

* group 1 (diagonal):      G_j = sqrt(2/(j(j+1))) * (|1><1| + ... + |j><j| - j|j+1><j+1|),
  for j = 1..d-1;
* group 2 (symmetric):     G_(k,l) = |k><l| + |l><k|, for 1 <= k < l <= d;
* group 3 (antisymmetric): G_(k,l) = -i(|k><l| - |l><k|), for 1 <= k < l <= d.

All satisfy Tr(G) = 0 and Tr(G_j G_k) = 2*delta_jk. The flat Bloch index
j = 1..d^2-1 enumerates the diagonal group first, then the symmetric group,
then the antisymmetric group, with (k,l) pairs in lexicographic order
(1,2), (1,3), ..., (1,d), (2,3), ... within each group. Every Bloch vector
and correlation matrix in this package is ordered by this map.

``_pairs`` and ``_diag_weights`` own that order and the diagonal weights;
the generators, ``gm_unindex`` and the gather plans in :mod:`quditcorr.bloch` read them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _checks

__all__ = ["GellMannSpec", "gellmann", "gellmann_basis", "gm_index", "gm_unindex"]

DIAGONAL, SYMMETRIC, ANTISYMMETRIC = 1, 2, 3


class GellMannSpec(NamedTuple):
    """Label (dim, group, k, l) of one generator; l is ignored for group 1."""

    dim: int
    group: int
    k: int
    l: int = 0


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


def _validate(dim: int, group: int, k: int, l: int) -> None:
    _checks.dims(dim)
    if group == DIAGONAL:
        if not 1 <= k <= dim - 1:
            raise ValueError(f"diagonal index k={k} out of range 1..{dim - 1}")
    elif group in (SYMMETRIC, ANTISYMMETRIC):
        if not 1 <= k < l <= dim:
            raise ValueError(f"pair (k,l)=({k},{l}) must satisfy 1 <= k < l <= {dim}")
    else:
        raise ValueError(f"group must be 1, 2, or 3, got {group}")


def gellmann(dim: int, group: int, k: int, l: int = 0) -> np.ndarray:
    """Build one generalized Gell-Mann generator as a dim x dim complex matrix."""
    _validate(dim, group, k, l)
    g = np.zeros((dim, dim), dtype=complex)
    if group == DIAGONAL:
        g.ravel()[:: dim + 1] = _diag_weights(dim)[k - 1]
    elif group == SYMMETRIC:
        g[k - 1, l - 1] = 1.0
        g[l - 1, k - 1] = 1.0
    else:
        g[k - 1, l - 1] = -1.0j
        g[l - 1, k - 1] = 1.0j
    return g


def _pair_rank(dim: int, k: int, l: int) -> int:
    # (1,2) -> 1, (1,3) -> 2, ..., (1,d) -> d-1, (2,3) -> d, ...
    return (k - 1) * dim - k * (k + 1) // 2 + l


def gm_index(dim: int, group: int, k: int, l: int = 0) -> int:
    """Flat Bloch index in 1..dim^2-1 for a generator label."""
    _validate(dim, group, k, l)
    if group == DIAGONAL:
        return k
    if group == SYMMETRIC:
        return (dim - 1) + _pair_rank(dim, k, l)
    return (dim - 1) + dim * (dim - 1) // 2 + _pair_rank(dim, k, l)


def gm_unindex(dim: int, j: int) -> GellMannSpec:
    """Invert gm_index: recover the (group, k, l) label of flat index j."""
    _checks.dims(dim)
    if not 1 <= j <= dim * dim - 1:
        raise ValueError(f"flat index {j} out of range 1..{dim * dim - 1}")
    if j < dim:
        return GellMannSpec(dim, DIAGONAL, j)
    # After the dim-1 diagonal slots, each pair group lists every pair once.
    offset, rank = divmod(j - dim, dim * (dim - 1) // 2)
    kk, ll = _pairs(dim)
    return GellMannSpec(dim, SYMMETRIC + offset, kk.item(rank) + 1, ll.item(rank) + 1)


def gellmann_basis(dim: int) -> list[np.ndarray]:
    """All dim^2-1 generators, listed in flat-index order."""
    _checks.dims(dim)
    return [gellmann(*gm_unindex(dim, j)) for j in range(1, dim * dim)]
