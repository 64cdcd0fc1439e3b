"""Input rules shared by the package's entry points.

Each check raises ValueError when its rule is broken and otherwise returns
its argument, arrays through ``np.asarray``. Dimension floors depend on the
use: a partial trace takes any dimension >= 1, while everything built on
Gell-Mann generators needs >= 2, the default. The checks run on every call
of the small-state kernels, so their passing paths make few Python calls:
``square`` tests its floor inline rather than through ``dims``.
"""

from __future__ import annotations

import numpy as np


def _below_floor(ds: tuple, floor: int, name: str = "dimension") -> ValueError:
    got = ds[0] if len(ds) == 1 else ds
    return ValueError(f"{name} must be >= {floor}, got {got}")


def dims(*ds: int, floor: int = 2, name: str = "dimension") -> None:
    """Every value in ds is an int or a numpy integer (not a bool) of at least floor.

    The error calls the value a ``name``: a dimension unless the caller
    checks some other integer, such as a grid size or a generator label.
    """
    for d in ds:
        if type(d) is not int and not isinstance(d, np.integer):
            raise ValueError(f"{name} must be an integer, got {d!r}")
    if min(ds) < floor:
        raise _below_floor(ds, floor, name)


def square(a, stack: bool = True, floor: int = 0) -> np.ndarray:
    """A stack (..., n, n) of square matrices with n >= floor; one matrix if not stack."""
    a = np.asarray(a)
    shape = a.shape
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {shape}")
    if not stack and len(shape) != 2:
        raise ValueError(f"expected a single matrix, got shape {shape}")
    if shape[-1] < floor:
        raise _below_floor(shape[-1:], floor)
    return a


def bipartite(rho, da: int, db: int, floor: int = 2, stack: bool = True) -> np.ndarray:
    """A square stack (one matrix if not stack) of size da*db, with integer da, db >= floor."""
    dims(da, db, floor=floor)
    rho = square(rho, stack)
    if rho.shape[-1] != da * db:
        raise ValueError(
            f"matrix of shape {rho.shape} does not match subsystem dims ({da}, {db})"
        )
    return rho


def bloch_dim(n: int) -> int:
    """The d >= 2 whose Bloch vectors have length n = d^2 - 1."""
    d = round(np.sqrt(n + 1))
    if d < 2 or d * d - 1 != n:
        raise ValueError(f"Bloch vector length {n} is not d^2-1 for any d >= 2")
    return d
