"""Plain-text density-matrix files.

Line 1 is a header "da db" (db = 0 marks a single-system matrix); every
following line is one matrix entry "re im", row-major, as two finite ASCII
decimal numbers. Lines starting with '#' and blank lines are ignored, and a
'#' after an entry starts a comment. Explicit real/imag columns keep the
format trivially parseable from any language.
"""

from __future__ import annotations

import math

import numpy as np

from . import _checks

__all__ = ["MatrixFileError", "parse_matrix_file", "write_matrix_file"]


class MatrixFileError(ValueError):
    """Malformed matrix file; the message names the offending line."""


def _significant_lines(lines: list[str], start: int = 0):
    for index in range(start, len(lines)):
        line = lines[index].strip()
        if not line or line.startswith("#"):
            continue
        yield index + 1, line


def _token_float(token: str) -> float:
    # float() also takes non-ASCII digits and '_' digit separators, which
    # numpy's text reader rejects; refuse them here too so both agree.
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return float(token)


def _entry_error(path, lines: list[str], start: int, expected: int) -> MatrixFileError:
    """Name the first faulty entry after the header, once numpy has rejected the body."""
    count = 0
    for lineno, line in _significant_lines(lines, start):
        where = f"{path}: line {lineno}"
        if count >= expected:
            return MatrixFileError(f"{where}: expected {expected} entries, found more")
        fields = line.split("#", 1)[0].split()
        if len(fields) != 2:
            return MatrixFileError(f"{where}: entry must be 're im', got {line!r}")
        try:
            values = [_token_float(field) for field in fields]
        except ValueError:
            return MatrixFileError(f"{where}: non-numeric token in {line!r}")
        if not all(map(math.isfinite, values)):
            return MatrixFileError(f"{where}: non-finite value in {line!r}")
        count += 1
    return MatrixFileError(f"{path}: expected {expected} entries, got {count}")


def parse_matrix_file(path) -> tuple[np.ndarray, int, int]:
    """Read a matrix file, returning (matrix, da, db) with db = 0 for single-system."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    significant = _significant_lines(lines)

    try:
        lineno, header = next(significant)
    except StopIteration:
        raise MatrixFileError(f"{path}: empty file, expected a 'da db' header") from None
    fields = header.split()
    if len(fields) != 2:
        raise MatrixFileError(f"{path}: line {lineno}: header must be 'da db', got {header!r}")
    try:
        da, db = int(fields[0]), int(fields[1])
    except ValueError:
        raise MatrixFileError(
            f"{path}: line {lineno}: header must hold two integers, got {header!r}"
        ) from None
    if da < 1 or db < 0:
        raise MatrixFileError(f"{path}: line {lineno}: bad dimensions da={da} db={db}")

    n = da * max(db, 1)
    expected = n * n
    # An empty body would make loadtxt warn; the scan below reports it instead.
    if next(significant, None) is not None:
        try:
            data = np.loadtxt(lines[lineno:], dtype=float, comments="#", ndmin=2)
        except ValueError:
            data = None
        # The shape is checked before anything of size n^2 exists, so a header
        # claiming more entries than the file holds costs nothing to reject.
        if data is not None and data.shape == (expected, 2) and np.isfinite(data).all():
            return data.view(complex).reshape(n, n), da, db
    raise _entry_error(path, lines, lineno, expected)


def write_matrix_file(path, rho, da: int, db: int = 0) -> None:
    """Write a matrix in the format parse_matrix_file reads back.

    Raises ValueError before opening the file on what the parser rejects:
    da < 1, db < 0, a non-integer dimension or a non-finite entry.
    """
    if da < 1 or db < 0:
        raise ValueError(f"bad dimensions da={da} db={db}")
    _checks.dims(da, db, floor=0)
    rho = np.asarray(rho, dtype=complex)
    n = da * max(db, 1)
    if rho.shape != (n, n):
        raise ValueError(f"matrix shape {rho.shape} does not match dims ({da}, {db})")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has a non-finite entry")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{da} {db}\n")
        for v in rho.ravel():
            fh.write(f"{v.real:.17g} {v.imag:.17g}\n")
