"""Command-line interface.

Subcommands: gellmann, bloch, corrmat, discord, werner-sweep, bench.
Exit codes: 0 success, 1 usage error, 2 invalid input data, 3 numerical
failure. Numeric output is printed at 12 significant digits; complex
matrices print as "re im" pairs, real output as plain values.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .bench import DEFAULT_CAP_SECONDS, DEFAULT_TRIALS, run_bench
from .bloch import bloch_naive, bloch_opt, corrmat_naive, corrmat_opt
from .discord import discord_hs, purity, werner_sweep
from .gellmann import gellmann
from .linalg import ConvergenceError, check_density, ptrace_a, ptrace_b
from .matfile import MatrixFileError, parse_matrix_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Hermiticity/trace defect, or negative eigenvalue, beyond which an input
# file is rejected as not being a density matrix.
DENSITY_DEFECT_TOL = 1e-8


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; our convention reserves 2 for
    # bad input data, so route parse failures through UsageError instead.
    def error(self, message):
        raise UsageError(message)


_format_value = "{:.12g}".format


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"


def _print_vector(v) -> None:
    _print_matrix(np.asarray(v)[np.newaxis])


def _print_matrix(m) -> None:
    m = np.asarray(m)
    if np.iscomplexobj(m) and np.any(m.imag != 0.0):
        m = np.stack((m.real, m.imag), axis=-1).reshape(m.shape[0], -1)
    # "+ 0.0" turns -0.0 into 0.0; tolist() hands plain floats to the formatter.
    for row in (m.real + 0.0).tolist():
        print(" ".join(map(_format_value, row)))


def _require_hermitian(path, rho):
    # The cheap part of the density check: bloch and corrmat read only one
    # triangle of rho, so a non-Hermitian file would otherwise get an answer.
    # They compute on the exactly Hermitian part, so the library's stricter
    # residue checks never decide the exit code of a file that passes here.
    rho_h = rho.conj().T
    defect = float(np.max(np.abs(rho - rho_h)))
    if defect > DENSITY_DEFECT_TOL:
        raise DataError(f"{path}: not a density matrix (hermiticity defect {defect:.3e})")
    return (rho + rho_h) / 2


def _load_bipartite(path):
    rho, da, db = parse_matrix_file(path)
    if db == 0:
        raise DataError(f"{path}: bipartite matrix required, got single-system header")
    if da < 2 or db < 2:
        raise DataError(f"{path}: subsystem dimensions must be >= 2, got ({da}, {db})")
    return rho, da, db


def _cmd_gellmann(args) -> int:
    try:
        g = gellmann(args.dim, args.group, args.k, args.l)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _print_matrix(g)
    return EXIT_OK


def _cmd_bloch(args) -> int:
    rho, da, db = parse_matrix_file(args.input)
    rho = _require_hermitian(args.input, rho)
    if db == 0:
        rho_s = rho
    elif args.subsys == "a":
        rho_s = ptrace_b(rho, da, db)
    else:
        rho_s = ptrace_a(rho, da, db)
    if rho_s.shape[0] < 2:
        raise DataError(f"{args.input}: subsystem dimension must be >= 2")
    _print_vector(bloch_naive(rho_s) if args.naive else bloch_opt(rho_s))
    return EXIT_OK


def _cmd_corrmat(args) -> int:
    rho, da, db = _load_bipartite(args.input)
    rho = _require_hermitian(args.input, rho)
    c = corrmat_naive(rho, da, db) if args.naive else corrmat_opt(rho, da, db)
    _print_matrix(c)
    return EXIT_OK


def _cmd_discord(args) -> int:
    rho, da, db = _load_bipartite(args.input)
    report = check_density(rho)
    if (
        report.hermiticity_defect > DENSITY_DEFECT_TOL
        or report.trace_defect > DENSITY_DEFECT_TOL
        or report.min_eigenvalue < -DENSITY_DEFECT_TOL
    ):
        raise DataError(
            f"{args.input}: not a density matrix "
            f"(hermiticity defect {report.hermiticity_defect:.3e}, "
            f"trace defect {report.trace_defect:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e})"
        )
    if args.measure == "purity":
        marginal = ptrace_b(rho, da, db) if args.subsys == "a" else ptrace_a(rho, da, db)
        value = purity(marginal)
    else:
        rep = discord_hs(rho, da, db, args.subsys)
        value = rep.hs_value if args.measure == "hs" else rep.hsa_value
    print(f"{args.measure} {args.subsys} {da} {db} {_fmt(value)}")
    return EXIT_OK


def _cmd_werner_sweep(args) -> int:
    try:
        rows = werner_sweep(args.dmin, args.dmax, args.wsteps)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("d,w,hs_numeric,hsa_numeric,hsa_analytic\n")
        for d, w, hs, hsa, ana in rows:
            fh.write(f"{d},{_fmt(w)},{_fmt(hs)},{_fmt(hsa)},{_fmt(ana)}\n")
    return EXIT_OK


def _parse_dims(text: str) -> list[tuple[int, int]]:
    dims = []
    for item in text.split(","):
        parts = item.lower().split("x")
        if len(parts) != 2:
            raise UsageError(f"--dims items must look like '2x3', got {item!r}")
        try:
            da, db = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError(f"--dims items must look like '2x3', got {item!r}") from None
        if da < 2 or db < 2:
            raise UsageError(f"benchmark dimensions must be >= 2, got {item!r}")
        dims.append((da, db))
    return dims


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    records = run_bench(_parse_dims(args.dims), args.trials, args.seed, args.cap)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("da,db,trials,t_naive_ns,t_opt_ns,speedup,censored\n")
        for r in records:
            fh.write(
                f"{r.da},{r.db},{r.trials},{r.t_naive_ns},{r.t_opt_ns},"
                f"{_fmt(r.speedup)},{int(r.censored)}\n"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quditcorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gellmann", help="print one generalized Gell-Mann generator")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--group", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.set_defaults(func=_cmd_gellmann)

    p = sub.add_parser("bloch", help="print the Bloch vector of a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--subsys", choices=("a", "b"), default="a")
    p.add_argument("--naive", action="store_true", help="use the generator-based path")
    p.set_defaults(func=_cmd_bloch)

    p = sub.add_parser("corrmat", help="print the correlation matrix of a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--naive", action="store_true", help="use the Kronecker-product path")
    p.set_defaults(func=_cmd_corrmat)

    p = sub.add_parser("discord", help="print a Hilbert-Schmidt discord value")
    p.add_argument("--measure", choices=("hs", "hsa", "purity"), required=True)
    p.add_argument("--subsys", choices=("a", "b"), default="a")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_discord)

    p = sub.add_parser("werner-sweep", help="CSV sweep of Werner-state discord")
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--wsteps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_werner_sweep)

    p = sub.add_parser("bench", help="CSV timing of naive vs optimized pipelines")
    p.add_argument("--dims", required=True, help="comma-separated list like 2x2,3x3")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=float, default=DEFAULT_CAP_SECONDS,
                   help="wall-clock cap in seconds for one naive pass")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args returns a fresh Namespace and leaves the parser unchanged,
    # so one parser serves every main() call in the process.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MatrixFileError, DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
