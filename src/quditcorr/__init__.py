"""Coherence vectors, correlation matrices, and Hilbert-Schmidt discord
for bipartite qudit density matrices.

Each quantity is available in a definition-based (naive) form and an
optimized matrix-element form; the optimized forms never build operators
and are the ones to use in anything but cross-checks.
"""

from .bench import BenchRecord, bench_pair, fit_exponent, run_bench
from .bloch import (
    ReadCounter,
    bloch_naive,
    bloch_of_subsystem,
    bloch_opt,
    corrmat_naive,
    corrmat_opt,
    corrmat_read_count,
    reconstruct,
)
from .discord import (
    DiscordReport,
    discord_hs,
    discord_hsa,
    purity,
    werner_analytic,
    werner_sweep,
    xi_matrix,
)
from .gellmann import GellMannSpec, gellmann, gellmann_basis, gm_index, gm_unindex
from .linalg import (
    ConvergenceError,
    DensityMatrixCheck,
    check_density,
    eig_sym,
    kron,
    ptrace_a,
    ptrace_b,
    trace,
)
from .matfile import MatrixFileError, parse_matrix_file, write_matrix_file
from .states import bell_state, random_cq_state, random_density, swap_operator, werner_state

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "ConvergenceError",
    "DensityMatrixCheck",
    "DiscordReport",
    "GellMannSpec",
    "MatrixFileError",
    "ReadCounter",
    "bell_state",
    "bench_pair",
    "bloch_naive",
    "bloch_of_subsystem",
    "bloch_opt",
    "check_density",
    "corrmat_naive",
    "corrmat_opt",
    "corrmat_read_count",
    "discord_hs",
    "discord_hsa",
    "eig_sym",
    "fit_exponent",
    "gellmann",
    "gellmann_basis",
    "gm_index",
    "gm_unindex",
    "kron",
    "parse_matrix_file",
    "ptrace_a",
    "ptrace_b",
    "purity",
    "random_cq_state",
    "random_density",
    "reconstruct",
    "run_bench",
    "swap_operator",
    "trace",
    "werner_analytic",
    "werner_state",
    "werner_sweep",
    "write_matrix_file",
    "xi_matrix",
]
