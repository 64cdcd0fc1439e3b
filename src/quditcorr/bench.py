"""Timing benchmark of the naive against the optimized pipeline.

The benchmark times the naive pipeline (partial traces, materialized
generators) against the paper's optimized one (``bloch_of_subsystem`` per
side, ``corrmat_opt``) on both Bloch vectors and the correlation matrix of
one seeded random state: median nanoseconds over trials after one warmup.
Medians resist scheduler noise; timings are still hardware-dependent, so
only relative statements (speedups, monotone growth) are meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from .bloch import bloch_naive, bloch_of_subsystem, corrmat_naive, corrmat_opt
from .linalg import ptrace_a, ptrace_b
from .states import random_density

__all__ = ["BenchRecord", "bench_pair", "run_bench", "fit_exponent"]

DEFAULT_TRIALS = 5
DEFAULT_CAP_SECONDS = 300.0


@dataclass(frozen=True)
class BenchRecord:
    """Median timings for one (da, db); censored means the naive side hit the cap."""

    da: int
    db: int
    trials: int
    t_naive_ns: int
    t_opt_ns: int
    speedup: float
    censored: bool = False


def _naive_pass(rho, da, db):
    bloch_naive(ptrace_b(rho, da, db))
    bloch_naive(ptrace_a(rho, da, db))
    corrmat_naive(rho, da, db)


def _opt_pass(rho, da, db):
    bloch_of_subsystem(rho, da, db, "a")
    bloch_of_subsystem(rho, da, db, "b")
    corrmat_opt(rho, da, db)


def _time_ns(func) -> int:
    t0 = time.perf_counter_ns()
    func()
    return time.perf_counter_ns() - t0


def bench_pair(
    da: int,
    db: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    cap_seconds: float = DEFAULT_CAP_SECONDS,
) -> BenchRecord:
    """Time both pipelines on one seeded random state of dimension da*db."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rho = random_density(da * db, seed)

    _opt_pass(rho, da, db)  # warmup, discarded
    t_opt = int(median(_time_ns(lambda: _opt_pass(rho, da, db)) for _ in range(trials)))

    first = _time_ns(lambda: _naive_pass(rho, da, db))  # warmup doubles as cap probe
    censored = first > cap_seconds * 1e9
    if censored:
        t_naive = first
    else:
        t_naive = int(
            median(_time_ns(lambda: _naive_pass(rho, da, db)) for _ in range(trials))
        )
    return BenchRecord(da, db, trials, t_naive, t_opt, t_naive / t_opt, censored)


def run_bench(
    dims: list[tuple[int, int]],
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    cap_seconds: float = DEFAULT_CAP_SECONDS,
) -> list[BenchRecord]:
    """Benchmark each (da, db) pair, sorted by total dimension ascending."""
    ordered = sorted(dims, key=lambda p: (p[0] * p[1], p))
    return [bench_pair(da, db, trials, seed, cap_seconds) for da, db in ordered]


def fit_exponent(dims, counts) -> float:
    """Least-squares slope of log(count) against log(dim)."""
    return float(np.polyfit(np.log(np.asarray(dims, float)), np.log(np.asarray(counts, float)), 1)[0])
