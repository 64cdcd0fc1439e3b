import numpy as np
import pytest

from quditcorr import fit_exponent, run_bench, werner_analytic, werner_sweep
from quditcorr.bench import bench_pair


def test_bench_pair_fields():
    rec = bench_pair(2, 2, trials=2, seed=1)
    assert (rec.da, rec.db, rec.trials) == (2, 2, 2)
    assert rec.t_naive_ns > 0 and rec.t_opt_ns > 0
    assert rec.speedup == rec.t_naive_ns / rec.t_opt_ns
    assert not rec.censored


def test_bench_pair_censoring():
    rec = bench_pair(2, 2, trials=3, seed=1, cap_seconds=0.0)
    assert rec.censored
    assert rec.speedup > 0


def test_run_bench_sorted_by_total_dimension():
    recs = run_bench([(2, 3), (2, 2), (4, 2)], trials=1, seed=0)
    assert [(r.da, r.db) for r in recs] == [(2, 2), (2, 3), (4, 2)]


def test_bench_rejects_bad_trials():
    with pytest.raises(ValueError):
        bench_pair(2, 2, trials=0)


def test_fit_exponent_recovers_power_law():
    ds = np.array([2, 4, 8])
    assert abs(fit_exponent(ds, 3.0 * ds**4) - 4.0) <= 1e-12


def test_werner_sweep_grid_and_values():
    rows = werner_sweep(2, 3, 5)
    assert len(rows) == 10
    ds = [r[0] for r in rows]
    assert ds == [2] * 5 + [3] * 5
    ws = [r[1] for r in rows[:5]]
    assert np.allclose(ws, np.linspace(-1, 1, 5))
    for d, w, hs, hsa, ana in rows:
        assert ana == werner_analytic(d, w)
        assert abs(hsa - ana) <= 1e-10


def test_werner_sweep_validates_arguments():
    with pytest.raises(ValueError):
        werner_sweep(1, 3, 5)
    with pytest.raises(ValueError):
        werner_sweep(2, 3, 1)
    with pytest.raises(ValueError):
        werner_sweep(3, 2, 5)
