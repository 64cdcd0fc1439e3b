"""Stacks of states, shape (..., n, n), against the same calls made one state at a time."""

import tracemalloc

import numpy as np
import pytest

from quditcorr import (
    ReadCounter,
    bloch_naive,
    bloch_of_subsystem,
    bloch_opt,
    corrmat_naive,
    corrmat_opt,
    discord_hs,
    discord_hsa,
    ptrace_a,
    ptrace_b,
    purity,
    random_density,
    werner_state,
    werner_sweep,
    xi_matrix,
)
from quditcorr import linalg

from conftest import eig_no_floor

DIMS = [(2, 3), (3, 2), (4, 9), (5, 7), (12, 2)]
LEADS = [(3,), (2, 2)]
TOL = 1e-15


def _stack(lead, n, seed):
    states = [random_density(n, seed + k) for k in range(int(np.prod(lead)))]
    return np.stack(states).reshape(*lead, n, n)


def _per_state(func, stack, lead):
    """func applied to each state of the stack, restacked on the same leading axes."""
    flat = stack.reshape(-1, *stack.shape[len(lead):])
    return np.stack([np.asarray(func(s)) for s in flat]).reshape(*lead, *np.shape(func(flat[0])))


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= TOL


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("da,db", DIMS)
class TestDecompositionStacks:
    def test_partial_traces(self, da, db, lead):
        rho = _stack(lead, da * db, 10 * da + db)
        for ptrace in (ptrace_a, ptrace_b):
            _assert_close(ptrace(rho, da, db), _per_state(lambda r: ptrace(r, da, db), rho, lead))

    def test_bloch_vectors(self, da, db, lead):
        rho = _stack(lead, da * db, 10 * da + db)
        for side in ("a", "b"):
            want = _per_state(lambda r: bloch_of_subsystem(r, da, db, side), rho, lead)
            _assert_close(bloch_of_subsystem(rho, da, db, side), want)
        marg = ptrace_b(rho, da, db)
        _assert_close(bloch_opt(marg), _per_state(bloch_opt, marg, lead))

    def test_correlation_matrix_and_reads(self, da, db, lead):
        rho = _stack(lead, da * db, 10 * da + db)
        reads, one = ReadCounter(), ReadCounter()
        got = corrmat_opt(rho, da, db, reads=reads)
        _assert_close(got, _per_state(lambda r: corrmat_opt(r, da, db), rho, lead))
        corrmat_opt(rho.reshape(-1, da * db, da * db)[0], da, db, reads=one)
        assert reads.count == int(np.prod(lead)) * one.count

    def test_xi_and_purity(self, da, db, lead):
        rho = _stack(lead, da * db, 10 * da + db)
        a = bloch_of_subsystem(rho, da, db, "a")
        c = corrmat_opt(rho, da, db)
        flat_a, flat_c = a.reshape(-1, a.shape[-1]), c.reshape(-1, *c.shape[-2:])
        want = np.stack([xi_matrix(v, m, db) for v, m in zip(flat_a, flat_c)])
        _assert_close(xi_matrix(a, c, db), want.reshape(*lead, *want.shape[1:]))
        marg = ptrace_a(rho, da, db)
        _assert_close(purity(marg), _per_state(purity, marg, lead))


# Discord on the side with the smaller Xi: the rotation loop on an 80 x 80 or
# 143 x 143 Xi would take seconds per state.
DISCORD_CASES = [(2, 3, "a"), (2, 3, "b"), (3, 2, "a"), (4, 9, "a"), (5, 7, "a"), (12, 2, "b")]


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("da,db,side", DISCORD_CASES)
def test_discord_report_stack(da, db, side, lead):
    rho = _stack(lead, da * db, 7 * da + db)
    rep = discord_hs(rho, da, db, side)
    singles = [discord_hs(r, da, db, side) for r in rho.reshape(-1, da * db, da * db)]
    for field in ("hs_value", "purity_other", "hsa_value"):
        got = getattr(rep, field)
        assert isinstance(got, np.ndarray) and got.shape == lead
        _assert_close(got, np.reshape([getattr(s, field) for s in singles], lead))
    want = np.stack([s.xi_eigenvalues for s in singles])
    _assert_close(rep.xi_eigenvalues, want.reshape(*lead, -1))


def test_single_state_report_keeps_scalar_types():
    rep = discord_hsa(random_density(6, 4), 2, 3, "b")
    assert type(rep.hs_value) is float
    assert type(rep.purity_other) is float
    assert type(rep.hsa_value) is float
    assert rep.xi_eigenvalues.shape == (8,)
    assert type(purity(np.eye(3) / 3)) is float


def test_stack_shapes_are_checked_on_last_two_axes():
    with pytest.raises(ValueError):
        ptrace_b(np.zeros((3, 6, 5)), 2, 3)
    with pytest.raises(ValueError):
        corrmat_opt(np.zeros((3, 4, 4)), 2, 3)
    with pytest.raises(ValueError):
        bloch_opt(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        xi_matrix(np.zeros((2, 3)), np.zeros((3, 3)), 2)


def test_naive_paths_reject_stacks():
    rho = _stack((2,), 4, 1)
    with pytest.raises(ValueError):
        bloch_naive(rho)
    with pytest.raises(ValueError):
        corrmat_naive(rho, 2, 2)


class TestEigSymStack:
    def _mixed(self):
        rng = np.random.default_rng(3)
        diagonal = np.diag([0.3, -0.1, 2.0, 0.0])
        g = rng.standard_normal((4, 4))
        dense = g + g.T
        h = rng.standard_normal((4, 4))
        near_zero = 1e-17 * (h + h.T)
        return np.stack([diagonal, dense, near_zero])

    def test_mixed_stack_matches_one_at_a_time(self):
        stack = self._mixed()
        lam = eig_no_floor(stack)
        assert lam.shape == (3, 4)
        for got, m in zip(lam, stack):
            assert np.array_equal(got, eig_no_floor(m))
        assert np.array_equal(lam[0], [2.0, 0.3, 0.0, -0.1])
        assert np.max(np.abs(lam[1] - np.linalg.eigvalsh(stack[1])[::-1])) <= 1e-12
        assert np.max(np.abs(lam[2])) <= 1e-16

    def test_leading_axes_are_kept(self):
        stack = self._mixed()
        lam = eig_no_floor(np.stack([stack, stack[::-1]]))
        assert lam.shape == (2, 3, 4)
        assert np.array_equal(lam[1], eig_no_floor(stack)[::-1])


class TestWernerStateArray:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_stack_matches_scalar_calls(self, d):
        ws = np.linspace(-1.0, 1.0, 7).reshape(7, 1)
        rho = werner_state(d, ws)
        assert rho.shape == (7, 1, d * d, d * d)
        for w, r in zip(ws.ravel(), rho.reshape(7, d * d, d * d)):
            assert np.array_equal(r, werner_state(d, w))

    @pytest.mark.parametrize("ws", [[0.0, 1.5], [-1.0001, 0.2], [0.1, np.nan], [[0.5], [2.0]]])
    def test_rejects_out_of_range_entries(self, ws):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            werner_state(3, np.array(ws))

    def test_scalar_gives_a_matrix(self):
        assert werner_state(2, 0.25).shape == (4, 4)
        with pytest.raises(ValueError):
            werner_state(2, float("nan"))


def _sweep_reference(dmin, dmax, wsteps):
    rows = []
    for d in range(dmin, dmax + 1):
        for w in np.linspace(-1.0, 1.0, wsteps):
            rep = discord_hsa(werner_state(d, w), d, d, "a")
            rows.append((d, w, rep.hs_value, rep.hsa_value))
    return np.array(rows)


def test_werner_sweep_matches_per_state_loop():
    got = np.array(werner_sweep(2, 8, 41))[:, :4]
    want = _sweep_reference(2, 8, 41)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL
    # d w = 1 at d = 5, w = 0.2: Xi is noise around zero, below discord's floor.
    row = 3 * 41 + 24
    assert got[row, 0] == 5 and abs(got[row, 1] - 0.2) <= 1e-15
    assert got[row, 3] <= 1e-15


def test_werner_sweep_rotates_no_xi(monkeypatch):
    # Every Werner Xi is diagonal or, at d w = 1, rounding noise under the floor.
    def no_rotations(a, thresh):
        raise AssertionError(f"rotated a Xi with threshold {thresh}")

    monkeypatch.setattr(linalg, "_jacobi", no_rotations)
    rows = np.array(werner_sweep(2, 8, 41))
    row = rows[3 * 41 + 24]
    assert row[0] == 5 and abs(row[1] - 0.2) <= 1e-15
    assert row[2] <= 1e-30


def test_werner_sweep_memory_stays_bounded():
    werner_sweep(2, 8, 41)  # fill the index caches first
    tracemalloc.start()
    try:
        werner_sweep(2, 8, 41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
