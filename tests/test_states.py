import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditcorr import (
    bell_state,
    bloch_opt,
    corrmat_opt,
    discord_hsa,
    ptrace_a,
    ptrace_b,
    purity,
    random_cq_state,
    random_density,
    swap_operator,
    werner_state,
)


class TestSwapOperator:
    def test_two_qubit_matrix(self):
        expect = np.eye(4)[[0, 2, 1, 3]]
        assert_allclose(swap_operator(2), expect, atol=0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_trace_counts_fixed_points(self, d):
        assert np.trace(swap_operator(d)).real == d

    def test_conjugation_swaps_factors(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f = swap_operator(3)
        assert np.max(np.abs(f @ np.kron(a, b) @ f - np.kron(b, a))) <= 1e-14

    @pytest.mark.parametrize("d", [2, 4])
    def test_involutive_and_symmetric(self, d):
        f = swap_operator(d)
        assert np.array_equal(f @ f, np.eye(d * d, dtype=complex))
        assert np.array_equal(f, f.T)


class TestWernerState:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("w", [-1.0, -0.3, 0.0, 0.5, 1.0])
    def test_swap_expectation_is_w(self, d, w):
        rho = werner_state(d, w)
        assert abs(np.trace(swap_operator(d) @ rho).real - w) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3])
    def test_marginals_maximally_mixed(self, d):
        rho = werner_state(d, 0.9)
        assert_allclose(ptrace_b(rho, d, d), np.eye(d) / d, atol=1e-16)
        assert_allclose(ptrace_a(rho, d, d), np.eye(d) / d, atol=1e-16)

    def test_linear_in_w(self):
        r1, r2 = werner_state(3, -0.8), werner_state(3, 0.6)
        mid = werner_state(3, (-0.8 + 0.6) / 2)
        assert np.max(np.abs(mid - (r1 + r2) / 2)) <= 1e-15

    def test_zero_discord_point(self):
        # dw - 1 = 0 at w = 1/d kills the closed-form value
        rep = discord_hsa(werner_state(2, 0.5), 2, 2, "a")
        assert rep.hsa_value <= 1e-14

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_index_pair_scatter(self, d):
        # The same entries written through (row, column) index pairs.
        w = np.linspace(-1.0, 1.0, 41)
        scale = 1.0 / (d * (d * d - 1))
        same = (d - w)[..., None]
        swap = (d * w - 1)[..., None]
        j, k = np.divmod(np.arange(d * d), d)
        mixed = j != k
        jk, kj, jj = np.flatnonzero(mixed), (k * d + j)[mixed], np.flatnonzero(~mixed)
        expect = np.zeros(w.shape + (d * d, d * d), dtype=complex)
        expect[..., jk, jk] = same * scale
        expect[..., jk, kj] = swap * scale
        expect[..., jj, jj] = (same + swap) * scale
        got = werner_state(d, w)
        assert got.shape == expect.shape
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner_state(2, 1.5)
        with pytest.raises(ValueError):
            werner_state(1, 0.0)


class TestBellState:
    def test_qubit_entries(self):
        rho = bell_state(2)
        expect = np.zeros((4, 4))
        expect[np.ix_([0, 3], [0, 3])] = 0.5
        assert_allclose(rho, expect, atol=1e-16)

    def test_pure(self):
        assert abs(purity(bell_state(4)) - 1.0) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    def test_marginals_maximally_mixed(self, d):
        rho = bell_state(d)
        assert_allclose(ptrace_b(rho, d, d), np.eye(d) / d, atol=1e-15)


class TestRandomDensity:
    def test_unit_trace(self):
        assert abs(np.trace(random_density(5, 7)) - 1.0) <= 1e-14

    def test_positive_semidefinite(self):
        rho = random_density(6, 8)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-14

    def test_deterministic_in_seed(self):
        assert np.array_equal(random_density(4, 123), random_density(4, 123))
        assert not np.array_equal(random_density(4, 123), random_density(4, 124))


class TestRandomCqState:
    def test_unit_trace(self):
        assert abs(np.trace(random_cq_state(3, 2, 5)) - 1.0) <= 1e-13

    def test_deterministic_in_seed(self):
        assert np.array_equal(random_cq_state(2, 2, 9), random_cq_state(2, 2, 9))

    def test_computational_basis_form_factorizes(self):
        # one shared side-b state over the computational basis is a product
        # state, whose correlation matrix is the outer product of the vectors
        rng = np.random.default_rng(17)
        p = rng.random(3)
        p /= p.sum()
        rb = random_density(2, 21)
        rho = np.zeros((6, 6), dtype=complex)
        for j in range(3):
            proj = np.zeros((3, 3), dtype=complex)
            proj[j, j] = 1.0
            rho += p[j] * np.kron(proj, rb)
        c = corrmat_opt(rho, 3, 2)
        a = bloch_opt(ptrace_b(rho, 3, 2))
        b = bloch_opt(rb)
        assert np.max(np.abs(c - np.outer(a, b))) <= 1e-14


@pytest.mark.parametrize(
    "rho",
    [
        swap_operator(2) @ bell_state(2) @ swap_operator(2),
        werner_state(3, -1.0),
        werner_state(4, 1.0),
        bell_state(3),
        random_density(5, 2),
        random_cq_state(2, 3, 4),
        werner_state(2, 1.0),
    ],
)
def test_constructors_emit_valid_densities(rho):
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-13
    assert abs(np.trace(rho) - 1.0) <= 1e-13
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
