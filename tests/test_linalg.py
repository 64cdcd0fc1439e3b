import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditcorr import (
    bell_state,
    gellmann,
    ptrace_a,
    ptrace_b,
    random_density,
    werner_state,
)
from quditcorr.linalg import ConvergenceError

from conftest import eig_no_floor


def _ptrace_b_loop(rho, da, db):
    """Independent index-sum oracle: rho_a[m,n] = sum_p rho[m*db+p, n*db+p]."""
    out = np.zeros((da, da), dtype=complex)
    for m in range(da):
        for n in range(da):
            for p in range(db):
                out[m, n] += rho[m * db + p, n * db + p]
    return out


def _ptrace_a_loop(rho, da, db):
    out = np.zeros((db, db), dtype=complex)
    for p in range(db):
        for q in range(db):
            for m in range(da):
                out[p, q] += rho[m * db + p, m * db + q]
    return out


def _eig3_charpoly(m):
    """Roots of the characteristic cubic of a symmetric 3x3, non-increasing."""
    a, b, c = m[0, 0], m[0, 1], m[0, 2]
    d, e, f = m[1, 1], m[1, 2], m[2, 2]
    tr = a + d + f
    minors = (a * d - b * b) + (a * f - c * c) + (d * f - e * e)
    det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    return np.sort(np.roots([1.0, -tr, minors, -det]).real)[::-1]


class TestKron:
    def test_bell_trace_oracle(self):
        # Hand-built sigma_x x sigma_x against the Bell projector gives 1.
        sxsx = np.array(
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
        )
        g = gellmann(2, 2, 1, 2)
        assert_allclose(np.kron(g, g), sxsx, atol=0)
        val = np.trace(np.kron(g, g) @ bell_state(2))
        assert_allclose(val, 1.0, atol=1e-15)


class TestTrace:
    def test_generator_traceless(self):
        assert abs(np.trace(gellmann(2, 1, 1))) == 0.0

    def test_werner_normalized(self):
        assert abs(np.trace(werner_state(2, 0.5)) - 1.0) <= 1e-15


class TestPartialTrace:
    def test_product_state_recovery(self):
        ra = random_density(3, 1)
        rb = random_density(2, 2)
        rho = np.kron(ra, rb)
        assert np.max(np.abs(ptrace_b(rho, 3, 2) - ra)) <= 1e-14
        assert np.max(np.abs(ptrace_a(rho, 3, 2) - rb)) <= 1e-14

    def test_bell_marginals(self):
        rho = bell_state(2)
        assert_allclose(ptrace_b(rho, 2, 2), np.eye(2) / 2, atol=1e-15)
        assert_allclose(ptrace_a(rho, 2, 2), np.eye(2) / 2, atol=1e-15)

    def test_loop_oracle_b(self):
        rho = random_density(12, 3)
        assert_allclose(ptrace_b(rho, 3, 4), _ptrace_b_loop(rho, 3, 4), atol=1e-15)

    def test_loop_oracle_a(self):
        rho = random_density(10, 4)
        assert_allclose(ptrace_a(rho, 2, 5), _ptrace_a_loop(rho, 2, 5), atol=1e-15)

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (4, 3)])
    def test_preserves_trace(self, da, db):
        rho = random_density(da * db, da * 10 + db)
        assert abs(np.trace(ptrace_b(rho, da, db)) - np.trace(rho)) <= 1e-13
        assert abs(np.trace(ptrace_a(rho, da, db)) - np.trace(rho)) <= 1e-13

    @pytest.mark.parametrize("da,db", [(2, 2), (3, 5), (5, 3), (7, 7), (12, 2), (2, 24)])
    def test_bit_identical_to_axis_trace(self, da, db):
        # np.trace over the paired axes sums each entry in index order; the
        # kernels must round exactly as it does, on stacks and on views.
        stack = np.stack([random_density(da * db, s) for s in (5, 6)])
        for rho in (stack, np.swapaxes(stack, -1, -2).conj()):
            r4 = rho.reshape(2, da, db, da, db)
            for got, ref in (
                (ptrace_b(rho, da, db), np.trace(r4, axis1=-3, axis2=-1)),
                (ptrace_a(rho, da, db), np.trace(r4, axis1=-4, axis2=-2)),
            ):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ptrace_b(np.eye(5), 2, 2)


class TestEigSym:
    def test_diagonal(self):
        assert_allclose(eig_no_floor(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0], atol=0)

    def test_scaled_identity(self):
        assert_allclose(eig_no_floor(np.eye(3) / 4), [0.25, 0.25, 0.25], atol=0)

    def test_charpoly_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.standard_normal((3, 3))
            m = (m + m.T) / 2
            assert np.max(np.abs(eig_no_floor(m) - _eig3_charpoly(m))) <= 1e-10

    def test_charpoly_oracle_xi(self):
        # Xi of a random two-qubit state is symmetric 3x3 PSD.
        from quditcorr import bloch_of_subsystem, corrmat_opt, xi_matrix

        rho = random_density(4, 23)
        xi = xi_matrix(bloch_of_subsystem(rho, 2, 2, "a"), corrmat_opt(rho, 2, 2), 2)
        assert np.max(np.abs(eig_no_floor(xi) - _eig3_charpoly(xi))) <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 9, 15])
    def test_sorted_and_trace_preserving(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        lam = eig_no_floor(m)
        assert np.all(np.diff(lam) <= 0)
        assert abs(lam.sum() - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))

    def test_tiny_matrix_has_no_floor(self):
        # With floor 0 the solver rotates at any scale; discord passes eps^2 P as its floor.
        g = np.random.default_rng(4).standard_normal((6, 6))
        m = 1e-40 * (g + g.T)
        want = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(eig_no_floor(m) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_convergence_error_exists(self):
        assert issubclass(ConvergenceError, RuntimeError)
