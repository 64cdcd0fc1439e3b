import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quditcorr import (
    ReadCounter,
    bell_state,
    bloch_naive,
    bloch_of_subsystem,
    bloch_opt,
    corrmat_naive,
    corrmat_opt,
    corrmat_read_count,
    discord_hs,
    gellmann_basis,
    ptrace_a,
    ptrace_b,
    purity,
    random_density,
    reconstruct,
    werner_state,
)

PAULIS = [
    np.diag([1.0, -1.0]).astype(complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
]


def _corrmat_2x2_oracle(rho):
    """Independent Kronecker-trace oracle for da=db=2 (prefactor da*db/4 = 1)."""
    c = np.zeros((3, 3))
    for j, sj in enumerate(PAULIS):
        for k, sk in enumerate(PAULIS):
            c[j, k] = np.trace(np.kron(sj, sk) @ rho).real
    return c


def _realignment_oracle(rho, da, db):
    """C = (da*db/4) Re(Ga R(rho) Gb^T), a dense GEMM that gathers no element.

    R(rho)[(i,i'), (k,k')] = rho[ik, i'k'] is the realigned state, and row j
    of Ga is the transposed generator G_j flattened, so that
    (Ga R Gb^T)[j, k] = Tr((G_j x G_k) rho).
    """
    lead = rho.shape[:-2]
    r = rho.reshape(*lead, da, db, da, db).swapaxes(-3, -2).reshape(*lead, da * da, db * db)
    ga = np.stack([g.T.ravel() for g in gellmann_basis(da)])
    gb = np.stack([g.T.ravel() for g in gellmann_basis(db)])
    return da * db / 4.0 * (ga @ r @ gb.T).real


def _random_stack(lead, n, seed):
    seeds = np.random.default_rng(seed).integers(0, 2**31, int(np.prod(lead)))
    return np.stack([random_density(n, int(s)) for s in seeds]).reshape(*lead, n, n)


# (da, db) pairs up to 5x7, each in both orders; the states are seeded.
ORACLE_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 7), (7, 2), (4, 5), (5, 4), (5, 7), (7, 5)]
ORACLE_TOL = 1e-14


def _expected_reads(da, db):
    """Distinct upper-triangle elements the optimized block formulas touch."""
    na2 = da * (da - 1) // 2
    nb2 = db * (db - 1) // 2
    return da * db + da * nb2 + na2 * db + 2 * na2 * nb2


class TestBlochVector:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed_vanishes(self, d):
        assert_allclose(bloch_naive(np.eye(d, dtype=complex) / d), np.zeros(d * d - 1), atol=1e-15)

    def test_first_basis_projector(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert_allclose(bloch_naive(rho), [1.0, 0.0, 0.0], atol=0)

    def test_plus_state(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        assert_allclose(bloch_opt(rho), [0.0, 1.0, 0.0], atol=1e-16)

    def test_circular_state(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert_allclose(bloch_opt(rho), [0.0, 0.0, 1.0], atol=1e-16)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_naive_matches_opt(self, d):
        for seed in range(5):
            rho = random_density(d, 100 * d + seed)
            assert np.max(np.abs(bloch_naive(rho) - bloch_opt(rho))) <= 1e-13

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            bloch_opt(np.eye(1, dtype=complex))

    def test_naive_rejects_non_hermitian(self):
        rho = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            bloch_naive(rho)
        # bloch_opt rejects with the same message, on one state and on a stack.
        rho = random_density(3, 8)
        rho[0, 1] += 0.3
        message = "trace has imaginary residue 3.000e-01 > 1e-10; input is not Hermitian"
        for fn, arg in [(bloch_naive, rho), (bloch_opt, rho), (bloch_opt, np.stack([rho.T, rho]))]:
            with pytest.raises(ValueError) as err:
                fn(arg)
            assert str(err.value) == message


class TestSubsystemBloch:
    def test_product_state(self):
        ra = random_density(2, 4)
        rb = random_density(3, 5)
        got = bloch_of_subsystem(np.kron(ra, rb), 2, 3, "a")
        assert_allclose(got, bloch_opt(ra), atol=1e-15)

    def test_bell_marginals_vanish(self):
        rho = bell_state(2)
        assert_allclose(bloch_of_subsystem(rho, 2, 2, "a"), np.zeros(3), atol=1e-15)
        assert_allclose(bloch_of_subsystem(rho, 2, 2, "b"), np.zeros(3), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_werner_marginals_vanish(self, d, side):
        # Werner marginals are maximally mixed for every d and w.
        got = bloch_of_subsystem(werner_state(d, -0.7), d, d, side)
        assert np.max(np.abs(got)) <= 1e-15

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            bloch_of_subsystem(bell_state(2), 2, 2, "c")


class TestCorrMatrix:
    def test_product_state_is_outer_product(self):
        ra = random_density(2, 8)
        rb = random_density(3, 9)
        c = corrmat_naive(np.kron(ra, rb), 2, 3)
        expect = np.outer(bloch_opt(ra), bloch_opt(rb))
        assert np.max(np.abs(c - expect)) <= 1e-13

    def test_product_state_opt_path(self):
        ra = random_density(3, 10)
        rb = random_density(2, 11)
        c = corrmat_opt(np.kron(ra, rb), 3, 2)
        expect = np.outer(bloch_opt(ra), bloch_opt(rb))
        assert np.max(np.abs(c - expect)) <= 1e-13

    def test_bell_against_kron_oracle(self):
        rho = bell_state(2)
        expect = _corrmat_2x2_oracle(rho)
        assert_allclose(expect, np.diag([1.0, 1.0, -1.0]), atol=1e-15)
        assert_allclose(corrmat_naive(rho, 2, 2), expect, atol=1e-14)
        assert_allclose(corrmat_opt(rho, 2, 2), expect, atol=1e-14)

    def test_maximally_mixed_vanishes(self):
        assert_allclose(corrmat_naive(np.eye(4, dtype=complex) / 4, 2, 2), np.zeros((3, 3)), atol=0)

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 4)])
    def test_naive_matches_opt(self, da, db):
        for seed in range(3):
            rho = random_density(da * db, 7 * da + db + seed)
            diff = np.abs(corrmat_naive(rho, da, db) - corrmat_opt(rho, da, db))
            assert np.max(diff) <= 1e-12

    def test_block_shape(self):
        c = corrmat_opt(random_density(6, 1), 2, 3)
        assert c.shape == (3, 8)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            corrmat_opt(np.eye(2, dtype=complex) / 2, 1, 2)

    def test_naive_rejects_non_hermitian(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 3] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            corrmat_naive(rho, 2, 2)


@pytest.mark.parametrize("da,db", [(2, 3), (3, 2), (3, 4)])
def test_non_hermitian_input_reads_one_triangle(da, db):
    # The optimized paths read rho's strict lower triangle and Re of its
    # diagonal: on a non-Hermitian rho they give the naive values of the
    # Hermitian matrix built from those entries. The upper triangle's
    # matrix is off by order 10 here, so the test tells the two apart.
    rng = np.random.default_rng(10 * da + db)
    n = da * db
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    low = np.tril(x, -1)
    h = low + low.conj().T + np.diag(x.diagonal().real)
    assert np.max(np.abs(corrmat_opt(x, da, db) - corrmat_naive(h, da, db))) <= 1e-13
    for side, marginal in (("a", ptrace_b(h, da, db)), ("b", ptrace_a(h, da, db))):
        assert np.max(np.abs(bloch_of_subsystem(x, da, db, side) - bloch_naive(marginal))) <= 1e-13
        other = discord_hs(x, da, db, "b" if side == "a" else "a").purity_other
        assert abs(other - purity(marginal)) <= 1e-13 * purity(marginal)


@pytest.mark.parametrize("da,db", ORACLE_DIMS)
class TestCorrMatrixGatherLayouts:
    """Input layouts the flat-index gather must read correctly, against the GEMM oracle."""

    def _check(self, rho, da, db):
        lead = rho.shape[:-2]
        got = corrmat_opt(rho, da, db)
        assert got.shape == (*lead, da * da - 1, db * db - 1)
        assert np.max(np.abs(got - _realignment_oracle(rho, da, db)), initial=0.0) <= ORACLE_TOL
        # The marginal Bloch vectors read the same layouts; the naive path
        # of each state's partial trace, summed in double precision, is
        # their oracle.
        r4 = rho.reshape(*lead, da, db, da, db).astype(complex)
        for side, marginal in [("a", np.einsum("...ijkj->...ik", r4)),
                               ("b", np.einsum("...jijk->...ik", r4))]:
            vec = bloch_of_subsystem(rho, da, db, side)
            assert vec.shape == (*lead, marginal.shape[-1] ** 2 - 1)
            for i in np.ndindex(lead):
                assert np.max(np.abs(vec[i] - bloch_naive(marginal[i]))) <= ORACLE_TOL

    def test_single_state(self, da, db):
        rho = random_density(da * db, 40 * da + db)
        self._check(rho, da, db)
        self._check(rho.astype(np.complex64), da, db)
        self._check(np.rint(8 * rho.real).astype(np.int64), da, db)

    def test_stack_2x2(self, da, db):
        self._check(_random_stack((2, 2), da * db, 40 * da + db), da, db)
        self._check(np.zeros((0, da * db, da * db), dtype=complex), da, db)
        n = da * db
        self._check(_random_stack((2,), n, 45 * da + db).reshape(2, 1, n, n), da, db)

    def test_non_contiguous_stack(self, da, db):
        view = np.swapaxes(_random_stack((2, 2), da * db, 50 * da + db), -1, -2).conj()
        assert not view.flags.c_contiguous
        self._check(view, da, db)

    def test_real_valued_state(self, da, db):
        rho = np.ascontiguousarray(random_density(da * db, 60 * da + db).real)
        assert rho.dtype == np.float64
        self._check(rho, da, db)
        self._check(_random_stack((2, 2), da * db, 70 * da + db).real, da, db)


class TestReadCounting:
    def test_frozen_counts(self):
        for d, expect in [(2, 10), (4, 136), (8, 2080)]:
            reads = ReadCounter()
            corrmat_opt(np.eye(d * d, dtype=complex) / (d * d), d, d, reads=reads)
            assert reads.count == expect
            assert reads.count == _expected_reads(d, d)

    def test_rectangular_counts(self):
        reads = ReadCounter()
        corrmat_opt(random_density(6, 0), 2, 3, reads=reads)
        assert reads.count == _expected_reads(2, 3) == 21
        for da, db in [(2, 3), (5, 7), (7, 5), (2, 24)]:
            reads = ReadCounter()
            corrmat_opt(random_density(da * db, 0), da, db, reads=reads)
            assert corrmat_read_count(da, db) == reads.count == _expected_reads(da, db)

    @pytest.mark.parametrize("da,db", [(1, 2), (2, 1), (0, 3)])
    def test_read_count_rejects_dimension_below_two(self, da, db):
        with pytest.raises(ValueError, match=">= 2"):
            corrmat_read_count(da, db)

    def test_empty_stack_reads_nothing(self):
        reads = ReadCounter()
        corrmat_opt(np.zeros((0, 12, 12), dtype=complex), 3, 4, reads=reads)
        assert reads.count == 0

    def test_counter_accumulates(self):
        reads = ReadCounter()
        rho = np.eye(4, dtype=complex) / 4
        corrmat_opt(rho, 2, 2, reads=reads)
        corrmat_opt(rho, 2, 2, reads=reads)
        assert reads.count == 20


class TestReconstruct:
    def test_zero_components_give_maximally_mixed(self):
        rho = reconstruct(np.zeros(3), np.zeros(8), np.zeros((3, 8)))
        assert_allclose(rho, np.eye(6) / 6, atol=0)

    def test_bell_triple(self):
        rho = reconstruct(np.zeros(3), np.zeros(3), np.diag([1.0, 1.0, -1.0]))
        assert_allclose(rho, bell_state(2), atol=1e-15)

    @pytest.mark.parametrize("da,db", [(2, 4), (3, 2)])
    def test_round_trip(self, da, db):
        for seed in range(3):
            rho = random_density(da * db, 50 + seed)
            a = bloch_of_subsystem(rho, da, db, "a")
            b = bloch_of_subsystem(rho, da, db, "b")
            c = corrmat_opt(rho, da, db)
            assert np.max(np.abs(reconstruct(a, b, c) - rho)) <= 1e-12

    def test_rejects_mismatched_corrmat(self):
        with pytest.raises(ValueError):
            reconstruct(np.zeros(3), np.zeros(3), np.zeros((3, 8)))


class TestDecompositionProperties:
    # da in 2..5 and db in 2..7, in either order.
    @seed(20161108)
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        da=st.integers(2, 5),
        db=st.integers(2, 7),
        swap=st.booleans(),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_naive_matches_opt(self, da, db, swap, state_seed):
        if swap:
            da, db = db, da
        rho = random_density(da * db, state_seed)
        c = corrmat_naive(rho, da, db)
        assert np.max(np.abs(c - corrmat_opt(rho, da, db))) <= 1e-12
        for side, marginal in (("a", ptrace_b(rho, da, db)), ("b", ptrace_a(rho, da, db))):
            diff = bloch_naive(marginal) - bloch_of_subsystem(rho, da, db, side)
            assert np.max(np.abs(diff)) <= 1e-12

    @seed(20161109)
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        da=st.integers(2, 5),
        db=st.integers(2, 7),
        swap=st.booleans(),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_reconstruct_round_trip(self, da, db, swap, state_seed):
        if swap:
            da, db = db, da
        rho = random_density(da * db, state_seed)
        a = bloch_of_subsystem(rho, da, db, "a")
        b = bloch_of_subsystem(rho, da, db, "b")
        c = corrmat_opt(rho, da, db)
        assert np.max(np.abs(reconstruct(a, b, c) - rho)) <= 1e-12
