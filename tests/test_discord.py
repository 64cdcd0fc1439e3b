import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quditcorr import (
    bell_state,
    bloch_of_subsystem,
    corrmat_opt,
    discord_hs,
    discord_hsa,
    ptrace_a,
    purity,
    random_cq_state,
    random_density,
    werner_analytic,
    werner_state,
    xi_matrix,
)
from quditcorr.discord import _m_matrix
from quditcorr.linalg import _eig_sym

from conftest import isotropic_state, random_pure_state


class TestXiMatrix:
    def test_zero_inputs(self):
        assert_allclose(xi_matrix(np.zeros(3), np.zeros((3, 3)), 2), np.zeros((3, 3)), atol=0)

    def test_bell_is_scaled_identity(self):
        rho = bell_state(2)
        xi = xi_matrix(bloch_of_subsystem(rho, 2, 2, "a"), corrmat_opt(rho, 2, 2), 2)
        assert_allclose(xi, np.eye(3) / 4, atol=1e-15)

    def test_werner_qutrit_prefactor(self):
        # zero Bloch vector leaves (2/(9*3))*(2/3) C C^t = (4/81) C C^t
        rho = werner_state(3, 0.6)
        c = corrmat_opt(rho, 3, 3)
        xi = xi_matrix(bloch_of_subsystem(rho, 3, 3, "a"), c, 3)
        assert_allclose(xi, (4.0 / 81.0) * (c @ c.T), atol=1e-16)

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2)])
    def test_positive_semidefinite(self, da, db):
        for seed in range(5):
            rho = random_density(da * db, 31 + seed)
            rep = discord_hs(rho, da, db, "a")
            assert rep.xi_eigenvalues[-1] >= -1e-12

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            xi_matrix(np.zeros(3), np.zeros((8, 3)), 2)
        # C of a 2x3 state has 8 columns, not the 3 that d_other = 2 gives.
        rho = random_density(6, 7)
        with pytest.raises(ValueError, match="does not match"):
            xi_matrix(bloch_of_subsystem(rho, 2, 3, "a"), corrmat_opt(rho, 2, 3), 2)

    @pytest.mark.parametrize("da,db", [(2, 3), (3, 3), (5, 4)])
    def test_exactly_symmetric(self, da, db):
        n = da * db
        rho = np.stack([random_density(n, 60 + s) for s in range(4)]).reshape(2, 2, n, n)
        c = corrmat_opt(rho, da, db)
        for xi in (
            xi_matrix(bloch_of_subsystem(rho, da, db, "a"), c, db),
            xi_matrix(bloch_of_subsystem(rho, da, db, "b"), np.swapaxes(c, -1, -2), da),
        ):
            assert np.array_equal(xi, np.swapaxes(xi, -1, -2))


class TestPurity:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed(self, d):
        assert_allclose(purity(np.eye(d) / d), 1.0 / d, atol=1e-16)

    def test_pure_state(self):
        assert_allclose(purity(bell_state(3)), 1.0, atol=1e-13)

    def test_matches_trace_of_square(self):
        rho = random_density(4, 77)
        assert abs(purity(rho) - np.trace(rho @ rho).real) <= 1e-13


class TestDiscordHs:
    def test_bell(self):
        rep = discord_hs(bell_state(2), 2, 2, "a")
        assert abs(rep.hs_value - 0.5) <= 1e-12

    @pytest.mark.parametrize("da,db", [(2, 2), (3, 2), (2, 4)])
    def test_maximally_mixed(self, da, db):
        n = da * db
        assert discord_hs(np.eye(n, dtype=complex) / n, da, db, "a").hs_value == 0.0

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_classical_quantum_states_vanish(self, da, db):
        for seed in range(4):
            rho = random_cq_state(da, db, 13 * da + db + seed)
            assert discord_hs(rho, da, db, "a").hs_value <= 1e-10

    def test_eigenvalue_tail_sum(self):
        rho = random_density(6, 5)
        rep = discord_hs(rho, 2, 3, "a")
        assert rep.xi_eigenvalues.shape == (3,)
        assert abs(rep.hs_value - max(0.0, rep.xi_eigenvalues[1:].sum())) == 0.0

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            discord_hs(bell_state(2), 2, 2, "x")

    @staticmethod
    def _composed(rho, da, db, side):
        """The report's fields through M, its smaller Gram and the solver at discord's floor.

        The untouched marginal's purity is (Tr rho)^2/d + 2|s|^2/d^2, s its Bloch vector.
        Xi = M M^t is solved as M^t M when that is smaller, and zeros fill its other values.
        """
        c = corrmat_opt(rho, da, db)
        vec = bloch_of_subsystem(rho, da, db, side)
        if side == "a":
            m, d_side, d_other, other = _m_matrix(vec, c, db), da, db, "b"
        else:
            m, d_side, d_other, other = _m_matrix(vec, np.swapaxes(c, -1, -2), da), db, da, "a"
        s, t = bloch_of_subsystem(rho, da, db, other), np.trace(rho, axis1=-2, axis2=-1).real
        pur = t * t / d_other + 2.0 * np.vecdot(s, s) / d_other**2
        mt = np.swapaxes(m, -1, -2)
        gram = mt @ m if d_other**2 < d_side**2 - 1 else m @ mt
        lam = _eig_sym(gram, np.finfo(float).eps ** 2 * pur)
        zeros = np.zeros((*lam.shape[:-1], d_side**2 - 1 - lam.shape[-1]))
        lam = np.concatenate((lam, zeros), axis=-1)
        return lam, np.maximum(0.0, lam[..., d_side - 1 :].sum(axis=-1)), pur

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("da,db", [(2, 5), (5, 2), (3, 4)])
    def test_equals_public_composition(self, da, db, side):
        n = da * db
        full = np.stack([random_density(n, 40 + s) for s in range(4)])
        cq = np.stack([random_cq_state(da, db, 50 + s) for s in range(4)])
        inputs = [full[0], cq[0], full.reshape(2, 2, n, n), cq.reshape(2, 2, n, n)]
        inputs += [np.swapaxes(full, -1, -2).conj(), np.zeros((0, n, n), dtype=complex)]
        for rho in inputs:
            rep = discord_hs(rho, da, db, side)
            lam, hs, pur = self._composed(rho, da, db, side)
            assert np.array_equal(rep.xi_eigenvalues, lam)
            assert np.array_equal(rep.hs_value, hs) and np.array_equal(rep.purity_other, pur)
            assert np.array_equal(rep.hsa_value, hs / pur)
            one = float if rho.ndim == 2 else np.ndarray
            assert type(rep.hs_value) is type(rep.purity_other) is one


class TestRankBound:
    # Xi = M M^t and M has d_other^2 columns, so at most d_other^2 eigenvalues
    # are nonzero and the tail from position d is empty when d_other^2 <= d - 1.
    @pytest.mark.parametrize("cq", [False, True])
    @pytest.mark.parametrize("da,db,side", [(5, 2, "a"), (6, 2, "a"), (2, 5, "b"), (2, 6, "b")])
    def test_tail_vanishes(self, da, db, side, cq):
        for state_seed in range(10):
            rho = random_cq_state(da, db, state_seed) if cq else random_density(da * db, state_seed)
            assert discord_hs(rho, da, db, side).hs_value == 0.0


class TestSmallerGram:
    # When d_other^2 < d_side^2 - 1 the solver gets M^t M in place of Xi = M M^t:
    # the same nonzero eigenvalues, and Xi's other d_side^2 - 1 - d_other^2 are zero.
    CASES = [(2, 5, "b"), (5, 2, "a"), (2, 3, "b"), (3, 4, "b"), (4, 3, "a")]

    @staticmethod
    def _inputs(da, db):
        n = da * db
        full = np.stack([random_density(n, 80 + s) for s in range(4)])
        return [full[0], full[1], full.reshape(2, 2, n, n)]

    @staticmethod
    def _m_and_xi(rho, da, db, side):
        """M and Xi of the measured side, and the unmeasured side's dimension."""
        c = corrmat_opt(rho, da, db)
        vec = bloch_of_subsystem(rho, da, db, side)
        if side == "b":
            c, db = np.swapaxes(c, -1, -2), da
        return _m_matrix(vec, c, db), xi_matrix(vec, c, db), db

    @pytest.mark.parametrize("da,db,side", CASES)
    def test_leading_values_match_xi(self, da, db, side):
        for rho in self._inputs(da, db):
            _, xi, d_other = self._m_and_xi(rho, da, db, side)
            lam = discord_hs(rho, da, db, side).xi_eigenvalues
            rank = d_other**2
            assert lam.shape == xi.shape[:-1]
            ref = np.linalg.eigvalsh(xi)[..., ::-1][..., :rank]
            tol = 1e-14 * np.linalg.norm(xi, axis=(-2, -1))[..., None]
            assert np.all(np.abs(lam[..., :rank] - ref) <= tol)
            assert np.all(lam[..., rank:] == 0.0)

    @pytest.mark.parametrize("da,db,side", CASES)
    def test_solved_gram_exactly_symmetric(self, da, db, side):
        for rho in self._inputs(da, db):
            m, _, d_other = self._m_and_xi(rho, da, db, side)
            gram = np.swapaxes(m, -1, -2) @ m
            assert gram.shape[-2:] == (d_other**2, d_other**2)
            assert np.array_equal(gram, np.swapaxes(gram, -1, -2))


class TestDiscordHsa:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_werner_ratio_is_dimension(self, d):
        rep = discord_hsa(werner_state(d, 0.8), d, d, "a")
        assert abs(rep.hsa_value - d * rep.hs_value) <= 1e-12 * max(1.0, rep.hsa_value)

    def test_werner_qubit_endpoint(self):
        rep = discord_hsa(werner_state(2, 1.0), 2, 2, "a")
        assert abs(rep.hsa_value - 1.0 / 9.0) <= 1e-12

    def test_analytic_curve_spot_checks(self):
        for d, w in [(2, -1.0), (3, 0.25), (4, 0.9), (5, -0.35)]:
            rep = discord_hsa(werner_state(d, w), d, d, "a")
            assert abs(rep.hsa_value - werner_analytic(d, w)) <= 1e-10

    @seed(20100901)
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        da=st.integers(2, 4),
        db=st.integers(2, 4),
        side=st.sampled_from("ab"),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_product_state_vanishes(self, da, db, side, state_seed):
        rho = np.kron(random_density(da, state_seed), random_density(db, state_seed + 1))
        rep = discord_hsa(rho, da, db, side)
        assert rep.hs_value <= 1e-14
        assert rep.hsa_value <= 1e-12

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_identity_with_independent_purity(self, side):
        rho = random_density(6, 91)
        rep = discord_hsa(rho, 2, 3, side)
        other = ptrace_a(rho, 2, 3) if side == "a" else rho.reshape(2, 3, 2, 3).trace(axis1=1, axis2=3)
        pur = np.trace(np.asarray(other) @ np.asarray(other)).real
        assert abs(rep.hsa_value - rep.hs_value / pur) <= 1e-13 * rep.hsa_value

    def test_werner_side_symmetry(self):
        rho = werner_state(3, -0.4)
        ra = discord_hs(rho, 3, 3, "a")
        rb = discord_hs(rho, 3, 3, "b")
        assert abs(ra.hs_value - rb.hs_value) <= 1e-12
        assert abs(ra.hsa_value - rb.hsa_value) <= 1e-12

    def test_report_consistency(self):
        rep = discord_hsa(random_density(4, 3), 2, 2, "b")
        assert rep.side == "b"
        assert abs(rep.hsa_value - rep.hs_value / rep.purity_other) <= 1e-13 * max(
            1.0, rep.hsa_value
        )


def _realigned(x, da, db):
    """R(X)[(i,i'), (k,k')] = X[ik, i'k'], a da^2 x db^2 matrix."""
    return x.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def _hs_oracle(rho, da, db, side):
    """Basis-free Hilbert-Schmidt discord (Luo & Fu, PRA 82, 034302 (2010)).

    Matrix units are an orthonormal operator basis, so the singular values
    of the realigned, locally centred state are those of the Gell-Mann
    coefficient matrix, and the discord is their squared tail. Nothing here
    goes through the package's Bloch, correlation, Xi or eigen code.
    """
    blocks = rho.reshape(da, db, da, db)
    if side == "a":
        rho_b = blocks.trace(axis1=0, axis2=2)
        r = _realigned(rho - np.kron(np.eye(da) / da, rho_b), da, db)
        d_side = da
    else:
        rho_a = blocks.trace(axis1=1, axis2=3)
        r = _realigned(rho - np.kron(rho_a, np.eye(db) / db), da, db).T
        d_side = db
    sigma = np.linalg.svd(r, compute_uv=False)
    return float(np.sum(sigma[d_side - 1 :] ** 2))


def _assert_matches_oracle(rho, da, db, side):
    hs = discord_hs(rho, da, db, side).hs_value
    want = _hs_oracle(rho, da, db, side)
    assert abs(hs - want) <= 1e-12 * max(hs, want) + 1e-15


class TestBasisFreeOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_oracle_on_bell_states(self, d):
        assert abs(_hs_oracle(bell_state(d), d, d, "a") - (d - 1) / d) <= 1e-14

    @seed(20100302)
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        da=st.integers(2, 5),
        db=st.integers(2, 5),
        side=st.sampled_from(["a", "b"]),
        cq=st.booleans(),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_discord_hs(self, da, db, side, cq, state_seed):
        if cq:
            rho = random_cq_state(da, db, state_seed)
        else:
            rho = random_density(da * db, state_seed)
        _assert_matches_oracle(rho, da, db, side)

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("da,db", [(5, 7), (7, 5)])
    def test_asymmetric_five_by_seven(self, da, db, side):
        _assert_matches_oracle(random_density(da * db, 57 + da), da, db, side)


class TestClosedForms:
    """Discord of states whose Hilbert-Schmidt discord is known in closed form."""

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_isotropic_state(self, d, p, side):
        rep = discord_hs(isotropic_state(d, p), d, d, side)
        assert abs(rep.hs_value - p * p * (d - 1) / d) <= 1e-12
        assert abs(rep.hsa_value - p * p * (d - 1)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 16, 32, 64])
    def test_pure_qubit_side(self, d):
        # Measured on a qubit, a pure state's discord is its linear entropy.
        rho, schmidt = random_pure_state(2, d, 700 + d)
        assert abs(discord_hs(rho, 2, d, "a").hs_value - (1.0 - np.sum(schmidt**2))) <= 1e-12

    @pytest.mark.parametrize("da,db", [(3, 3), (4, 4), (3, 5)])
    def test_pure_qudit_side_is_a_lower_bound(self, da, db):
        # On a side of dimension >= 3 the eigenvalue tail bounds the
        # variational discord, which is the linear entropy, from below.
        rho, schmidt = random_pure_state(da, db, 800 + da * db)
        hs = discord_hs(rho, da, db, "a").hs_value
        assert 0.0 < hs <= 1.0 - np.sum(schmidt**2) + 1e-12


def _swap_sides(rho, da, db):
    """The state on db x da whose factors are those of rho on da x db, in reverse order."""
    n = da * db
    return rho.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(n, n)


class TestDiscordProperties:
    @seed(20100315)
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        da=st.integers(2, 6),
        db=st.integers(2, 6),
        side=st.sampled_from("ab"),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_classical_quantum_states_vanish_on_either_side(self, da, db, side, state_seed):
        # Classical on the measured side; for side b, a db x da CQ state with its factors swapped.
        if side == "a":
            rho = random_cq_state(da, db, state_seed)
        else:
            rho = _swap_sides(random_cq_state(db, da, state_seed), db, da)
        assert discord_hs(rho, da, db, side).hs_value <= 1e-14

    @seed(20120213)
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        da=st.integers(2, 5),
        db=st.integers(2, 5),
        side=st.sampled_from("ab"),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_hsa_is_hs_over_purity_of_the_other_side(self, da, db, side, state_seed):
        rho = random_density(da * db, state_seed)
        r4 = rho.reshape(da, db, da, db)
        other = np.trace(r4, axis1=0, axis2=2) if side == "a" else np.trace(r4, axis1=1, axis2=3)
        pur = np.trace(other @ other).real
        rep = discord_hsa(rho, da, db, side)
        assert abs(rep.hsa_value - rep.hs_value / pur) <= 1e-13 * rep.hsa_value


class TestLocalAncilla:
    """An ancilla sigma on the unmeasured side scales hs by P(sigma) and leaves hsa unchanged.

    This is the local-ancilla problem of the plain quantifier (Piani, PRA
    86, 034101 (2012)) and what the rescaling by P(rho_other) is for.
    """

    def test_plain_value_changes(self):
        # A maximally mixed qubit appended to side b halves the Bell pair's hs.
        before = discord_hs(bell_state(2), 2, 2, "a")
        after = discord_hs(np.kron(bell_state(2), np.eye(2) / 2), 2, 4, "a")
        assert abs(before.hs_value - 0.5) <= 1e-15 and abs(after.hs_value - 0.25) <= 1e-15
        assert abs(before.hsa_value - 1.0) <= 1e-15 and abs(after.hsa_value - 1.0) <= 1e-15

    @seed(20120903)
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        da=st.integers(2, 4),
        db=st.integers(2, 4),
        dc=st.integers(2, 3),
        side=st.sampled_from("ab"),
        cq=st.booleans(),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_ancilla_on_the_unmeasured_side(self, da, db, dc, side, cq, state_seed):
        sigma = random_density(dc, state_seed + 1)
        if side == "a":
            rho = random_cq_state(da, db, state_seed) if cq else random_density(da * db, state_seed)
            before = discord_hs(rho, da, db, "a")
            after = discord_hs(np.kron(rho, sigma), da, db * dc, "a")
        else:
            if cq:
                rho = _swap_sides(random_cq_state(db, da, state_seed), db, da)
            else:
                rho = random_density(da * db, state_seed)
            before = discord_hs(rho, da, db, "b")
            after = discord_hs(np.kron(sigma, rho), dc * da, db, "b")
        # Relative, except on CQ states, whose values are rounding noise around 0.
        scale_hs, scale_hsa = (1.0, 1.0) if cq else (before.hs_value, before.hsa_value)
        assert abs(after.hs_value - purity(sigma) * before.hs_value) <= 1e-13 * scale_hs
        assert abs(after.hsa_value - before.hsa_value) <= 1e-13 * scale_hsa


def _haar(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


class TestLocalUnitaryInvariance:
    @seed(20120224)
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        da=st.integers(2, 4),
        db=st.integers(2, 4),
        cq=st.booleans(),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_values_unchanged_by_local_unitaries(self, da, db, cq, state_seed):
        rho = random_cq_state(da, db, state_seed) if cq else random_density(da * db, state_seed)
        rng = np.random.default_rng(state_seed)
        u = np.kron(_haar(da, rng), _haar(db, rng))
        turned = u @ rho @ u.conj().T
        for side in ("a", "b"):
            before, after = discord_hs(rho, da, db, side), discord_hs(turned, da, db, side)
            tol = 1e-12 * max(1.0, before.hs_value)
            assert abs(after.hs_value - before.hs_value) <= tol
            assert abs(after.hsa_value - before.hsa_value) <= tol
