import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditcorr import GellMannSpec, gellmann, gellmann_basis, gm_index, gm_unindex

# Up to 12, the largest dimension the decompose benchmark gathers.
DIMS = range(2, 13)


class TestGenerators:
    def test_pauli_z(self):
        assert_allclose(gellmann(2, 1, 1), np.diag([1.0, -1.0]), atol=0)

    def test_pauli_x(self):
        assert_allclose(gellmann(2, 2, 1, 2), np.array([[0, 1], [1, 0]]), atol=0)

    def test_pauli_y(self):
        assert_allclose(gellmann(2, 3, 1, 2), np.array([[0, -1j], [1j, 0]]), atol=0)

    def test_qutrit_second_diagonal(self):
        # weights (1,1,-2)/sqrt(3); squared trace must equal 2
        g = gellmann(3, 1, 2)
        assert_allclose(g, np.diag([1.0, 1.0, -2.0]) / np.sqrt(3), atol=1e-16)
        assert_allclose(np.trace(g @ g), 2.0, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_algebra(self, dim):
        basis = gellmann_basis(dim)
        assert len(basis) == dim * dim - 1
        stack = np.stack(basis)
        assert np.max(np.abs(np.trace(stack, axis1=1, axis2=2))) <= 1e-15
        assert np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) <= 1e-15
        gram = np.einsum("aij,bji->ab", stack, stack)
        assert np.max(np.abs(gram - 2.0 * np.eye(len(basis)))) <= 1e-13

    @pytest.mark.parametrize(
        "args", [(1, 2, 1, 2), (2, 0, 1), (2, 4, 1, 2), (2, 1, 2), (3, 2, 2, 2), (3, 3, 3, 2)]
    )
    def test_rejects_bad_labels(self, args):
        with pytest.raises(ValueError):
            gellmann(*args)


class TestIndexMap:
    @pytest.mark.parametrize("dim", DIMS)
    def test_first_symmetric_slot(self, dim):
        assert gm_index(dim, 2, 1, 2) == dim

    @pytest.mark.parametrize("dim", DIMS)
    def test_first_antisymmetric_slot(self, dim):
        assert gm_index(dim, 3, 1, 2) == dim + dim * (dim - 1) // 2

    def test_pair_enumeration_qutrit(self):
        # pairs (1,2)->3, (1,3)->4, (2,3)->5
        assert gm_index(3, 2, 1, 2) == 3
        assert gm_index(3, 2, 1, 3) == 4
        assert gm_index(3, 2, 2, 3) == 5

    def test_unindex_examples(self):
        assert gm_unindex(2, 3) == GellMannSpec(2, 3, 1, 2)
        assert gm_unindex(3, 1) == GellMannSpec(3, 1, 1, 0)
        assert gm_unindex(4, 15) == GellMannSpec(4, 3, 3, 4)

    @pytest.mark.parametrize("dim", DIMS)
    def test_bijection(self, dim):
        seen = set()
        for j in range(1, dim * dim):
            spec = gm_unindex(dim, j)
            assert gm_index(*spec) == j
            seen.add(spec)
        assert len(seen) == dim * dim - 1

    @pytest.mark.parametrize("dim", DIMS)
    def test_group_counts(self, dim):
        groups = [gm_unindex(dim, j).group for j in range(1, dim * dim)]
        n_pair = dim * (dim - 1) // 2
        assert groups.count(1) == dim - 1
        assert groups.count(2) == n_pair
        assert groups.count(3) == n_pair
        # layout: diagonal block first, then symmetric, then antisymmetric
        assert groups == sorted(groups)

    @pytest.mark.parametrize("j", [0, 4, -1])
    def test_rejects_bad_flat_index(self, j):
        with pytest.raises(ValueError):
            gm_unindex(2, j)
