"""Input rules of every public entry point: one bad input per rule, each a ValueError.

The rules are a square matrix or a stack (..., n, n) of them, a single
matrix on the naive paths, n = da*db for a bipartite state, integer
dimensions, a dimension floor (1 for the partial traces, 2 wherever
generators are involved), a Bloch length d^2 - 1 and a correlation matrix
that matches its Bloch vector and the opposite dimension. The second table
pins inputs at the edge of each domain that are accepted.
"""

import numpy as np
import pytest

import quditcorr as q

EYE4 = np.eye(4) / 4
STACK4 = np.stack([EYE4, EYE4])
VEC1 = np.ones(4)
WIDE = np.zeros((4, 6))

REJECTED = {
    # ptrace_a / ptrace_b: square stacks, n = da*db, dims >= 1
    "ptrace_b-ndim": lambda: q.ptrace_b(VEC1, 2, 2),
    "ptrace_b-non-square": lambda: q.ptrace_b(WIDE, 2, 2),
    "ptrace_b-n-mismatch": lambda: q.ptrace_b(EYE4, 2, 3),
    "ptrace_b-stack-n-mismatch": lambda: q.ptrace_b(np.zeros((3, 6, 5)), 2, 3),
    "ptrace_b-below-floor": lambda: q.ptrace_b(np.zeros((0, 0)), 0, 3),
    "ptrace_a-ndim": lambda: q.ptrace_a(VEC1, 2, 2),
    "ptrace_a-non-square": lambda: q.ptrace_a(WIDE, 2, 2),
    "ptrace_a-n-mismatch": lambda: q.ptrace_a(EYE4, 3, 2),
    "ptrace_a-below-floor": lambda: q.ptrace_a(EYE4, -2, -2),
    # bloch_opt: square stacks of dimension >= 2
    "bloch_opt-ndim": lambda: q.bloch_opt(VEC1),
    "bloch_opt-non-square": lambda: q.bloch_opt(np.zeros((2, 3, 4))),
    "bloch_opt-below-floor": lambda: q.bloch_opt(np.ones((1, 1))),
    "bloch_opt-stack-below-floor": lambda: q.bloch_opt(np.ones((3, 1, 1))),
    # bloch_naive: one square matrix of dimension >= 2
    "bloch_naive-ndim": lambda: q.bloch_naive(VEC1),
    "bloch_naive-non-square": lambda: q.bloch_naive(WIDE),
    "bloch_naive-stack": lambda: q.bloch_naive(STACK4),
    "bloch_naive-below-floor": lambda: q.bloch_naive(np.ones((1, 1))),
    # bloch_of_subsystem: bipartite stacks, dims >= 2
    "bloch_of_subsystem-ndim": lambda: q.bloch_of_subsystem(VEC1, 2, 2),
    "bloch_of_subsystem-non-square": lambda: q.bloch_of_subsystem(WIDE, 2, 2),
    "bloch_of_subsystem-n-mismatch": lambda: q.bloch_of_subsystem(EYE4, 2, 3),
    "bloch_of_subsystem-below-floor": lambda: q.bloch_of_subsystem(np.eye(2), 1, 2),
    "bloch_of_subsystem-side": lambda: q.bloch_of_subsystem(EYE4, 2, 2, "c"),
    # corrmat_opt: bipartite stacks, dims >= 2
    "corrmat_opt-ndim": lambda: q.corrmat_opt(VEC1, 2, 2),
    "corrmat_opt-non-square": lambda: q.corrmat_opt(WIDE, 2, 2),
    "corrmat_opt-n-mismatch": lambda: q.corrmat_opt(EYE4, 2, 3),
    "corrmat_opt-stack-n-mismatch": lambda: q.corrmat_opt(np.zeros((3, 4, 4)), 2, 3),
    "corrmat_opt-below-floor": lambda: q.corrmat_opt(np.eye(2), 2, 1),
    # corrmat_naive: one bipartite matrix, dims >= 2
    "corrmat_naive-ndim": lambda: q.corrmat_naive(VEC1, 2, 2),
    "corrmat_naive-non-square": lambda: q.corrmat_naive(WIDE, 2, 2),
    "corrmat_naive-stack": lambda: q.corrmat_naive(STACK4, 2, 2),
    "corrmat_naive-n-mismatch": lambda: q.corrmat_naive(EYE4, 2, 3),
    "corrmat_naive-below-floor": lambda: q.corrmat_naive(np.eye(2), 1, 2),
    # corrmat_read_count: dims >= 2
    "corrmat_read_count-below-floor": lambda: q.corrmat_read_count(2, 1),
    # reconstruct: Bloch lengths d^2 - 1 with d >= 2, C of shape (len a, len b)
    "reconstruct-bloch-length-a": lambda: q.reconstruct(np.zeros(4), np.zeros(3), np.zeros((4, 3))),
    "reconstruct-bloch-length-b": lambda: q.reconstruct(np.zeros(3), np.zeros(7), np.zeros((3, 7))),
    "reconstruct-bloch-length-zero": lambda: q.reconstruct(np.zeros(0), np.zeros(3), np.zeros((0, 3))),
    "reconstruct-c-mismatch": lambda: q.reconstruct(np.zeros(3), np.zeros(8), np.zeros((8, 3))),
    # xi_matrix: Bloch length, opposite dimension >= 2, C against a and d_other
    "xi_matrix-bloch-length": lambda: q.xi_matrix(np.zeros(4), np.zeros((4, 3)), 2),
    "xi_matrix-scalar-vector": lambda: q.xi_matrix(np.float64(0.0), np.zeros((3, 3)), 2),
    "xi_matrix-below-floor": lambda: q.xi_matrix(np.zeros(3), np.zeros((3, 0)), 1),
    "xi_matrix-c-mismatch": lambda: q.xi_matrix(np.zeros(3), np.zeros((8, 3)), 3),
    "xi_matrix-c-columns": lambda: q.xi_matrix(np.zeros(3), np.zeros((3, 8)), 2),
    "xi_matrix-c-ndim": lambda: q.xi_matrix(np.zeros((2, 3)), np.zeros((3, 3)), 2),
    # purity: square stacks
    "purity-ndim": lambda: q.purity(VEC1),
    "purity-non-square": lambda: q.purity(WIDE),
    # discord_hs / discord_hsa: bipartite stacks, dims >= 2
    "discord_hs-ndim": lambda: q.discord_hs(VEC1, 2, 2),
    "discord_hs-non-square": lambda: q.discord_hs(WIDE, 2, 2),
    "discord_hs-n-mismatch": lambda: q.discord_hs(EYE4, 2, 3),
    "discord_hs-below-floor": lambda: q.discord_hs(np.eye(2), 1, 2, "b"),
    "discord_hs-side": lambda: q.discord_hs(EYE4, 2, 2, "c"),
    "discord_hsa-n-mismatch": lambda: q.discord_hsa(EYE4, 2, 3),
    # werner_analytic: dimension >= 2
    "werner_analytic-below-floor-one": lambda: q.werner_analytic(1, 0.5),
    "werner_analytic-below-floor-zero": lambda: q.werner_analytic(0, 0.5),
    # state constructors: dimensions >= 2
    "swap_operator-below-floor": lambda: q.swap_operator(1),
    "werner_state-below-floor": lambda: q.werner_state(1, 0.5),
    "bell_state-below-floor": lambda: q.bell_state(1),
    "random_density-below-floor": lambda: q.random_density(1, 0),
    "random_cq_state-below-floor-a": lambda: q.random_cq_state(1, 2, 0),
    "random_cq_state-below-floor-b": lambda: q.random_cq_state(2, 0, 0),
    # generators: dimension >= 2
    "gellmann-below-floor": lambda: q.gellmann(1, 1, 1),
    "gm_index-below-floor": lambda: q.gm_index(1, 1, 1),
    "gm_unindex-below-floor": lambda: q.gm_unindex(1, 1),
    "gellmann_basis-below-floor": lambda: q.gellmann_basis(1),
    # dimensions are integers: floats fail even when integral
    "werner_analytic-float": lambda: q.werner_analytic(2.5, 0.3),
    "werner_analytic-integral-float": lambda: q.werner_analytic(3.0, 0.3),
    "xi_matrix-integral-float": lambda: q.xi_matrix(np.zeros(3), np.zeros((3, 8)), 3.0),
    "gellmann-integral-float": lambda: q.gellmann(2.0, 1, 1),
    "swap_operator-numpy-float": lambda: q.swap_operator(np.float64(3.0)),
}

ACCEPTED = {
    "ptrace_b-dim-one": lambda: q.ptrace_b(np.eye(3) / 3, 1, 3),
    "ptrace_a-dim-one": lambda: q.ptrace_a(np.eye(3) / 3, 3, 1),
    "ptrace_b-empty-stack": lambda: q.ptrace_b(np.zeros((0, 4, 4)), 2, 2),
    "bloch_opt-stack": lambda: q.bloch_opt(STACK4),
    "purity-one-by-one": lambda: q.purity(np.ones((1, 1))),
    "purity-stack": lambda: q.purity(STACK4),
    "xi_matrix-stack": lambda: q.xi_matrix(np.zeros((2, 3)), np.zeros((2, 3, 8)), 3),
    "reconstruct-nested-vectors": lambda: q.reconstruct([[0.0] * 3], np.zeros(3), np.zeros((3, 3))),
    "werner_state-stack": lambda: q.werner_state(2, np.zeros(3)),
    "werner_analytic-numpy-integer": lambda: q.werner_analytic(np.int64(3), 0.5),
    "xi_matrix-numpy-integer": lambda: q.xi_matrix(np.zeros(3), np.zeros((3, 8)), np.int32(3)),
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_with_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_domain_edge_accepted(call):
    call()
