"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured figure next to its tolerance.

Run as `pytest -v tests/test_acceptance.py -s` to see the lines.
"""

import numpy as np

from quditcorr import (
    bell_state,
    bloch_naive,
    bloch_of_subsystem,
    bloch_opt,
    corrmat_naive,
    corrmat_opt,
    corrmat_read_count,
    discord_hs,
    discord_hsa,
    fit_exponent,
    gellmann_basis,
    ptrace_a,
    ptrace_b,
    random_cq_state,
    random_density,
    reconstruct,
    run_bench,
    werner_analytic,
    werner_state,
    xi_matrix,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"criterion {num} failed: {label} ({detail})"


def test_criterion_1_werner_reproduction():
    worst_abs = 0.0
    worst_rel = 0.0
    for d in (2, 3, 4, 5):
        for w in np.linspace(-1.0, 1.0, 41):
            rep = discord_hsa(werner_state(d, w), d, d, "a")
            worst_abs = max(worst_abs, abs(rep.hsa_value - werner_analytic(d, w)))
            scale = max(abs(rep.hsa_value), abs(d * rep.hs_value), 1e-300)
            worst_rel = max(worst_rel, abs(rep.hsa_value - d * rep.hs_value) / scale)
    _verdict(
        1,
        "Werner sweep d=2..5 matches the closed form and hsa = d*hs",
        worst_abs <= 1e-10 and worst_rel <= 1e-12,
        f"max|hsa-analytic|={worst_abs:.2e} tol 1e-10, max rel={worst_rel:.2e} tol 1e-12",
    )


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for da in (2, 3, 4):
        for db in (2, 3, 4):
            for trial in range(20):
                rho = random_density(da * db, 1000 * da + 100 * db + trial)
                ra, rb = ptrace_b(rho, da, db), ptrace_a(rho, da, db)
                worst = max(
                    worst,
                    np.max(np.abs(bloch_naive(ra) - bloch_opt(ra))),
                    np.max(np.abs(bloch_naive(rb) - bloch_opt(rb))),
                    np.max(np.abs(corrmat_naive(rho, da, db) - corrmat_opt(rho, da, db))),
                )
    _verdict(
        2,
        "naive and optimized paths agree on 20 states per (da,db) in {2,3,4}^2",
        worst <= 1e-12,
        f"max abs diff={worst:.2e} tol 1e-12",
    )


def test_criterion_3_generator_algebra():
    worst_trace = 0.0
    worst_herm = 0.0
    worst_gram = 0.0
    for d in range(2, 9):
        stack = np.stack(gellmann_basis(d))
        worst_trace = max(worst_trace, np.max(np.abs(np.trace(stack, axis1=1, axis2=2))))
        worst_herm = max(worst_herm, np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))))
        gram = np.einsum("aij,bji->ab", stack, stack)
        worst_gram = max(worst_gram, np.max(np.abs(gram - 2.0 * np.eye(d * d - 1))))
    _verdict(
        3,
        "generators for d=2..8 are traceless, Hermitian, and orthogonal",
        worst_trace <= 1e-15 and worst_herm <= 1e-15 and worst_gram <= 1e-13,
        f"trace={worst_trace:.2e} tol 1e-15, herm={worst_herm:.2e} tol 1e-15, "
        f"gram={worst_gram:.2e} tol 1e-13",
    )


def test_criterion_4_reconstruction_round_trip():
    worst = 0.0
    for da in (2, 3):
        for db in (2, 4):
            for trial in range(10):
                rho = random_density(da * db, 31 * da + 7 * db + trial)
                back = reconstruct(
                    bloch_of_subsystem(rho, da, db, "a"),
                    bloch_of_subsystem(rho, da, db, "b"),
                    corrmat_opt(rho, da, db),
                )
                worst = max(worst, np.max(np.abs(back - rho)))
    _verdict(
        4,
        "Bloch/correlation data reconstructs rho on 10 states per (da,db) in {2,3}x{2,4}",
        worst <= 1e-12,
        f"max abs diff={worst:.2e} tol 1e-12",
    )


def test_criterion_5_classical_quantum_zero():
    worst = 0.0
    for da in (2, 3):
        for db in (2, 3):
            for trial in range(10):
                rho = random_cq_state(da, db, 53 * da + 11 * db + trial)
                worst = max(worst, discord_hs(rho, da, db, "a").hs_value)
    _verdict(
        5,
        "random classical-quantum states carry zero side-a discord",
        worst <= 1e-10,
        f"max hs={worst:.2e} tol 1e-10",
    )


def test_criterion_6_bell_value():
    rho = bell_state(2)
    xi = xi_matrix(bloch_of_subsystem(rho, 2, 2, "a"), corrmat_opt(rho, 2, 2), 2)
    xi_defect = np.max(np.abs(xi - np.eye(3) / 4))
    hs = max(0.0, float(np.linalg.eigvalsh(xi)[::-1][1:].sum()))
    api_hs = discord_hs(rho, 2, 2, "a").hs_value
    _verdict(
        6,
        "Bell state gives hs = 0.5 via Xi = I/4",
        xi_defect <= 1e-14 and abs(hs - 0.5) <= 1e-12 and abs(api_hs - 0.5) <= 1e-12,
        f"|hs-0.5|={abs(hs - 0.5):.2e} tol 1e-12, |Xi-I/4|={xi_defect:.2e}",
    )


def test_criterion_7_complexity_scaling():
    dims = (2, 4, 8)
    counts = [corrmat_read_count(d, d) for d in dims]
    exponent = fit_exponent(dims, counts)
    records = run_bench([(d, d) for d in range(2, 7)], trials=7, seed=0)
    speedups = [r.speedup for r in records]
    monotone = all(s2 >= s1 for s1, s2 in zip(speedups, speedups[1:]))
    floor_ok = speedups[-1] >= 50.0
    _verdict(
        7,
        "optimized reads scale as dimension^4 and the measured speedup grows",
        abs(exponent - 4.0) <= 0.2 and monotone and floor_ok,
        f"read counts {counts} exponent={exponent:.3f} tol 4.0+-0.2; "
        f"speedups {['%.1f' % s for s in speedups]} monotone={monotone}, "
        f"d=6 floor 50",
    )


def test_criterion_8_ahsd_identity():
    worst = 0.0
    for trial in range(20):
        rho = random_density(9, 400 + trial)
        rep = discord_hsa(rho, 3, 3, "a")
        rb = ptrace_a(rho, 3, 3)
        pur = np.trace(rb @ rb).real
        worst = max(
            worst,
            abs(rep.hsa_value - rep.hs_value / pur) / max(abs(rep.hsa_value), 1e-300),
        )
    _verdict(
        8,
        "hsa equals hs divided by the opposite marginal's purity on 20 states at (3,3)",
        worst <= 1e-13,
        f"max rel diff={worst:.2e} tol 1e-13",
    )
