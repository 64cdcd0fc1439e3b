"""The benchmark's four workloads: seeded inputs, one call per op, output checks.

Each workload builds its inputs from the run seed in ``setup`` and returns a
list of ops. An op is one closed-loop call into the package's public API,
looked up by name at call time so that the traced run's wrappers are used.
``expect`` computes what every op must return, once per op and before any
timing starts, from independent routes (reconstruction, numpy eigvalsh,
closed forms, library values of the in-memory state). ``check`` compares one
op's output with that and uses numpy only, so checks add no spans to a
traced run and stay outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

import quditcorr
import quditcorr.cli

# Tolerances fixed before the benchmark was run; see NOTES.md.
DECOMPOSE_TOL = 1e-12
DISCORD_TOL = 1e-12
HSA_TOL = 1e-13
CQ_TOL = 1e-10
WERNER_TOL = 1e-10
CLI_RTOL = 1e-11  # 12 significant digits, with room for the last one
CLI_ATOL = 1e-15


class Op:
    """One call into the library: ``key`` names the input, ``run`` makes the call."""

    def __init__(self, key, run):
        self.key = key
        self.run = run


class Workload:
    name = ""
    tail_pct = 99.0  # highest percentile reported; see NOTES.md

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected = {}
        self.known_defects = 0

    def setup(self) -> list[Op]:
        raise NotImplementedError

    def expect(self, ops: list[Op]) -> None:
        """Fill ``self.expected`` for every op key; runs untimed and untraced."""
        raise NotImplementedError

    def check(self, op: Op, out) -> bool:
        raise NotImplementedError

    def _seeds(self, n: int) -> list[int]:
        return [int(s) for s in np.random.default_rng(self.seed).integers(0, 2**31, n)]

    def _shuffled(self, ops: list[Op]) -> list[Op]:
        order = np.random.default_rng([self.seed, 1]).permutation(len(ops))
        return [ops[i] for i in order]


def _max_abs(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)), initial=0.0))


def _swap_sides(rho, da: int, db: int) -> np.ndarray:
    """The state on db x da whose side a is side b of rho."""
    return rho.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)


def _marginal(rho, da: int, db: int, keep: str) -> np.ndarray:
    r4 = rho.reshape(da, db, da, db)
    return np.einsum("ijkj->ik", r4) if keep == "a" else np.einsum("ijik->jk", r4)


# --- decompose -------------------------------------------------------------

DECOMPOSE_DIMS = [(d, d) for d in range(2, 13)] + [
    (2, 3), (3, 2), (2, 12), (12, 2), (3, 7), (7, 3), (4, 9), (9, 4), (5, 11), (11, 5),
]
DECOMPOSE_STATES_PER_DIMS = 2


class Decompose(Workload):
    name = "decompose"
    tail_pct = 99.0

    def setup(self):
        seeds = iter(self._seeds(len(DECOMPOSE_DIMS) * DECOMPOSE_STATES_PER_DIMS))
        ops = []
        for da, db in DECOMPOSE_DIMS:
            for k in range(DECOMPOSE_STATES_PER_DIMS):
                rho = quditcorr.random_density(da * db, next(seeds))
                ops.append(Op((da, db, k, rho), self._call(rho, da, db)))
        return self._shuffled(ops)

    @staticmethod
    def _call(rho, da, db):
        def run():
            q = quditcorr
            return (
                q.bloch_of_subsystem(rho, da, db, "a"),
                q.bloch_of_subsystem(rho, da, db, "b"),
                q.corrmat_opt(rho, da, db),
            )

        return run

    def expect(self, ops):
        # The reference output is one that reconstructs the input state.
        for op in ops:
            rho = op.key[3]
            out = op.run()
            ok = _max_abs(quditcorr.reconstruct(*out), rho) <= DECOMPOSE_TOL
            self.expected[id(op)] = out if ok else None

    def check(self, op, out):
        ref = self.expected[id(op)]
        return ref is not None and all(_max_abs(x, r) <= DECOMPOSE_TOL for x, r in zip(out, ref))


# --- discord-random --------------------------------------------------------

DISCORD_DIMS = [
    (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3),
]


class DiscordRandom(Workload):
    name = "discord-random"
    tail_pct = 90.0

    def setup(self):
        seeds = iter(self._seeds(len(DISCORD_DIMS) * 4))
        ops = []
        for da, db in DISCORD_DIMS:
            for side in ("a", "b"):
                full = quditcorr.random_density(da * db, next(seeds))
                # Classical on the measured side, so its discord is zero.
                if side == "a":
                    cq = quditcorr.random_cq_state(da, db, next(seeds))
                else:
                    cq = _swap_sides(quditcorr.random_cq_state(db, da, next(seeds)), db, da)
                for kind, rho in (("full", full), ("cq", cq)):
                    ops.append(Op((da, db, side, kind, rho), self._call(rho, da, db, side)))
        return self._shuffled(ops)

    @staticmethod
    def _call(rho, da, db, side):
        return lambda: quditcorr.discord_hs(rho, da, db, side)

    def expect(self, ops):
        q = quditcorr
        for op in ops:
            da, db, side, kind, rho = op.key
            c = q.corrmat_opt(rho, da, db)
            vec = q.bloch_of_subsystem(rho, da, db, side)
            xi = q.xi_matrix(vec, c, db) if side == "a" else q.xi_matrix(vec, c.T, da)
            lam = np.linalg.eigvalsh(xi)[::-1]
            d_side = da if side == "a" else db
            hs = max(0.0, float(lam[d_side - 1 :].sum()))
            other = _marginal(rho, da, db, "b" if side == "a" else "a")
            pur = float(np.sum(np.abs(other) ** 2))
            self.expected[id(op)] = (hs, pur, kind == "cq")

    def check(self, op, rep):
        hs, pur, is_cq = self.expected[id(op)]
        return (
            abs(rep.hs_value - hs) <= DISCORD_TOL
            and abs(rep.hsa_value - rep.hs_value / pur) <= HSA_TOL
            and (not is_cq or rep.hs_value <= CQ_TOL)
        )


# --- werner-sweep ----------------------------------------------------------

WERNER_DMIN, WERNER_DMAX, WERNER_STEPS = 2, 8, 41


class WernerSweep(Workload):
    name = "werner-sweep"
    tail_pct = 90.0

    def setup(self):
        # The sweep is deterministic: the seed changes no input here.
        return [Op((WERNER_DMIN, WERNER_DMAX, WERNER_STEPS), self._call)]

    @staticmethod
    def _call():
        return quditcorr.werner_sweep(WERNER_DMIN, WERNER_DMAX, WERNER_STEPS)

    def expect(self, ops):
        d = np.repeat(np.arange(WERNER_DMIN, WERNER_DMAX + 1), WERNER_STEPS).astype(float)
        w = np.tile(np.linspace(-1.0, 1.0, WERNER_STEPS), WERNER_DMAX - WERNER_DMIN + 1)
        hsa = (d * w - 1) ** 2 / ((d - 1) * (d + 1) ** 2)
        # Werner marginals are maximally mixed, so purity is 1/d and hs = hsa/d.
        ref = np.column_stack([d, w, hsa / d, hsa, hsa])
        for op in ops:
            self.expected[id(op)] = ref

    def check(self, op, rows):
        ref = self.expected[id(op)]
        got = np.asarray(rows, dtype=float)
        return got.shape == ref.shape and _max_abs(got, ref) <= WERNER_TOL


# --- cli-files -------------------------------------------------------------

# Every file has a side of dimension 2, and discord measures that side.
CLI_DIMS = [(2, 2), (2, 3), (3, 2), (2, 6), (6, 2), (2, 12), (12, 2), (2, 24), (24, 2)]

VALUE, REJECTED, KNOWN_DEFECT = "value", "rejected", "known-defect"


class CliCase(NamedTuple):
    kind: str  # VALUE, REJECTED or KNOWN_DEFECT
    argv: tuple
    rho: np.ndarray | None  # the state the file holds, for the library value
    da: int
    db: int
    measure: str | None
    side: str


def _write_matrix(path: Path, rho, da: int, db: int) -> None:
    """Write the README's matrix file format without going through the library."""
    lines = [f"{da} {db}"]
    lines += [f"{v.real:.17g} {v.imag:.17g}" for v in np.asarray(rho, dtype=complex).ravel()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cli_call(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = quditcorr.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


class CliFiles(Workload):
    name = "cli-files"
    tail_pct = 99.0

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        seeds = iter(self._seeds(len(CLI_DIMS) + 4))
        ops = []

        def add(argv, kind, rho, da, db, measure=None, side="a"):
            ops.append(Op(CliCase(kind, tuple(argv), rho, da, db, measure, side), _cli_call(argv)))

        def write(name, rho, da, db):
            path = self.workdir / name
            _write_matrix(path, rho, da, db)
            return str(path)

        for da, db in CLI_DIMS:
            rho = quditcorr.random_density(da * db, next(seeds))
            f = write(f"rand-{da}x{db}.mat", rho, da, db)
            side, big = ("a", "b") if da == 2 else ("b", "a")
            for measure in ("hs", "hsa", "purity"):
                argv = ["discord", "--measure", measure, "--subsys", side, "--input", f]
                add(argv, VALUE, rho, da, db, measure, side)
            add(["bloch", "--input", f, "--subsys", big], VALUE, rho, da, db, side=big)
            add(["corrmat", "--input", f], VALUE, rho, da, db)

        # Invalid inputs, one op in ten. The first three are handled wrongly
        # today: they exit 0 where the README promises exit 2 (NOTES.md).
        rng = np.random.default_rng(next(seeds))
        nan = quditcorr.random_density(6, next(seeds))
        i, j = rng.integers(0, 6, 2)
        nan[i, j] = np.nan
        f = write("nan-2x3.mat", nan, 2, 3)
        add(["bloch", "--input", f, "--subsys", "a"], KNOWN_DEFECT, nan, 2, 3)
        add(["corrmat", "--input", f], KNOWN_DEFECT, nan, 2, 3)

        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        nonpos = (u * np.array([0.5, 0.3, 0.3, -0.1])) @ u.conj().T
        f = write("nonpos-2x2.mat", nonpos, 2, 2)
        add(["discord", "--measure", "hs", "--subsys", "a", "--input", f],
            KNOWN_DEFECT, nonpos, 2, 2, "hs", "a")

        nonherm = quditcorr.random_density(4, next(seeds))
        nonherm[0, 1] += 1e-3
        f = write("nonherm-2x2.mat", nonherm, 2, 2)
        add(["discord", "--measure", "hsa", "--subsys", "a", "--input", f], REJECTED, None, 2, 2)

        f = self.workdir / "badheader.mat"
        f.write_text("2 x\n0.5 0\n", encoding="utf-8")
        add(["bloch", "--input", str(f)], REJECTED, None, 2, 2)
        return self._shuffled(ops)

    def expect(self, ops):
        q = quditcorr
        for op in ops:
            case = op.key
            if case.kind == REJECTED:
                self.expected[id(op)] = None
                continue
            rho, da, db, side = case.rho, case.da, case.db, case.side
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                try:
                    if case.argv[0] == "bloch":
                        value = q.bloch_of_subsystem(rho, da, db, side)
                    elif case.argv[0] == "corrmat":
                        value = q.corrmat_opt(rho, da, db)
                    elif case.measure == "purity":
                        # The CLI prints the purity of the measured side's marginal.
                        value = q.purity(_marginal(rho, da, db, side))
                    else:
                        rep = q.discord_hs(rho, da, db, side)
                        value = rep.hs_value if case.measure == "hs" else rep.hsa_value
                except ValueError:
                    value = None  # the library rejects it; only exit 2 is right
            self.expected[id(op)] = None if value is None else np.ravel(value).astype(float)

    def check(self, op, out):
        code, stdout, stderr = out
        kind = op.key.kind
        rejected = code == 2 and stdout == "" and stderr.startswith("error:")
        if kind == REJECTED:
            return rejected
        if kind == KNOWN_DEFECT and rejected:
            return True
        ok = code == 0 and self._stdout_matches(op, stdout)
        if kind == KNOWN_DEFECT and ok:
            self.known_defects += 1
        return ok

    def _stdout_matches(self, op, stdout) -> bool:
        ref = self.expected[id(op)]
        if ref is None:
            return False
        case, tokens = op.key, stdout.split()
        if case.argv[0] == "discord":
            if tokens[:4] != [case.measure, case.side, str(case.da), str(case.db)]:
                return False
            tokens = tokens[4:]
        try:
            got = np.array(tokens, dtype=float)
        except ValueError:
            return False
        return got.shape == ref.shape and bool(
            np.all(np.isclose(got, ref, rtol=CLI_RTOL, atol=CLI_ATOL, equal_nan=True))
        )


WORKLOADS = {w.name: w for w in (Decompose, DiscordRandom, WernerSweep, CliFiles)}
