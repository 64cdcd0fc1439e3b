import subprocess
import sys

import numpy as np
import pytest

from quditcorr import (
    ConvergenceError,
    bell_state,
    bloch_of_subsystem,
    corrmat_opt,
    discord_hs,
    random_density,
    werner_state,
    write_matrix_file,
)
from quditcorr import cli
from quditcorr.cli import main


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.mat"
    write_matrix_file(path, bell_state(2), 2, 2)
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    path = tmp_path / "random.mat"
    write_matrix_file(path, random_density(6, 99), 2, 3)
    return str(path)


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def _values(line):
    return [float(tok) for tok in line.split()]


class TestGellmannCommand:
    def test_pauli_z_layout(self, capsys):
        assert main(["gellmann", "--dim", "2", "--group", "1", "--k", "1"]) == 0
        assert _lines(capsys) == ["1 0", "0 -1"]

    def test_antisymmetric_prints_pairs(self, capsys):
        assert main(["gellmann", "--dim", "2", "--group", "3", "--k", "1", "--l", "2"]) == 0
        assert _lines(capsys) == ["0 0 0 -1", "0 1 0 0"]

    def test_bad_label_is_usage_error(self, capsys):
        assert main(["gellmann", "--dim", "2", "--group", "1", "--k", "5"]) == 1


class TestBlochCommand:
    def test_bell_marginal_vanishes(self, bell_file, capsys):
        assert main(["bloch", "--input", bell_file, "--subsys", "a"]) == 0
        assert _lines(capsys) == ["0 0 0"]

    def test_single_system_file(self, tmp_path, capsys):
        path = tmp_path / "proj.mat"
        write_matrix_file(path, np.diag([1.0, 0.0]).astype(complex), 2, 0)
        assert main(["bloch", "--input", str(path)]) == 0
        assert _lines(capsys) == ["1 0 0"]

    def test_naive_flag_agrees(self, random_file, capsys):
        assert main(["bloch", "--input", random_file, "--subsys", "b"]) == 0
        fast = _values(_lines(capsys)[0])
        assert main(["bloch", "--input", random_file, "--subsys", "b", "--naive"]) == 0
        slow = _values(_lines(capsys)[0])
        assert np.max(np.abs(np.array(fast) - np.array(slow))) <= 1e-12


class TestCorrmatCommand:
    def test_bell_layout(self, bell_file, capsys):
        assert main(["corrmat", "--input", bell_file]) == 0
        assert _lines(capsys) == ["1 0 0", "0 1 0", "0 0 -1"]

    def test_naive_flag_agrees(self, random_file, capsys):
        assert main(["corrmat", "--input", random_file]) == 0
        fast = np.array([_values(line) for line in _lines(capsys)])
        assert main(["corrmat", "--input", random_file, "--naive"]) == 0
        slow = np.array([_values(line) for line in _lines(capsys)])
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_rejects_single_system_file(self, tmp_path, capsys):
        path = tmp_path / "single.mat"
        write_matrix_file(path, np.eye(3, dtype=complex) / 3, 3, 0)
        assert main(["corrmat", "--input", str(path)]) == 2


class TestDiscordCommand:
    def test_bell_hs(self, bell_file, capsys):
        assert main(["discord", "--measure", "hs", "--subsys", "a", "--input", bell_file]) == 0
        assert _lines(capsys) == ["hs a 2 2 0.5"]

    def test_werner_hsa(self, tmp_path, capsys):
        path = tmp_path / "werner.mat"
        write_matrix_file(path, werner_state(2, 1.0), 2, 2)
        assert main(["discord", "--measure", "hsa", "--subsys", "a", "--input", str(path)]) == 0
        assert _lines(capsys) == ["hsa a 2 2 0.111111111111"]

    def test_maximally_mixed_hs(self, tmp_path, capsys):
        path = tmp_path / "mixed.mat"
        write_matrix_file(path, np.eye(4, dtype=complex) / 4, 2, 2)
        assert main(["discord", "--measure", "hs", "--subsys", "a", "--input", str(path)]) == 0
        assert _lines(capsys) == ["hs a 2 2 0"]

    def test_hsa_equals_hs_over_purity(self, random_file, capsys):
        values = {}
        for measure, subsys in [("hs", "a"), ("hsa", "a"), ("purity", "b")]:
            assert main(["discord", "--measure", measure, "--subsys", subsys,
                         "--input", random_file]) == 0
            values[measure] = float(_lines(capsys)[-1].split()[-1])
        assert abs(values["hsa"] - values["hs"] / values["purity"]) <= 1e-12

    def test_ancilla_scales_hs_and_leaves_hsa(self, random_file, tmp_path, capsys):
        # An ancilla sigma on the unmeasured side b: hs scales by P(sigma), hsa stays.
        sigma = random_density(2, 5)
        path = tmp_path / "ancilla.mat"
        write_matrix_file(path, np.kron(random_density(6, 99), sigma), 2, 6)
        values = {}
        for name, f in [("rho", random_file), ("rho_sigma", str(path))]:
            for measure in ("hs", "hsa"):
                assert main(["discord", "--measure", measure, "--subsys", "a", "--input", f]) == 0
                values[name, measure] = float(_lines(capsys)[-1].split()[-1])
        p = np.trace(sigma @ sigma).real
        assert abs(values["rho_sigma", "hs"] - p * values["rho", "hs"]) <= 1e-11 * values["rho", "hs"]
        assert abs(values["rho_sigma", "hsa"] - values["rho", "hsa"]) <= 1e-11 * values["rho", "hsa"]

    def test_rejects_invalid_density(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        write_matrix_file(path, np.eye(4, dtype=complex) / 2, 2, 2)  # trace 2
        assert main(["discord", "--measure", "hs", "--subsys", "a", "--input", str(path)]) == 2
        assert "not a density matrix" in capsys.readouterr().err

    def test_rejects_missing_file(self, tmp_path):
        assert main(["discord", "--measure", "hs", "--subsys", "a",
                     "--input", str(tmp_path / "nope.mat")]) == 2


class TestWernerSweepCommand:
    def test_csv_contents(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["werner-sweep", "--dmin", "2", "--dmax", "3",
                     "--wsteps", "41", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,w,hs_numeric,hsa_numeric,hsa_analytic"
        assert len(lines) == 1 + 2 * 41
        rows = [line.split(",") for line in lines[1:]]
        end_qubit = rows[40]
        assert end_qubit[0] == "2" and end_qubit[1] == "1"
        assert abs(float(end_qubit[3]) - 1.0 / 9.0) <= 1e-10
        # w = 1/d sits on the 41-point grid for d = 2: closed form vanishes
        mid_qubit = rows[30]
        assert mid_qubit[1] == "0.5"
        assert abs(float(mid_qubit[3])) <= 1e-10
        start_qutrit = rows[41]
        assert start_qutrit[0] == "3" and start_qutrit[1] == "-1"
        assert float(start_qutrit[4]) == 0.5

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["werner-sweep", "--dmin", "2", "--dmax", "2",
                         "--wsteps", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--dmin", "1", "--dmax", "2", "--wsteps", "5"],
            ["--dmin", "2", "--dmax", "2", "--wsteps", "1"],
        ],
    )
    def test_bad_grid_is_usage_error(self, tmp_path, flags):
        assert main(["werner-sweep", *flags, "--out", str(tmp_path / "x.csv")]) == 1


class TestBenchCommand:
    def test_csv_structure(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--dims", "3x3,2x2", "--trials", "2",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "da,db,trials,t_naive_ns,t_opt_ns,speedup,censored"
        assert len(lines) == 3
        first, second = lines[1].split(","), lines[2].split(",")
        assert [first[0], first[1]] == ["2", "2"]  # sorted by total dimension
        assert [second[0], second[1]] == ["3", "3"]
        for row in (first, second):
            assert int(row[3]) > 0 and int(row[4]) > 0
            assert float(row[5]) > 0
            assert row[6] == "0"

    def test_bad_dims_is_usage_error(self, tmp_path):
        assert main(["bench", "--dims", "2x", "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["bench", "--dims", "1x2", "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_trials_is_usage_error(self, tmp_path):
        assert main(["bench", "--dims", "2x2", "--trials", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1


def _per_element_rows(m):
    """Reference layout: every element formatted on its own with cli._fmt."""
    m = np.atleast_2d(m)
    if np.iscomplexobj(m) and np.any(m.imag != 0.0):
        return [" ".join(f"{cli._fmt(v.real)} {cli._fmt(v.imag)}" for v in row) for row in m]
    return [" ".join(cli._fmt(v) for v in row) for row in m.real]


class TestRowPrinting:
    def test_large_file_matches_per_element_format(self, tmp_path, capsys):
        rho = random_density(48, 5)
        path = tmp_path / "big.mat"
        write_matrix_file(path, rho, 2, 24)
        f = str(path)
        cases = [
            (["bloch", "--input", f, "--subsys", "a"], bloch_of_subsystem(rho, 2, 24, "a")),
            (["bloch", "--input", f, "--subsys", "b"], bloch_of_subsystem(rho, 2, 24, "b")),
            (["corrmat", "--input", f], corrmat_opt(rho, 2, 24)),
        ]
        for argv, value in cases:
            assert main(argv) == 0
            expected = "".join(line + "\n" for line in _per_element_rows(value))
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("m", [
        np.array([[-0.0, 1.5e-13], [1 / 3, -2.0e7]]),
        np.array([[1 + 0j, -0.0 - 1j], [1j, 2.5 + 0j]]),
        np.array([[1 + 0j, 0j], [0j, -1 + 0j]]),
    ])
    def test_print_matrix_matches_per_element_format(self, capsys, m):
        cli._print_matrix(m)
        assert capsys.readouterr().out.splitlines() == _per_element_rows(m)


class TestParserReuse:
    CALLS = [
        ["gellmann", "--dim", "3", "--group", "2", "--k", "1", "--l", "3"],
        ["bloch", "--input", "{f}", "--subsys", "b"],
        ["gellmann", "--dim", "2", "--group", "1", "--k", "1", "--frob"],
        ["corrmat", "--input", "{f}"],
        ["discord", "--measure", "hsa", "--subsys", "a", "--input", "{f}"],
        ["bloch", "--input", "{f}"],
        ["discord", "--measure", "purity", "--input", "{f}"],
        [],
        ["corrmat", "--input", "{f}", "--naive"],
        ["discord", "--measure", "hs", "--subsys", "b", "--input", "{f}"],
    ]

    def _run_all(self, capsys, path):
        results = []
        for argv in self.CALLS:
            code = main([arg.format(f=path) for arg in argv])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_one_parser_serves_every_call(self, random_file, capsys, monkeypatch):
        assert cli._parser() is cli._parser()
        reused = self._run_all(capsys, random_file)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._run_all(capsys, random_file)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 0, 0, 1, 0, 0]


class TestInvalidInputs:
    def _nan_file(self, tmp_path):
        rho = random_density(6, 3)
        rho[1, 4] = np.nan
        path = tmp_path / "nan.mat"
        # write_matrix_file refuses non-finite entries, so write the bytes here.
        path.write_text("2 3\n" + "".join(f"{v.real:.17g} {v.imag:.17g}\n" for v in rho.ravel()))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["bloch", "--input", "{f}"],
        ["corrmat", "--input", "{f}"],
        ["discord", "--measure", "hs", "--subsys", "a", "--input", "{f}"],
    ])
    def test_nan_entry_is_data_error(self, tmp_path, capsys, argv):
        path = self._nan_file(tmp_path)
        assert main([arg.format(f=path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 12: non-finite value" in captured.err

    @pytest.mark.parametrize("argv", [
        ["bloch", "--input", "{f}"],
        ["bloch", "--input", "{f}", "--subsys", "b", "--naive"],
        ["corrmat", "--input", "{f}"],
        ["corrmat", "--input", "{f}", "--naive"],
    ])
    def test_non_hermitian_file_is_data_error(self, tmp_path, capsys, argv):
        # One off-diagonal entry raised by 0.3: the traced-out marginals stay
        # Hermitian, so only a check on the whole matrix catches it.
        rho = random_density(4, 5)
        rho[0, 1] += 0.3
        path = tmp_path / "nonherm.mat"
        write_matrix_file(path, rho, 2, 2)
        assert main([arg.format(f=path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a density matrix (hermiticity defect 3.000e-01)" in captured.err

    def test_hermiticity_defect_within_tolerance_is_accepted(self, tmp_path, capsys):
        rho = random_density(4, 5)
        rho[0, 1] += 1e-9
        path = tmp_path / "nearly.mat"
        write_matrix_file(path, rho, 2, 2)
        assert main(["corrmat", "--input", str(path)]) == 0
        assert len(_lines(capsys)) == 3

    @pytest.mark.parametrize("da, db, argv", [
        (2, 2, ["bloch", "--input", "{f}", "--subsys", "a"]),
        (2, 2, ["bloch", "--input", "{f}", "--subsys", "a", "--naive"]),
        (2, 2, ["bloch", "--input", "{f}", "--subsys", "b"]),
        (2, 2, ["bloch", "--input", "{f}", "--subsys", "b", "--naive"]),
        (2, 2, ["corrmat", "--input", "{f}"]),
        (2, 2, ["corrmat", "--input", "{f}", "--naive"]),
        (2, 2, ["discord", "--measure", "hs", "--subsys", "a", "--input", "{f}"]),
        (3, 0, ["bloch", "--input", "{f}"]),
        (3, 0, ["bloch", "--input", "{f}", "--naive"]),
    ])
    def test_every_command_accepts_defect_within_tolerance(self, tmp_path, capsys, da, db, argv):
        # 1e-9 is inside the documented 1e-8 tolerance but above the library's
        # 1e-10 trace residue check, which must not decide the exit code.
        rho = random_density(da * max(db, 1), 5)
        rho[0, 1] += 1e-9
        path = tmp_path / "nearly.mat"
        write_matrix_file(path, rho, da, db)
        assert main([arg.format(f=path) for arg in argv]) == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("measure", ["hs", "hsa"])
    def test_discord_computes_on_hermitian_part(self, tmp_path, capsys, measure, side):
        # discord prints the library value of (rho + rho^dagger)/2, the same
        # matrix bloch and corrmat compute on.
        rho = random_density(4, 5)
        rho[0, 1] += 1e-9
        path = tmp_path / "nearly.mat"
        write_matrix_file(path, rho, 2, 2)
        rep = discord_hs((rho + rho.conj().T) / 2, 2, 2, side)
        value = rep.hs_value if measure == "hs" else rep.hsa_value
        assert main(["discord", "--measure", measure, "--subsys", side, "--input", str(path)]) == 0
        assert _lines(capsys) == [f"{measure} {side} 2 2 {cli._fmt(value)}"]

    def test_bloch_rejects_dimension_one_side(self, tmp_path, capsys):
        path = tmp_path / "one.mat"
        write_matrix_file(path, np.eye(3, dtype=complex) / 3, 1, 3)
        assert main(["bloch", "--input", str(path), "--subsys", "b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: subsystem dimensions must be >= 2, got (1, 3)" in captured.err

    def test_huge_header_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.mat"
        path.write_text("3000 3000\n0.5 0\n")
        assert main(["corrmat", "--input", str(path)]) == 2
        assert "expected 81000000000000 entries, got 1" in capsys.readouterr().err

    def test_discord_rejects_non_positive_matrix(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        nonpos = (u * np.array([0.5, 0.3, 0.3, -0.1])) @ u.conj().T
        path = tmp_path / "nonpos.mat"
        write_matrix_file(path, nonpos, 2, 2)
        assert main(["discord", "--measure", "hs", "--subsys", "a", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not a density matrix" in err
        assert "min eigenvalue -1.000e-01" in err

    def test_discord_rejects_trace_defect(self, tmp_path, capsys):
        path = tmp_path / "trace.mat"
        write_matrix_file(path, 1.5 * random_density(4, 5), 2, 2)
        assert main(["discord", "--measure", "hs", "--subsys", "a", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: not a density matrix (trace defect 5.000e-01, min eigenvalue " in captured.err


def test_convergence_failure_is_numeric_error(random_file, capsys, monkeypatch):
    def fail(*args):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(cli, "discord_hs", fail)
    assert main(["discord", "--measure", "hs", "--input", random_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["gellmann", "--dim", "2", "--group", "1", "--k", "1", "--frob"]) == 1


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "quditcorr.cli", "--help"],
        capture_output=True,
        text=True,
    )
    # argparse --help exits 0 through the module entry
    assert proc.returncode == 0
    assert "werner-sweep" in proc.stdout


def test_module_entry_exits_2_on_non_hermitian_file(tmp_path):
    rho = random_density(4, 5)
    rho[0, 1] += 0.3
    path = tmp_path / "nonherm.mat"
    write_matrix_file(path, rho, 2, 2)
    proc = subprocess.run(
        [sys.executable, "-m", "quditcorr.cli", "discord", "--measure", "hs", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not a density matrix (hermiticity defect 3.000e-01)" in proc.stderr
