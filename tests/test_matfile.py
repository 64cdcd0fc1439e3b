import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quditcorr import MatrixFileError, parse_matrix_file, random_density, write_matrix_file


def _entries(rho):
    return "".join(f"{v.real} {v.imag}\n" for v in np.asarray(rho).ravel())


def test_parse_bipartite(tmp_path):
    path = tmp_path / "mixed.mat"
    path.write_text("2 2\n" + _entries(np.eye(4) / 4))
    rho, da, db = parse_matrix_file(path)
    assert (da, db) == (2, 2)
    assert_allclose(rho, np.eye(4) / 4, atol=0)


def test_parse_single_system(tmp_path):
    path = tmp_path / "single.mat"
    path.write_text("3 0\n" + _entries(np.eye(3) / 3))
    rho, da, db = parse_matrix_file(path)
    assert (da, db) == (3, 0)
    assert rho.shape == (3, 3)


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "commented.mat"
    body = _entries(np.eye(4) / 4).splitlines()
    body[0] += "  # inline comment after an entry"
    text = "# density matrix\n\n2 2\n" + "\n# middle\n".join(body) + "\n"
    path.write_text(text)
    rho, _, _ = parse_matrix_file(path)
    assert_allclose(rho, np.eye(4) / 4, atol=0)


def test_missing_entries_reports_count(tmp_path):
    path = tmp_path / "short.mat"
    path.write_text("2 2\n" + "0 0\n" * 15)
    with pytest.raises(MatrixFileError, match="expected 16 entries"):
        parse_matrix_file(path)


def test_empty_body_reports_count_without_warning(tmp_path):
    path = tmp_path / "empty.mat"
    path.write_text("2 2\n# no entries\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFileError, match="expected 16 entries, got 0"):
            parse_matrix_file(path)


def test_header_checked_against_entries_before_allocating(tmp_path):
    path = tmp_path / "huge.mat"
    path.write_text("3000 3000\n0.5 0\n")
    with pytest.raises(MatrixFileError, match="expected 81000000000000 entries, got 1"):
        parse_matrix_file(path)


@pytest.mark.parametrize("value", ["nan", "-inf", "inf", "1e400"])
def test_non_finite_entry_names_line(tmp_path, value):
    path = tmp_path / "nonfinite.mat"
    path.write_text(f"2 0\n1 0\n# comment\n0 0\n{value} 0\n0 0\n")
    with pytest.raises(MatrixFileError, match="line 5: non-finite value"):
        parse_matrix_file(path)


def test_extra_entries_rejected(tmp_path):
    path = tmp_path / "long.mat"
    path.write_text("2 0\n" + "0 0\n" * 5)
    with pytest.raises(MatrixFileError, match="line 6"):
        parse_matrix_file(path)


def test_non_numeric_token_names_line(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 0\n1 0\n0 zero\n0 0\n1 0\n")
    with pytest.raises(MatrixFileError, match="line 3"):
        parse_matrix_file(path)


@pytest.mark.parametrize("token", ["1_0", "\u0661"])
def test_underscore_and_non_ascii_digits_name_line(tmp_path, token):
    path = tmp_path / "bad.mat"
    path.write_text(f"2 0\n1 0\n0 {token}\n0 0\n1 0\n", encoding="utf-8")
    with pytest.raises(MatrixFileError, match="line 3: non-numeric"):
        parse_matrix_file(path)


def test_malformed_entry_rejected(tmp_path):
    path = tmp_path / "triple.mat"
    path.write_text("2 0\n1 0 0\n0 0\n0 0\n1 0\n")
    with pytest.raises(MatrixFileError, match="re im"):
        parse_matrix_file(path)


@pytest.mark.parametrize("header", ["2", "2 2 2", "x 2", "0 2", "2 -1", ""])
def test_malformed_header_rejected(tmp_path, header):
    path = tmp_path / "hdr.mat"
    path.write_text(header + "\n1 0\n")
    with pytest.raises(MatrixFileError):
        parse_matrix_file(path)


def test_scientific_notation(tmp_path):
    path = tmp_path / "sci.mat"
    path.write_text("2 0\n5e-1 0\n0 -2.5E-1\n0 2.5e-1\n0.5 0\n")
    rho, _, _ = parse_matrix_file(path)
    assert_allclose(rho, np.array([[0.5, -0.25j], [0.25j, 0.5]]), atol=0)


def test_write_parse_round_trip(tmp_path):
    rho = random_density(6, 42)
    path = tmp_path / "rt.mat"
    write_matrix_file(path, rho, 2, 3)
    back, da, db = parse_matrix_file(path)
    assert (da, db) == (2, 3)
    assert np.array_equal(back, rho)


def test_write_rejects_shape_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_matrix_file(tmp_path / "bad.mat", np.eye(4), 2, 3)


@pytest.mark.parametrize(
    "rho,da,db,message",
    [
        (np.zeros((0, 0)), 0, 0, "bad dimensions da=0 db=0"),
        (np.eye(2), 2, -1, "bad dimensions da=2 db=-1"),
        (np.array([[0.5, np.nan], [complex(0, np.inf), 0.5]]), 2, 0, "non-finite entry"),
    ],
    ids=["da-below-one", "db-negative", "non-finite"],
)
def test_write_refuses_what_parse_rejects(tmp_path, rho, da, db, message):
    path = tmp_path / "bad.mat"
    with pytest.raises(ValueError, match=message):
        write_matrix_file(path, rho, da, db)
    assert not path.exists()


_FILLER_LINES = ["", "   ", "# comment", "\t# indented comment"]


@seed(20160317)
@settings(max_examples=60, deadline=None, database=None)
@given(
    da=st.integers(1, 6),
    db=st.sampled_from([0, 2, 3, 4, 5, 6]),
    specials=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_write_parse_round_trip_is_bit_exact(tmp_path_factory, da, db, specials, rng_seed):
    rng = np.random.default_rng(rng_seed)
    n = da * max(db, 1)
    parts = rng.standard_normal((n, n, 2)) * 10.0 ** rng.integers(-300, 300, (n, n, 2))
    flat = parts.reshape(-1)
    flat[rng.integers(0, flat.size, len(specials))] = specials
    rho = parts.view(complex)[..., 0]

    path = tmp_path_factory.mktemp("rt") / "rt.mat"
    write_matrix_file(path, rho, da, db)
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        if rng.random() < 0.2:
            lines[i] += " # inline"
    for _ in range(rng.integers(0, 2 * n)):
        lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(_FILLER_LINES)))
    path.write_text("\n".join(lines) + "\n")

    back, got_da, got_db = parse_matrix_file(path)
    assert (got_da, got_db) == (da, db)
    assert back.tobytes() == rho.tobytes()
