import io

import numpy as np
import pytest
from _rows_oracle import read_rows as read_rows_oracle
from hypothesis import example, given
from hypothesis import strategies as st

from gssnmf import linalg
from gssnmf.linalg import (
    as_matrix,
    frobenius_sq,
    load_matrix_csv,
    read_entries,
    read_json,
    read_rows,
    save_matrix_csv,
    singular_values,
    write_batch,
    write_file,
    write_rows,
)

def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="NaN or Inf"):
        as_matrix([[1.0, float("nan")]])


def test_frobenius_sq():
    assert frobenius_sq(as_matrix([[3, 4]])) == 25.0
    assert frobenius_sq(np.zeros((5, 5))) == 0.0
    assert frobenius_sq(np.eye(3)) == 3.0


def test_singular_values_diagonal():
    spectrum = singular_values(np.diag([3.0, 2.0, 1.0]), 3)
    assert spectrum == pytest.approx([3.0, 2.0, 1.0], rel=1e-12)


def test_singular_values_permutation_and_rank_one():
    spectrum = singular_values(as_matrix([[0, 1], [1, 0]]), 2)
    assert spectrum == pytest.approx([1.0, 1.0], rel=1e-9)
    spectrum = singular_values(np.ones((2, 2)), 2)
    assert spectrum == pytest.approx([2.0, 0.0], abs=1e-9)


def test_singular_values_top_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        singular_values(np.ones((3, 2)), 3)


@pytest.mark.parametrize("seed", range(8))
def test_singular_values_transpose_invariant(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((10, 7))
    s1 = singular_values(a, 7)
    s2 = singular_values(a.T, 7)
    assert s1 == pytest.approx(s2, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_singular_values_energy_matches_frobenius(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((9, 6))
    sigma = singular_values(a, 6)
    assert sum(s * s for s in sigma) == pytest.approx(frobenius_sq(a), rel=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_singular_values_matches_svd_oracle(seed):
    # independent route: full SVD instead of the Gram eigendecomposition
    rng = np.random.default_rng(seed)
    a = rng.random((8, 11))
    got = singular_values(a, 8)
    want = np.linalg.svd(a, compute_uv=False)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-6)


def test_csv_round_trip_is_value_exact(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.random((5, 4)) * np.array([1e-7, 1.0, 1e7, 123.456])
    path = tmp_path / "m.csv"
    save_matrix_csv(a, path)
    assert np.array_equal(load_matrix_csv(path), a)


def test_csv_load_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.csv:2"):
        load_matrix_csv(path)
    path.write_text("1,zzz\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad number"):
        load_matrix_csv(path)



def test_write_rows_matches_per_entry_format(tmp_path):
    a = as_matrix([
        [0.0, -0.0, 5e-324, 1e308],
        [0.1, 0.12345678901234568, 1.0 / 3.0, 0.0],
        [-2.5e-310, 123456789.01234567, 0.0, 0.0],
    ])
    path = tmp_path / "m.csv"
    save_matrix_csv(a, path)
    want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in a)
    assert path.read_text("utf-8") == want
    assert want.startswith("0,-0,")
    back = load_matrix_csv(path)
    assert np.array_equal(back, a)
    assert np.array_equal(np.signbit(back), np.signbit(a))
    with open(tmp_path / "again.csv", "w", encoding="utf-8") as fh:
        write_rows(fh, a.tolist())
    assert (tmp_path / "again.csv").read_text("utf-8") == want


# --- readers ----------------------------------------------------------------

def _rows(text, **kw):
    return read_rows(io.StringIO(text), "m.csv", **kw)


def test_read_rows_blank_lines_may_only_end_the_file():
    assert np.array_equal(_rows("1,2\n3,4\n\n  \n"), [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="m.csv:2: blank line before a row"):
        _rows("1,2\n\n3,4\n")
    with pytest.raises(ValueError, match="m.csv:1: blank line before a row"):
        _rows(" \n1,2\n")


def test_read_rows_names_the_line_of_each_fault():
    cases = {
        "1,2\n3\n": "m.csv:2: expected 2 fields, found 1",
        "1,2\n3,x\n": "m.csv:2: bad number: could not convert string to float: 'x'",
        "1,2\n3,4\nnan,0\n": "m.csv:3: non-finite value",
        "1,2\n-inf,0\n": "m.csv:2: non-finite value",
        "1,2\n3,1e999\n": "m.csv:2: non-finite value",
        "": "m.csv:1: truncated after 0 rows, expected at least 1",
        "\n\n": "m.csv:1: truncated after 0 rows, expected at least 1",
    }
    for text, message in cases.items():
        with pytest.raises(ValueError) as info:
            _rows(text)
        assert str(info.value) == message


def test_read_rows_fills_a_declared_shape():
    m = _rows("1,2\n3,4\n", width=2, rows=2, first=5)
    assert m.dtype == np.float64 and m.flags.c_contiguous
    assert np.array_equal(m, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="m.csv:6: truncated after 1 rows, expected 2"):
        _rows("1,2\n", width=2, rows=2, first=5)
    with pytest.raises(ValueError, match="m.csv:7: expected 2 rows, found more"):
        _rows("1,2\n3,4\n5,6\n", width=2, rows=2, first=5)
    with pytest.raises(ValueError, match="m.csv:5: expected 2 fields, found 3"):
        _rows("1,2,3\n", width=2, rows=2, first=5)


def test_read_rows_integer_columns():
    assert np.array_equal(_rows("7,0.5\n-2,1\n", ints=(0,)), [[7, 0.5], [-2, 1]])
    for bad in ("7.0", "x", "1e1", "nan"):
        with pytest.raises(ValueError, match="m.csv:2: bad number"):
            _rows(f"1,0\n{bad},0.5\n", ints=(0,))


def test_read_json_names_the_line_of_a_syntax_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{\n  "a": 1,\n  oops\n}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{path}:3: invalid config: "):
        read_json(path, "config")
    path.write_text('[1, {"a": null}]', encoding="utf-8")
    assert read_json(path, "config") == [1, {"a": None}]


def test_read_entries_drops_blanks_and_comments():
    lines = ["# header\n", "  alpha \n", "\n", "   # indented comment\n",
             "beta gamma\n", "delta # not a comment"]
    assert read_entries(lines) == ["alpha", "beta gamma", "delta # not a comment"]


_NUMBERISH = st.text(alphabet="0123456789.,-+eE naif#\t\n")
_FLOAT_ROWS = st.lists(
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda r: ",".join(map(repr, r))),
    max_size=4,
).map("\n".join)
_ANY_TEXT = st.one_of(st.text(), _NUMBERISH, _FLOAT_ROWS)


def _finite_or_named(load, path):
    try:
        m = load()
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert m.ndim == 2 and m.shape[0] >= 1 and m.shape[1] >= 1
    assert m.dtype == np.float64 and np.isfinite(m).all()


@given(text=_ANY_TEXT)
@example(text="1,2\nnan,0\n")
@example(text="1\n\n2\n")
@example(text="1e999")
def test_load_matrix_csv_fuzz(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    _finite_or_named(lambda: load_matrix_csv(path), path)


@given(text=_ANY_TEXT, rows=st.sampled_from([None, 1, 3]),
       ints=st.sampled_from([(), (0,)]))
@example(text="0,inf\n", rows=1, ints=())
@example(text="1.5,0\n", rows=None, ints=(0,))
def test_read_rows_fuzz(text, rows, ints):
    width = None if rows is None else 2
    _finite_or_named(
        lambda: read_rows(io.StringIO(text), "fuzz.csv", width, rows, 1, ints), "fuzz.csv"
    )


def _parsed(parse, text, width, rows, ints):
    """The dtype, shape and bytes of what ``parse`` reads from ``text``, or
    its error message."""
    try:
        m = parse(io.StringIO(text), "f.csv", width, rows, 1, ints)
    except ValueError as exc:
        return str(exc)
    return m.dtype, m.shape, m.tobytes()


# Field text that numpy and float() read alike, read differently, or refuse.
_FIELDISH = st.text(alphabet="0123456789.,-+eE_ naifxy#\t\r\x0c\x1c\x1f\xa0\u0661\n",
                    max_size=60)
_FULL_DIGITS = st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
             min_size=2, max_size=2).map(",".join),
    min_size=1, max_size=5,
).map(lambda rows: "\n".join(rows) + "\n")
# Past one conversion chunk: good rows, then anything.
_LONG = st.builds(lambda k, tail: "1.25,-0\n" * k + tail,
                  st.integers(250, 520), st.one_of(_FIELDISH, _FULL_DIGITS))


# (width, rows, ints) as the readers declare them, and more.
_LAYOUTS = [(None, None, ()), (None, None, (0,)), (2, None, ()), (2, None, (1,)),
            (5, None, (0,)), (2, 1, ()), (2, 3, (0,)), (2, 300, ())]


@given(text=st.one_of(st.text(), _FIELDISH, _FULL_DIGITS, _LONG),
       layout=st.sampled_from(_LAYOUTS))
@example(text="1_0,2\n", layout=(None, None, ()))
@example(text="\u0661,2\n", layout=(2, 1, ()))
@example(text="\u0661,2\n", layout=(None, None, (0,)))
@example(text=" 1, 2\n3 ,4 \n", layout=(2, None, (1,)))
@example(text="4.9e-324,-4.9e-324\n", layout=(2, 1, ()))
@example(text="0.12345678901234568,1.7976931348623157e+308\n"
              "2.2250738585072014e-308,123456789.01234567\n", layout=(None, None, ()))
@example(text="1,2\n" * 299 + "1,zz\n" + "1,2\n" * 20, layout=(2, None, ()))
@example(text="1,2\n" * 299 + "1,zz\n" + "1\n", layout=(2, 300, ()))
@example(text="1,2\n" * 260 + "1.5,zz\n", layout=(None, None, (0,)))
@example(text="1,\x1c2\n", layout=(None, None, ()))
@example(text="1,2\r3\n", layout=(None, None, ()))
def test_read_rows_matches_the_per_field_oracle(text, layout):
    want = _parsed(read_rows_oracle, text, *layout)
    assert _parsed(read_rows, text, *layout) == want


# --- whole-or-absent writes --------------------------------------------------

def test_write_file_replaces_only_on_success(tmp_path):
    path = tmp_path / "a.txt"
    with write_file(path) as fh:
        fh.write("new\n")
        assert not path.exists()
    assert path.read_text("utf-8") == "new\n"
    with pytest.raises(RuntimeError):
        with write_file(path) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert path.read_text("utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]


def test_write_batch_commits_all_or_nothing(tmp_path, monkeypatch):
    old = {"a.csv": "old a\n", "c.csv": "old c\n"}
    for name, text in old.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    real, calls = linalg.write_rows, []

    def failing(fh, a):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        real(fh, a)

    monkeypatch.setattr(linalg, "write_rows", failing)
    with pytest.raises(OSError, match="disk full"):
        with write_batch():
            for name in ("a.csv", "b.csv", "c.csv"):
                save_matrix_csv(np.ones((2, 2)), tmp_path / name)
    assert len(calls) == 3
    assert {p.name: p.read_text("utf-8") for p in tmp_path.iterdir()} == old
    monkeypatch.setattr(linalg, "write_rows", real)
    with write_batch():
        save_matrix_csv(np.ones((1, 1)), tmp_path / "a.csv")
        with write_batch():  # nested: joins the outer batch
            save_matrix_csv(np.ones((1, 1)), tmp_path / "b.csv")
        assert not (tmp_path / "b.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "c.csv"]
    assert (tmp_path / "b.csv").read_text("utf-8") == "1\n"


def test_write_batch_removes_temporaries_when_a_rename_fails(tmp_path):
    (tmp_path / "dir.csv").mkdir()
    with pytest.raises(OSError):
        with write_batch():
            save_matrix_csv(np.ones((1, 1)), tmp_path / "dir.csv")
            save_matrix_csv(np.ones((1, 1)), tmp_path / "b.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.csv"]
    assert not any((tmp_path / "dir.csv").iterdir())
