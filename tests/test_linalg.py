import io

import numpy as np
import pytest
from _rows_oracle import read_rows as read_rows_oracle
from hypothesis import example, given
from hypothesis import strategies as st

from gssnmf import linalg
from gssnmf.linalg import (
    REQUIRED,
    as_matrix,
    frobenius_sq,
    keep_inputs,
    load_matrix_csv,
    read_entries,
    read_form,
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


_FORM = {"n": ("count", REQUIRED), "w": ("number", 0.5), "name": ("string", None),
         "ids": ("ints", REQUIRED), "terms": ("strings", None),
         "inner": ({"k": ("count", REQUIRED)}, None)}


@pytest.mark.parametrize("value", [2.5, 2.0, -1, True, "2", None, [2]])
def test_read_form_counts_are_non_negative_json_integers(value):
    assert read_form({"n": 2, "ids": []}, _FORM)["n"] == 2
    with pytest.raises(ValueError, match="^n: expected a non-negative integer, got "):
        read_form({"n": value, "ids": []}, _FORM)


@pytest.mark.parametrize("value, shown", [
    (True, "true"), ("2", "a string"), (None, "null"), ([2], "an array"),
    (10**400, "an integer of 401 digits"), (-2**1024, "an integer of 309 digits"),
], ids=["bool", "string", "null", "array", "huge", "minus-2-to-the-1024"])
def test_read_form_numbers_are_json_numbers_a_float_holds(value, shown):
    for w in (2, 0.5, -1e308, float("nan")):
        assert read_form({"n": 0, "ids": [], "w": w}, _FORM)["w"] is w
    with pytest.raises(ValueError) as info:
        read_form({"n": 0, "ids": [], "w": value}, _FORM)
    assert str(info.value) == f"w: expected a number, got {shown}"


def test_read_form_fills_defaults_and_names_each_fault_by_its_key():
    assert read_form({"ids": [-1, 3], "n": 1}, _FORM) == {
        "n": 1, "w": 0.5, "name": None, "ids": [-1, 3], "terms": None, "inner": None}
    assert read_form({"n": 1, "ids": [], "terms": ["a"], "inner": {"k": 0}},
                     _FORM)["inner"] == {"k": 0}
    for value, message in [
        ([], "top level: expected an object, got an array"),
        ({"ids": []}, "n: missing"),
        ({"n": 1, "ids": [], "extra": 1}, "extra: not a declared key"),
        ({"n": 1, "ids": [], "a\nb": 1}, '"a\\nb": not a declared key'),
        ({"n": 1, "ids": [True]}, "ids: expected an array of integers, got an array"),
        ({"n": 1, "ids": [], "terms": "ab"},
         "terms: expected an array of strings, got a string"),
        ({"n": 1, "ids": [], "terms": ["a", 1]},
         "terms: expected an array of strings, got an array"),
        ({"n": 1, "ids": None}, "ids: expected an array of integers, got null"),
        ({"n": 1, "ids": [], "w": None}, "w: expected a number, got null"),
        ({"n": 1, "ids": [], "inner": 3}, "inner: expected an object, got 3"),
        ({"n": 1, "ids": [], "inner": {}}, "inner: k: missing"),
        ({"n": 1, "ids": [], "inner": {"k": 1, "j": 2}}, "inner: j: not a declared key"),
    ]:
        with pytest.raises(ValueError) as info:
            read_form(value, _FORM)
        assert str(info.value) == message


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
    with pytest.raises(OSError):
        with write_batch():
            save_matrix_csv(np.ones((1, 1)), tmp_path / "dir.csv")
            save_matrix_csv(np.ones((1, 1)), tmp_path / "b.csv")
            # After the path was checked: its rename fails.
            (tmp_path / "dir.csv").mkdir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.csv"]
    assert not any((tmp_path / "dir.csv").iterdir())


@pytest.mark.parametrize("second", ["a.csv", "./a.csv", "sub/../a.csv"])
def test_write_batch_refuses_a_path_written_twice(tmp_path, monkeypatch, second):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.csv").write_text("old\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"^{second}: two outputs name this file$"):
        with write_batch():
            with write_file("a.csv") as fh:
                fh.write("first\n")
            with write_file(second) as fh:
                fh.write("second\n")
    assert (tmp_path / "a.csv").read_text("utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "sub"]


@pytest.mark.parametrize("path, message", [
    ("out", "an output names a directory"),
    ("", "an output names a directory"),
    ("nodir/a.csv", "its directory does not exist"),
    ("a.csv/b.csv", "its directory does not exist"),
])
def test_write_file_refuses_a_directory_or_a_file_in_none(tmp_path, monkeypatch,
                                                          path, message):
    (tmp_path / "out").mkdir()
    (tmp_path / "a.csv").write_text("old\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"^{path}: {message}$"):
        with write_batch():
            save_matrix_csv(np.ones((1, 1)), "b.csv")
            save_matrix_csv(np.ones((1, 1)), path)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.csv", "out"]
    # A file in no directory is not there to remove; a directory is refused.
    with write_batch():
        linalg.remove_file("nodir/a.csv")
    with pytest.raises(ValueError, match="^out: an output names a directory$"):
        linalg.remove_file("out")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.csv", "out"]


@pytest.mark.parametrize("name", ["a.csv", "./a.csv", "link.csv"])
@pytest.mark.parametrize("remove", [False, True])
def test_keep_inputs_refuses_to_replace_or_remove_a_file_read(tmp_path, monkeypatch,
                                                             name, remove):
    save_matrix_csv(np.ones((1, 1)), tmp_path / "a.csv")
    (tmp_path / "link.csv").hardlink_to(tmp_path / "a.csv")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError,
                       match=f"^{name}: an output names an input of this command$"):
        with keep_inputs():
            load_matrix_csv("a.csv")
            with write_batch():
                save_matrix_csv(np.zeros((1, 1)), "b.csv")
                if remove:
                    linalg.remove_file(name)
                else:
                    save_matrix_csv(np.zeros((1, 1)), name)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "link.csv"]
    assert (tmp_path / "a.csv").read_text("utf-8") == "1\n"
    # Outside the block, and for a file it did not read, writes go ahead.
    with keep_inputs():
        save_matrix_csv(np.zeros((1, 1)), "b.csv")
    load_matrix_csv("a.csv")
    save_matrix_csv(np.zeros((1, 1)), "a.csv")
    assert (tmp_path / "a.csv").read_text("utf-8") == "0\n"
