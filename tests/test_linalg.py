import numpy as np
import pytest

from gssnmf.linalg import (
    as_matrix,
    frobenius_sq,
    load_matrix_csv,
    safe_divide,
    save_matrix_csv,
    singular_values,
)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="NaN or Inf"):
        as_matrix([[1.0, float("nan")]])


def test_safe_divide_examples():
    out = safe_divide(as_matrix([[4.0]]), as_matrix([[2.0]]))
    assert abs(out[0, 0] - 2.0) < 1e-9 * 2.0
    assert safe_divide(as_matrix([[0.0]]), as_matrix([[0.0]]), 1e-9)[0, 0] == 0.0
    out = safe_divide(as_matrix([[1.0]]), as_matrix([[0.0]]), 1e-12)
    assert np.isfinite(out[0, 0])
    assert out[0, 0] == pytest.approx(1e12)
    with pytest.raises(ValueError, match="eps"):
        safe_divide(as_matrix([[1.0]]), as_matrix([[1.0]]), 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_safe_divide_always_finite(seed):
    rng = np.random.default_rng(seed)
    numer = rng.random((6, 4))
    denom = rng.random((6, 4))
    # plant exact zeros in both operands
    numer[rng.random((6, 4)) < 0.3] = 0.0
    denom[rng.random((6, 4)) < 0.3] = 0.0
    out = safe_divide(numer, denom)
    assert np.all(np.isfinite(out))
    assert np.all(out >= 0)


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

