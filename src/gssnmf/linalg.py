"""Dense matrix helpers shared by every other module.

Matrices are plain 2-D float64 numpy arrays in C (row-major) order; at the
corpus sizes this package targets (hundreds by hundreds) dense storage is
all that is needed. Products and entry-wise operations are numpy's own
``@`` and ``*``. The helpers here validate input matrices, floor
denominators, take a leading singular spectrum, and read and write the
dense CSV form (one row per line) used by every matrix file.
"""

from __future__ import annotations

import numpy as np

# Floor added to denominators before division, configurable per call.
DEFAULT_EPS = 1e-12

# Matrices are bare arrays; the alias documents intent in signatures.
Matrix = np.ndarray


def as_matrix(data) -> Matrix:
    """Coerce ``data`` to a finite 2-D float64 row-major array."""
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {a.ndim}-D data")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def safe_divide(numer: Matrix, denom: Matrix, eps: float = DEFAULT_EPS) -> Matrix:
    """Entry-wise ``numer / (denom + eps)``.

    Finite for any finite non-negative inputs; a zero numerator over a zero
    denominator yields zero.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if numer.shape != denom.shape:
        (r1, c1), (r2, c2) = numer.shape, denom.shape
        raise ValueError(f"safe_divide: shapes differ, {r1}x{c1} vs {r2}x{c2}")
    return numer / (denom + eps)


def frobenius_sq(a: Matrix) -> float:
    """Sum of squared entries, without a squared copy of ``a``."""
    return float(np.vdot(a, a))


def singular_values(a: Matrix, top: int) -> list[float]:
    """Largest ``top`` singular values of ``a`` in descending order.

    Computed from the symmetric eigendecomposition of the smaller Gram
    matrix (A A^T or A^T A); singular vectors are never formed. Tiny
    negative eigenvalues from rounding are clipped to zero.
    """
    rows, cols = a.shape
    limit = min(rows, cols)
    if not 1 <= top <= limit:
        raise ValueError(
            f"top={top} out of range for a {rows}x{cols} matrix (must be 1..{limit})"
        )
    gram = a @ a.T if rows <= cols else a.T @ a
    eigvals = np.linalg.eigvalsh(gram)  # ascending
    sigma = np.sqrt(np.clip(eigvals[::-1], 0.0, None))
    return [float(s) for s in sigma[:top]]


# ---------------------------------------------------------------------------
# Serialization: dense CSV, one row per line. Values are written with 17
# significant digits so round trips are value-exact for float64.
# ---------------------------------------------------------------------------

def format_float(v: float) -> str:
    """17-significant-digit decimal form, enough to round-trip float64."""
    return format(float(v), ".17g")


def save_matrix_csv(a: Matrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(format_float(v) for v in row))
            fh.write("\n")


def load_matrix_csv(path) -> Matrix:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields, found {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad number: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    return as_matrix(rows)

