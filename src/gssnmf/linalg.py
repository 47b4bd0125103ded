"""Dense matrix helpers shared by every other module.

Matrices are plain 2-D float64 numpy arrays in C (row-major) order; at the
corpus sizes this package targets (hundreds by hundreds) dense storage is
all that is needed. Products and entry-wise operations are numpy's own
``@`` and ``*``. The helpers here check a matrix where it enters
(``as_matrix``), take a leading singular spectrum, write every file whole
or not at all, and hold the one reader of each text form every file uses.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

import numpy as np

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
# Files: whole-or-absent writes and the one reader of each text form.
# ---------------------------------------------------------------------------

# The (temporary, final) paths of the write batch open in this context.
_batch: ContextVar[list | None] = ContextVar("write_batch", default=None)


@contextmanager
def write_batch():
    """Make the files written inside the block whole or absent, together.

    Each ``write_file`` inside writes a temporary sibling of its path, and
    each ``remove_file`` marks a path for removal. The outermost batch
    renames the files into place and removes the marked paths if it exits
    normally, and removes the temporaries if anything raised first.
    """
    if _batch.get() is not None:  # nested: the outermost batch commits
        yield
        return
    pending = []
    token = _batch.set(pending)
    try:
        yield
        for tmp, path in pending:
            if tmp is None:
                Path(path).unlink(missing_ok=True)
            else:
                os.replace(tmp, path)
    finally:
        _batch.reset(token)
        for tmp, _ in pending:
            if tmp is not None:
                Path(tmp).unlink(missing_ok=True)


def remove_file(path) -> None:
    """Remove ``path``, if it exists, when the enclosing batch commits."""
    with write_batch():
        _batch.get().append((None, path))


@contextmanager
def write_file(path):
    """A text handle whose content replaces ``path`` when its batch commits."""
    with write_batch():
        tmp = f"{path}.{os.getpid()}.tmp"
        _batch.get().append((tmp, path))
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh


def write_rows(fh, a) -> None:
    """Write ``a`` to ``fh`` as CSV rows of 17-significant-digit values.

    17 digits round-trip float64. Most entries of a corpus matrix are zero;
    a zero without the sign bit is written as ``0``, its 17-digit form, and
    only the other entries are formatted.
    """
    for row in np.asarray(a, dtype=np.float64):
        values, fields = row.tolist(), ["0"] * len(row)
        for j in np.flatnonzero((row != 0) | np.signbit(row)).tolist():
            fields[j] = format(values[j], ".17g")
        fh.write(",".join(fields))
        fh.write("\n")


# Lines converted by one ``np.loadtxt`` call, and with ``rows`` declared
# the most text ``read_rows`` holds at once. Larger chunks convert no
# faster and raise a command's peak RSS (256 rows of a 700 x 500 corpus:
# +0.7 MB).
_CHUNK = 64
# Control characters numpy strips from around a number, as it strips
# spaces, and float() refuses.
_NUMPY_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def read_rows(lines, path, width=None, rows=None, first=1, ints=()) -> Matrix:
    """Parse CSV rows of numbers, the lines of ``path`` from line ``first`` on.

    Each row has ``width`` fields, or as many as the first row, and the
    ``ints`` columns hold integers. With ``rows`` and ``width`` given, exactly
    ``rows`` rows fill a matrix allocated once; else at least one must come.
    Blank lines may only end the file. Every fault, a non-finite value too,
    raises ``ValueError`` naming ``path:line``; the result is a finite matrix.

    One pass over the lines checks their layout; the numbers are converted
    ``_CHUNK`` rows at a time (see ``_numbers``). A fault is raised only
    after the rows before it are converted, so the first fault in the file
    is the one named.
    """
    out = [] if rows is None else np.empty((rows, width))
    chunk, n, blank = [], 0, None

    def convert():
        start = n - len(chunk)
        a = _numbers(chunk, path, first + start)
        if rows is None:
            out.append(a)
        else:
            out[start:n] = a
        chunk.clear()

    def fail(lineno, message):
        if chunk:
            convert()
        raise ValueError(f"{path}:{lineno}: {message}")

    for lineno, line in enumerate(lines, start=first):
        line = line.strip()
        if not line:
            blank = blank or lineno
            continue
        if blank:
            fail(blank, "blank line before a row")
        if n == rows:
            fail(lineno, f"expected {rows} rows, found more")
        count = line.count(",") + 1
        width = width or count
        if count != width:
            fail(lineno, f"expected {width} fields, found {count}")
        chunk.append(line)
        n += 1
        if ints:
            fields = line.split(",")
            try:
                for j in ints:
                    int(fields[j])
            except ValueError as exc:
                fail(lineno, f"bad number: {exc}")
        if len(chunk) == _CHUNK:
            convert()
    if chunk:
        convert()
    if n < (rows or 1):
        raise ValueError(f"{path}:{first + n}: truncated after {n} rows, "
                         f"expected {rows or 'at least 1'}")
    out = np.concatenate(out) if rows is None else out
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{first + bad[0]}: non-finite value")
    return out


def _numbers(chunk, path, first) -> Matrix:
    """The numbers of ``chunk``, lines of equal width from line ``first`` on.

    numpy converts the chunk in one call. If it refuses any field, every
    field of the chunk goes through ``float()``, and the first one refused
    raises ``ValueError`` naming its line. ``float()`` accepts more than
    numpy (``1_0``, non-ASCII digits); a chunk holding one of
    ``_NUMPY_ONLY_SPACES``, which numpy alone accepts, skips numpy. Both
    round correctly, so the values are the same bit for bit.
    """
    if not any(s in line for line in chunk for s in _NUMPY_ONLY_SPACES):
        try:
            return np.loadtxt(chunk, delimiter=",", comments=None,
                              dtype=np.float64, ndmin=2)
        except ValueError:
            pass
    out = np.empty((len(chunk), chunk[0].count(",") + 1))
    for i, line in enumerate(chunk):
        try:
            out[i] = [float(f) for f in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{first + i}: bad number: {exc}") from None
    return out


@contextmanager
def open_text(path):
    """``path`` opened as UTF-8 text; bytes that are not UTF-8 raise
    ``ValueError`` naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_json(path, what: str):
    """The JSON value in ``path``; a syntax error names ``path:line``."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: invalid {what}: {exc.msg}") from None


def read_entries(lines) -> list[str]:
    """The stripped ``lines`` that are neither blank nor ``#`` comments."""
    return [e for e in map(str.strip, lines) if e and not e.startswith("#")]


def save_matrix_csv(a: Matrix, path) -> None:
    with write_file(path) as fh:
        write_rows(fh, a)


def load_matrix_csv(path) -> Matrix:
    with open_text(path) as fh:
        return read_rows(fh, path)
