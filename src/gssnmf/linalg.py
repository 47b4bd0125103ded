"""Dense matrix helpers shared by every other module.

Matrices are plain 2-D float64 numpy arrays in C (row-major) order; at the
corpus sizes this package targets (up to a few thousand terms by a few
thousand documents) dense storage is all that is needed. Products and
entry-wise operations are numpy's own ``@`` and ``*``. The helpers here check a matrix where it enters
(``as_matrix``), take a leading singular spectrum, write every file whole
or not at all (never over a file read in the same ``keep_inputs``
block), hold the one reader of each text form every file uses, and check
each JSON form read back against the schema its module declares (``read_form``).
"""

from __future__ import annotations

import json
import os
import sys
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


def nonnegative(a: Matrix, what: str) -> Matrix:
    """``a``, a matrix ``as_matrix`` returned, if no entry is negative; else
    ``ValueError`` naming ``what``."""
    if a.min() < 0:
        raise ValueError(f"{what} entries must be non-negative")
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
# The (device, inode) of each file read in the ``keep_inputs`` block open
# in this context.
_inputs: ContextVar[set | None] = ContextVar("keep_inputs", default=None)


@contextmanager
def keep_inputs():
    """Refuse, inside the block, to replace or remove a file read inside it.

    ``open_text`` records each file it opens, at the cost of one ``fstat``;
    a ``write_file`` or ``remove_file`` of an existing path that is one of
    them, under any name, raises ``ValueError`` naming the path before
    anything is written.
    """
    token = _inputs.set(set())
    try:
        yield
    finally:
        _inputs.reset(token)


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


def _queue(tmp, path) -> None:
    """Queue ``path`` in the open batch, to be replaced by ``tmp`` or, with
    ``tmp`` None, removed.

    A path the batch already writes or removes, under any name, is refused:
    its two writes would share one temporary. So is a path ``refuse_output``
    refuses, given the files read in the enclosing ``keep_inputs`` block.
    """
    pending, real = _batch.get(), os.path.realpath(path)
    if any(os.path.realpath(other) == real for _, other in pending):
        raise ValueError(f"{path}: two outputs name this file")
    refuse_output(path, _inputs.get(), written=tmp is not None)
    pending.append((tmp, path))


def file_id(file):
    """A file's (device, inode), by path or descriptor, under any of its
    names; None if there is no such file."""
    try:
        st = os.stat(file)
    except (OSError, ValueError):
        return None
    return st.st_dev, st.st_ino


def refuse_output(path, inputs, written=True) -> None:
    """Refuse an output ``path`` that names a directory, a file whose ``file_id`` is
    in ``inputs`` or, ``written``, a file in a directory that does not exist."""
    if os.path.isdir(path or "."):
        raise ValueError(f"{path}: an output names a directory")
    if written and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{path}: its directory does not exist")
    if inputs and (key := file_id(path)) is not None and key in inputs:
        raise ValueError(f"{path}: an output names an input of this command")


def remove_file(path) -> None:
    """Remove ``path``, if it exists, when the enclosing batch commits."""
    with write_batch():
        _queue(None, path)


@contextmanager
def write_file(path):
    """A text handle whose content replaces ``path`` when its batch commits.

    ``_queue`` checks ``path`` before anything is opened.
    """
    with write_batch():
        tmp = f"{path}.{os.getpid()}.tmp"
        _queue(tmp, path)
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
    ``_CHUNK`` rows at a time (see ``_numbers``). A layout or number fault
    is raised only after the rows before it are converted, so the first
    such fault in the file is the one named. Non-finite values are looked
    for last, in the whole matrix: the first row holding one is named only
    when the file has no layout or number fault, wherever that lies.
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
    """``path`` opened as UTF-8 text, a leading byte-order mark dropped;
    bytes that are not UTF-8 raise ``ValueError`` naming ``path``. Inside
    ``keep_inputs`` the file is recorded as an input."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        inputs = _inputs.get()
        if inputs is not None:
            inputs.add(file_id(fh.fileno()))
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def decode_json(text: str, path, what: str):
    """The JSON value of ``text``, read from ``path``. A syntax error (with
    its line), too deep a nesting or too long an integer raises
    ``ValueError`` naming ``path``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid {what}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"{path}: invalid {what}: {exc}") from None


def read_json(path, what: str):
    """The JSON value in ``path``, decoded by ``decode_json``."""
    with open_text(path) as fh:
        return decode_json(fh.read(), path, what)


REQUIRED = object()  # the default of a key a JSON form must hold
# Each kind a schema names ("object" for a nested schema): what it holds
# and a test of a decoded value. A bool is no integer, and a number must
# fit in a float.
_KINDS = {
    "count": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "number": ("a number", lambda v: type(v) is float
               or type(v) is int and abs(v) <= sys.float_info.max),
    "string": ("a string", lambda v: type(v) is str),
    "strings": ("an array of strings",
                lambda v: type(v) is list and all(type(s) is str for s in v)),
    "ints": ("an array of integers",
             lambda v: type(v) is list and all(type(i) is int for i in v)),
    "object": ("an object", lambda v: type(v) is dict),
}


def read_form(value, schema, where="") -> dict:
    """``value``, a decoded JSON object, checked against ``schema``.

    ``schema`` maps each key to ``(kind, default)``. The kind is a name in
    ``_KINDS`` or, for a nested object, its own schema. The default is an
    absent key's value, or ``REQUIRED``; a None default also admits null.
    An undeclared key is refused. Returns every declared key's value; each
    fault raises ``ValueError``: ``where``, the caller's file prefix, then
    its key (``config: lam`` inside a nested object)."""
    if type(value) is not dict:
        raise ValueError(f"{where}top level: expected an object, got {_shown(value)}")
    for key in value:
        if key not in schema:
            name = key if key.isidentifier() else json.dumps(key)
            raise ValueError(f"{where}{name}: not a declared key")
    out = {}
    for key, (kind, default) in schema.items():
        out[key] = item = value.get(key, default)
        if item is REQUIRED:
            raise ValueError(f"{where}{key}: missing")
        if item is None and default is None:
            continue
        what, ok = _KINDS["object" if type(kind) is dict else kind]
        if not ok(item):
            raise ValueError(f"{where}{key}: expected {what}, got {_shown(item)}")
        if type(kind) is dict:
            out[key] = read_form(item, kind, f"{where}{key}: ")
    return out


def _shown(value) -> str:
    """A JSON value as a fault names it: a short scalar by its JSON text,
    anything else by its type."""
    if type(value) is int and abs(value) > sys.float_info.max:
        return f"an integer of {len(str(abs(value)))} digits"
    return {str: "a string", list: "an array", dict: "an object"}.get(
        type(value)) or json.dumps(value)


def read_entries(lines) -> list[str]:
    """The stripped ``lines`` that are neither blank nor ``#`` comments."""
    return [e for e in map(str.strip, lines) if e and not e.startswith("#")]


def save_matrix_csv(a: Matrix, path) -> None:
    with write_file(path) as fh:
        write_rows(fh, a)


def load_matrix_csv(path) -> Matrix:
    with open_text(path) as fh:
        return read_rows(fh, path)
