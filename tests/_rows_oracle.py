"""The per-field CSV number parser, kept as a test oracle.

``gssnmf.linalg.read_rows`` converts the numbers of a file in bulk and
falls back to one ``float()`` per field only where numpy refuses a chunk.
This is the parser it replaced, unchanged: one ``float()`` per field, line
by line. The tests require the bulk reader to return this parser's matrix
bitwise, or to raise its exact message.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray


def read_rows(lines, path, width=None, rows=None, first=1, ints=()) -> Matrix:
    """Parse CSV rows of numbers, the lines of ``path`` from line ``first`` on.

    Each row has ``width`` fields, or as many as the first row, and the
    ``ints`` columns hold integers. With ``rows`` and ``width`` given, exactly
    ``rows`` rows fill a matrix allocated once; else at least one must come.
    Blank lines may only end the file. Every fault, a non-finite value too,
    raises ``ValueError`` naming ``path:line``; the result is a finite matrix.
    """
    out = [] if rows is None else np.empty((rows, width))
    n, blank = 0, None
    for lineno, line in enumerate(lines, start=first):
        line = line.strip()
        if not line:
            blank = blank or lineno
            continue
        if blank:
            raise ValueError(f"{path}:{blank}: blank line before a row")
        if n == rows:
            raise ValueError(f"{path}:{lineno}: expected {rows} rows, found more")
        fields = line.split(",")
        width = width or len(fields)
        if len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, "
                             f"found {len(fields)}")
        try:
            values = [float(f) for f in fields]
            for j in ints:
                int(fields[j])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number: {exc}") from None
        if rows is None:
            out.append(values)
        else:
            out[n] = values
        n += 1
    if n < (rows or 1):
        raise ValueError(f"{path}:{first + n}: truncated after {n} rows, "
                         f"expected {rows or 'at least 1'}")
    out = np.array(out, dtype=np.float64) if rows is None else out
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{first + bad[0]}: non-finite value")
    return out
