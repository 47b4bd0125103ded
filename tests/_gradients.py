"""The analytic gradient of the GSSNMF objective, kept as a test oracle.

The multiplicative update rules of ``gssnmf.factorization`` divide the
negative part of each partial derivative below by its positive part, so
the tests compare these formulas with finite differences of the loss and
with the fixed points of the update step (both in ``tests/_kernel.py``).
"""

import numpy as np


def objective_gradients(
    x,
    w,
    h,
    y=None,
    b=None,
    z=None,
    l=None,
    c=None,
    lam: float = 0.0,
    mu: float = 0.0,
):
    """Analytic partial derivatives of the total loss.

    Returns ``(gw, gh, gb, gc)`` with None for factors whose supervision
    input is absent:

        dF/dW = -X H^T + W H H^T - lam Y B^T + lam W B B^T
        dF/dH = -W^T X + W^T W H - mu C^T (L o L o Z) + mu C^T (L o L o C H)
        dF/dB = -lam W^T Y + lam W^T W B
        dF/dC = -mu (L o L o Z) H^T + mu (L o L o C H) H^T
    """
    x, w, h, y, b, z, l, c = (
        None if a is None else np.asarray(a, dtype=np.float64)
        for a in (x, w, h, y, b, z, l, c)
    )

    gw = w @ (h @ h.T) - x @ h.T
    gh = (w.T @ w) @ h - w.T @ x
    gb = None
    gc = None
    if y is not None:
        gw = gw + lam * (w @ (b @ b.T) - y @ b.T)
        gb = lam * ((w.T @ w) @ b - w.T @ y)
    if z is not None:
        ll = l * l
        resid = ll * (c @ h) - ll * z
        gh = gh + mu * (c.T @ resid)
        gc = mu * (resid @ h.T)
    return gw, gh, gb, gc
