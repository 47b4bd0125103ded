"""Harnesses over the loss and the update step of ``gssnmf.factorization``.

The solver runs its update rules only inside the ``fit_cells`` batch loop,
which draws every factor itself. These functions run the production code
on factors a test chooses: ``objective`` evaluates ``_losses`` on fresh
products of the factors, and ``update_step`` runs both halves of one
``_Cell`` step with the per-cell products ``X H^T``, ``H H^T`` and
``W^T X``. Neither checks the factors against the data. They are not
independent oracles: those are the reference loops of
``test_acceptance.py`` and the gradients of ``_gradients.py``.
"""

import numpy as np

from gssnmf.factorization import FactorizationError, _Cell, _losses, _Problem


def objective(x, w, h, y=None, b=None, z=None, l=None, c=None, lam=0.0, mu=0.0):
    """Total loss and its weighted (reconstruction, guiding, label) parts.

    reconstruction = 1/2 ||X - W H||_F^2, guiding = lam/2 ||Y - W B||_F^2,
    label = mu/2 ||L o (Z - C H)||_F^2; the first value is their sum. The
    reconstruction term is the solver's Gram form on ``W^T X``, ``W^T W``
    and ``H H^T``, so a trace entry equals it bitwise.
    """
    p = _Problem(x, y, z, l)
    w, h, b, c = (None if a is None else np.asarray(a, dtype=np.float64)
                  for a in (w, h, b, c))
    return _losses(p, lam, mu, w, h, b, c, w.T @ p.x, w.T @ w, h @ h.T)


def update_step(p, config, w, h, b, c, *, iteration=1):
    """One update of W, H, B, C on the data of ``p``; ``iteration`` tags errors.

    Returns ``(w, h, b, c, losses)``, with ``losses`` the
    ``(total, reconstruction, guiding, label)`` tuple at the new factors.
    Raises the ``FactorizationError`` of a diverged rule.
    """
    cell = _Cell(config, p, w, h, b, c, h @ h.T)
    if cell.update_w(p.x @ h.T, iteration):
        cell.update_hbc(cell.w.T @ p.x, iteration)
    if isinstance(cell.outcome, FactorizationError):
        raise cell.outcome
    return cell.w, cell.h, cell.b, cell.c, (cell.trace[-1], *cell.terms[-1])
