"""Objective functions and the multiplicative-update solver.

The model approximates a non-negative data matrix X (d x n) as W H with
rank k, optionally pulling topic columns toward seed words through
``(lam/2) * ||Y - W B||_F^2`` and fitting class labels on training columns
through ``(mu/2) * ||L o (Z - C H)||_F^2`` (``o`` is the entry-wise
product). Setting ``lam`` or ``mu`` to zero recovers the label-only,
seed-only, or plain variants with bitwise-identical trajectories.

A zero weight skips its terms in the W and H updates below and in the
loss, which saves their products. While a term is finite, adding it
would change nothing: ``0.0 * t`` is ``+0.0``, and ``v + 0.0 == v`` for
these non-negative sums. (An infinite term would make ``0.0 * t`` nan;
skipped, it is no divergence.) B and C are still updated, because they
are results.

One iteration updates W, H, B, C in that order, each rule consuming the
factors already updated earlier in the same iteration:

    W <- W o (X H^T + lam Y B^T) / (W H H^T + lam W B B^T)
    H <- H o (W^T X + mu C^T (L o L o Z)) / (W^T W H + mu C^T (L o L o C H))
    B <- B o (W^T Y) / (W^T W B)
    C <- C o ((L o L o Z) H^T) / ((L o L o C H) H^T)

Each rule multiplies its factor by a ratio of non-negative parts, so the
factors stay non-negative without projection and exact zeros stay zero.
Denominators get a small ``eps`` floor before dividing. Triple products
are grouped Gram-first, e.g. ``W (H H^T)`` and ``(W^T W) H``; the
reduction equivalences above hold bitwise only under this grouping.

The loss never forms the d x n residual ``X - W H``. Its reconstruction
term uses the Gram-form identity

    ||X - W H||_F^2 = ||X||_F^2 - 2 <W^T X, H> + <W^T W, H H^T>

Cancellation can leave the expansion a few ulps below zero on a near-exact
fit, so it is clamped at zero. The guiding (d x s) and label (p x n) terms
are small and keep the direct formula.

The loss costs no pass over X. The H update already forms ``W^T X`` and
``W^T W`` for the final W of the iteration; the loss at the new factors
reuses both (and the B update ``W^T W``). The loss forms ``H H^T`` for
the new H, and the next iteration's W update takes it from there instead
of forming it again. What does not change between iterations lives in a
``_Problem``: X, Y, Z, L and the cached ``||X||_F^2``, ``L o L`` and
``L o L o Z``. A batch checks X, Y and Z and forms ``||X||_F^2`` once; the
problem of each further mask shares them and forms its own ``L o L`` and
``L o L o Z``. The weights and eps come from each cell's ``ModelConfig``.

Each input is checked once, where it enters: a wrapper type checks its
array when it is constructed, ``_Problem`` checks bare arrays (X, Y and Z
must be non-negative) and the shapes, and ``ModelConfig`` checks the
weights and ``eps > 0``.
``fit_cells`` draws W, H, B and C itself from those shapes, so no factor
enters from outside. The update loop re-checks nothing; it checks only
that the new factors are finite, and a cell whose factor is not records
the error and stops.

``fit_cells`` runs any configs as one batch, each with its own rank,
rng seed and mask, and ``fit`` is its one-config case. Each cell draws
its own start, so cells that share a (rank, rng seed) start from equal
factors but share no array. Each cell (``_Cell``) holds its config,
problem and factors and the four rules, split in two where their
products of X are consumed: ``update_w`` takes ``X H^T``, and
``update_hbc`` (the H, B and C rules and the loss) takes ``W^T X`` of
the new W. Between the halves the batch forms each product for all
running cells at once (``_Products``):

- ``X H^T`` as row blocks of ``[H_1; ...; H_B] X^T``, each transposed,
  else as column blocks of ``X [H_1; ...; H_B]^T``;
- ``W^T X`` as row blocks of ``[W_1 ... W_B]^T X``, else of
  ``(X^T [W_1 ... W_B])^T``, with ``X^T`` a view.

One cell is a stack of one: its first forms are ``(H X^T)^T`` and ``W^T X``.
Each block is as wide as its cell's rank. The wider the stacked product,
the less each cell's share costs, so a sweep packs many cells into one
batch. These forms sum in another order than the per-cell products
``X H^T`` and ``W^T X`` for some shapes under some BLAS builds. So each
(product, block widths) key keeps the first form, in the order above,
whose blocks ``==`` the per-cell products on the key's first use. A key
that no form matched is split into two contiguous halves, each a key
with a check of its own, and a one-cell key keeps the per-cell products.
So every cell's factors and traces are bitwise those of its own ``fit``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .linalg import (
    Matrix,
    as_matrix,
    frobenius_sq,
    REQUIRED,
    load_matrix_csv,
    nonnegative,
    open_text,
    read_form,
    read_json,
    read_rows,
    remove_file,
    save_matrix_csv,
    write_batch,
    write_file,
    write_rows,
)
from .supervision import LabelMatrix, MaskMatrix, SeedMatrix, save_mask
from .textpipe import CorpusMatrix, Vocabulary


class FactorizationError(RuntimeError):
    """A fit that failed: factors or a loss that diverged in the update loop."""


@dataclass
class ModelConfig:
    """Solver settings: rank, supervision weights, and iteration control.

    ``eps`` is the floor added to every update's denominator. ``tol`` is a
    relative objective-change early stop; zero (the default) runs the full
    ``max_iters`` budget.
    """

    rank: int
    lam: float = 0.0
    mu: float = 0.0
    max_iters: int = 200
    rng_seed: int = 0
    eps: float = 1e-12
    tol: float = 0.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        for name in ("lam", "mu", "eps", "tol"):
            # Not math.isfinite, which overflows on an int no float holds.
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 0 or self.mu < 0:
            raise ValueError(f"weights must be >= 0, got lam={self.lam} mu={self.mu}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass
class FactorizationResult:
    """Learned factors plus the per-iteration loss trace.

    ``b`` is None when no seed matrix was supplied, ``c`` is None when no
    labels were supplied. ``term_trace`` holds the weighted
    (reconstruction, guiding, label) components whose sum is the matching
    ``objective_trace`` entry.
    """

    w: Matrix
    h: Matrix
    b: Matrix | None
    c: Matrix | None
    objective_trace: list[float]
    term_trace: list[tuple[float, float, float]]
    config: ModelConfig

    @property
    def iterations(self) -> int:
        return len(self.objective_trace)

    @property
    def final_losses(self) -> dict:
        recon, guide, label = self.term_trace[-1]
        return {
            "total": self.objective_trace[-1],
            "reconstruction": recon,
            "guiding": guide,
            "label": label,
        }


# The wrapper types check their arrays when they are constructed.
_WRAPPED = {CorpusMatrix: "x", SeedMatrix: "y", LabelMatrix: "z", MaskMatrix: "l"}


def _as_input(a, name=None) -> Matrix | None:
    """A wrapper's array as it is, else ``as_matrix(a)``; None stays None.

    A bare array given a ``name`` must be non-negative. L gets none: the
    rules use only ``L o L``.
    """
    if a is None:
        return None
    wrapped = _WRAPPED.get(type(a))
    if wrapped is not None:
        return getattr(a, wrapped)
    return as_matrix(a) if name is None else nonnegative(as_matrix(a), name)


class _Problem:
    """The checked solver data and the terms every iteration reuses.

    X (d x n) and the optional Y (d x s), Z and L (p x n, together) may be
    their wrapper types, whose constructors checked their arrays, or
    anything ``as_matrix`` accepts, which is checked here. This is the one
    place their shapes are checked against one another. ``xx``
    (``||X||_F^2``), ``ll`` (``L o L``) and ``llz`` (``L o L o Z``) are
    computed once, here. The weights are not part of it, so one ``_Problem``
    serves every cell of a batch with its mask. Given ``xx``, X, Y and Z
    come checked from another mask's problem, and only L's terms are formed.
    """

    __slots__ = ("x", "y", "z", "l", "xx", "ll", "llz")

    def __init__(self, x, y=None, z=None, l=None, xx=None):
        if xx is None:
            x, y, z = map(_as_input, (x, y, z), "XYZ")
            if y is not None and y.shape[0] != x.shape[0]:
                raise ValueError(f"guiding term: Y is {y.shape[0]}x{y.shape[1]} "
                                 f"but X is {x.shape[0]}x{x.shape[1]}")
            xx = frobenius_sq(x)
        l, n = _as_input(l), x.shape[1]
        if (z is None) != (l is None):
            raise ValueError("label term: Z and L must be supplied together")
        if z is not None and (z.shape[1] != n or l.shape != z.shape):
            raise ValueError(
                f"label term: Z is {z.shape[0]}x{z.shape[1]} and "
                f"L is {l.shape[0]}x{l.shape[1]}, expected p x {n} for both"
            )
        self.x, self.y, self.z, self.l, self.xx = x, y, z, l, xx
        self.ll = None if l is None else l * l
        self.llz = None if z is None else self.ll * z


def _losses(p: _Problem, lam, mu, w, h, b, c, wtx, wtw, hht):
    """Total loss and its weighted (reconstruction, guiding, label) parts.

    reconstruction = 1/2 ||X - W H||_F^2, guiding = lam/2 ||Y - W B||_F^2,
    label = mu/2 ||L o (Z - C H)||_F^2, at (W, H, B, C), given the products
    ``wtx = W^T X``, ``wtw = W^T W`` and ``hht = H H^T``.
    """
    cross = float(np.vdot(wtx, h))
    gram = float(np.vdot(wtw, hht))
    recon = 0.5 * max(0.0, p.xx - 2.0 * cross + gram)
    guide = 0.0
    if lam > 0:
        guide = 0.5 * lam * frobenius_sq(p.y - w @ b)
    label = 0.0
    if mu > 0:
        label = 0.5 * mu * frobenius_sq(p.l * (p.z - c @ h))
    return recon + guide + label, recon, guide, label


def _initial_factors(
    d: int,
    n: int,
    config: ModelConfig,
    n_seeds: int | None = None,
    n_classes: int | None = None,
):
    """Draw W, H, and any needed B, C i.i.d. uniform on [0, 1).

    One generator seeded with ``config.rng_seed`` supplies all draws, in
    the fixed order W, H, B, C, so trajectories are reproducible and
    variants that share the same factor set share the same start.
    """
    rng = np.random.default_rng(config.rng_seed)
    k = config.rank
    w = rng.random((d, k))
    h = rng.random((k, n))
    b = rng.random((k, n_seeds)) if n_seeds else None
    c = rng.random((n_classes, k)) if n_classes else None
    return w, h, b, c


def _blocks_equal(stacked, singles) -> bool:
    """Whether every block of a stacked product ``==`` its own product."""
    return all(np.array_equal(s, t) for s, t in zip(stacked, singles))


def _blocks(stacked, factors, axis):
    """Row blocks of ``stacked``, one as tall as each factor's rank."""
    widths = [f.shape[axis] for f in factors]
    return [stacked[end - k:end] for k, end in zip(widths, accumulate(widths))]


# Each product's stacked forms of every H or W, in the order they are tried.
_XHT_FORMS = (lambda x, hs: [b.T for b in _blocks(np.concatenate(hs) @ x.T, hs, 0)],
              lambda x, hs: [b.T for b in _blocks((x @ np.concatenate(hs).T).T, hs, 0)])
_WTX_FORMS = (lambda x, ws: _blocks(np.concatenate(ws, axis=1).T @ x, ws, 1),
              lambda x, ws: _blocks((x.T @ np.concatenate(ws, axis=1)).T, ws, 1))


class _Products:
    """``X H_i^T`` and ``W_i^T X`` for the factors of every running cell.

    Each product has a reference form per cell (``X H^T``, ``W^T X``) and
    a tuple of stacked forms for the whole batch (``_XHT_FORMS``,
    ``_WTX_FORMS``); one cell is a stack of one. BLAS may sum a stacked
    form in another order, so a (product, widths) key, with the widths the
    tuple of the cells' ranks in batch order, uses the first form whose
    blocks ``==`` the reference products on the key's first use; until
    then, every cell gets its reference product. If none matched, the
    stack splits into two contiguous halves, each a key of its own, and a
    one-cell key keeps the reference products. No two cells share a
    factor array, so each reference product is formed once per cell.
    """

    def __init__(self, x):
        self.x = x
        self.form = {}  # (forms, widths) -> the first form that matched, or None

    def xht(self, hs):
        return self._products(_XHT_FORMS, lambda h: self.x @ h.T, hs, 0)

    def wtx(self, ws):
        return self._products(_WTX_FORMS, lambda w: w.T @ self.x, ws, 1)

    def _products(self, forms, reference, factors, axis):
        widths = tuple(f.shape[axis] for f in factors)
        key = (forms, widths)
        if (form := self.form.get(key)) is not None:
            return form(self.x, factors)
        if key in self.form and len(factors) > 1:
            # No form matched: each half of the stack gets a check of its own.
            half = len(factors) // 2
            return (self._products(forms, reference, factors[:half], axis)
                    + self._products(forms, reference, factors[half:], axis))
        singles = [reference(f) for f in factors]
        if factors and key not in self.form:  # empty once every cell stopped in W
            self.form[key] = next((form for form in forms if _blocks_equal(
                form(self.x, factors), singles)), None)
        return singles


@dataclass(eq=False)
class _Cell:
    """One config's state inside a ``fit_cells`` batch, and its update step.

    The step's two halves are ``update_w`` and ``update_hbc``; the batch
    forms the X products between them. ``p`` is the problem of the cell's
    mask, ``hht`` is ``H H^T`` of the current H, and ``prev`` the last loss
    (first, when ``tol > 0``, that of the initial factors). ``outcome`` is
    None while the cell runs, then its result or the error that stopped it.
    """

    config: ModelConfig
    p: _Problem
    w: Matrix
    h: Matrix
    b: Matrix | None
    c: Matrix | None
    hht: Matrix
    prev: float = 0.0
    trace: list[float] = field(default_factory=list)
    terms: list[tuple[float, float, float]] = field(default_factory=list)
    outcome: FactorizationResult | FactorizationError | None = None

    def __post_init__(self):
        config, p, w = self.config, self.p, self.w
        if config.tol > 0:
            self.prev = _losses(p, config.lam, config.mu, w, self.h, self.b, self.c,
                                w.T @ p.x, w.T @ w, self.hht)[0]

    def update_w(self, xht, iteration: int) -> bool:
        """The W rule, given ``xht = X H^T``; whether the cell runs on."""
        config, p, w, b = self.config, self.p, self.w, self.b
        numer = xht
        denom = w @ self.hht
        if config.lam > 0:
            numer = numer + config.lam * (p.y @ b.T)
            denom = denom + config.lam * (w @ (b @ b.T))
        self.w = w * (numer / (denom + config.eps))
        return self._finite("W", self.w, iteration)

    def update_hbc(self, wtx, iteration: int) -> bool:
        """The H, B and C rules and the loss, given ``wtx = W^T X`` of the new W.

        Appends the loss to the trace and applies the stop rule; returns
        whether the cell runs on. A non-finite loss is a divergence. The
        new ``hht`` is the loss's, for the next W rule.
        """
        config, p, w, h, b, c = self.config, self.p, self.w, self.h, self.b, self.c
        lam, mu, eps = config.lam, config.mu, config.eps
        wtw = w.T @ w
        numer = wtx
        denom = wtw @ h
        if mu > 0:
            numer = numer + mu * (c.T @ p.llz)
            denom = denom + mu * (c.T @ (p.ll * (c @ h)))
        h = h * (numer / (denom + eps))
        if not self._finite("H", h, iteration):
            return False
        if p.y is not None:
            b = b * ((w.T @ p.y) / (wtw @ b + eps))
            if not self._finite("B", b, iteration):
                return False
        if p.z is not None:
            c = c * ((p.llz @ h.T) / ((p.ll * (c @ h)) @ h.T + eps))
            if not self._finite("C", c, iteration):
                return False
        self.h, self.b, self.c, self.hht = h, b, c, h @ h.T
        total, *terms = _losses(p, lam, mu, w, h, b, c, wtx, wtw, self.hht)
        if not np.isfinite(total):
            return self._diverged(iteration, "non-finite loss")
        self.trace.append(total)
        self.terms.append(tuple(terms))
        stop = iteration == config.max_iters
        if config.tol > 0:
            change = abs(total - self.prev) / max(self.prev, eps)
            stop = stop or change < config.tol
            self.prev = total
        if stop:
            self.outcome = FactorizationResult(
                w, h, b, c, self.trace, self.terms, config
            )
        return not stop

    def _finite(self, name: str, a: Matrix, iteration: int) -> bool:
        """Whether ``a`` is finite; if not, the cell stops with that error."""
        return np.isfinite(a).all() or self._diverged(
            iteration, f"non-finite entries in {name}")

    def _diverged(self, iteration: int, what: str) -> bool:
        """Stop the cell with the error of a divergence; False."""
        self.outcome = FactorizationError(
            f"update diverged at iteration {iteration}: {what}")
        return False


def fit_cells(
    x, configs, *, y=None, z=None, l=None
) -> list[FactorizationResult | FactorizationError]:
    """Run the solver for several configs as one batch.

    Every setting is per cell. Each cell draws its own W, H, B, C from
    its ``rank`` and ``rng_seed``, so cells that share both start from
    equal factors, and no factor array is shared. ``l`` is one mask for
    every config, or a list of one mask per config: a list is never one
    mask. Each iteration runs the two halves of the step,
    ``_Cell.update_w`` and ``_Cell.update_hbc``, for every running cell,
    with the cells' ``X H^T`` and ``W^T X`` formed together between them
    (``_Products``). Every cell's factors and traces are bitwise what
    ``fit`` returns for its config and mask alone. A cell leaves the batch
    when it meets its ``tol`` or ``max_iters``, or when it diverges.

    Returns one entry per config, in order: its ``FactorizationResult``,
    or the ``FactorizationError`` that stopped it. X, Y and Z are checked
    once for the batch, and ``L o L`` and ``L o L o Z`` are formed once per
    distinct mask, in the ``_Problem`` its cells hold. Invalid inputs, a
    weight without its data and a rank above min(d, n) raise
    ``ValueError`` before any factor is drawn. Arguments are as for ``fit``.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("fit_cells needs at least one config")
    masks = l if isinstance(l, list) else [l] * len(configs)
    if len(masks) != len(configs):
        raise ValueError(f"fit_cells got {len(masks)} masks for {len(configs)} configs")
    p = _Problem(x, y, z, masks[0])
    problems = {id(masks[0]): p}
    for mask in masks:
        if id(mask) not in problems:
            problems[id(mask)] = _Problem(p.x, p.y, p.z, mask, p.xx)
    if p.y is None and any(cfg.lam > 0 for cfg in configs):
        raise ValueError("guiding term: lam > 0 requires a seed matrix Y")
    if p.z is None and any(cfg.mu > 0 for cfg in configs):
        raise ValueError("label term: mu > 0 requires a label matrix Z and a mask L")
    d, n = p.x.shape
    rank = max(cfg.rank for cfg in configs)
    if rank > min(d, n):
        raise ValueError(f"rank must be <= min(d, n) = {min(d, n)} for a {d}x{n} X, "
                         f"got {rank}")
    n_seeds = None if p.y is None else p.y.shape[1]
    n_classes = None if p.z is None else p.z.shape[0]
    # Each cell checks its own factors and loss, so the overflow of a cell
    # that diverges stops it with one error and no numpy warning. Set here,
    # not by the caller: a thread starts at numpy's default error state.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cells = []
        for cfg, mask in zip(configs, masks):
            w, h, b, c = _initial_factors(d, n, cfg, n_seeds, n_classes)
            cells.append(_Cell(cfg, problems[id(mask)], w, h, b, c, h @ h.T))

        products = _Products(p.x)
        running, i = cells, 0
        while running:
            i += 1
            # Each list of products goes once its half of the step consumed
            # it, so one stacked product is alive at a time.
            xhts = products.xht([cell.h for cell in running])
            running = [cell for cell, xht in zip(running, xhts)
                       if cell.update_w(xht, i)]
            del xhts
            wtxs = products.wtx([cell.w for cell in running])
            running = [cell for cell, wtx in zip(running, wtxs)
                       if cell.update_hbc(wtx, i)]
            del wtxs
    return [cell.outcome for cell in cells]


def fit(x, config: ModelConfig, *, y=None, z=None, l=None) -> FactorizationResult:
    """Run the multiplicative-update solver.

    Parameters
    ----------
    x : CorpusMatrix or array, d x n, non-negative.
    config : rank, weights, iteration budget, rng seed, eps, tol.
    y : optional SeedMatrix or d x s array; required when ``config.lam > 0``.
    z, l : optional LabelMatrix / MaskMatrix (or p x n arrays); both are
        required when ``config.mu > 0`` and must be supplied together.

    Factors are initialized uniform on [0, 1) from ``config.rng_seed`` and
    updated for up to ``config.max_iters`` iterations, recording the total
    objective and its components after every iteration. When
    ``config.tol > 0`` the loop stops early once the relative objective
    change drops below it. Deterministic given identical inputs and config.

    ``fit`` is ``fit_cells`` with one config and ``l=[l]``, so ``l`` may be
    anything ``as_matrix`` accepts. The inputs are checked once, and one
    ``_Problem`` caches ``||X||_F^2``, ``L o L`` and ``L o L o Z`` for the
    whole run. The loss at the initial factors is evaluated only when
    ``tol > 0`` needs it. A divergence raises its ``FactorizationError``.
    """
    (result,) = fit_cells(x, [config], y=y, z=z, l=[l])
    if isinstance(result, FactorizationError):
        raise result
    return result


def top_keywords(w, vocab: Vocabulary, topic: int, n_top: int) -> list[str]:
    """The ``n_top`` terms with the largest weight in one topic column.

    Descending weight, ties broken lexicographically.
    """
    return _top_keywords(as_matrix(w), vocab, topic, n_top)


def _top_keywords(w: Matrix, vocab: Vocabulary, topic: int, n_top: int):
    """``top_keywords`` of a finite W: a fit's, or one ``read_rows`` read."""
    d, k = w.shape
    if not 0 <= topic < k:
        raise ValueError(f"topic index {topic} out of range for {k} topics")
    if not 1 <= n_top <= d:
        raise ValueError(f"n_top={n_top} out of range for {d} terms")
    if len(vocab) != d:
        raise ValueError(
            f"vocabulary has {len(vocab)} terms but W has {d} rows"
        )
    col = w[:, topic]
    # Only terms weighing at least the n_top-th largest weight can rank;
    # ties at that weight all stay in, so the term order still breaks them.
    cut = np.partition(col, d - n_top)[d - n_top]
    weights, terms = col.tolist(), vocab.terms
    order = sorted(np.flatnonzero(col >= cut).tolist(),
                   key=lambda i: (-weights[i], terms[i]))
    return [terms[i] for i in order[:n_top]]


# ---------------------------------------------------------------------------
# Result directory: one CSV per factor, a loss trace, a JSON manifest, the split.
# ---------------------------------------------------------------------------

def save_result(
    result: FactorizationResult,
    out_dir,
    doc_ids: list[str] | None = None,
    label_names: list[str] | None = None,
    mask: MaskMatrix | None = None,
) -> None:
    """Write ``result`` into ``out_dir``, made if missing, as one ``write_batch``:
    ``w.csv``, ``h.csv``, ``trace.csv`` and ``manifest.json``; ``b.csv`` and
    ``c.csv`` if the result has B and C; ``mask.json``, through ``save_mask``,
    if given the ``mask`` it was fit on. Each of the last three that it does
    not write it removes: an earlier fit's file would load as this one's.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(result.config),
        "iterations_run": result.iterations,
        "final_losses": result.final_losses,
        "doc_ids": doc_ids,
        "label_names": label_names,
    }
    with write_batch():
        for name, a in (("w", result.w), ("h", result.h), ("b", result.b),
                        ("c", result.c)):
            if a is None:
                remove_file(out / f"{name}.csv")
            else:
                save_matrix_csv(a, out / f"{name}.csv")
        with write_file(out / "trace.csv") as fh:
            fh.write("iteration,total,reconstruction,guiding,label\n")
            write_rows(fh, np.column_stack([
                np.arange(1, result.iterations + 1), result.objective_trace,
                result.term_trace,
            ]))
        with write_file(out / "manifest.json") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        if mask is None:
            remove_file(out / "mask.json")
        else:
            save_mask(mask, out / "mask.json")


# The manifest ``save_result`` writes, declared for ``read_form``. Every
# config key but ``rank`` has ``ModelConfig``'s default.
_CONFIG = {key: (kind, getattr(ModelConfig, key, REQUIRED)) for key, kind in (
    ("rank", "count"), ("lam", "number"), ("mu", "number"), ("max_iters", "count"),
    ("rng_seed", "count"), ("eps", "number"), ("tol", "number"))}
_LOSSES = dict.fromkeys(["total", "reconstruction", "guiding", "label"],
                        ("number", REQUIRED))
_MANIFEST = {"config": (_CONFIG, REQUIRED), "iterations_run": ("count", REQUIRED),
             "final_losses": (_LOSSES, REQUIRED), "doc_ids": ("strings", None),
             "label_names": ("strings", None)}


def load_result(result_dir) -> tuple[FactorizationResult, dict]:
    """Read a result directory back; returns the result and its manifest."""
    root = Path(result_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"{result_dir}: not a result directory (no manifest.json)")
    manifest = read_form(read_json(manifest_path, "manifest"), _MANIFEST,
                         f"{manifest_path}: invalid ")
    try:
        config = ModelConfig(**manifest["config"])
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: invalid config: {exc}") from None
    iterations = manifest["iterations_run"]
    doc_ids, label_names = manifest["doc_ids"], manifest["label_names"]
    w = load_matrix_csv(root / "w.csv")
    h = load_matrix_csv(root / "h.csv")
    b = load_matrix_csv(root / "b.csv") if (root / "b.csv").is_file() else None
    c = load_matrix_csv(root / "c.csv") if (root / "c.csv").is_file() else None
    trace_path = root / "trace.csv"
    with open_text(trace_path) as fh:
        if not fh.readline().startswith("iteration,"):
            raise ValueError(f"{trace_path}:1: unexpected header")
        rows = read_rows(fh, trace_path, 5, first=2, ints=(0,))
    if len(rows) != iterations:
        raise ValueError(f"{trace_path}: {len(rows)} rows, but the manifest has "
                         f"iterations_run {iterations}")
    # W is d x k, H k x n, B k x s and C p x k.
    for name, a, axis in (("w", w, 1), ("h", h, 0), ("b", b, 0), ("c", c, 1)):
        if a is not None and a.shape[axis] != config.rank:
            raise ValueError(f"{root / name}.csv: a {a.shape[0]}x{a.shape[1]} "
                             f"factor, but the manifest has rank {config.rank}")
    if doc_ids is not None and len(doc_ids) != h.shape[1]:
        raise ValueError(f"{manifest_path}: {len(doc_ids)} doc_ids, but h.csv "
                         f"has {h.shape[1]} columns")
    classes = 0 if c is None else len(c)
    if label_names is not None and len(label_names) != classes:
        raise ValueError(f"{manifest_path}: {len(label_names)} label_names, but C "
                         f"has {classes} rows")
    terms = [tuple(r) for r in rows[:, 2:].tolist()]
    result = FactorizationResult(w, h, b, c, rows[:, 1].tolist(), terms, config)
    return result, manifest
