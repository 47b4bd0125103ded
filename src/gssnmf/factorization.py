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

Denominators get a small ``eps`` floor before dividing. Triple products
are grouped Gram-first, e.g. ``W (H H^T)`` and ``(W^T W) H``; the
reduction equivalences above hold bitwise only under this grouping.

The loss never forms the d x n residual ``X - W H``. Its reconstruction
term uses the Gram-form identity

    ||X - W H||_F^2 = ||X||_F^2 - 2 <W^T X, H> + <W^T W, H H^T>

Cancellation can leave the expansion a few ulps below zero on a near-exact
fit, so it is clamped at zero. The guiding (d x s) and label (p x n) terms
are small and keep the direct formula.

Inside ``fit`` the loss costs no pass over X. The H update already forms
``W^T X`` and ``W^T W`` for the final W of the iteration; ``update_step``
reuses both for the loss at the new factors (and ``W^T W`` for the B
update). What does not change between iterations lives in a ``Problem``,
built once per batch: X, Y, Z, L and the cached ``||X||_F^2``, ``L o L``
and ``L o L o Z``. The weights and eps come from each cell's
``ModelConfig``.

Each input is checked once, where it enters: a wrapper type checks its
array when it is constructed, ``Problem`` checks bare arrays and the
shapes, and ``ModelConfig`` checks the weights and ``eps > 0``. The update
loop re-checks none of them; it checks only that the new factors are finite.

``fit_cells`` runs configs that share a start (rank and rng seed) as one
batch, and ``fit`` is its one-config case. The batch splits the step where
the W update consumes ``X H^T``: the running cells take theirs as column
blocks of one stacked product ``X [H_1; ...; H_B]^T``, and the rest of the
step, ``W^T X`` included, runs per cell. A stacked product is bitwise the
per-cell products only for some shapes under some BLAS builds, so each
width is compared ``==`` with the per-cell products before it is used, and
one mismatch sends the batch back to per-cell products. Every cell's
factors and traces are therefore bitwise those of its own ``fit``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .linalg import (
    Matrix,
    as_matrix,
    frobenius_sq,
    load_matrix_csv,
    open_text,
    read_json,
    read_rows,
    remove_file,
    save_matrix_csv,
    write_batch,
    write_file,
    write_rows,
)
from .supervision import LabelMatrix, MaskMatrix, SeedMatrix
from .textpipe import CorpusMatrix, Vocabulary


class FactorizationError(RuntimeError):
    """Numeric failure inside the update loop."""


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
        for name in ("lam", "mu", "eps", "tol"):
            if not math.isfinite(getattr(self, name)):
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


def _as_input(a) -> Matrix | None:
    """A wrapper's array as it is, else ``as_matrix(a)``; None stays None."""
    if a is None:
        return None
    name = _WRAPPED.get(type(a))
    return as_matrix(a) if name is None else getattr(a, name)


class Problem:
    """The checked solver data and the terms every iteration reuses.

    X (d x n) and the optional Y (d x s), Z and L (p x n, together) may be
    their wrapper types, whose constructors checked their arrays, or
    anything ``as_matrix`` accepts, which is checked here. This is the one
    place their shapes are checked against one another. ``xx``
    (``||X||_F^2``), ``ll`` (``L o L``) and ``llz`` (``L o L o Z``) are
    computed once, here. The weights are not part of it, so one ``Problem``
    serves a whole batch.
    """

    __slots__ = ("x", "y", "z", "l", "xx", "ll", "llz")

    def __init__(self, x, y=None, z=None, l=None):
        x, y, z, l = map(_as_input, (x, y, z, l))
        d, n = x.shape
        if y is not None and y.shape[0] != d:
            raise ValueError(
                f"guiding term: Y is {y.shape[0]}x{y.shape[1]} but X is {d}x{n}"
            )
        if (z is None) != (l is None):
            raise ValueError("label term: Z and L must be supplied together")
        if z is not None and (z.shape[1] != n or l.shape != z.shape):
            raise ValueError(
                f"label term: Z is {z.shape[0]}x{z.shape[1]} and "
                f"L is {l.shape[0]}x{l.shape[1]}, expected p x {n} for both"
            )
        self.x, self.y, self.z, self.l = x, y, z, l
        self.xx = frobenius_sq(x)
        self.ll = None if l is None else l * l
        self.llz = None if z is None else self.ll * z


def _check_factors(p: Problem, w, h, b, c, lam, mu):
    """Check W, H, B, C and the weights lam, mu against the data of ``p``."""
    d, n = p.x.shape
    if w.shape[0] != d or h.shape[1] != n or w.shape[1] != h.shape[0]:
        raise ValueError(
            "reconstruction term: X is "
            f"{d}x{n} but W is {w.shape[0]}x{w.shape[1]} and "
            f"H is {h.shape[0]}x{h.shape[1]}"
        )
    k = w.shape[1]
    if lam > 0 and p.y is None:
        raise ValueError("guiding term: lam > 0 requires a seed matrix Y")
    if (p.y is None) != (b is None):
        raise ValueError("guiding term: Y and B must be supplied together")
    if b is not None and b.shape != (k, p.y.shape[1]):
        raise ValueError(
            f"guiding term: B is {b.shape[0]}x{b.shape[1]}, "
            f"expected {k}x{p.y.shape[1]}"
        )
    if mu > 0 and p.z is None:
        raise ValueError("label term: mu > 0 requires a label matrix Z and a mask L")
    if (p.z is None) != (c is None):
        raise ValueError("label term: Z, L, and C must be supplied together")
    if c is not None and c.shape != (p.z.shape[0], k):
        raise ValueError(
            f"label term: C is {c.shape[0]}x{c.shape[1]}, "
            f"expected {p.z.shape[0]}x{k}"
        )


def objective(
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
) -> tuple[float, float, float, float]:
    """Total loss and its weighted (reconstruction, guiding, label) parts.

    reconstruction = 1/2 ||X - W H||_F^2, guiding = lam/2 ||Y - W B||_F^2,
    label = mu/2 ||L o (Z - C H)||_F^2; the first return value is their sum.

    The reconstruction term is evaluated in Gram form,
    ``1/2 max(0, ||X||^2 - 2 <W^T X, H> + <W^T W, H H^T>)``, so the d x n
    residual is never formed. The clamp at zero absorbs the rounding that
    can push the expansion slightly negative on an exact fit.
    """
    p = Problem(x, y, z, l)
    w, h, b, c = map(_as_input, (w, h, b, c))
    _check_factors(p, w, h, b, c, lam, mu)
    return _losses(p, lam, mu, w, h, b, c, w.T @ p.x, w.T @ w)


def _losses(p: Problem, lam, mu, w, h, b, c, wtx, wtw):
    """``objective`` at (W, H, B, C), given ``wtx = W^T X`` and ``wtw = W^T W``."""
    cross = float(np.vdot(wtx, h))
    gram = float(np.vdot(wtw, h @ h.T))
    recon = 0.5 * max(0.0, p.xx - 2.0 * cross + gram)
    guide = 0.0
    if lam > 0:
        guide = 0.5 * lam * frobenius_sq(p.y - w @ b)
    label = 0.0
    if mu > 0:
        label = 0.5 * mu * frobenius_sq(p.l * (p.z - c @ h))
    return recon + guide + label, recon, guide, label


def initial_factors(
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


def _check_finite(name: str, a: Matrix, iteration: int | None):
    if not np.isfinite(a).all():
        where = f" at iteration {iteration}" if iteration is not None else ""
        raise FactorizationError(
            f"update diverged{where}: non-finite entries in {name}"
        )


def update_step(
    p: Problem, config: ModelConfig, w, h, b, c, *, iteration: int | None = None
):
    """One multiplicative update of W, H, B, C, in listing order.

    The data and their cached terms come from ``p``; ``lam``, ``mu`` and
    ``eps`` come from ``config``.

    Each rule multiplies the factor by a ratio of non-negative gradient
    parts, so non-negativity is preserved without projection and exact
    zeros stay zero. A zero ``lam`` or ``mu`` skips its terms in the W and
    H updates and in the losses; B and C are updated whenever they are
    given. Pass ``iteration`` to tag divergence errors.

    Returns ``(w, h, b, c, losses)``. ``losses`` is the
    ``(total, reconstruction, guiding, label)`` tuple at the new factors,
    bitwise what ``objective`` returns for them: its reconstruction term
    reuses the ``W^T X`` and ``W^T W`` that the H update forms for the
    final W, so it makes no further pass over X.

    ``p`` checked the data; the factors and weights are checked against
    it, as ``fit_cells`` checks them once per batch, so a weight without
    its data raises ``ValueError``. The updated factors must stay finite.
    """
    _check_factors(p, w, h, b, c, config.lam, config.mu)
    return _step(p, config, p.x @ h.T, w, h, b, c, iteration)


def _step(p: Problem, config: ModelConfig, xht, w, h, b, c, iteration):
    """``update_step`` with ``X H^T`` supplied by the caller as ``xht``."""
    lam, mu, eps = config.lam, config.mu, config.eps
    numer = xht
    denom = w @ (h @ h.T)
    if lam > 0:
        numer = numer + lam * (p.y @ b.T)
        denom = denom + lam * (w @ (b @ b.T))
    w = w * (numer / (denom + eps))
    _check_finite("W", w, iteration)

    wtx = w.T @ p.x
    wtw = w.T @ w
    numer = wtx
    denom = wtw @ h
    if mu > 0:
        numer = numer + mu * (c.T @ p.llz)
        denom = denom + mu * (c.T @ (p.ll * (c @ h)))
    h = h * (numer / (denom + eps))
    _check_finite("H", h, iteration)

    if p.y is not None:
        b = b * ((w.T @ p.y) / (wtw @ b + eps))
        _check_finite("B", b, iteration)

    if p.z is not None:
        c = c * ((p.llz @ h.T) / ((p.ll * (c @ h)) @ h.T + eps))
        _check_finite("C", c, iteration)

    return w, h, b, c, _losses(p, lam, mu, w, h, b, c, wtx, wtw)


def _blocks_equal(stacked, singles) -> bool:
    """Whether every block of a stacked product ``==`` its own product."""
    return all(np.array_equal(s, t) for s, t in zip(stacked, singles))


class _XHt:
    """``X H_i^T`` for the H of every running cell of a batch.

    Two or more cells share one stacked product ``X [H_1; ...; H_B]^T``
    and take its column blocks. BLAS may sum a wider product in another
    order, so a width is used only after its blocks compared ``==`` with
    the cells' own products ``X H_i^T``. Until then, and for good after
    the first mismatch, every cell gets its own product. Cells only leave
    a batch, so the one width checked last is all there is to remember.
    """

    def __init__(self, x):
        self.x = x
        self.width = 1
        self.exact = True

    def __call__(self, hs):
        x, width = self.x, len(hs)
        if self.exact and width == self.width > 1:
            return np.hsplit(x @ np.vstack(hs).T, width)
        # Cells that still share an H (all of them, at the start) share its
        # product.
        distinct = {id(h): h for h in hs}
        own = {key: x @ h.T for key, h in distinct.items()}
        singles = [own[id(h)] for h in hs]
        if self.exact and width > 1:
            stacked = np.hsplit(x @ np.vstack(hs).T, width)
            self.exact = _blocks_equal(stacked, singles)
            self.width = width
        return singles


@dataclass(eq=False)
class _Cell:
    """One config's state inside a ``fit_cells`` batch.

    ``outcome`` is None while the cell runs, then its result or the
    ``FactorizationError`` that stopped it.
    """

    config: ModelConfig
    factors: tuple
    prev: float = 0.0
    trace: list[float] = field(default_factory=list)
    terms: list[tuple[float, float, float]] = field(default_factory=list)
    outcome: FactorizationResult | FactorizationError | None = None

    def step(self, p: Problem, xht, iteration: int) -> bool:
        """Iterate once, given ``xht = X H^T``; whether the cell runs on."""
        try:
            *factors, (total, recon, guide, label) = _step(
                p, self.config, xht, *self.factors, iteration
            )
        except FactorizationError as exc:
            self.outcome = exc
            return False
        self.factors = factors
        self.trace.append(total)
        self.terms.append((recon, guide, label))
        config = self.config
        stop = iteration == config.max_iters
        if config.tol > 0:
            change = abs(total - self.prev) / max(self.prev, config.eps)
            stop = stop or change < config.tol
            self.prev = total
        if stop:
            self.outcome = FactorizationResult(
                *factors, self.trace, self.terms, config
            )
        return not stop


def fit_cells(
    x, configs, *, y=None, z=None, l=None
) -> list[FactorizationResult | FactorizationError]:
    """Run the solver for several configs that share a start, as one batch.

    ``configs`` must share ``rank`` and ``rng_seed``, so every cell starts
    from the same W, H, B, C; weights, ``max_iters``, ``eps`` and ``tol``
    are per cell. Each iteration gives the running cells their ``X H^T``
    from one stacked product where that is bitwise exact (see ``_XHt``);
    everything else, ``W^T X`` included, is per cell through the step
    kernel of ``update_step``. So every cell's factors and traces are
    bitwise what ``fit`` returns for its config alone. A cell leaves the
    batch when it meets its ``tol`` or ``max_iters``, or when it diverges.

    Returns one entry per config, in order: its ``FactorizationResult``,
    or the ``FactorizationError`` that stopped it. One ``Problem`` checks
    the data and serves every cell; invalid inputs raise ``ValueError``
    before any cell runs. Arguments are as for ``fit``.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("fit_cells needs at least one config")
    first = configs[0]
    if any((c.rank, c.rng_seed) != (first.rank, first.rng_seed) for c in configs):
        raise ValueError("configs of one batch must share rank and rng_seed")
    p = Problem(x, y, z, l)
    w, h, b, c = initial_factors(
        *p.x.shape,
        first,
        n_seeds=None if p.y is None else p.y.shape[1],
        n_classes=None if p.z is None else p.z.shape[0],
    )
    _check_factors(p, w, h, b, c, max(cfg.lam for cfg in configs),
                   max(cfg.mu for cfg in configs))
    cells = [_Cell(cfg, (w, h, b, c)) for cfg in configs]
    if any(cfg.tol > 0 for cfg in configs):
        wtx, wtw = w.T @ p.x, w.T @ w
        for cell in cells:
            cfg = cell.config
            if cfg.tol > 0:
                cell.prev = _losses(p, cfg.lam, cfg.mu, w, h, b, c, wtx, wtw)[0]

    xht = _XHt(p.x)
    running, i = cells, 0
    while running:
        i += 1
        blocks = xht([cell.factors[1] for cell in running])
        running = [cell for cell, block in zip(running, blocks)
                   if cell.step(p, block, i)]
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

    ``fit`` is ``fit_cells`` with one config, so its iterations run the
    products of ``update_step``: ``X H^T`` and ``W^T X``, one each. The
    inputs are checked once, and one ``Problem`` caches ``||X||_F^2``,
    ``L o L`` and ``L o L o Z`` for the whole run. Each step's returned
    loss becomes the trace entry. The loss at the initial factors is
    evaluated only when ``tol > 0`` needs it.
    """
    (result,) = fit_cells(x, [config], y=y, z=z, l=l)
    if isinstance(result, FactorizationError):
        raise result
    return result


def top_keywords(w, vocab: Vocabulary, topic: int, n_top: int) -> list[str]:
    """The ``n_top`` terms with the largest weight in one topic column.

    Descending weight, ties broken lexicographically.
    """
    w = as_matrix(w)
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
# Result directory: one CSV per factor, a loss trace, and a JSON manifest.
# ---------------------------------------------------------------------------

def save_result(
    result: FactorizationResult,
    out_dir,
    doc_ids: list[str] | None = None,
    label_names: list[str] | None = None,
) -> None:
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
            if a is None:  # an earlier fit's factor would load as this one's
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


def load_result(result_dir) -> tuple[FactorizationResult, dict]:
    """Read a result directory back; returns the result and its manifest."""
    root = Path(result_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"{result_dir}: not a result directory (no manifest.json)")
    manifest = read_json(manifest_path, "manifest")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ValueError(
            f"{manifest_path}: invalid manifest: expected an object with a "
            "'config' object"
        )
    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: invalid config: {exc}") from None
    doc_ids = manifest.get("doc_ids")
    if doc_ids is not None and not (
        isinstance(doc_ids, list) and all(isinstance(d, str) for d in doc_ids)
    ):
        raise ValueError(f"{manifest_path}: doc_ids must be a list of strings")
    w = load_matrix_csv(root / "w.csv")
    h = load_matrix_csv(root / "h.csv")
    b = load_matrix_csv(root / "b.csv") if (root / "b.csv").is_file() else None
    c = load_matrix_csv(root / "c.csv") if (root / "c.csv").is_file() else None
    trace_path = root / "trace.csv"
    with open_text(trace_path) as fh:
        if not fh.readline().startswith("iteration,"):
            raise ValueError(f"{trace_path}:1: unexpected header")
        rows = read_rows(fh, trace_path, 5, first=2, ints=(0,))
    if len(rows) != manifest.get("iterations_run"):
        raise ValueError(f"{trace_path}: {len(rows)} rows, but the manifest has "
                         f"iterations_run {manifest.get('iterations_run')}")
    # W is d x k, H k x n, B k x s and C p x k.
    for name, a, axis in (("w", w, 1), ("h", h, 0), ("b", b, 0), ("c", c, 1)):
        if a is not None and a.shape[axis] != config.rank:
            raise ValueError(f"{root / name}.csv: a {a.shape[0]}x{a.shape[1]} "
                             f"factor, but the manifest has rank {config.rank}")
    if doc_ids is not None and len(doc_ids) != h.shape[1]:
        raise ValueError(f"{manifest_path}: {len(doc_ids)} doc_ids, but h.csv "
                         f"has {h.shape[1]} columns")
    terms = [tuple(r) for r in rows[:, 2:].tolist()]
    result = FactorizationResult(w, h, b, c, rows[:, 1].tolist(), terms, config)
    return result, manifest
