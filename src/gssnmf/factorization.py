"""Objective functions and the multiplicative-update solver.

The model approximates a non-negative data matrix X (d x n) as W H with
rank k, optionally pulling topic columns toward seed words through
``(lam/2) * ||Y - W B||_F^2`` and fitting class labels on training columns
through ``(mu/2) * ||L o (Z - C H)||_F^2`` (``o`` is the entry-wise
product). Setting ``lam`` or ``mu`` to zero recovers the label-only,
seed-only, or plain variants with bitwise-identical trajectories.

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

with ``||X||_F^2`` computed once per fit, so one evaluation allocates
k x n and k x k temporaries instead of d x n ones. Cancellation can leave
the expansion a few ulps below zero on a near-exact fit, so it is clamped
at zero. The guiding (d x s) and label (p x n) terms are small and keep
the direct formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import (
    DEFAULT_EPS,
    Matrix,
    as_matrix,
    format_float,
    frobenius_sq,
    load_matrix_csv,
    safe_divide,
    save_matrix_csv,
)
from .supervision import LabelMatrix, MaskMatrix, SeedMatrix
from .textpipe import CorpusMatrix, Vocabulary


class FactorizationError(RuntimeError):
    """Numeric failure inside the update loop."""


@dataclass
class ModelConfig:
    """Solver settings: rank, supervision weights, and iteration control.

    ``tol`` is a relative objective-change early stop; zero (the default)
    runs the full ``max_iters`` budget.
    """

    rank: int
    lam: float = 0.0
    mu: float = 0.0
    max_iters: int = 200
    rng_seed: int = 0
    eps: float = DEFAULT_EPS
    tol: float = 0.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.lam < 0 or self.mu < 0:
            raise ValueError(f"weights must be >= 0, got lam={self.lam} mu={self.mu}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "lam": self.lam,
            "mu": self.mu,
            "max_iters": self.max_iters,
            "rng_seed": self.rng_seed,
            "eps": self.eps,
            "tol": self.tol,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        return cls(**obj)


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


# The wrapper types hold arrays their builders already validated.
_WRAPPED = {CorpusMatrix: "x", SeedMatrix: "y", LabelMatrix: "z", MaskMatrix: "l"}


def _as_input(a) -> Matrix | None:
    """The array inside a corpus/seed/label/mask wrapper, else ``as_matrix(a)``.

    None stays None.
    """
    if a is None:
        return None
    name = _WRAPPED.get(type(a))
    return as_matrix(a) if name is None else getattr(a, name)


def _check_objective_shapes(x, w, h, y, b, z, l, c, lam, mu):
    d, n = x.shape
    if w.shape[0] != d or h.shape[1] != n or w.shape[1] != h.shape[0]:
        raise ValueError(
            "reconstruction term: X is "
            f"{d}x{n} but W is {w.shape[0]}x{w.shape[1]} and "
            f"H is {h.shape[0]}x{h.shape[1]}"
        )
    k = w.shape[1]
    if lam > 0 and (y is None or b is None):
        raise ValueError("guiding term: lam > 0 requires both Y and B")
    if y is not None or b is not None:
        if y is None or b is None:
            raise ValueError("guiding term: Y and B must be supplied together")
        if y.shape[0] != d or b.shape[0] != k or y.shape[1] != b.shape[1]:
            raise ValueError(
                f"guiding term: Y is {y.shape[0]}x{y.shape[1]} but W is {d}x{k} "
                f"and B is {b.shape[0]}x{b.shape[1]}"
            )
    if mu > 0 and (z is None or l is None or c is None):
        raise ValueError("label term: mu > 0 requires Z, L, and C")
    if z is not None or l is not None or c is not None:
        if z is None or l is None or c is None:
            raise ValueError("label term: Z, L, and C must be supplied together")
        if z.shape[1] != n or l.shape != z.shape or c.shape != (z.shape[0], k):
            raise ValueError(
                f"label term: Z is {z.shape[0]}x{z.shape[1]}, "
                f"L is {l.shape[0]}x{l.shape[1]}, C is {c.shape[0]}x{c.shape[1]}, "
                f"expected p x {n}, p x {n}, p x {k}"
            )


def _validated(x, w, h, y, b, z, l, c, lam, mu):
    """Every objective input as a checked float64 array, shapes agreeing."""
    x, w, h, y, b, z, l, c = map(_as_input, (x, w, h, y, b, z, l, c))
    _check_objective_shapes(x, w, h, y, b, z, l, c, lam, mu)
    return x, w, h, y, b, z, l, c


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
    x, w, h, y, b, z, l, c = _validated(x, w, h, y, b, z, l, c, lam, mu)
    return _losses(x, frobenius_sq(x), w, h, y, b, z, l, c, lam, mu)


def _losses(
    x, xx, w, h, y, b, z, l, c, lam, mu
) -> tuple[float, float, float, float]:
    """``objective`` on inputs that ``_validated`` already checked.

    ``xx`` is ``||X||_F^2``, computed once by the caller.
    """
    cross = float(np.vdot(w.T @ x, h))
    gram = float(np.vdot(w.T @ w, h @ h.T))
    recon = 0.5 * max(0.0, xx - 2.0 * cross + gram)
    guide = 0.0
    if y is not None:
        guide = 0.5 * lam * frobenius_sq(y - w @ b)
    label = 0.0
    if z is not None:
        label = 0.5 * mu * frobenius_sq(l * (z - c @ h))
    return recon + guide + label, recon, guide, label


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
    x, w, h, y, b, z, l, c = _validated(x, w, h, y, b, z, l, c, lam, mu)

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
    if not np.all(np.isfinite(a)):
        where = f" at iteration {iteration}" if iteration is not None else ""
        raise FactorizationError(
            f"update diverged{where}: non-finite entries in {name}"
        )


def update_step(
    w,
    h,
    b,
    c,
    x,
    y=None,
    z=None,
    l=None,
    *,
    lam: float = 0.0,
    mu: float = 0.0,
    eps: float = DEFAULT_EPS,
    iteration: int | None = None,
):
    """One multiplicative update of W, H, B, C, in listing order.

    Each rule multiplies the factor by a ratio of non-negative gradient
    parts, so non-negativity is preserved without projection and exact
    zeros stay zero. Pass ``iteration`` to tag divergence errors.

    This is the unchecked step kernel: X, Y, Z and L must be the float64
    arrays ``fit`` validated (Y, Z, L may be None), with shapes that agree
    with the factors. ``fit`` and ``objective`` do that checking.
    """
    ll = None if l is None else l * l
    lz = None if z is None else ll * z

    numer = x @ h.T
    denom = w @ (h @ h.T)
    if y is not None:
        numer = numer + lam * (y @ b.T)
        denom = denom + lam * (w @ (b @ b.T))
    w = w * safe_divide(numer, denom, eps)
    _check_finite("W", w, iteration)

    numer = w.T @ x
    denom = (w.T @ w) @ h
    if z is not None:
        numer = numer + mu * (c.T @ lz)
        denom = denom + mu * (c.T @ (ll * (c @ h)))
    h = h * safe_divide(numer, denom, eps)
    _check_finite("H", h, iteration)

    if y is not None:
        b = b * safe_divide(w.T @ y, (w.T @ w) @ b, eps)
        _check_finite("B", b, iteration)

    if z is not None:
        c = c * safe_divide(lz @ h.T, (ll * (c @ h)) @ h.T, eps)
        _check_finite("C", c, iteration)

    return w, h, b, c


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
    """
    x, y, z, l = map(_as_input, (x, y, z, l))
    if config.lam > 0 and y is None:
        raise ValueError("lam > 0 requires a seed matrix")
    if config.mu > 0 and (z is None or l is None):
        raise ValueError("mu > 0 requires a label matrix and a mask")
    if (z is None) != (l is None):
        raise ValueError("label matrix and mask must be supplied together")

    d, n = x.shape
    w, h, b, c = initial_factors(
        d,
        n,
        config,
        n_seeds=None if y is None else y.shape[1],
        n_classes=None if z is None else z.shape[0],
    )
    _check_objective_shapes(x, w, h, y, b, z, l, c, config.lam, config.mu)
    xx = frobenius_sq(x)
    prev, _, _, _ = _losses(x, xx, w, h, y, b, z, l, c, config.lam, config.mu)

    trace: list[float] = []
    terms: list[tuple[float, float, float]] = []
    for i in range(1, config.max_iters + 1):
        w, h, b, c = update_step(
            w, h, b, c, x, y, z, l,
            lam=config.lam, mu=config.mu, eps=config.eps, iteration=i,
        )
        total, recon, guide, label = _losses(
            x, xx, w, h, y, b, z, l, c, config.lam, config.mu
        )
        trace.append(total)
        terms.append((recon, guide, label))
        if config.tol > 0 and abs(total - prev) / max(prev, config.eps) < config.tol:
            break
        prev = total

    return FactorizationResult(w, h, b, c, trace, terms, config)


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
    order = sorted(range(d), key=lambda i: (-w[i, topic], vocab.terms[i]))
    return [vocab.terms[i] for i in order[:n_top]]


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
    save_matrix_csv(result.w, out / "w.csv")
    save_matrix_csv(result.h, out / "h.csv")
    if result.b is not None:
        save_matrix_csv(result.b, out / "b.csv")
    if result.c is not None:
        save_matrix_csv(result.c, out / "c.csv")
    with open(out / "trace.csv", "w", encoding="utf-8") as fh:
        fh.write("iteration,total,reconstruction,guiding,label\n")
        for i, (total, (recon, guide, label)) in enumerate(
            zip(result.objective_trace, result.term_trace), start=1
        ):
            fh.write(
                f"{i},{format_float(total)},{format_float(recon)},"
                f"{format_float(guide)},{format_float(label)}\n"
            )
    manifest = {
        "config": result.config.to_dict(),
        "iterations_run": result.iterations,
        "final_losses": result.final_losses,
        "doc_ids": doc_ids,
        "label_names": label_names,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_result(result_dir) -> tuple[FactorizationResult, dict]:
    """Read a result directory back; returns the result and its manifest."""
    root = Path(result_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"{result_dir}: not a result directory (no manifest.json)")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{manifest_path}:{exc.lineno}: invalid manifest: {exc.msg}"
            ) from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ValueError(
            f"{manifest_path}: invalid manifest: expected an object with a "
            "'config' object"
        )
    try:
        config = ModelConfig.from_dict(manifest["config"])
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
    trace: list[float] = []
    terms: list[tuple[float, float, float]] = []
    trace_path = root / "trace.csv"
    with open(trace_path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("iteration,"):
            raise ValueError(f"{trace_path}:1: unexpected header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise ValueError(f"{trace_path}:{lineno}: expected 5 fields")
            try:
                total, recon, guide, label = map(float, fields[1:])
            except ValueError as exc:
                raise ValueError(f"{trace_path}:{lineno}: bad number: {exc}") from None
            trace.append(total)
            terms.append((recon, guide, label))
    result = FactorizationResult(w, h, b, c, trace, terms, config)
    return result, manifest
