"""Command-line driver: ingest, rank-scan, factorize, classify, coherence,
sweep, and plot-heatmap.

Every command is deterministic given its flags; random choices always
come from explicit seeds with documented defaults, and output files are
byte-identical across reruns. A JSON config file (``--config``) may supply
any flag of its subcommand, with command-line flags taking precedence; its
values are parsed as the same text given to the flag.

Exit codes: 0 success, 1 runtime or numeric failure, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .evaluation import (
    EvalReport,
    avg_coherence,
    incidence_coherence,
    macro_f1,
    save_report,
    threshold_predictions,
    topics_table,
)
from .factorization import (
    FactorizationError,
    ModelConfig,
    fit,
    fit_cells,
    load_result,
    save_result,
    top_keywords,
)
from .linalg import (
    open_text,
    read_json,
    read_rows,
    remove_file,
    singular_values,
    write_batch,
    write_file,
)
from .supervision import (
    build_label_matrix,
    build_seed_matrix,
    load_label_assignments,
    load_mask,
    load_seed_words,
    save_mask,
    split_mask,
)
from .textpipe import (
    PipelineParams,
    Vocabulary,
    build_corpus,
    load_corpus,
    load_stopwords,
    read_corpus_dir,
    save_corpus,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _list_parser(kind, what: str):
    """An argparse type for a comma-separated list."""

    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",") if v.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None

    return parse


_float_list = _list_parser(float, "numbers")
_int_list = _list_parser(int, "integers")


def _write_csv(path, header: str, rows) -> None:
    """Write a CSV of ``header`` and ``rows``, each value in ``repr`` form."""
    with write_file(path) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def run_ingest(args) -> int:
    docs = read_corpus_dir(args.corpus_dir)
    if not docs:
        raise ValueError("no documents")
    stop = load_stopwords(args.stopwords) if args.stopwords else None
    params = PipelineParams(
        max_df=args.max_df,
        min_df=args.min_df,
        max_features=args.max_features,
        stopwords=stop,
    )
    corpus = build_corpus(docs, params)
    save_corpus(corpus, args.out)
    density = float(np.count_nonzero(corpus.x)) / corpus.x.size
    print(
        f"terms={corpus.n_terms} documents={corpus.n_docs} density={density:.4f}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def run_rank_scan(args) -> int:
    corpus = load_corpus(args.corpus_file)
    spectrum = singular_values(corpus.x, args.top)
    _write_csv(args.out, "index,singular_value", enumerate(spectrum, start=1))
    print(f"wrote {args.out} ({args.top} singular values, "
          f"largest={spectrum[0]:.6g})")
    return EXIT_OK


def run_factorize(args) -> int:
    if args.rank is None:
        raise ValueError("--rank is required")
    config = ModelConfig(rank=args.rank, lam=args.lam, mu=args.mu,
                         max_iters=args.max_iters, rng_seed=args.rng_seed,
                         eps=args.eps, tol=args.tol)
    corpus = load_corpus(args.corpus_file)
    if config.lam > 0 and not args.seeds:
        raise ValueError("--lambda > 0 requires --seeds FILE")
    if config.mu > 0 and not args.labels:
        raise ValueError("--mu > 0 requires --labels FILE")

    seed_matrix = None
    if args.seeds:
        seed_matrix = build_seed_matrix(load_seed_words(args.seeds), corpus.vocab)
        for word in seed_matrix.dropped:
            print(f"warning: seed word '{word}' not in vocabulary", file=sys.stderr)

    labels = mask = None
    label_names = None
    if args.labels:
        assignments = load_label_assignments(args.labels)
        labels = build_label_matrix(assignments, corpus.doc_ids)
        label_names = labels.label_names
        mask = split_mask(
            corpus.n_docs, args.train_fraction, args.split_seed,
            len(labels.label_names),
        )

    result = fit(corpus, config, y=seed_matrix, z=labels, l=mask)
    with write_batch():
        save_result(result, args.out, doc_ids=corpus.doc_ids, label_names=label_names)
        if mask is None:  # an earlier fit's split would score this fit
            remove_file(Path(args.out) / "mask.json")
        else:
            save_mask(mask, Path(args.out) / "mask.json")

    losses = result.final_losses
    print(
        "final losses: "
        f"total={losses['total']:.6g} reconstruction={losses['reconstruction']:.6g} "
        f"guiding={losses['guiding']:.6g} label={losses['label']:.6g}"
    )
    print(
        f"objective: first={result.objective_trace[0]:.6g} "
        f"last={result.objective_trace[-1]:.6g} iterations={result.iterations}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def run_classify(args) -> int:
    result, manifest = load_result(args.result_dir)
    if result.c is None:
        raise ValueError("model was not label-supervised")
    doc_ids = manifest.get("doc_ids")
    if not doc_ids:
        raise ValueError(
            f"{args.result_dir}: manifest carries no document ids; "
            "re-run factorize on the corpus"
        )
    assignments = load_label_assignments(args.labels_file)
    labels = build_label_matrix(assignments, doc_ids)
    p, n = labels.z.shape
    mask = load_mask(args.mask_file, p, n)

    macro, per_class = _test_macro_f1(result, labels, mask)
    report = EvalReport(
        macro_f1=macro, per_class_f1=per_class, label_names=labels.label_names
    )
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    print(f"macro_f1={macro:.6f} over {len(mask.test_ids)} test documents")
    for name, f1 in zip(labels.label_names, per_class):
        print(f"  f1[{name}]={f1:.6f}")
    return EXIT_OK


def _test_macro_f1(result, labels, mask):
    """Macro and per-class F1 of ``C H`` on the test columns of ``mask``."""
    ch = result.c @ result.h
    test = mask.test_ids
    truth = labels.z[:, test]
    counts = [int(v) for v in truth.sum(axis=0)]
    return macro_f1(threshold_predictions(ch[:, test], counts), truth)


def _check_n_top(n_top: int) -> None:
    """Coherence scores keyword pairs, so a topic needs two keywords."""
    if n_top < 2:
        raise ValueError(f"--n-top must be >= 2, got {n_top}")


def run_coherence(args) -> int:
    _check_n_top(args.n_top)
    result, _ = load_result(args.result_dir)
    corpus = load_corpus(args.corpus_file)
    if result.w.shape[0] != corpus.n_terms:
        raise ValueError(
            f"model has {result.w.shape[0]} term rows but corpus has "
            f"{corpus.n_terms}; corpora mismatch"
        )
    topics, per_topic = _topic_coherences(
        result.w, corpus.vocab, corpus.x != 0, args.n_top
    )
    report = EvalReport(
        per_topic_coherence=per_topic,
        avg_coherence=avg_coherence(per_topic),
        topics=topics,
    )
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    if args.table:
        with write_file(args.table) as fh:
            fh.write(topics_table(report))
        print(f"wrote {args.table}")
    for i, c in enumerate(per_topic, start=1):
        print(f"topic {i}: coherence={c:.3f} keywords={' '.join(topics[i - 1][:10])}")
    print(f"avg_coherence={report.avg_coherence:.3f}")
    return EXIT_OK


def _topic_coherences(w, vocab: Vocabulary, present, n_top: int):
    """Top keywords and coherence of every topic column of ``w``.

    ``present`` is the boolean term x document incidence ``X != 0``.
    """
    topics = [top_keywords(w, vocab, t, n_top) for t in range(w.shape[1])]
    scores = [incidence_coherence(kw, present, vocab.term_index) for kw in topics]
    return topics, scores


# --- sweep ------------------------------------------------------------------

@dataclass
class SweepSpec:
    """Grid axes and trial plan for a sweep run.

    Trial ``t`` derives its split and initialization seed as
    ``base_rng_seed + t``, so any cell can be reproduced in isolation.
    """

    lambda_grid: list[float]
    mu_grid: list[float]
    ranks: list[int]
    trials: int
    base_rng_seed: int
    train_fraction: float
    metric: str

    def __post_init__(self):
        if not self.ranks or not self.lambda_grid or not self.mu_grid:
            raise ValueError(
                "--ranks, --lambda-grid, and --mu-grid must be non-empty"
            )
        if not all(0 <= v < float("inf") for v in self.lambda_grid + self.mu_grid):
            raise ValueError("grid values must be finite and >= 0")
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be >= 1")
        if self.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {self.trials}")
        if self.metric not in ("macro_f1", "avg_coherence"):
            raise ValueError(f"unknown metric '{self.metric}'")

    def cells(self):
        return [
            (rank, lam, mu, trial)
            for rank in sorted(self.ranks)
            for lam in sorted(self.lambda_grid)
            for mu in sorted(self.mu_grid)
            for trial in range(self.trials)
        ]

    def groups(self):
        """The cells as ``(rank, trial, [(lam, mu), ...])`` groups.

        The cells of one group share their split and their initial factors,
        so they run as one ``fit_cells`` batch.
        """
        groups: dict[tuple, list] = {}
        for rank, lam, mu, trial in self.cells():
            groups.setdefault((rank, trial), []).append((lam, mu))
        return [(rank, trial, weights) for (rank, trial), weights in groups.items()]


_WORKER_PAYLOAD = {}


def _sweep_init(payload):
    _WORKER_PAYLOAD["payload"] = payload


def _sweep_run_task(group):
    return _sweep_eval(_WORKER_PAYLOAD["payload"], group)


def _sweep_eval(payload, group):
    """Evaluate one (rank, trial) group of cells as one batch.

    Returns one ``(rank, lam, mu, trial, value)`` row per cell, in the
    group's order. A cell that fails gets, as its value, the error that
    names it; the other cells of the group still run.
    """
    rank, trial, weights = group
    corpus, labels = payload["corpus"], payload["labels"]
    try:
        seed = payload["base_seed"] + trial
        mask = split_mask(corpus.n_docs, payload["train_fraction"], seed,
                          len(labels.label_names))
        configs = [replace(payload["config"], rank=rank, lam=lam, mu=mu, rng_seed=seed)
                   for lam, mu in weights]
        fits = fit_cells(corpus, configs, y=payload["seeds"], z=labels, l=mask)
    except (ValueError, FactorizationError) as exc:
        fits = [exc] * len(weights)
    rows = []
    for (lam, mu), result in zip(weights, fits):
        try:
            if isinstance(result, Exception):
                raise result
            if payload["metric"] == "macro_f1":
                value, _ = _test_macro_f1(result, labels, mask)
            else:
                _, scores = _topic_coherences(
                    result.w, corpus.vocab, payload["present"], payload["n_top"]
                )
                value = avg_coherence(scores)
        except (ValueError, FactorizationError) as exc:
            value = type(exc)(
                f"sweep cell (rank={rank}, lambda={lam}, mu={mu}, trial={trial}): {exc}"
            )
        rows.append((rank, lam, mu, trial, value))
    return rows


def run_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    _check_n_top(args.n_top)
    spec = SweepSpec(
        lambda_grid=args.lambda_grid or [],
        mu_grid=args.mu_grid or [],
        ranks=args.ranks or [],
        trials=args.trials,
        base_rng_seed=args.base_seed,
        train_fraction=args.train_fraction,
        metric=args.metric,
    )
    # The settings every cell shares, checked before anything is read; each
    # cell sets its own rank, weights and seed.
    shared = ModelConfig(rank=1, max_iters=args.max_iters, eps=args.eps, tol=args.tol)
    corpus = load_corpus(args.corpus_file)
    seeds = build_seed_matrix(load_seed_words(args.seeds_file), corpus.vocab)
    assignments = load_label_assignments(args.labels_file)
    labels = build_label_matrix(assignments, corpus.doc_ids)
    payload = {
        # The checked wrappers, so no cell checks X, Y or Z again.
        "corpus": corpus,
        "seeds": seeds,
        "labels": labels,
        # One byte per entry; every cell reads its keywords' rows.
        "present": corpus.x != 0,
        "train_fraction": spec.train_fraction,
        "base_seed": spec.base_rng_seed,
        "metric": spec.metric,
        "n_top": args.n_top,
        "config": shared,
    }
    groups = spec.groups()
    workers = min(args.jobs, len(groups), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the pool machinery would slow every command's start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_sweep_init, initargs=(payload,)
        ) as pool:
            done = list(pool.map(_sweep_run_task, groups))
    else:
        done = [_sweep_eval(payload, group) for group in groups]
    # The collector owns the output order regardless of scheduling, and
    # reports the first failing cell in that order.
    rows = sorted((row for group in done for row in group), key=lambda r: r[:4])
    for row in rows:
        if isinstance(row[4], Exception):
            raise row[4]

    values: dict[tuple, list[float]] = {}
    for rank, lam, mu, _, value in rows:
        values.setdefault((rank, lam, mu), []).append(value)
    means = {cell: sum(v) / len(v) for cell, v in sorted(values.items())}
    best: dict[tuple, tuple] = {}
    for (rank, lam, mu), mean in means.items():
        # Strict > keeps the smallest mu on ties.
        if (rank, lam) not in best or mean > best[rank, lam][1]:
            best[rank, lam] = (mu, mean)
    out_mean = args.out_mean or str(Path(args.out).with_suffix(".mean.csv"))
    with write_batch():
        _write_csv(args.out, "rank,lambda,mu,trial,metric_value", rows)
        _write_csv(out_mean, "rank,lambda,mu,mean_metric_value",
                   (cell + (mean,) for cell, mean in means.items()))
        if args.best_by_lambda:
            _write_csv(args.best_by_lambda, "rank,lambda,best_mu,mean_metric_value",
                       (key + best[key] for key in sorted(best)))
    print(f"wrote {args.out} ({len(rows)} rows)")
    print(f"wrote {out_mean} ({len(means)} cells)")
    if args.best_by_lambda:
        print(f"wrote {args.best_by_lambda}")
    return EXIT_OK


# --- plot-heatmap -----------------------------------------------------------

def _heat_color(t: float) -> str:
    """Linear white-to-blue ramp, t in [0, 1]."""
    lo, hi = (247, 251, 255), (8, 48, 107)
    r, g, b = (round(l + (h - l) * t) for l, h in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def run_plot_heatmap(args) -> int:
    with open_text(args.mean_csv) as fh:
        if fh.readline().strip() != "rank,lambda,mu,mean_metric_value":
            raise ValueError(f"{args.mean_csv}: not a sweep mean CSV")
        rows = read_rows(fh, args.mean_csv, 4, first=2, ints=(0,)).tolist()
    ranks = sorted({int(r[0]) for r in rows})
    rank = args.rank if args.rank is not None else ranks[0]
    cells = {(lam, mu): v for rk, lam, mu, v in rows if rk == rank}
    if not cells:
        raise ValueError(f"rank {rank} not present in {args.mean_csv} "
                         f"(available: {ranks})")
    lams = sorted({lam for lam, _ in cells})
    mus = sorted({mu for _, mu in cells})
    vmin = min(cells.values())
    vmax = max(cells.values())
    span = vmax - vmin

    cell, left, top = 56, 86, 46
    width = left + cell * len(mus) + 20
    height = top + cell * len(lams) + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{left}" y="18">mean metric by lambda (rows) and mu '
        f'(columns), rank {rank}</text>',
        f'<text x="{left}" y="34">linear color scale: {vmin:.6g} (light) to '
        f'{vmax:.6g} (dark)</text>',
    ]
    for col, mu in enumerate(mus):
        parts.append(
            f'<text x="{left + col * cell + 4}" y="{top - 6}">{mu:.6g}</text>'
        )
    for row, lam in enumerate(lams):
        y0 = top + row * cell
        parts.append(f'<text x="6" y="{y0 + cell // 2}">{lam:.6g}</text>')
        for col, mu in enumerate(mus):
            v = cells.get((lam, mu))
            x0 = left + col * cell
            if v is None:
                parts.append(
                    f'<rect x="{x0}" y="{y0}" width="{cell}" height="{cell}" '
                    f'fill="none" stroke="#999"/>'
                )
                continue
            t = 0.5 if span == 0 else (v - vmin) / span
            shade = _heat_color(t)
            text_fill = "#000000" if t < 0.6 else "#ffffff"
            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{cell}" height="{cell}" '
                f'fill="{shade}" stroke="#555"/>'
            )
            parts.append(
                f'<text x="{x0 + 3}" y="{y0 + cell // 2 + 4}" '
                f'fill="{text_fill}">{v:.4g}</text>'
            )
    parts.append("</svg>")
    with write_file(args.out) as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
    print(f"wrote {args.out} ({len(lams)}x{len(mus)} cells)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and config handling
# ---------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser; ``flags`` maps each argument's dest to its action."""

    def __init__(self, **kwargs):
        self.flags = {}
        super().__init__(**kwargs)
        self.add_argument("--config", help="JSON file supplying any flag of "
                          "this command; flags override it")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


def _add_fit_flags(sp):
    """The fit and split flags ``factorize`` and ``sweep`` share."""
    sp.add_argument("--max-iters", type=int, default=ModelConfig.max_iters)
    sp.add_argument("--eps", type=float, default=ModelConfig.eps)
    sp.add_argument("--tol", type=float, default=ModelConfig.tol,
                    help="relative objective-change early stop; 0 disables")
    sp.add_argument("--train-fraction", type=float, default=0.7)


def build_parser():
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="gssnmf",
        description=(
            "Topic factorization of text corpora with optional seed-word "
            "guidance and document-label supervision."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    sp = sub.add_parser("ingest", help="build a tf-idf corpus file from .txt files")
    sp.add_argument("corpus_dir")
    sp.add_argument("--out", required=True, help="corpus file to write")
    sp.add_argument("--max-df", type=float, default=1.0)
    sp.add_argument("--min-df", type=float, default=0.0)
    sp.add_argument("--max-features", type=int, default=None)
    sp.add_argument("--stopwords", help="stopword file (one token per line)")
    sp.set_defaults(func=run_ingest)

    sp = sub.add_parser("rank-scan", help="leading singular values of a corpus")
    sp.add_argument("corpus_file")
    sp.add_argument("--out", required=True, help="CSV of (index, singular value)")
    sp.add_argument("--top", type=int, default=20)
    sp.set_defaults(func=run_rank_scan)

    sp = sub.add_parser("factorize", help="run the multiplicative-update solver")
    sp.add_argument("corpus_file")
    sp.add_argument("--out", required=True, help="result directory to write")
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0,
                    help="seed-guidance weight")
    sp.add_argument("--mu", type=float, default=0.0, help="label-supervision weight")
    sp.add_argument("--rng-seed", type=int, default=0)
    sp.add_argument("--seeds", help="seed word file")
    sp.add_argument("--labels", help="label assignments CSV")
    sp.add_argument("--split-seed", type=int, default=0)
    _add_fit_flags(sp)
    sp.set_defaults(func=run_factorize)

    sp = sub.add_parser("classify", help="score label reconstruction on test columns")
    sp.add_argument("result_dir")
    sp.add_argument("labels_file")
    sp.add_argument("mask_file")
    sp.add_argument("--out", help="report JSON to write")
    sp.set_defaults(func=run_classify)

    sp = sub.add_parser("coherence", help="score topic keyword coherence")
    sp.add_argument("result_dir")
    sp.add_argument("corpus_file")
    sp.add_argument("--n-top", type=int, default=30,
                    help="keywords per topic entering the score")
    sp.add_argument("--out", help="report JSON to write")
    sp.add_argument("--table", help="plain-text topic table to write")
    sp.set_defaults(func=run_coherence)

    sp = sub.add_parser("sweep", help="grid of (rank, lambda, mu) runs over trials")
    sp.add_argument("corpus_file")
    sp.add_argument("labels_file")
    sp.add_argument("seeds_file")
    sp.add_argument("--out", required=True, help="long-form CSV to write")
    sp.add_argument("--out-mean", default=None,
                    help="mean-aggregated CSV (default: <out>.mean.csv)")
    sp.add_argument("--best-by-lambda", default=None,
                    help="optional per-lambda best-mu CSV")
    sp.add_argument("--ranks", type=_int_list, default=None)
    sp.add_argument("--lambda-grid", dest="lambda_grid", type=_float_list,
                    default=None)
    sp.add_argument("--mu-grid", dest="mu_grid", type=_float_list, default=None)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--base-seed", type=int, default=0,
                    help="trial t uses seed base+t for its split and init")
    sp.add_argument("--metric", choices=("macro_f1", "avg_coherence"),
                    default="macro_f1")
    sp.add_argument("--n-top", type=int, default=30)
    _add_fit_flags(sp)
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes (>= 1; capped at the number of "
                         "(rank, trial) groups and the CPU count); output is "
                         "identical for any value")
    sp.set_defaults(func=run_sweep)

    sp = sub.add_parser("plot-heatmap", help="SVG heatmap from a sweep mean CSV")
    sp.add_argument("mean_csv")
    sp.add_argument("--out", required=True, help="SVG file to write")
    sp.add_argument("--rank", type=int, default=None,
                    help="rank slice to plot (default: smallest present)")
    sp.set_defaults(func=run_plot_heatmap)

    return parser, sub.choices


def _apply_config(argv, commands) -> None:
    """Install config-file values as subcommand defaults before parsing."""
    cmd = next((a for a in argv if not a.startswith("-")), None)
    if cmd not in commands:
        return
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    cfg = read_json(known.config, "config")
    if not isinstance(cfg, dict):
        raise ValueError(f"{known.config}: config must be a JSON object")
    sp = commands[cmd]
    defaults = {}
    for key, value in cfg.items():
        dest = "lam" if key == "lambda" else key.replace("-", "_")
        if dest not in sp.flags or dest in ("help", "config"):
            raise ValueError(f"unknown config key '{key}' for command '{cmd}'")
        action = sp.flags[dest]
        try:  # the value as its flag reads the same text on the command line
            if isinstance(value, list) and action.type in (_int_list, _float_list):
                value = ",".join(map(str, value))
            elif not isinstance(value, (str, int, float)):
                raise ValueError("expected a scalar value")
            value = str(value) if action.type is None else action.type(str(value))
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"invalid choice: {value!r}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key '{key}': {exc}") from None
        defaults[dest] = value
    sp.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        _apply_config(argv, commands)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except FactorizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
