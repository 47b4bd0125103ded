"""Command-line driver: ingest, rank-scan, factorize, classify, coherence,
sweep, and plot-heatmap.

Every command is deterministic given its flags; random choices always
come from explicit seeds with documented defaults, and output files are
byte-identical across reruns. A JSON config file (``--config``) may supply
any flag of its subcommand but a positional, with command-line flags taking
precedence; its values are parsed as the same text given to the flag. The
command's parser reads ``--config`` from the command's own arguments and
installs the file's values before it parses them, so argparse checks each
flag's own bounds and that every required flag is given, from either
source, before any file but the config is opened. No command writes over
or removes a file it read.

Exit codes: 0 success, 1 runtime, numeric or out-of-memory failure, 2
usage or input error, 130 interrupted; each fault is one ``error: ...`` line
on stderr, with no usage text.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial
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
    _top_keywords,
    fit,
    fit_cells,
    load_result,
    save_result,
)
from .linalg import (
    file_id,
    keep_inputs,
    open_text,
    read_json,
    read_rows,
    refuse_output,
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
EXIT_INTERRUPTED = 130


def _write_csv(path, header: str, rows) -> None:
    """Write a CSV of ``header`` and ``rows``, each value in ``repr`` form."""
    with write_file(path) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def run_ingest(args):
    params = PipelineParams(max_df=args.max_df, min_df=args.min_df,
                            max_features=args.max_features)
    if args.stopwords:  # read only once the flags have passed
        params = replace(params, stopwords=load_stopwords(args.stopwords))
    docs = read_corpus_dir(args.corpus_dir, filter(None, (args.out, args.stopwords)))
    if not docs:
        raise ValueError("no documents")
    corpus = build_corpus(docs, params)
    save_corpus(corpus, args.out)
    density = float(np.count_nonzero(corpus.x)) / corpus.x.size
    print(
        f"terms={corpus.n_terms} documents={corpus.n_docs} density={density:.4f}"
    )
    print(f"wrote {args.out}")


def run_rank_scan(args):
    corpus = load_corpus(args.corpus_file)
    _within_corpus("--top", args.top, corpus, args.corpus_file)
    spectrum = singular_values(corpus.x, args.top)
    _write_csv(args.out, "index,singular_value", enumerate(spectrum, start=1))
    print(f"wrote {args.out} ({args.top} singular values, "
          f"largest={spectrum[0]:.6g})")


def run_factorize(args):
    config = ModelConfig(rank=args.rank, lam=args.lam, mu=args.mu,
                         max_iters=args.max_iters, rng_seed=args.rng_seed,
                         eps=args.eps, tol=args.tol)
    if config.lam > 0 and not args.seeds:
        raise ValueError("--lambda > 0 requires --seeds FILE")
    if config.mu > 0 and not args.labels:
        raise ValueError("--mu > 0 requires --labels FILE")
    out = Path(args.out)
    for path in (out, *out.parents):  # each is a directory, or is made one
        if os.path.lexists(path) and not path.is_dir():
            raise ValueError(f"--out {args.out}: {path} is not a directory")
    corpus = load_corpus(args.corpus_file)

    seed_matrix = _seed_matrix(args.seeds, corpus.vocab) if args.seeds else None

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


def run_classify(args):
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
    if labels.label_names != manifest.get("label_names"):
        raise ValueError(f"{args.labels_file}: classes {labels.label_names}, but "
                         f"{args.result_dir} was fit on {manifest.get('label_names')}")
    p, n = labels.z.shape
    mask = load_mask(args.mask_file, p, n)
    if not mask.test_ids:  # a fit may train on every document; a score cannot
        raise ValueError(f"{args.mask_file}: no test documents to score")

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


def _test_macro_f1(result, labels, mask):
    """Macro and per-class F1 of ``C H`` on the test columns of ``mask``."""
    ch = result.c @ result.h
    test = mask.test_ids
    truth = labels.z[:, test]
    return macro_f1(threshold_predictions(ch[:, test], truth.sum(axis=0)), truth)


def _within_corpus(flag, value, corpus, corpus_file) -> None:
    """Refuse a ``flag`` value above the bound ``corpus`` sets: its term
    count for ``--n-top``, else min(terms, documents)."""
    if flag == "--n-top":
        limit, bound = corpus.n_terms, f"the {corpus.n_terms} terms"
    else:
        limit = min(corpus.x.shape)
        bound = f"min(terms, documents) = {limit}"
    if value > limit:
        raise ValueError(f"{flag} must be <= {bound} of {corpus_file}, got {value}")


def _seed_matrix(path, vocab: Vocabulary):
    """The seed matrix of the words in ``path``; warns of each one not in ``vocab``."""
    seeds = build_seed_matrix(load_seed_words(path), vocab)
    for word in seeds.dropped:
        print(f"warning: seed word '{word}' not in vocabulary", file=sys.stderr)
    return seeds


def run_coherence(args):
    result, _ = load_result(args.result_dir)
    corpus = load_corpus(args.corpus_file)
    _within_corpus("--n-top", args.n_top, corpus, args.corpus_file)
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
    with write_batch():
        if args.out:
            save_report(report, args.out)
        if args.table:
            with write_file(args.table) as fh:
                fh.write(topics_table(report))
    for path in (args.out, args.table):
        if path:
            print(f"wrote {path}")
    for i, c in enumerate(per_topic, start=1):
        print(f"topic {i}: coherence={c:.3f} keywords={' '.join(topics[i - 1][:10])}")
    print(f"avg_coherence={report.avg_coherence:.3f}")


def _topic_coherences(w, vocab: Vocabulary, present, n_top: int):
    """Top keywords and coherence of every topic column of ``w``.

    ``present`` is the boolean term x document incidence ``X != 0``. W is
    finite: a fit checked it every iteration, and ``read_rows`` a loaded one.
    """
    topics = [_top_keywords(w, vocab, t, n_top) for t in range(w.shape[1])]
    scores = [incidence_coherence(kw, present, vocab.term_index) for kw in topics]
    return topics, scores


# --- sweep ------------------------------------------------------------------

# The widest batch of cells a sweep fits at once, as the sum of their
# ranks; the cells are packed in row order, so one rank and trial's cells
# may span batches. The cap bounds the memory a batch's stacked factors
# and products hold. On an 80-cell sweep of a 700 x 2000 corpus (ranks 6
# and 7, 10 trials, --jobs 1, one OpenBLAS thread on a 2-CPU Xeon), with
# rows identical either way:
#   width 224     4.6-5.3 s   67.4-67.6 MB peak RSS
#   unbounded     4.0-5.0 s   83.7-83.8 MB
_BATCH_WIDTH = 224

def _batches(cells) -> list[list]:
    """Consecutive (config, trial) cells, packed into batches.

    A batch's width, the sum of its cells' ranks, is at most
    ``_BATCH_WIDTH``; a cell wider than that is a batch of its own.
    """
    batches, width = [], _BATCH_WIDTH
    for cell in cells:
        if width + cell[0].rank > _BATCH_WIDTH:
            batches.append([])
            width = 0
        batches[-1].append(cell)
        width += cell[0].rank
    return batches


def _sweep_eval(batch, corpus, seeds, labels, splits, metric, n_top):
    """Fit and score (config, trial) cells as one ``fit_cells`` batch.

    Each cell's mask is its trial's split, and each fit draws its own start
    from its config. Returns one ``(rank, lam, mu, trial, value)`` row per
    cell, in the batch's order. The first cell that fails, in that order,
    raises its error, named for the cell.
    """
    configs = [config for config, _ in batch]
    masks = [splits[trial] for _, trial in batch]
    fits = fit_cells(corpus, configs, y=seeds, z=labels, l=masks)
    # One byte per entry, built after the fits; every cell reads its
    # keywords' rows.
    present = corpus.x != 0 if metric == "avg_coherence" else None
    rows = []
    for (config, trial), mask, result in zip(batch, masks, fits):
        rank, lam, mu = config.rank, config.lam, config.mu
        try:
            if isinstance(result, Exception):
                raise result
            if present is None:
                value, _ = _test_macro_f1(result, labels, mask)
            else:
                _, scores = _topic_coherences(result.w, corpus.vocab, present, n_top)
                value = avg_coherence(scores)
        except (ValueError, FactorizationError) as exc:
            raise type(exc)(
                f"sweep cell (rank={rank}, lambda={lam}, mu={mu}, trial={trial}): {exc}"
            ) from None
        rows.append((rank, lam, mu, trial, value))
    return rows


def run_sweep(args):
    # One (config, trial) cell per output row, in row order, checked before
    # anything is read. Trial t's fits and split use the seed base + t.
    cells = [(ModelConfig(rank, lam, mu, args.max_iters, args.base_seed + trial,
                          args.eps, args.tol), trial)
             for rank in sorted(args.ranks) for lam in sorted(args.lambda_grid)
             for mu in sorted(args.mu_grid) for trial in range(args.trials)]
    out_mean = args.out_mean or str(Path(args.out).with_suffix(".mean.csv"))
    inputs = {file_id(p) for p in (args.corpus_file, args.labels_file, args.seeds_file)}
    named = {}
    for flag, path in (("--out", args.out), ("--out-mean", out_mean),
                       ("--best-by-lambda", args.best_by_lambda)):
        if path:  # before any input is read
            refuse_output(path, inputs)
            if (other := named.setdefault(os.path.realpath(path), flag)) != flag:
                raise ValueError(f"{flag} and {other} name the same file {path}")
    corpus = load_corpus(args.corpus_file)
    # What would fail every cell fails here, once, before any fit.
    _within_corpus("--ranks", max(args.ranks), corpus, args.corpus_file)
    if args.metric == "avg_coherence":
        _within_corpus("--n-top", args.n_top, corpus, args.corpus_file)
    seeds = _seed_matrix(args.seeds_file, corpus.vocab)
    assignments = load_label_assignments(args.labels_file)
    labels = build_label_matrix(assignments, corpus.doc_ids)
    # Each trial's split, drawn once, before any fit.
    splits = [split_mask(corpus.n_docs, args.train_fraction, args.base_seed + t,
                         len(labels.label_names)) for t in range(args.trials)]
    evaluate = partial(_sweep_eval, corpus=corpus, seeds=seeds, labels=labels,
                       splits=splits, metric=args.metric, n_top=args.n_top)
    # The cells are split into one contiguous share per worker; each share
    # is packed into fit_cells batches.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(args.jobs, len(cells), cpus)
    batches = [batch for i in range(workers) for batch in _batches(
        cells[i * len(cells) // workers:(i + 1) * len(cells) // workers])]
    if workers > 1:
        # One worker stays in the main thread: through a pool of one, sweep_grid
        # (seed 11, 2 CPUs, 1 BLAS thread) peaked at 44.7 MB of RSS, not 43.0, and a
        # SIGINT ended a 128-cell sweep after the batch in hand: 0.8 s, not 0.03 s.
        from concurrent.futures import ThreadPoolExecutor
        from threading import Lock

        # numpy releases the GIL in the X products, so threads that share
        # the inputs fit in parallel. ``failed`` is the smallest index of
        # a batch that raised: no worker fits a batch after it, whose rows
        # would never be read. A batch before it still runs, and may fail
        # first.
        failed, lock = len(batches), Lock()

        def run(index, batch):
            nonlocal failed
            if failed < index:
                return None
            try:
                return evaluate(batch)
            except Exception:
                with lock:
                    failed = min(failed, index)
                raise

        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run, range(len(batches)), batches))
    else:
        done = [evaluate(batch) for batch in batches]
    # The pool and the loop consume the batches in row order, so the rows
    # are in row order and the first failing cell in that order raises.
    # No batch after a failed one is read.
    rows = [row for batch in done for row in batch]

    values: dict[tuple, list[float]] = {}
    for rank, lam, mu, _, value in rows:
        values.setdefault((rank, lam, mu), []).append(value)
    means = {cell: sum(v) / len(v) for cell, v in sorted(values.items())}
    best: dict[tuple, tuple] = {}
    for (rank, lam, mu), mean in means.items():
        # Strict > keeps the smallest mu on ties.
        if (rank, lam) not in best or mean > best[rank, lam][1]:
            best[rank, lam] = (mu, mean)
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


# --- plot-heatmap -----------------------------------------------------------

def _heat_color(t: float) -> str:
    """Linear white-to-blue ramp, t in [0, 1]."""
    lo, hi = (247, 251, 255), (8, 48, 107)
    r, g, b = (round(l + (h - l) * t) for l, h in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def run_plot_heatmap(args):
    with open_text(args.mean_csv) as fh:
        if fh.readline().strip() != "rank,lambda,mu,mean_metric_value":
            raise ValueError(f"{args.mean_csv}: not a sweep mean CSV")
        rows = read_rows(fh, args.mean_csv, 4, first=2, ints=(0,)).tolist()
    seen = {}
    for lineno, (rk, lam, mu, _) in enumerate(rows, start=2):
        if seen.setdefault((rk, lam, mu), lineno) != lineno:
            raise ValueError(f"{args.mean_csv}:{lineno}: repeats the cell of line "
                             f"{seen[rk, lam, mu]}")
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


# ---------------------------------------------------------------------------
# Parser and config handling
# ---------------------------------------------------------------------------

def _arg_type(kind, bound: str, ok, listed=False):
    """An argparse type: a ``kind`` value that passes ``ok`` (``bound`` says
    how), or with ``listed`` a non-empty comma-separated list of such
    values that repeats none."""

    def parse(text: str):
        try:
            values = ([kind(v) for v in text.split(",") if v.strip()] if listed
                      else [kind(text)])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        for value in values:
            if not ok(value):
                raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        # A repeated grid value would run its cells again and write their
        # rows twice.
        if not values or len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(
                f"must list one or more distinct values, got {text!r}")
        return values if listed else values[0]

    parse.listed = listed
    return parse


_count = _arg_type(int, ">= 1", lambda v: v >= 1)
_seed = _arg_type(int, ">= 0", lambda v: v >= 0)
# Coherence scores keyword pairs, so a topic needs two keywords.
_n_top = _arg_type(int, ">= 2", lambda v: v >= 2)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage faults raise ValueError, which ``main`` reports
    as one ``error: ...`` line, instead of printing usage and exiting."""

    def error(self, message):
        raise ValueError(message)


class _CommandParser(_Parser):
    """A subcommand's parser. ``--config`` among its own arguments names a
    JSON file whose values it installs as its flags' defaults, before it
    parses them."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.add_argument("--config", help="JSON file supplying any flag of "
                          "this command; flags override it")

    def parse_known_args(self, args=None, namespace=None):
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(args)[0].config
        cfg = read_json(path, "config") if path else {}
        if not isinstance(cfg, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        cmd = self.prog.rpartition(" ")[2]
        actions = {a.dest: a for a in self._actions}
        for key, value in cfg.items():
            dest = "lam" if key == "lambda" else key.replace("-", "_")
            if dest not in actions or dest in ("help", "config"):
                raise ValueError(f"unknown config key '{key}' for command '{cmd}'")
            action = actions[dest]
            # A default never fills a positional.
            if not action.option_strings:
                raise ValueError(f"config key '{key}' names a positional argument "
                                 f"of '{cmd}'; give it on the command line")
            try:  # the value as its flag reads the same text on the command line
                if isinstance(value, list) and getattr(action.type, "listed", False):
                    value = ",".join(map(str, value))
                elif not isinstance(value, (str, int, float)):
                    raise ValueError("expected a scalar value")
                value = str(value) if action.type is None else action.type(str(value))
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"invalid choice: {value!r}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key '{key}': {exc}") from None
            action.default = value  # stands in for the flag, required or not
            action.required = False
        return super().parse_known_args(args, namespace)


def _add_fit_flags(sp):
    """The fit and split flags ``factorize`` and ``sweep`` share."""
    sp.add_argument("--max-iters", type=int, default=ModelConfig.max_iters)
    sp.add_argument("--eps", type=float, default=ModelConfig.eps)
    sp.add_argument("--tol", type=float, default=ModelConfig.tol,
                    help="relative objective-change early stop; 0 disables")
    sp.add_argument("--train-fraction", default=0.7,
                    type=_arg_type(float, "in (0, 1)", lambda v: 0 < v < 1))


def build_parser():
    """The parser and its subcommand parsers by name."""
    parser = _Parser(
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
    sp.add_argument("--top", type=_count, default=20)
    sp.set_defaults(func=run_rank_scan)

    sp = sub.add_parser("factorize", help="run the multiplicative-update solver")
    sp.add_argument("corpus_file")
    sp.add_argument("--out", required=True, help="result directory to write")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0,
                    help="seed-guidance weight")
    sp.add_argument("--mu", type=float, default=0.0, help="label-supervision weight")
    sp.add_argument("--rng-seed", type=int, default=0)
    sp.add_argument("--seeds", help="seed word file")
    sp.add_argument("--labels", help="label assignments CSV")
    sp.add_argument("--split-seed", type=_seed, default=0)
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
    sp.add_argument("--n-top", type=_n_top, default=30,
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
    sp.add_argument("--ranks", required=True,
                    type=_arg_type(int, ">= 1", lambda v: v >= 1, listed=True))
    grid = _arg_type(float, "finite and >= 0", lambda v: 0 <= v < float("inf"),
                     listed=True)
    sp.add_argument("--lambda-grid", type=grid, required=True)
    sp.add_argument("--mu-grid", type=grid, required=True)
    sp.add_argument("--trials", type=_count, default=10)
    sp.add_argument("--base-seed", type=_seed, default=0,
                    help="trial t uses seed base+t for its split and init")
    sp.add_argument("--metric", choices=("macro_f1", "avg_coherence"),
                    default="macro_f1")
    sp.add_argument("--n-top", type=_n_top, default=30)
    _add_fit_flags(sp)
    sp.add_argument("--jobs", type=_count, default=1,
                    help="worker threads (>= 1; capped at the number of cells and "
                         "the CPUs this process may run on); output is identical "
                         "for any value. Above 1, set OPENBLAS_NUM_THREADS=1 or your "
                         "BLAS's equivalent: unset, --jobs 2 took 2.02 s to --jobs "
                         "1's 1.20 s on a paper-size sweep with 2 CPUs")
    sp.set_defaults(func=run_sweep)

    sp = sub.add_parser("plot-heatmap", help="SVG heatmap from a sweep mean CSV")
    sp.add_argument("mean_csv")
    sp.add_argument("--out", required=True, help="SVG file to write")
    sp.add_argument("--rank", type=int, default=None,
                    help="rank slice to plot (default: smallest present)")
    sp.set_defaults(func=run_plot_heatmap)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, _ = build_parser()
    try:
        with keep_inputs():
            args = parser.parse_args(argv)
            args.func(args)
        return EXIT_OK
    except SystemExit as exc:  # --help, which prints the help
        return int(exc.code or 0)
    except FactorizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # a write batch has removed its temporaries
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
