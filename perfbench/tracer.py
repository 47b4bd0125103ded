"""Span tracer for gssnmf: timing wrappers around each module's public functions.

Run one CLI command under the tracer, in its own process::

    python perfbench/tracer.py --spans OUT.json -- factorize corpus.txt --out res ...

The wrappers replace every public function of the seven gssnmf modules at
its module attribute and at every other module attribute that names it
(for example ``cli.fit`` and ``textpipe.porter_stem``), so calls made
through imported names are caught too. Each call becomes a span
``[name, start, end, parent, attrs]`` kept in memory and written out when
the command ends. Leaves called once per token or per document
(``porter_stem``, ``tokenize``) are aggregated into a call count and a
total time per parent span instead of one span per call.

``layer_metrics`` turns the span files of one traced chain into the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

MODULES = ("cli", "textpipe", "stemmer", "linalg", "factorization",
           "supervision", "evaluation")
AGGREGATED = {"stemmer.porter_stem", "textpipe.tokenize"}
# Distinct arguments are kept for the stemmer: the share of repeated stems
# is the work a memoized stemmer would skip.
DISTINCT = "stemmer.porter_stem"
# Called once per matrix entry; its time stays in the caller's self time.
UNWRAPPED = {"linalg.format_float"}
# Private functions worth their own span, with the name they are reported by.
EXTRA = {("cli", "_sweep_eval"): "cli.sweep_cell"}


def _fit_attrs(args, kwargs, result):
    x, config = args[0], args[1]
    x = getattr(x, "x", x)
    y, z = kwargs.get("y"), kwargs.get("z")
    y = getattr(y, "y", y)
    z = getattr(z, "z", z)
    return {"d": int(x.shape[0]), "n": int(x.shape[1]), "k": int(config.rank),
            "s": 0 if y is None else int(y.shape[1]),
            "p": 0 if z is None else int(z.shape[0])}


def _coherence_attrs(args, kwargs, result):
    n_kw = len(args[0])
    return {"pairs": n_kw * (n_kw - 1) // 2, "docs": len(args[1])}


def _save_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


ATTRS = {
    "factorization.fit": _fit_attrs,
    "evaluation.coherence": _coherence_attrs,
    "textpipe.save_corpus": _save_attrs,
}


class Tracer:
    """Installs and removes the wrappers; holds the spans of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.agg: dict[tuple[str, int], list] = {}
        self.distinct: dict[str, set] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn):
        spans, stack, attrs = self.spans, self.stack, ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        agg, stack = self.agg, self.stack
        seen = self.distinct.setdefault(name, set()) if name == DISTINCT else None

        @functools.wraps(fn)
        def wrapper(arg, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(arg, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec = agg.get((name, stack[-1]))
                if rec is None:
                    agg[(name, stack[-1])] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt
                if seen is not None:
                    seen.add(arg)

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"gssnmf.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = EXTRA.get((short, attr))
                if name is None:
                    if attr.startswith("_"):
                        continue
                    name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                make = self._leaf_wrapper if name in AGGREGATED else self._span_wrapper
                wrappers[id(fn)] = make(name, fn)
        targets = [importlib.import_module("gssnmf"), *modules.values()]
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        record = {
            "spans": self.spans,
            "agg": [[name, parent, calls, total]
                    for (name, parent), (calls, total) in self.agg.items()],
            "distinct": {name: len(seen) for name, seen in self.distinct.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from the span files of one traced chain.
# ---------------------------------------------------------------------------

def update_step_work(d, n, k, s, p) -> tuple[int, int]:
    """Computed flops and bytes of one ``update_step`` from the shapes.

    Flops count the matrix products of the update rules as written in
    ``factorization``; element-wise work is left out. Bytes count the two
    passes over the d x n matrix X (``X H^T`` and ``W^T X``) at 8 bytes.
    """
    flops = 4 * d * n * k + 4 * n * k * k + 4 * d * k * k
    if s:
        flops += 4 * d * k * s + 4 * s * k * k + 4 * d * k * k
    if p:
        flops += 12 * p * k * n
    return flops, 16 * d * n


def objective_work(d, n, k, s, p) -> tuple[int, int]:
    """Computed flops and bytes of one direct ``objective`` evaluation.

    Flops: the products ``W H``, ``W B`` and ``C H`` plus three passes over
    the d x n residual. Bytes: reading X and writing and reading both
    ``W H`` and the residual, each d x n at 8 bytes.
    """
    flops = 2 * d * n * k + 3 * d * n + 2 * d * k * s + 2 * p * k * n
    return flops, 40 * d * n


# Work counts derived from matrix shapes and keyword lists, not from timing;
# they repeat exactly between runs of one workload and seed.
COMPUTED = {
    "factorization.update_step.flops", "factorization.update_step.bytes",
    "factorization.objective.flops", "factorization.objective.bytes",
    "factorization.flops_per_iter", "factorization.bytes_per_iter",
    "evaluation.coherence.membership_tests",
}
COMMANDS = ("ingest", "rank_scan", "factorize", "classify", "coherence", "sweep")
TIMED = (
    "textpipe.read_corpus_dir", "textpipe.save_corpus", "textpipe.load_corpus",
    "textpipe.doc_token_sets", "linalg.as_matrix", "linalg.singular_values",
    "linalg.save_matrix_csv", "linalg.load_matrix_csv", "factorization.fit",
    "factorization.update_step", "factorization.objective",
    "factorization.save_result", "factorization.load_result",
    "factorization.top_keywords", "supervision.split_mask",
    "supervision.build_label_matrix", "supervision.build_seed_matrix",
    "evaluation.coherence", "evaluation.macro_f1",
    "evaluation.threshold_predictions",
)


def _pct(values, q) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def layer_metrics(records: list[dict], sweep_capacity_s: float) -> dict[str, float]:
    """Per-layer totals over the span records of every traced process.

    ``sweep_capacity_s`` is worker count times the untraced sweep wall time;
    the sum of traced cell times over it is the sweep's parallel efficiency.
    Computed counts (``*.flops``, ``*.bytes``, ``membership_tests``,
    ``distinct``) come from the recorded shapes, not from timing. A layer
    the workload never reaches reports 0.
    """
    total = {name: 0.0 for name in TIMED}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    step_ms: list[float] = []
    cells: list[float] = []
    step_flops = obj_flops = 0.0
    work = {"update_step": [0, 0], "objective": [0, 0]}
    membership = 0
    saved_bytes = 0
    leaf = {name: [0, 0.0] for name in AGGREGATED}
    distinct = 0
    for rec in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for name, parent, n_calls, seconds in rec["agg"]:
            leaf[name][0] += n_calls
            leaf[name][1] += seconds
            if parent >= 0:
                child[parent] += seconds
        distinct += rec["distinct"].get(DISTINCT, 0)
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if name in total:
                total[name] += dur
            if name == "cli.sweep_cell":
                cells.append(dur)
            elif name == "evaluation.coherence":
                membership += attrs["pairs"] * attrs["docs"]
            elif name == "textpipe.save_corpus":
                saved_bytes += attrs["bytes"]
            elif name in ("factorization.update_step", "factorization.objective"):
                if parent < 0 or spans[parent][0] != "factorization.fit":
                    continue
                shape = spans[parent][4]
                kind = name.split(".")[1]
                fn = update_step_work if kind == "update_step" else objective_work
                flops, nbytes = fn(**shape)
                work[kind][0] += flops
                work[kind][1] += nbytes
                if kind == "update_step":
                    step_ms.append(dur * 1e3)
                    step_flops += flops
                else:
                    obj_flops += flops

    n_steps = len(step_ms)
    n_obj = calls.get("factorization.objective", 0)
    out = {
        "stemmer.porter_stem.calls": leaf["stemmer.porter_stem"][0],
        "stemmer.porter_stem.distinct": distinct,
        "stemmer.porter_stem.s": leaf["stemmer.porter_stem"][1],
        "textpipe.tokenize.s": leaf["textpipe.tokenize"][1],
        "textpipe.build_corpus.self_s": self_s.get("textpipe.build_corpus", 0.0),
        "textpipe.save_corpus.mb": saved_bytes / 1e6,
        "textpipe.load_corpus.calls": calls.get("textpipe.load_corpus", 0),
        "linalg.as_matrix.calls": calls.get("linalg.as_matrix", 0),
        "factorization.iterations": n_steps,
        "factorization.update_step.calls": calls.get("factorization.update_step", 0),
        "factorization.update_step.p50_ms": _pct(step_ms, 50) if step_ms else 0.0,
        "factorization.update_step.p90_ms": _pct(step_ms, 90) if step_ms else 0.0,
        "factorization.update_step.gflop_s": (
            step_flops / total["factorization.update_step"] / 1e9 if step_ms else 0.0
        ),
        "factorization.update_step.flops": work["update_step"][0] // max(n_steps, 1),
        "factorization.update_step.bytes": work["update_step"][1] // max(n_steps, 1),
        "factorization.objective.calls": n_obj,
        "factorization.objective.share": (
            total["factorization.objective"] / total["factorization.fit"]
            if total["factorization.fit"] else 0.0
        ),
        "factorization.objective.flops": work["objective"][0] // max(n_obj, 1),
        "factorization.objective.bytes": work["objective"][1] // max(n_obj, 1),
        "evaluation.coherence.calls": calls.get("evaluation.coherence", 0),
        "evaluation.coherence.membership_tests": membership,
        "cli.sweep.cells": len(cells),
        "cli.sweep.cell_p50_s": statistics.median(cells) if cells else 0.0,
        "cli.sweep.cell_max_s": max(cells) if cells else 0.0,
        "cli.sweep.parallel_efficiency": (
            sum(cells) / sweep_capacity_s if cells and sweep_capacity_s else 0.0),
    }
    out["factorization.flops_per_iter"] = (
        out["factorization.update_step.flops"] + out["factorization.objective.flops"]
    )
    out["factorization.bytes_per_iter"] = (
        out["factorization.update_step.bytes"] + out["factorization.objective.bytes"]
    )
    for name in TIMED:
        out[f"{name}.s"] = total[name]
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_s"] = self_s.get(f"cli.run_{cmd}", 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span file to write")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the gssnmf command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = Tracer()
    tracer.install()
    from gssnmf import cli

    try:
        return cli.main(command)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
