"""Output checks that hold for every workload seed.

Each check reads what a CLI command wrote and recomputes it independently
with numpy: loss terms, the monotone objective trace, Macro F1 and topic
coherence. Each returns ``(name, ok, detail)``; the benchmark counts every
check as one operation and a mismatch as a failed one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def load_corpus_file(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Matrix, vocabulary and document ids of a corpus file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        x = np.loadtxt(fh, delimiter=",", ndmin=2)
    if x.shape != (header["rows"], header["cols"]):
        raise ValueError(f"{path}: matrix is {x.shape}, header says "
                         f"{header['rows']}x{header['cols']}")
    return x, header["vocab"], header["doc_ids"]


def _factor(res: Path, name: str):
    path = res / f"{name}.csv"
    return np.loadtxt(path, delimiter=",", ndmin=2) if path.is_file() else None


def _labels(path, doc_ids) -> np.ndarray:
    sets = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            doc_id, _, classes = line.strip().partition(",")
            sets[doc_id] = {c for c in classes.split(";") if c}
    names = sorted(set().union(*sets.values()))
    z = np.zeros((len(names), len(doc_ids)))
    for j, doc_id in enumerate(doc_ids):
        for c in sets[doc_id]:
            z[names.index(c), j] = 1.0
    return z


def _mask(path) -> tuple[np.ndarray, list[int]]:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    l = np.zeros((obj["n_classes"], obj["n_docs"]))
    l[:, obj["train_ids"]] = 1.0
    return l, obj["test_ids"]


def _seed_matrix(path, vocab, stem) -> np.ndarray:
    index = {t: i for i, t in enumerate(vocab)}
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#") and stem(word) in index:
            rows.append(index[stem(word)])
    y = np.zeros((len(vocab), len(rows)))
    y[rows, range(len(rows))] = 1.0
    return y


def check_losses(res: Path, corpus, seeds_path, labels_path, stem):
    """The manifest's final loss terms equal a recomputation from the files."""
    x, vocab, doc_ids = corpus
    manifest = json.loads((res / "manifest.json").read_text(encoding="utf-8"))
    lam, mu = manifest["config"]["lam"], manifest["config"]["mu"]
    w, h, b, c = (_factor(res, n) for n in "whbc")
    recon = 0.5 * float(np.sum(np.square(x - w @ h)))
    guide = label = 0.0
    if b is not None:
        y = _seed_matrix(seeds_path, vocab, stem)
        guide = 0.5 * lam * float(np.sum(np.square(y - w @ b)))
    if c is not None:
        l, _ = _mask(res / "mask.json")
        z = _labels(labels_path, doc_ids)
        label = 0.5 * mu * float(np.sum(np.square(l * (z - c @ h))))
    want = manifest["final_losses"]
    got = {"reconstruction": recon, "guiding": guide, "label": label,
           "total": recon + guide + label}
    bad = [k for k in got if not _close(got[k], want[k])]
    return "losses_match_factors", not bad, f"mismatch in {bad}" if bad else ""


def check_trace(res: Path):
    """trace.csv is non-increasing (slack 1e-9) and ends at the manifest total."""
    data = np.loadtxt(res / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    total = data[:, 1]
    rises = np.nonzero(np.diff(total) > total[:-1] * 1e-9)[0]
    manifest = json.loads((res / "manifest.json").read_text(encoding="utf-8"))
    ok = rises.size == 0 and _close(total[-1], manifest["final_losses"]["total"])
    detail = f"rises at iterations {(rises + 2).tolist()[:5]}" if rises.size else ""
    return "trace_monotone", ok, detail


def check_macro_f1(res: Path, labels_path, doc_ids, report_path):
    """The classify report's Macro F1 equals a recomputation from C, H and the mask."""
    c, h = _factor(res, "c"), _factor(res, "h")
    _, test = _mask(res / "mask.json")
    truth = _labels(labels_path, doc_ids)[:, test]
    scores = (c @ h)[:, test]
    pred = np.zeros_like(truth)
    for col, count in enumerate(truth.sum(axis=0).astype(int)):
        pred[np.argsort(-scores[:, col], kind="stable")[:count], col] = 1.0
    tp = np.sum((pred == 1) & (truth == 1), axis=1)
    fp = np.sum((pred == 1) & (truth == 0), axis=1)
    fn = np.sum((pred == 0) & (truth == 1), axis=1)
    denom = 2 * tp + fp + fn
    f1 = [2 * t / q if q else 0.0 for t, q in zip(tp.tolist(), denom.tolist())]
    want = json.loads(Path(report_path).read_text(encoding="utf-8"))["macro_f1"]
    got = sum(f1) / len(f1)
    return "macro_f1_matches", _close(got, want), f"{got!r} vs reported {want!r}"


def topic_coherence(w: np.ndarray, vocab, present: np.ndarray, n_top: int):
    """Top keywords and UMass-style coherence of every topic, from the definition.

    ``present`` is the boolean terms-by-docs incidence matrix.
    """
    df = present.sum(axis=1)
    topics, scores = [], []
    for t in range(w.shape[1]):
        order = sorted(range(w.shape[0]), key=lambda i: (-w[i, t], vocab[i]))[:n_top]
        score = 0.0
        for bpos in range(1, len(order)):
            row_b = present[order[bpos]]
            for lpos in range(bpos):
                co = int(np.count_nonzero(row_b & present[order[lpos]]))
                score += math.log((co + 1) / int(df[order[lpos]]))
        topics.append([vocab[i] for i in order])
        scores.append(score)
    return topics, scores


def check_coherence(res: Path, corpus, report_path, n_top: int):
    """The coherence report equals a brute-force recomputation from W and X."""
    x, vocab, _ = corpus
    topics, scores = topic_coherence(_factor(res, "w"), vocab, x != 0, n_top)
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    ok = (report["topics"] == topics
          and all(_close(a, b) for a, b in zip(scores, report["per_topic_coherence"]))
          and _close(sum(scores) / len(scores), report["avg_coherence"]))
    return "coherence_matches", ok, "" if ok else "topics or scores differ"


def sweep_rows(path) -> list[tuple]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            rank, lam, mu, trial, value = line.strip().split(",")
            rows.append((int(rank), float(lam), float(mu), int(trial), value))
    return rows


def check_sweep_cell(sweep_csv, cell: tuple, value: float):
    """One sweep row equals the in-process re-evaluation of its cell."""
    want = {r[:4]: r[4] for r in sweep_rows(sweep_csv)}.get(cell)
    ok = want is not None and want == repr(value)
    return "sweep_cell_matches", ok, f"cell {cell}: {repr(value)} vs row {want}"
