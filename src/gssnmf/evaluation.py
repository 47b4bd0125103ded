"""Classification and topic-quality scoring.

Classification: reconstructed label columns are thresholded by the true
per-document label count (an oracle quantity, so it is an explicit
argument), then scored with Macro F1, the unweighted mean of per-class F1.

Topic quality: the coherence of a keyword list sums, over ordered keyword
pairs, the log of (co-document count + 1) over the earlier keyword's
document count (UMass coherence). Counts are raw document counts, not
probabilities, and the log is natural. They come from one 0/1 keyword x
document incidence matrix D: the document counts are its row sums and the
co-document counts are ``D D^T``, both exact integers, so the score equals
the pair-by-pair count bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, as_matrix


def threshold_predictions(scores: Matrix, true_counts) -> Matrix:
    """Binarize score columns by keeping each column's top entries.

    Column ``i`` gets exactly ``true_counts[i]`` ones, placed at its
    largest entries; ties go to the lower row index.
    """
    scores = as_matrix(scores)
    p, m = scores.shape
    counts = [int(j) for j in true_counts]
    if len(counts) != m:
        raise ValueError(f"got {len(counts)} counts for {m} columns")
    out = np.zeros_like(scores)
    for i, j in enumerate(counts):
        if not 1 <= j <= p:
            raise ValueError(
                f"label count {j} for column {i} out of range 1..{p}"
            )
        # Stable sort of negated scores: equal values keep row order.
        order = np.argsort(-scores[:, i], kind="stable")
        out[order[:j], i] = 1.0
    return out


def _check_binary(name: str, a: Matrix):
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError(f"{name} must be binary (entries 0 or 1)")


def macro_f1(pred: Matrix, truth: Matrix) -> tuple[float, list[float]]:
    """Unweighted mean of per-class F1 over the rows of two binary matrices.

    A class with an empty F1 denominator (no true and no predicted
    positives) scores 0 and still counts toward the mean.
    """
    pred, truth = as_matrix(pred), as_matrix(truth)
    if pred.shape != truth.shape:
        raise ValueError(
            f"macro_f1: shapes differ, {pred.shape[0]}x{pred.shape[1]} vs "
            f"{truth.shape[0]}x{truth.shape[1]}"
        )
    _check_binary("pred", pred)
    _check_binary("truth", truth)
    per_class: list[float] = []
    for i in range(pred.shape[0]):
        tp = float(np.sum((pred[i] == 1) & (truth[i] == 1)))
        fp = float(np.sum((pred[i] == 1) & (truth[i] == 0)))
        fn = float(np.sum((pred[i] == 0) & (truth[i] == 1)))
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom > 0 else 0.0)
    return sum(per_class) / len(per_class), per_class


def coherence(topic_keywords: list[str], docs) -> float:
    """Pairwise co-occurrence score of a keyword list over tokenized docs.

    ``docs`` is an iterable of token collections, consumed once; only
    document membership matters. For keywords ``w_1 .. w_N`` in
    descending topic weight the score is

        sum over b in 2..N, l in 1..b-1 of
            ln((count(docs with w_b and w_l) + 1) / count(docs with w_l))

    Every keyword must appear in at least one document.
    """
    keywords = list(topic_keywords)
    if len(keywords) < 2:
        raise ValueError(f"need at least 2 keywords, got {len(keywords)}")
    index = {w: i for i, w in enumerate(dict.fromkeys(keywords))}
    wanted = frozenset(index)
    hits = [[index[w] for w in wanted.intersection(doc)] for doc in docs]
    inc = np.zeros((len(index), len(hits)), dtype=np.int64)
    rows = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp)
    cols = np.repeat(np.arange(len(hits)), [len(h) for h in hits])
    inc[rows, cols] = 1
    df = inc.sum(axis=1).tolist()
    pos = [index[w] for w in keywords]
    for w, i in zip(keywords, pos):
        if df[i] == 0:
            raise ValueError(f"keyword '{w}' appears in no document")
    co = (inc @ inc.T).tolist()
    score = 0.0
    for bpos in range(1, len(pos)):
        co_b = co[pos[bpos]]
        for lpos in range(bpos):
            a = pos[lpos]
            score += math.log((co_b[a] + 1) / df[a])
    return score


def avg_coherence(per_topic) -> float:
    """Arithmetic mean of per-topic coherence scores."""
    values = [float(v) for v in per_topic]
    if not values:
        raise ValueError("cannot average an empty list of coherence scores")
    return sum(values) / len(values)


@dataclass
class EvalReport:
    """Scores from a classification and/or coherence evaluation.

    Classification runs fill ``macro_f1`` and ``per_class_f1``; coherence
    runs fill ``per_topic_coherence``, ``avg_coherence``, and ``topics``.
    """

    macro_f1: float | None = None
    per_class_f1: list[float] | None = None
    label_names: list[str] | None = None
    per_topic_coherence: list[float] | None = None
    avg_coherence: float | None = None
    topics: list[list[str]] | None = None

    def __post_init__(self):
        if self.per_class_f1 is not None:
            mean = sum(self.per_class_f1) / len(self.per_class_f1)
            if self.macro_f1 is None or abs(self.macro_f1 - mean) > 1e-12:
                raise ValueError("macro_f1 is not the mean of per_class_f1")
        if self.per_topic_coherence is not None:
            mean = sum(self.per_topic_coherence) / len(self.per_topic_coherence)
            if self.avg_coherence is None or abs(self.avg_coherence - mean) > 1e-12:
                raise ValueError(
                    "avg_coherence is not the mean of per_topic_coherence"
                )

    def to_dict(self) -> dict:
        return {
            "macro_f1": self.macro_f1,
            "per_class_f1": self.per_class_f1,
            "label_names": self.label_names,
            "per_topic_coherence": self.per_topic_coherence,
            "avg_coherence": self.avg_coherence,
            "topics": self.topics,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        return cls(
            macro_f1=obj.get("macro_f1"),
            per_class_f1=obj.get("per_class_f1"),
            label_names=obj.get("label_names"),
            per_topic_coherence=obj.get("per_topic_coherence"),
            avg_coherence=obj.get("avg_coherence"),
            topics=obj.get("topics"),
        )


def save_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def load_report(path) -> EvalReport:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: invalid report: {exc.msg}") from None
    return EvalReport.from_dict(obj)


def topics_table(report: EvalReport) -> str:
    """Plain-text table of topics: keyword columns, per-topic scores, mean."""
    if not report.topics:
        raise ValueError("report carries no topics")
    topics = report.topics
    k = len(topics)
    depth = max(len(t) for t in topics)
    rows = [[f"Topic {i + 1}" for i in range(k)]]
    for r in range(depth):
        rows.append([t[r] if r < len(t) else "" for t in topics])
    widths = [max(len(row[i]) for row in rows) for i in range(k)]
    lines = ["  ".join(row[i].ljust(widths[i]) for i in range(k)).rstrip()
             for row in rows]
    if report.per_topic_coherence is not None:
        lines.append("Coherence per topic:")
        lines.append(
            "  ".join(
                f"{v:.3f}".ljust(widths[i]) if i < k else ""
                for i, v in enumerate(report.per_topic_coherence)
            ).rstrip()
        )
        lines.append(f"Averaged coherence: {report.avg_coherence:.3f}")
    return "\n".join(lines) + "\n"
