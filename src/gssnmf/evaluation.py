"""Classification and topic-quality scoring.

Classification: reconstructed label columns are thresholded by the true
per-document label count (an oracle quantity, so it is an explicit
argument), then scored with Macro F1, the unweighted mean of per-class F1.

Topic quality: the coherence of a keyword list sums, over ordered keyword
pairs, the log of (co-document count + 1) over the earlier keyword's
document count (UMass coherence). Counts are raw document counts, not
probabilities, and the log is natural. One scoring core,
``incidence_coherence``, serves both entry points: it takes the keyword
rows D of a boolean term x document incidence, reads the document counts
as the row sums of D and the co-document counts as ``D D^T`` (exact
integers, so the score equals the pair-by-pair count bit for bit), then
sums the ordered log pairs. Callers scoring many topics build the
incidence once per corpus (``X != 0``), so the documents are scanned
once; ``coherence`` builds its own from a keyword frozenset per document.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .linalg import Matrix, as_matrix, write_file


def threshold_predictions(scores: Matrix, true_counts) -> Matrix:
    """Binarize score columns by keeping each column's top entries.

    Column ``i`` gets exactly ``true_counts[i]`` ones, placed at its
    largest entries; ties go to the lower row index.
    """
    scores = as_matrix(scores)
    p, m = scores.shape
    counts = np.array([int(j) for j in true_counts])
    if len(counts) != m:
        raise ValueError(f"got {len(counts)} counts for {m} columns")
    bad = np.flatnonzero((counts < 1) | (counts > p))
    if bad.size:
        i = bad[0]
        raise ValueError(f"label count {counts[i]} for column {i} out of range 1..{p}")
    order = np.argsort(-scores, axis=0, kind="stable")  # ties keep row order
    out = np.zeros_like(scores)
    out[order, np.arange(m)] = np.arange(p)[:, None] < counts
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
    tp = np.sum((pred == 1) & (truth == 1), axis=1)
    denom = 2 * tp + np.sum(pred != truth, axis=1)  # fp + fn on binary rows
    per_class = np.divide(2 * tp, denom, out=np.zeros(len(tp)), where=denom > 0).tolist()
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
    index = {w: i for i, w in enumerate(dict.fromkeys(keywords))}
    wanted = frozenset(index)
    hits = [wanted.intersection(doc) for doc in docs]
    present = np.array([[w in hit for hit in hits] for w in index], dtype=bool)
    return incidence_coherence(keywords, present, index)


def incidence_coherence(topic_keywords: list[str], present, term_index) -> float:
    """``coherence`` read from a boolean term x document incidence matrix.

    ``present[t, j]`` is true when term ``t`` occurs in document ``j``
    (``X != 0`` for a corpus matrix X) and ``term_index`` maps each keyword
    to its row. Only the keywords' rows are read, so one matrix serves
    every topic. This is the scoring core that ``coherence`` also runs.
    Counts are formed in float64, where 0/1 sums are exact integers, so
    every ratio, and so every log term, is the pair-by-pair count's.
    """
    keywords = list(topic_keywords)
    if len(keywords) < 2:
        raise ValueError(f"need at least 2 keywords, got {len(keywords)}")
    index = {w: i for i, w in enumerate(dict.fromkeys(keywords))}
    try:
        inc = present[[term_index[w] for w in index]].astype(np.float64)
    except KeyError as exc:
        raise ValueError(f"keyword {exc} is not a vocabulary term") from None
    pos = [index[w] for w in keywords]
    df = inc.sum(axis=1)[pos]
    for w, count in zip(keywords, df.tolist()):
        if count == 0:
            raise ValueError(f"keyword '{w}' appears in no document")
    # ratios[b, l] for keyword positions b, l; the strict lower triangle
    # yields the pairs l < b row by row, the order the score sums them in.
    ratios = ((inc @ inc.T)[np.ix_(pos, pos)] + 1) / df
    score = 0.0
    for ratio in ratios[np.tri(len(pos), k=-1, dtype=bool)].tolist():
        score += math.log(ratio)
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


def save_report(report: EvalReport, path) -> None:
    with write_file(path) as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")


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
