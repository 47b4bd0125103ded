"""Raw text to weighted term-document matrix.

Pipeline stages, in order: tokenize, stopword filter (on raw tokens),
stem, document-frequency filter, vocabulary cap, tf-idf weighting with
smoothed idf, unit-norm columns. The resulting matrix is terms by
documents with column order fixed by the caller's document order.
``CorpusMatrix`` checks its own matrix (finite, non-negative, no empty
term row), whether it was built, loaded or wrapped by a caller.

Corpus file layout (UTF-8 text): line 1 is a JSON header
``{"format": "gssnmf-corpus", "version": 1, "rows": d, "cols": n,
"doc_ids": [...], "vocab": [...], "params": {...} | null}`` and the next
``d`` lines are comma-separated matrix rows printed with 17 significant
digits, so a save/load round trip is value-exact.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .linalg import (
    Matrix,
    as_matrix,
    open_text,
    read_entries,
    read_rows,
    write_file,
    write_rows,
)
from .stemmer import porter_stem

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class CorpusFormatError(ValueError):
    """Raised when a corpus file cannot be parsed; message carries file and line."""


def tokenize(raw: str) -> list[str]:
    """Lowercase alphabetic tokens of ``raw``.

    Splits on any non-alphanumeric boundary, then drops every token that
    contains a digit, so "The Court, in 1999, ruled." yields
    ["the", "court", "in", "ruled"].
    """
    return [t for t in _TOKEN_RE.findall(raw.lower()) if t.isalpha()]


def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package."""
    text = resources.files("gssnmf").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(read_entries(text.splitlines()))


def load_stopwords(path) -> frozenset[str]:
    """Read a stopword file: one token per line, '#' lines are comments."""
    with open_text(path) as fh:
        return frozenset(read_entries(fh))


@dataclass
class Vocabulary:
    """Ordered stemmed terms and their row positions."""

    terms: list[str]
    term_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("vocabulary must contain at least one term")
        for t in self.terms:
            if not t or not t.isalpha() or t != t.lower():
                raise ValueError(f"invalid vocabulary term {t!r}")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("vocabulary terms must be unique")
        if not self.term_index:
            self.term_index = {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.term_index

    def index(self, term: str) -> int:
        return self.term_index[term]


@dataclass
class PipelineParams:
    """Document-frequency filters, vocabulary cap, and stopword list.

    ``max_df`` and ``min_df`` are fractions of the corpus size; terms with
    df strictly above ``max_df * n`` or strictly below ``min_df * n`` are
    dropped. ``min_df = 0`` and ``max_features = None`` switch the
    respective filters off. ``stopwords = None`` selects the shipped list.
    """

    max_df: float = 1.0
    min_df: float = 0.0
    max_features: int | None = None
    stopwords: frozenset[str] | None = None

    def __post_init__(self):
        if not 0.0 < self.max_df <= 1.0:
            raise ValueError(f"max_df must be in (0, 1], got {self.max_df}")
        if not 0.0 <= self.min_df <= 1.0:
            raise ValueError(f"min_df must be in [0, 1], got {self.min_df}")
        if self.min_df > self.max_df:
            raise ValueError(
                f"min_df ({self.min_df}) must not exceed max_df ({self.max_df})"
            )
        if self.max_features is not None and self.max_features < 1:
            raise ValueError(f"max_features must be >= 1, got {self.max_features}")
        if self.stopwords is None:
            self.stopwords = default_stopwords()
        else:
            self.stopwords = frozenset(self.stopwords)


@dataclass
class CorpusMatrix:
    """Terms-by-documents tf-idf matrix with its vocabulary and document ids."""

    x: Matrix
    vocab: Vocabulary
    doc_ids: list[str]
    params: PipelineParams | None = None

    def __post_init__(self):
        self.x = as_matrix(self.x)
        if self.x.shape[0] != len(self.vocab):
            raise ValueError(
                f"matrix has {self.x.shape[0]} rows but vocabulary has "
                f"{len(self.vocab)} terms"
            )
        if self.x.shape[1] != len(self.doc_ids):
            raise ValueError(
                f"matrix has {self.x.shape[1]} columns but {len(self.doc_ids)} "
                "document ids were given"
            )
        if np.any(self.x < 0):
            raise ValueError("corpus matrix entries must be non-negative")
        zero_rows = np.nonzero(~self.x.any(axis=1))[0]
        if zero_rows.size:
            raise ValueError(
                f"term '{self.vocab.terms[zero_rows[0]]}' appears in no document"
            )

    @property
    def n_terms(self) -> int:
        return self.x.shape[0]

    @property
    def n_docs(self) -> int:
        return self.x.shape[1]


def preprocess(text: str, stopwords: frozenset[str]) -> list[str]:
    """Tokenize, drop stopwords (raw tokens), then stem."""
    return [porter_stem(t) for t in tokenize(text) if t not in stopwords]


def build_corpus(docs: list[tuple[str, str]], params: PipelineParams) -> CorpusMatrix:
    """Build the tf-idf corpus matrix from ``(doc_id, text)`` pairs.

    Weighting: raw term count times smoothed idf,
    ``idf(t) = ln((1 + n) / (1 + df(t))) + 1``, then each document column
    is scaled to unit Euclidean norm. Term rows are sorted alphabetically;
    when ``max_features`` trims the vocabulary the highest-total-count
    terms are kept, ties broken lexicographically.
    """
    if len(docs) < 2:
        raise ValueError(f"need at least 2 documents, got {len(docs)}")
    doc_ids = [doc_id for doc_id, _ in docs]
    if len(set(doc_ids)) != len(doc_ids):
        raise ValueError("document ids must be unique")

    token_lists = [preprocess(text, params.stopwords) for _, text in docs]
    n = len(docs)

    df: Counter[str] = Counter()
    totals: Counter[str] = Counter()
    for toks in token_lists:
        df.update(set(toks))
        totals.update(toks)

    kept = [
        t for t in df
        if not (df[t] > params.max_df * n or df[t] < params.min_df * n)
    ]
    if params.max_features is not None and len(kept) > params.max_features:
        kept.sort(key=lambda t: (-totals[t], t))
        kept = kept[: params.max_features]
    terms = sorted(kept)
    if not terms:
        raise ValueError("no terms survive df filters")

    vocab = Vocabulary(terms)
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in terms])

    x = np.zeros((len(terms), n))
    for j, toks in enumerate(token_lists):
        for t, count in Counter(toks).items():
            i = vocab.term_index.get(t)
            if i is not None:
                x[i, j] = count * idf[i]
        norm = math.sqrt(float(np.sum(x[:, j] ** 2)))
        if norm == 0.0:
            raise ValueError(
                f"document '{doc_ids[j]}' has no terms left after filtering"
            )
        x[:, j] /= norm

    return CorpusMatrix(x, vocab, list(doc_ids), params)


def doc_token_sets(corpus: CorpusMatrix) -> list[set[str]]:
    """Per-document sets of retained terms (the nonzero rows of each column)."""
    return [
        {corpus.vocab.terms[i] for i in np.nonzero(corpus.x[:, j])[0]}
        for j in range(corpus.n_docs)
    ]


def read_corpus_dir(root) -> list[tuple[str, str]]:
    """Load every ``.txt`` file under ``root`` (recursively), UTF-8.

    Document ids are file paths relative to ``root``, sorted
    lexicographically; this fixes the matrix column order.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise ValueError(f"corpus directory not found: {root}")
    paths = sorted(rootp.rglob("*.txt"), key=lambda p: p.relative_to(rootp).as_posix())
    return [(p.relative_to(rootp).as_posix(), _read_text(p)) for p in paths]


def _read_text(path) -> str:
    with open_text(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Corpus file I/O
# ---------------------------------------------------------------------------

_FORMAT_NAME = "gssnmf-corpus"


def _params_to_json(params: PipelineParams | None):
    if params is None:
        return None
    return {**asdict(params), "stopwords": sorted(params.stopwords)}


def _params_from_json(obj) -> PipelineParams | None:
    if obj is None:
        return None
    return PipelineParams(
        max_df=obj["max_df"],
        min_df=obj["min_df"],
        max_features=obj["max_features"],
        stopwords=frozenset(obj["stopwords"]),
    )


def save_corpus(corpus: CorpusMatrix, path) -> None:
    header = {
        "format": _FORMAT_NAME,
        "version": 1,
        "rows": corpus.n_terms,
        "cols": corpus.n_docs,
        "doc_ids": corpus.doc_ids,
        "vocab": corpus.vocab.terms,
        "params": _params_to_json(corpus.params),
    }
    with write_file(path) as fh:
        json.dump(header, fh, separators=(",", ":"))
        fh.write("\n")
        write_rows(fh, corpus.x)


def load_corpus(path) -> CorpusMatrix:
    with open_text(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise CorpusFormatError(f"{path}:1: empty corpus file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}:1: invalid header: {exc.msg}") from None
        if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
            raise CorpusFormatError(f"{path}:1: not a corpus file")
        try:
            rows = int(header["rows"])
            cols = int(header["cols"])
            doc_ids = list(header["doc_ids"])
            vocab_terms = list(header["vocab"])
            params = _params_from_json(header.get("params"))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{path}:1: malformed header: {exc}") from None
        # Checked before the matrix is allocated from the declared shape.
        if not (rows == len(vocab_terms) >= 1 and cols == len(doc_ids) >= 1):
            raise CorpusFormatError(
                f"{path}:1: header declares {rows}x{cols} but lists "
                f"{len(vocab_terms)} terms and {len(doc_ids)} documents"
            )

        try:
            data = read_rows(fh, path, cols, rows, first=2)
        except UnicodeDecodeError:  # open_text names the file
            raise
        except ValueError as exc:
            raise CorpusFormatError(exc) from None
    try:
        return CorpusMatrix(data, Vocabulary(vocab_terms), doc_ids, params)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: inconsistent corpus: {exc}") from None
