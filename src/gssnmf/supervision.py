"""Seed, label, and mask construction plus random train/test splits.

The seed matrix pins user-chosen words to vocabulary rows, the label
matrix binary-encodes per-document class sets, and the mask matrix zeroes
the label term on held-out columns so supervision only acts on training
documents.

Each wrapper type's constructor converts its array with ``as_matrix``
(finite, 2-D, C-order float64), so the solver takes it as it is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import Matrix, as_matrix, open_text, read_entries, read_json, write_file
from .stemmer import porter_stem
from .textpipe import Vocabulary, tokenize


@dataclass
class SeedMatrix:
    """Binary terms-by-seeds matrix; one unit column per matched seed word.

    ``seed_words`` holds the stemmed form matched in the vocabulary, one
    entry per column. ``dropped`` records stems that were requested but do
    not occur in the vocabulary.
    """

    y: Matrix
    seed_words: list[str]
    dropped: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.y = as_matrix(self.y)


@dataclass
class LabelMatrix:
    """Binary classes-by-documents matrix with sorted class names."""

    z: Matrix
    label_names: list[str]

    def __post_init__(self):
        self.z = as_matrix(self.z)


@dataclass
class MaskMatrix:
    """All-ones columns on training documents, all-zeros on test documents."""

    l: Matrix
    train_ids: list[int]
    test_ids: list[int]

    def __post_init__(self):
        self.l = as_matrix(self.l)


def build_seed_matrix(seed_words: list[str], vocab: Vocabulary) -> SeedMatrix:
    """One unit column per seed word found in the vocabulary.

    Each entry is tokenized and stemmed with the corpus stemmer before
    lookup, so multi-word entries contribute one column per constituent
    word that the vocabulary contains. Missing words are collected in
    ``dropped`` rather than raising, unless nothing at all matches.
    """
    matched: list[str] = []
    columns: list[int] = []
    dropped: list[str] = []
    for entry in seed_words:
        for token in tokenize(entry):
            stemmed = porter_stem(token)
            if stemmed in vocab:
                matched.append(stemmed)
                columns.append(vocab.index(stemmed))
            else:
                dropped.append(stemmed)
    if not matched:
        raise ValueError("no seed word in vocabulary")
    y = np.zeros((len(vocab), len(matched)))
    for col, row in enumerate(columns):
        y[row, col] = 1.0
    return SeedMatrix(y, matched, dropped)


def build_label_matrix(assignments: dict, doc_ids: list[str]) -> LabelMatrix:
    """Binary class-by-document encoding in corpus document order.

    ``assignments`` maps every document id to its non-empty set of class
    names; the class universe is their sorted union.
    """
    unknown = sorted(set(assignments) - set(doc_ids))
    if unknown:
        raise ValueError(f"unknown document id '{unknown[0]}' in label assignments")
    classes: set[str] = set()
    for doc_id in doc_ids:
        if doc_id not in assignments:
            raise ValueError(f"document '{doc_id}' has no label assignment")
        labels = set(assignments[doc_id])
        if not labels:
            raise ValueError(f"document '{doc_id}' has an empty class set")
        classes.update(labels)
    label_names = sorted(classes)
    row = {name: i for i, name in enumerate(label_names)}
    z = np.zeros((len(label_names), len(doc_ids)))
    for j, doc_id in enumerate(doc_ids):
        for name in assignments[doc_id]:
            z[row[name], j] = 1.0
    return LabelMatrix(z, label_names)


def split_mask(
    n_docs: int, train_fraction: float, rng_seed: int, n_classes: int
) -> MaskMatrix:
    """Uniform random train/test split over ``n_docs`` columns.

    The training set has ``ceil(train_fraction * n_docs)`` columns, capped
    at ``n_docs - 1`` so a test set always exists. Deterministic given
    ``rng_seed``.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if n_docs < 2:
        raise ValueError(f"need at least 2 documents to split, got {n_docs}")
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    # round() guards the ceiling against float dust in the product
    # (e.g. fraction * n landing a hair above an exact integer).
    n_train = min(math.ceil(round(train_fraction * n_docs, 9)), n_docs - 1)
    perm = np.random.default_rng(rng_seed).permutation(n_docs).tolist()
    return _mask_matrix(n_classes, perm[:n_train], perm[n_train:])


def _mask_matrix(n_classes: int, train_ids, test_ids) -> MaskMatrix:
    """The mask of a split; the train and test ids partition its columns."""
    train_ids, test_ids = sorted(train_ids), sorted(test_ids)
    l = np.zeros((n_classes, len(train_ids) + len(test_ids)))
    l[:, train_ids] = 1.0
    return MaskMatrix(l, train_ids, test_ids)


# ---------------------------------------------------------------------------
# File formats: label assignments CSV, seed word list, mask JSON.
# ---------------------------------------------------------------------------

def load_label_assignments(path) -> dict:
    """Parse a ``doc_id,class1;class2;...`` CSV into an assignments dict."""
    assignments: dict[str, set[str]] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "," not in line:
                raise ValueError(f"{path}:{lineno}: expected 'doc_id,classes' row")
            doc_id, _, classes_field = line.partition(",")
            doc_id = doc_id.strip()
            classes = {c.strip() for c in classes_field.split(";") if c.strip()}
            if not doc_id or not classes:
                raise ValueError(f"{path}:{lineno}: missing document id or classes")
            if doc_id in assignments:
                raise ValueError(f"{path}:{lineno}: duplicate document id '{doc_id}'")
            assignments[doc_id] = classes
    if not assignments:
        raise ValueError(f"{path}: no label assignments found")
    return assignments


def load_seed_words(path) -> list[str]:
    """Read a seed word file: one word or phrase per line, '#' comments."""
    with open_text(path) as fh:
        words = read_entries(fh)
    if not words:
        raise ValueError(f"{path}: no seed words found")
    return words


def save_mask(mask: MaskMatrix, path) -> None:
    obj = {
        "n_classes": int(mask.l.shape[0]),
        "n_docs": int(mask.l.shape[1]),
        "train_ids": mask.train_ids,
        "test_ids": mask.test_ids,
    }
    with write_file(path) as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def load_mask(path, n_classes: int, n_docs: int) -> MaskMatrix:
    """Read a mask file for ``n_classes`` x ``n_docs`` labels.

    Its shape and its ids are checked before the mask is allocated.
    """
    obj = read_json(path, "mask file")
    try:
        shape = (int(obj["n_classes"]), int(obj["n_docs"]))
        train_ids = [int(i) for i in obj["train_ids"]]
        test_ids = [int(i) for i in obj["test_ids"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed mask file: {exc}") from None
    if shape != (n_classes, n_docs):
        raise ValueError(
            f"{path}: mask is {shape[0]}x{shape[1]} but the labels are "
            f"{n_classes}x{n_docs}"
        )
    if sorted(train_ids + test_ids) != list(range(n_docs)):
        raise ValueError(f"{path}: train and test ids do not partition 0..{n_docs - 1}")
    return _mask_matrix(n_classes, train_ids, test_ids)
