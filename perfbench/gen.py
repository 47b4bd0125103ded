"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and a size, so the
same seed writes byte-identical files. The program under test only ever
sees the files written by ``write_text_inputs`` and ``write_matrix_inputs``.

Two kinds of input:

* Text corpora: inflected forms of synthetic word bases, so the stemmer
  does real work; Zipf-distributed background words; per-class word pools
  where class pairs share a confusable pool; skewed class priors,
  multi-label documents and label noise, so Macro F1 stays well below 1.
* Direct corpus matrices: a planted class structure drawn straight into a
  sparse non-negative terms-by-documents matrix with unit-norm columns, for
  workloads that skip the text pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Suffixes that the Porter stemmer strips or rewrites; each base gets a few.
_SUFFIXES = [
    "", "s", "ed", "ing", "er", "ers", "ness", "ful", "ation", "ational",
    "ize", "izing", "ly", "ment", "ments", "ive", "ity", "ous", "ence",
]
# Words on the shipped stopword list, mixed in so the stopword filter works.
_STOPWORDS = [
    "the", "and", "of", "to", "in", "is", "that", "for", "it", "with", "as",
    "was", "on", "be", "at", "by", "this", "had", "not", "are", "but", "from",
]
_CONS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class TextSize:
    n_docs: int
    doc_len: int  # mean tokens per document, stopwords included
    n_classes: int
    exclusive_bases: int  # per class
    shared_bases: int  # per confusable class pair
    background_bases: int
    forms_per_base: int


@dataclass(frozen=True)
class MatrixSize:
    n_terms: int
    n_docs: int
    density: float
    n_classes: int


def _bases(rng, count: int) -> list[str]:
    """Distinct pronounceable word bases of 5 to 7 letters."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        n_syll = int(rng.integers(2, 4))
        word = "".join(
            _CONS[int(rng.integers(len(_CONS)))] + _VOWELS[int(rng.integers(5))]
            for _ in range(n_syll)
        ) + _CONS[int(rng.integers(len(_CONS)))]
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _zipf(count: int, rng, exponent: float = 1.07) -> np.ndarray:
    weights = 1.0 / (np.arange(count) + 2.7) ** exponent
    rng.shuffle(weights)
    return weights / weights.sum()


def _class_sets(rng, n_docs: int, n_classes: int) -> list[list[int]]:
    """Skewed primary classes in fixed proportions; 30% get a second class.

    Class sizes are fixed by the size alone, so only which document gets
    which class depends on the seed.
    """
    prior = np.array([1.0 / (c + 1.5) for c in range(n_classes)])
    counts = np.floor(prior / prior.sum() * n_docs).astype(int)
    counts[: n_docs - counts.sum()] += 1
    firsts = rng.permutation(np.repeat(np.arange(n_classes), counts))
    seconds = rng.integers(0, n_classes - 1, size=n_docs)
    multi = np.zeros(n_docs, dtype=bool)
    multi[rng.permutation(n_docs)[: round(0.3 * n_docs)]] = True
    out = []
    for first, second, two in zip(firsts, seconds, multi):
        classes = [int(first)]
        if two:
            other = int(second) + (1 if second >= first else 0)
            classes.append(other)
        out.append(sorted(classes))
    return out


def _noisy_labels(rng, classes: list[list[int]], n_classes: int, noise: float):
    """Recorded label sets: a fixed ``noise`` share swaps one true class."""
    noisy = set(rng.permutation(len(classes))[: round(noise * len(classes))].tolist())
    out = []
    for j, cls in enumerate(classes):
        recorded = set(cls)
        if j in noisy:
            recorded.discard(cls[int(rng.integers(len(cls)))])
            recorded.add(int(rng.integers(n_classes)))
        out.append(sorted(recorded))
    return out


def _write_labels(path: Path, doc_ids, label_sets) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, labels in zip(doc_ids, label_sets):
            fh.write(f"{doc_id},{';'.join(f'class{c}' for c in labels)}\n")


def write_text_inputs(out: Path, seed: int, size: TextSize) -> None:
    """Write ``docs/*.txt``, ``labels.csv`` and ``seeds.txt`` under ``out``."""
    rng = np.random.default_rng([seed, 1])
    k = size.n_classes
    n_pairs = k // 2
    total = (k * size.exclusive_bases + n_pairs * size.shared_bases
             + size.background_bases)
    bases = _bases(rng, total)
    forms = []
    for base in bases:
        picks = rng.choice(len(_SUFFIXES), size=size.forms_per_base, replace=False)
        forms.append([base + _SUFFIXES[int(i)] for i in picks])
    cut = 0
    exclusive = []
    for _ in range(k):
        exclusive.append(list(range(cut, cut + size.exclusive_bases)))
        cut += size.exclusive_bases
    shared = []
    for _ in range(n_pairs):
        shared.append(list(range(cut, cut + size.shared_bases)))
        cut += size.shared_bases
    background = list(range(cut, total))
    pool_p = [_zipf(size.exclusive_bases, rng) for _ in range(k)]
    shared_p = [_zipf(size.shared_bases, rng) for _ in range(n_pairs)]
    back_p = _zipf(len(background), rng)
    form_p = _zipf(size.forms_per_base, rng, exponent=0.6)

    classes = _class_sets(rng, size.n_docs, k)
    recorded = _noisy_labels(rng, classes, k, noise=0.12)
    docs_dir = out / "docs"
    docs_dir.mkdir(parents=True)
    doc_ids = []
    for j, cls in enumerate(classes):
        length = int(size.doc_len * (0.6 + 0.8 * rng.random()))
        kind = rng.random(length)
        c = np.asarray(cls)[rng.integers(0, len(cls), size=length)]
        confuse = (c < 2 * n_pairs) & (rng.random(length) < 0.45)
        form = rng.choice(size.forms_per_base, size=length, p=form_p)
        stop = rng.integers(0, len(_STOPWORDS), size=length)
        back = rng.choice(len(background), size=length, p=back_p)
        own = {cc: rng.choice(size.exclusive_bases, size=length, p=pool_p[cc])
               for cc in cls}
        pair = {cc // 2: rng.choice(size.shared_bases, size=length,
                                    p=shared_p[cc // 2])
                for cc in cls if cc < 2 * n_pairs}
        words = []
        for t in range(length):
            if kind[t] < 0.25:
                words.append(_STOPWORDS[stop[t]])
                continue
            if kind[t] < 0.55:
                ct = int(c[t])
                if confuse[t]:
                    base = shared[ct // 2][pair[ct // 2][t]]
                else:
                    base = exclusive[ct][own[ct][t]]
            else:
                base = background[back[t]]
            words.append(forms[base][form[t]])
        doc_id = f"d{j:05d}.txt"
        lines = [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)]
        (docs_dir / doc_id).write_text(".\n".join(lines) + ".\n", encoding="utf-8")
        doc_ids.append(doc_id)

    _write_labels(out / "labels.csv", doc_ids, recorded)
    with open(out / "seeds.txt", "w", encoding="utf-8") as fh:
        for c in range(k):
            top = np.argsort(-pool_p[c], kind="stable")[:3]
            for i in top:
                fh.write(forms[exclusive[c][int(i)]][0] + "\n")


def _term_names(count: int) -> list[str]:
    """Distinct lowercase terms ending in 'x', which Porter leaves unchanged."""
    letters = "abcdefghijklmnopqrstuvwyz"
    out = []
    for i in range(count):
        chars = []
        v = i
        for _ in range(3):
            chars.append(letters[v % len(letters)])
            v //= len(letters)
        out.append("t" + "".join(reversed(chars)) + "x")
    return out


def make_matrix(seed: int, size: MatrixSize):
    """Planted sparse terms-by-docs matrix with unit-norm columns.

    Returns ``(x, terms, doc_ids, label_sets, seed_terms)``.
    """
    rng = np.random.default_rng([seed, 2])
    d, n, k = size.n_terms, size.n_docs, size.n_classes
    # Equal pools per class and 40% background terms (owner -1), each with
    # the same Zipf weight profile; only which term gets which weight
    # depends on the seed, so the quality figures vary little between seeds.
    n_back = int(0.4 * d)
    owner = rng.permutation(np.concatenate([np.full(n_back, -1),
                                            np.arange(d - n_back) % k]))
    base = np.empty(d)
    for group in range(-1, k):
        members = np.nonzero(owner == group)[0]
        base[members] = 1.0 / (np.arange(members.size) + 2.7) ** 1.07
    classes = _class_sets(rng, n, k)
    per_doc = max(2, int(round(size.density * d)))
    x = np.zeros((d, n))
    class_p = []
    for c in range(k):
        p = base * np.where(owner == c, 40.0, 1.0)
        p = np.where((owner >= 0) & (owner != c) & (owner // 2 == c // 2),
                     p * 12.0, p)
        class_p.append(p / p.sum())
    for j, cls in enumerate(classes):
        p = sum(class_p[c] for c in cls) / len(cls)
        rows = rng.choice(d, size=per_doc, replace=False, p=p)
        x[rows, j] = rng.integers(1, 6, size=per_doc) * (1.0 + rng.random(per_doc))
    empty = np.nonzero(~x.any(axis=1))[0]
    x[empty, rng.integers(0, n, size=empty.size)] = 1.0
    x /= np.sqrt(np.sum(x * x, axis=0))
    terms = _term_names(d)
    doc_ids = [f"d{j:06d}" for j in range(n)]
    labels = _noisy_labels(rng, classes, k, noise=0.12)
    seed_terms = []
    for c in range(k):
        members = np.nonzero(owner == c)[0]
        top = members[np.argsort(-base[members], kind="stable")[:3]]
        seed_terms.extend(terms[int(i)] for i in top)
    return x, terms, doc_ids, labels, seed_terms


def write_matrix_inputs(out: Path, seed: int, size: MatrixSize) -> None:
    """Write ``corpus.txt``, ``labels.csv`` and ``seeds.txt`` under ``out``.

    The corpus file is written by the program's own ``save_corpus``, as
    ``ingest`` would write it, so ``gssnmf`` must be importable.
    """
    from gssnmf.textpipe import CorpusMatrix, Vocabulary, save_corpus

    x, terms, doc_ids, labels, seed_terms = make_matrix(seed, size)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(CorpusMatrix(x, Vocabulary(terms), doc_ids, None), out / "corpus.txt")
    _write_labels(out / "labels.csv", doc_ids, labels)
    (out / "seeds.txt").write_text("\n".join(seed_terms) + "\n", encoding="utf-8")
