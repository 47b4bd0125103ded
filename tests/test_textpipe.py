import itertools
import math
import string
import tracemalloc

import numpy as np
import pytest

from gssnmf.textpipe import (
    CorpusFormatError,
    CorpusMatrix,
    PipelineParams,
    Vocabulary,
    build_corpus,
    default_stopwords,
    doc_token_sets,
    load_corpus,
    load_stopwords,
    preprocess,
    read_corpus_dir,
    save_corpus,
    tokenize,
)

NO_FILTER = dict(max_df=1.0, min_df=0.0, max_features=None, stopwords=frozenset())


def test_tokenize_examples():
    assert tokenize("The Court, in 1999, ruled.") == ["the", "court", "in", "ruled"]
    assert tokenize("") == []
    assert tokenize("ABC abc") == ["abc", "abc"]
    # underscores and punctuation split; digit-bearing tokens vanish whole
    assert tokenize("a_b c-d x9y") == ["a", "b", "c", "d"]


def test_default_stopwords_contains_standard_entries():
    stop = default_stopwords()
    for w in ("the", "and", "was", "a", "t", "don"):
        assert w in stop


def test_preprocess_filters_stopwords_before_stemming():
    stop = default_stopwords()
    assert preprocess("was running the robbery", stop) == ["run", "robberi"]


def test_vocabulary_invariants():
    v = Vocabulary(["alpha", "beta"])
    assert len(v) == 2 and "alpha" in v and v.index("beta") == 1
    with pytest.raises(ValueError, match="unique"):
        Vocabulary(["a", "a"])
    with pytest.raises(ValueError, match="invalid"):
        Vocabulary(["ok", "no1"])


def test_pipeline_params_validation():
    with pytest.raises(ValueError, match="max_df"):
        PipelineParams(max_df=0.0)
    with pytest.raises(ValueError, match="exceed"):
        PipelineParams(max_df=0.2, min_df=0.5)
    with pytest.raises(ValueError, match="max_features"):
        PipelineParams(max_features=0)


def test_build_corpus_three_doc_oracle():
    corpus = build_corpus(
        [("d1", "a b"), ("d2", "a c"), ("d3", "a")], PipelineParams(**NO_FILTER)
    )
    assert corpus.vocab.terms == ["a", "b", "c"]
    n = 3
    idf = {t: math.log((1 + n) / (1 + df)) + 1 for t, df in
           (("a", 3), ("b", 1), ("c", 1))}
    assert idf["a"] == 1.0
    col1 = np.array([idf["a"], idf["b"], 0.0])
    col1 /= np.linalg.norm(col1)
    assert corpus.x[:, 0] == pytest.approx(col1, abs=1e-12)
    # quoted 4-decimal values (0.5085, 0.8611) carry display rounding
    assert corpus.x[0, 0] == pytest.approx(0.5085, abs=2e-4)
    assert corpus.x[1, 0] == pytest.approx(0.8611, abs=2e-4)
    assert np.linalg.norm(corpus.x, axis=0) == pytest.approx(np.ones(3), abs=1e-9)


def test_build_corpus_single_term_docs_are_unit_vectors():
    corpus = build_corpus(
        [("d1", "x x x"), ("d2", "x")], PipelineParams(**NO_FILTER)
    )
    assert np.array_equal(corpus.x, [[1.0, 1.0]])


def test_build_corpus_requires_two_docs():
    with pytest.raises(ValueError, match="at least 2"):
        build_corpus([("d1", "a")], PipelineParams(**NO_FILTER))


def test_min_df_one_with_terms_missing_somewhere_errors():
    # no term occurs in every document, so min_df = 1.0 empties the vocabulary
    params = PipelineParams(max_df=1.0, min_df=1.0, stopwords=frozenset())
    with pytest.raises(ValueError, match="no terms survive df filters"):
        build_corpus([("d1", "aa bb"), ("d2", "cc dd")], params)


def test_df_filter_bounds_hold():
    docs = [
        ("d1", "common mid rare"),
        ("d2", "common mid"),
        ("d3", "common mid"),
        ("d4", "common also"),
        ("d5", "common also"),
    ]
    params = PipelineParams(max_df=0.7, min_df=0.3, stopwords=frozenset())
    corpus = build_corpus(docs, params)
    n = 5
    assert "common" not in corpus.vocab  # df 5 > 0.7 * 5
    assert "rare" not in corpus.vocab    # df 1 < 0.3 * 5
    assert corpus.vocab.terms == ["also", "mid"]
    df = {"also": 2, "mid": 3}
    for t in corpus.vocab.terms:
        assert params.min_df * n <= df[t] <= params.max_df * n


def test_document_emptied_by_filtering_errors():
    docs = [("d1", "common solo"), ("d2", "common"), ("d3", "common")]
    params = PipelineParams(max_df=0.5, min_df=0.0, stopwords=frozenset())
    with pytest.raises(ValueError, match="d2"):
        build_corpus(docs, params)


def test_max_features_keeps_top_counts_with_lexicographic_ties():
    docs = [("d1", "zeta zeta alpha"), ("d2", "beta beta alpha")]
    params = PipelineParams(max_features=2, stopwords=frozenset())
    corpus = build_corpus(docs, params)
    # totals: zeta 2, beta 2, alpha 2 -> all tied, keep the two smallest names
    assert corpus.vocab.terms == ["alpha", "beta"]
    params = PipelineParams(max_features=1, stopwords=frozenset())
    docs = [("d1", "zeta zeta zeta alpha"), ("d2", "zeta alpha")]
    corpus = build_corpus(docs, params)
    assert corpus.vocab.terms == ["zeta"]  # higher total wins over name


def test_build_corpus_deterministic():
    docs = [("d1", "gang murder trial"), ("d2", "murder weapon"),
            ("d3", "trial gang gang")]
    params = PipelineParams(stopwords=frozenset())
    a = build_corpus(docs, params)
    b = build_corpus(docs, params)
    assert a.vocab.terms == b.vocab.terms
    assert a.doc_ids == b.doc_ids
    assert np.array_equal(a.x, b.x)


def test_doc_token_sets_tracks_nonzero_rows():
    corpus = build_corpus(
        [("d1", "a b"), ("d2", "a c"), ("d3", "a")], PipelineParams(**NO_FILTER)
    )
    assert doc_token_sets(corpus) == [{"a", "b"}, {"a", "c"}, {"a"}]


def test_read_corpus_dir_sorted_relative_ids(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
    (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
    (tmp_path / "sub" / "c.txt").write_text("gamma", encoding="utf-8")
    (tmp_path / "ignored.md").write_text("nope", encoding="utf-8")
    docs = read_corpus_dir(tmp_path)
    assert [d for d, _ in docs] == ["a.txt", "b.txt", "sub/c.txt"]
    assert docs[0][1] == "alpha"
    with pytest.raises(ValueError, match="not found"):
        read_corpus_dir(tmp_path / "missing")


def test_save_load_round_trip(tmp_path):
    docs = [("d1", "gang murder trial"), ("d2", "murder weapon"),
            ("d3", "trial gang gang")]
    corpus = build_corpus(docs, PipelineParams(stopwords=frozenset({"the"})))
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert np.array_equal(loaded.x, corpus.x)
    assert loaded.vocab.terms == corpus.vocab.terms
    assert loaded.doc_ids == corpus.doc_ids
    assert loaded.params == corpus.params


def test_load_corpus_rejects_truncation_and_junk(tmp_path):
    docs = [("d1", "aa bb"), ("d2", "aa cc")]
    corpus = build_corpus(docs, PipelineParams(stopwords=frozenset()))
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    lines = path.read_text("utf-8").splitlines()

    truncated = tmp_path / "truncated.txt"
    truncated.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="truncated"):
        load_corpus(truncated)

    junk = tmp_path / "junk.txt"
    junk.write_text("not a corpus\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="junk.txt:1"):
        load_corpus(junk)


def _long_corpus(tmp_path, d=1500, n=40):
    """A d x n corpus file with many conversion chunks of rows."""
    terms = ["".join(t) for t in itertools.islice(
        itertools.product(string.ascii_lowercase, repeat=3), d)]
    x = np.random.default_rng(0).random((d, n)) + 0.01
    path = tmp_path / "long.txt"
    save_corpus(CorpusMatrix(x, Vocabulary(terms), [f"d{j}" for j in range(n)]), path)
    return path, x


def test_load_corpus_holds_one_chunk_of_text_at_a_time(tmp_path):
    path, x = _long_corpus(tmp_path)
    tracemalloc.start()
    try:
        loaded = load_corpus(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.x, x)
    # Beyond the matrix, one chunk of rows of text at a time, not the file.
    assert peak - x.nbytes < 0.5 * path.stat().st_size


def test_load_corpus_names_the_file_of_bytes_not_utf8(tmp_path):
    path, _ = _long_corpus(tmp_path)
    data = bytearray(path.read_bytes())
    data[-100] = 0xFF  # past the header, read while the rows are parsed
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nthe\n\nand\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "and"})
