import itertools
import json
import math

import numpy as np
import pytest

from gssnmf.evaluation import (
    EvalReport,
    avg_coherence,
    coherence,
    incidence_coherence,
    macro_f1,
    save_report,
    threshold_predictions,
    topics_table,
)


def test_threshold_examples():
    col = np.array([[0.9], [0.1], [0.4]])
    assert np.array_equal(threshold_predictions(col, [2]), [[1], [0], [1]])
    assert np.array_equal(threshold_predictions(col, [3]), [[1], [1], [1]])
    tie = np.array([[0.5], [0.5], [0.1]])
    assert np.array_equal(threshold_predictions(tie, [1]), [[1], [0], [0]])


def test_threshold_column_sums_equal_counts():
    rng = np.random.default_rng(0)
    scores = rng.random((5, 12))
    counts = rng.integers(1, 6, 12).tolist()
    preds = threshold_predictions(scores, counts)
    assert np.array_equal(preds.sum(axis=0), np.array(counts, dtype=float))


def test_threshold_all_zero_scores_are_deterministic():
    scores = np.zeros((4, 3))
    preds = threshold_predictions(scores, [2, 1, 3])
    assert np.array_equal(
        preds, [[1, 1, 1], [1, 0, 1], [0, 0, 1], [0, 0, 0]]
    )


def test_threshold_count_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        threshold_predictions(np.zeros((3, 1)), [4])
    with pytest.raises(ValueError, match="out of range"):
        threshold_predictions(np.zeros((3, 1)), [0])
    with pytest.raises(ValueError, match="counts"):
        threshold_predictions(np.zeros((3, 2)), [1])


def _threshold_by_column(scores, counts):
    """One stable argsort per column, the column-by-column definition."""
    out = np.zeros_like(scores)
    for i, j in enumerate(counts):
        out[np.argsort(-scores[:, i], kind="stable")[:j], i] = 1.0
    return out


@pytest.mark.parametrize("seed", range(8))
def test_threshold_equals_per_column_argsort_on_ties(seed):
    rng = np.random.default_rng(seed)
    p, m = int(rng.integers(1, 8)), int(rng.integers(1, 40))
    levels = int(rng.integers(2, 4))
    scores = np.round(rng.random((p, m)) * (levels - 1)) / (levels - 1)
    scores[:, rng.random(m) < 0.3] = 0.0
    counts = rng.integers(1, p + 1, m)
    counts[: min(m, 2)] = [1, p][: min(m, 2)]
    assert np.array_equal(threshold_predictions(scores, counts),
                          _threshold_by_column(scores, counts))


def test_threshold_names_the_first_bad_column():
    with pytest.raises(ValueError,
                       match=r"^label count 0 for column 1 out of range 1\.\.3$"):
        threshold_predictions(np.zeros((3, 5)), [1, 0, 4, 2, -1])
    with pytest.raises(ValueError,
                       match=r"^label count 4 for column 2 out of range 1\.\.3$"):
        threshold_predictions(np.zeros((3, 5)), [1, 3, 4, 0, 2])


def test_macro_f1_perfect_prediction():
    truth = np.array([[1.0, 0.0], [0.0, 1.0]])
    macro, per_class = macro_f1(truth, truth)
    assert macro == 1.0 and per_class == [1.0, 1.0]


def test_macro_f1_hand_example():
    truth = np.array([[1.0, 1.0], [0.0, 1.0]])
    pred = np.array([[1.0, 0.0], [0.0, 1.0]])
    macro, per_class = macro_f1(pred, truth)
    assert per_class[0] == pytest.approx(2 / 3)
    assert per_class[1] == 1.0
    assert macro == pytest.approx(5 / 6)


def test_macro_f1_zero_denominator_scores_zero():
    truth = np.array([[1.0, 1.0], [0.0, 0.0]])
    pred = np.array([[1.0, 1.0], [0.0, 0.0]])
    macro, per_class = macro_f1(pred, truth)
    assert per_class == [1.0, 0.0]
    assert macro == 0.5


def test_macro_f1_rejects_bad_input():
    with pytest.raises(ValueError, match="shapes differ"):
        macro_f1(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="binary"):
        macro_f1(np.full((2, 2), 0.5), np.zeros((2, 2)))


@pytest.mark.parametrize("seed", range(6))
def test_macro_f1_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    truth = (rng.random((4, 15)) < 0.4).astype(float)
    pred = (rng.random((4, 15)) < 0.4).astype(float)
    macro, _ = macro_f1(pred, truth)
    perm = rng.permutation(4)
    macro_p, _ = macro_f1(pred[perm], truth[perm])
    assert macro == pytest.approx(macro_p, abs=1e-15)


def _macro_f1_by_class(pred, truth):
    """Three counts per class in a loop, the class-by-class definition."""
    per_class = []
    for i in range(pred.shape[0]):
        tp = float(np.sum((pred[i] == 1) & (truth[i] == 1)))
        fp = float(np.sum((pred[i] == 1) & (truth[i] == 0)))
        fn = float(np.sum((pred[i] == 0) & (truth[i] == 1)))
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom > 0 else 0.0)
    return sum(per_class) / len(per_class), per_class


@pytest.mark.parametrize("seed", range(8))
def test_macro_f1_equals_per_class_counts_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    p, m = int(rng.integers(1, 9)), int(rng.integers(1, 60))
    truth = (rng.random((p, m)) < 0.3).astype(float)
    pred = (rng.random((p, m)) < 0.3).astype(float)
    empty = rng.random(p) < 0.3  # classes with an empty F1 denominator
    truth[empty] = pred[empty] = 0.0
    macro, per_class = macro_f1(pred, truth)
    ref_macro, ref_per_class = _macro_f1_by_class(pred, truth)
    assert macro == ref_macro
    assert len(per_class) == len(ref_per_class)
    assert all(type(a) is float and a == b for a, b in zip(per_class, ref_per_class))


def test_coherence_hand_example():
    docs = [{"a", "b"}, {"a"}, {"b", "c"}]
    # P(b,a) = 1, P(a) = 2 -> ln(2/2) = 0
    assert coherence(["a", "b"], docs) == 0.0


def test_coherence_duplicate_keyword():
    docs = [{"a"}, {"a", "b"}, {"c"}]
    d = 2  # df(a)
    assert coherence(["a", "a"], docs) == pytest.approx(math.log((d + 1) / d))


def test_coherence_never_cooccurring_pair():
    docs = [{"a"}, {"b"}]
    # P(b,a) = 0, P(a) = 1 -> ln(1/1) = 0
    assert coherence(["a", "b"], docs) == 0.0


def test_coherence_requires_present_keywords():
    with pytest.raises(ValueError, match="'ghost'"):
        coherence(["a", "ghost"], [{"a"}])
    with pytest.raises(ValueError, match="at least 2"):
        coherence(["a"], [{"a"}])


def test_coherence_ignores_doc_order_and_keyword_free_docs():
    docs = [{"a", "b"}, {"b", "c"}, {"a"}]
    base = coherence(["a", "b", "c"], docs)
    assert coherence(["a", "b", "c"], list(reversed(docs))) == base
    assert coherence(["a", "b", "c"], docs + [{"zzz"}, {"qqq"}]) == base


def _coherence_bruteforce(keywords, doc_sets):
    # Exhaustive pair-and-document counting, no shared code with
    # coherence(). Terms accumulate in the formula's stated order (later
    # keyword outer, earlier inner) so the float sums agree exactly.
    total = 0.0
    for j in range(1, len(keywords)):
        for i in range(j):
            earlier, later = keywords[i], keywords[j]
            df_earlier = 0
            co = 0
            for s in doc_sets:
                if earlier in s:
                    df_earlier += 1
                    if later in s:
                        co += 1
            total += math.log((co + 1) / df_earlier)
    return total


@pytest.mark.parametrize("seed", range(10))
def test_coherence_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    vocab = list("abcdefgh")[: rng.integers(3, 9)]
    docs = [
        {w for w in vocab if rng.random() < 0.5} or {vocab[0]}
        for _ in range(rng.integers(2, 11))
    ]
    present = sorted({w for s in docs for w in s})
    n_kw = min(len(present), int(rng.integers(2, 6)))
    keywords = list(rng.choice(present, n_kw, replace=False))
    assert coherence(keywords, docs) == _coherence_bruteforce(keywords, docs)


def _token_lists(rng, vocab, n_docs):
    # Documents as token lists with repeats; each keeps at least one token.
    return [
        [str(w) for w in rng.choice(vocab, int(rng.integers(1, 12)))]
        for _ in range(n_docs)
    ]


@pytest.mark.parametrize("seed", range(5))
def test_coherence_token_lists_with_repeats_match_bruteforce(seed):
    rng = np.random.default_rng(100 + seed)
    vocab = [f"t{i}" for i in range(40)]
    docs = _token_lists(rng, vocab, 150)
    present = sorted({w for d in docs for w in d})
    keywords = [str(w) for w in rng.choice(present, 12, replace=False)]
    assert coherence(keywords, docs) == _coherence_bruteforce(keywords, docs)


def test_coherence_consumes_a_one_shot_generator():
    rng = np.random.default_rng(7)
    docs = _token_lists(rng, list("abcdefg"), 30)
    keywords = ["c", "a", "f", "b"]
    assert coherence(keywords, (d for d in docs)) == _coherence_bruteforce(
        keywords, docs
    )


def test_coherence_repeated_keywords_match_bruteforce():
    rng = np.random.default_rng(8)
    docs = [set(d) for d in _token_lists(rng, list("abcdef"), 25)]
    keywords = ["b", "a", "b", "d", "a", "b"]
    assert coherence(keywords, docs) == _coherence_bruteforce(keywords, docs)


def test_coherence_names_first_absent_keyword_in_list_order():
    docs = [["a", "b"], ["b", "c"]]
    with pytest.raises(ValueError) as err:
        coherence(["a", "zeta", "b", "alpha", "zeta"], docs)
    assert str(err.value) == "keyword 'zeta' appears in no document"


def _incidence(vocab, docs):
    present = np.array([[w in d for d in docs] for w in vocab], dtype=bool)
    return present, {w: i for i, w in enumerate(vocab)}


@pytest.mark.parametrize("seed", range(5))
def test_incidence_coherence_matches_bruteforce(seed):
    rng = np.random.default_rng(200 + seed)
    vocab = [f"t{i}" for i in range(40)]
    docs = [set(d) for d in _token_lists(rng, vocab, 150)]
    present, term_index = _incidence(vocab, docs)
    seen = sorted({w for d in docs for w in d})
    keywords = [str(w) for w in rng.choice(seen, 12, replace=False)]
    keywords += keywords[:3]  # repeats keep their list positions
    want = _coherence_bruteforce(keywords, docs)
    assert incidence_coherence(keywords, present, term_index) == want
    assert coherence(keywords, docs) == want


def test_incidence_coherence_rejects_absent_and_unknown_keywords():
    docs = [{"a", "b"}, {"b", "c"}]
    present, term_index = _incidence(["a", "b", "c", "zeta"], docs)
    with pytest.raises(ValueError) as err:
        incidence_coherence(["a", "zeta", "b"], present, term_index)
    assert str(err.value) == "keyword 'zeta' appears in no document"
    with pytest.raises(ValueError, match="'omega' is not a vocabulary term"):
        incidence_coherence(["a", "omega"], present, term_index)
    with pytest.raises(ValueError, match="at least 2 keywords"):
        incidence_coherence(["a"], present, term_index)


def test_avg_coherence():
    assert avg_coherence([5.0]) == 5.0
    assert avg_coherence([0.0, 0.0]) == 0.0
    with pytest.raises(ValueError, match="empty"):
        avg_coherence([])


def test_eval_report_round_trip(tmp_path):
    report = EvalReport(
        macro_f1=0.5,
        per_class_f1=[0.0, 1.0],
        label_names=["gang", "murder"],
        per_topic_coherence=[1.0, 2.0],
        avg_coherence=1.5,
        topics=[["a", "b"], ["c", "d"]],
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    assert EvalReport(**json.loads(path.read_text("utf-8"))) == report


def test_topics_table_layout():
    report = EvalReport(
        per_topic_coherence=[1.0, 2.0],
        avg_coherence=1.5,
        topics=[["alpha", "beta"], ["gamma", "delta"]],
    )
    table = topics_table(report)
    lines = table.splitlines()
    assert lines[0].split() == ["Topic", "1", "Topic", "2"]
    assert "alpha" in lines[1] and "gamma" in lines[1]
    assert "Averaged coherence: 1.500" in table
    with pytest.raises(ValueError, match="topics"):
        topics_table(EvalReport())
