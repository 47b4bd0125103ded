import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gssnmf.supervision import (
    build_label_matrix,
    build_seed_matrix,
    load_label_assignments,
    load_mask,
    load_seed_words,
    save_mask,
    split_mask,
)
from gssnmf.textpipe import Vocabulary


def test_seed_matrix_direct_index():
    vocab = Vocabulary(["arson", "gang", "murder", "theft"])
    seeds = build_seed_matrix(["murder"], vocab)
    assert seeds.y.shape == (4, 1)
    assert seeds.y[2, 0] == 1.0 and seeds.y.sum() == 1.0
    assert seeds.seed_words == ["murder"]
    assert seeds.dropped == []


def test_seed_matrix_matches_through_stemming():
    vocab = Vocabulary(["gang", "robberi"])
    seeds = build_seed_matrix(["Robbery"], vocab)
    assert seeds.seed_words == ["robberi"]
    assert seeds.y[1, 0] == 1.0


def test_seed_matrix_multi_word_entries():
    vocab = Vocabulary(["deal", "drug", "gang"])
    seeds = build_seed_matrix(["drug dealing", "gang"], vocab)
    assert seeds.seed_words == ["drug", "deal", "gang"]
    assert seeds.y.shape == (3, 3)
    assert np.array_equal(seeds.y.sum(axis=0), np.ones(3))


def test_seed_matrix_records_dropped_words():
    vocab = Vocabulary(["gang"])
    seeds = build_seed_matrix(["gang", "zzzz"], vocab)
    assert seeds.dropped == ["zzzz"]
    with pytest.raises(ValueError, match="no seed word in vocabulary"):
        build_seed_matrix(["zzzz"], vocab)


@pytest.mark.parametrize("seed", range(5))
def test_seed_matrix_columns_are_unit(seed):
    from gssnmf.stemmer import porter_stem

    rng = np.random.default_rng(seed)
    candidates = {"w" + "".join(rng.choice(list("abcdef"), 4)) for _ in range(40)}
    # lookups go through the stemmer, so only stem-stable terms qualify
    terms = sorted(t for t in candidates if porter_stem(t) == t)
    vocab = Vocabulary(terms)
    picks = [terms[i] for i in rng.choice(len(terms), 5, replace=False)]
    seeds = build_seed_matrix(picks, vocab)
    assert np.array_equal(seeds.y.sum(axis=0), np.ones(len(picks)))
    for col in range(seeds.y.shape[1]):
        assert set(np.unique(seeds.y[:, col])) <= {0.0, 1.0}


def test_label_matrix_encoding():
    labels = build_label_matrix(
        {"d1": {"murder"}, "d2": {"murder", "gang"}}, ["d1", "d2"]
    )
    assert labels.label_names == ["gang", "murder"]
    assert np.array_equal(labels.z, [[0, 1], [1, 1]])


def test_label_matrix_single_class_everywhere():
    labels = build_label_matrix({"d1": {"x"}, "d2": {"x"}}, ["d1", "d2"])
    assert np.array_equal(labels.z, [[1, 1]])


def test_label_matrix_referential_integrity():
    with pytest.raises(ValueError, match="unknown document id 'ghost'"):
        build_label_matrix({"d1": {"x"}, "ghost": {"x"}}, ["d1"])
    with pytest.raises(ValueError, match="empty class set"):
        build_label_matrix({"d1": {"x"}, "d2": set()}, ["d1", "d2"])
    with pytest.raises(ValueError, match="no label assignment"):
        build_label_matrix({"d1": {"x"}}, ["d1", "d2"])


def test_split_sizes():
    mask = split_mask(10, 0.7, rng_seed=0, n_classes=3)
    assert len(mask.train_ids) == 7 and len(mask.test_ids) == 3
    assert mask.l.shape == (3, 10)
    # ceiling would fill the whole corpus; the cap keeps one test column
    mask = split_mask(3, 0.7, rng_seed=0, n_classes=2)
    assert len(mask.train_ids) == 2 and len(mask.test_ids) == 1


def test_split_columns_all_ones_or_all_zeros():
    mask = split_mask(8, 0.5, rng_seed=5, n_classes=4)
    for j in mask.train_ids:
        assert np.array_equal(mask.l[:, j], np.ones(4))
    for j in mask.test_ids:
        assert np.array_equal(mask.l[:, j], np.zeros(4))
    assert sorted(mask.train_ids + mask.test_ids) == list(range(8))


def test_split_deterministic():
    a = split_mask(20, 0.7, rng_seed=42, n_classes=2)
    b = split_mask(20, 0.7, rng_seed=42, n_classes=2)
    assert a.train_ids == b.train_ids and a.test_ids == b.test_ids
    c = split_mask(20, 0.7, rng_seed=43, n_classes=2)
    assert c.train_ids != a.train_ids  # overwhelmingly likely for these sizes


def test_split_rejects_bad_fraction():
    for f in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="train_fraction"):
            split_mask(10, f, 0, 1)


def test_split_distribution_over_many_seeds():
    n, fraction = 10, 0.7
    expected = math.ceil(fraction * n)
    hits = np.zeros(n)
    trials = 1000
    for seed in range(trials):
        mask = split_mask(n, fraction, rng_seed=seed, n_classes=1)
        assert len(mask.train_ids) == expected
        hits[mask.train_ids] += 1
    freq = hits / trials
    assert np.all(np.abs(freq - fraction) < 0.05)


def test_mask_zeroes_label_matrix_on_test_columns():
    rng = np.random.default_rng(0)
    z = (rng.random((3, 12)) < 0.5).astype(float)
    z[0, z.sum(axis=0) == 0] = 1.0  # every doc needs a label
    mask = split_mask(12, 0.6, rng_seed=1, n_classes=3)
    masked = mask.l * z
    assert np.array_equal(masked[:, mask.test_ids], np.zeros((3, len(mask.test_ids))))
    assert np.array_equal(masked[:, mask.train_ids], z[:, mask.train_ids])


def test_label_assignments_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "# comment\nd1,murder\nd2,murder;gang\n\nd3, theft ;gang\n",
        encoding="utf-8",
    )
    got = load_label_assignments(path)
    assert got == {"d1": {"murder"}, "d2": {"murder", "gang"},
                   "d3": {"theft", "gang"}}
    bad = tmp_path / "bad.csv"
    bad.write_text("d1,x\nd1,y\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_label_assignments(bad)
    bad.write_text("just-a-doc-id\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.csv:1"):
        load_label_assignments(bad)


# Label rows, well formed or nearly: few characters, most of them separators.
_LABEL_ROWS = st.lists(
    st.tuples(st.text("ab #\t", max_size=3), st.text("ab ;,#\t", max_size=6))
    .map(",".join), max_size=5,
).map("\n".join)


@given(text=st.one_of(st.text(), _LABEL_ROWS))
@example(text="d1,a;;b\n#c,d\n\n d2 , a \n")
@example(text="d1,a\rd1,b")
def test_load_label_assignments_fuzz(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "labels-fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        got = load_label_assignments(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert isinstance(got, dict) and got
    for doc_id, classes in got.items():
        assert doc_id and doc_id == doc_id.strip() and "," not in doc_id
        assert classes and all(c and c == c.strip() and ";" not in c for c in classes)


def test_seed_words_file(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("# seeds\nmurder\ndrug dealing\n\n", encoding="utf-8")
    assert load_seed_words(path) == ["murder", "drug dealing"]
    empty = tmp_path / "empty.txt"
    empty.write_text("\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no seed words"):
        load_seed_words(empty)


def test_mask_round_trip(tmp_path):
    mask = split_mask(9, 0.7, rng_seed=3, n_classes=2)
    path = tmp_path / "mask.json"
    save_mask(mask, path)
    loaded = load_mask(path, 2, 9)
    assert loaded.train_ids == mask.train_ids
    assert loaded.test_ids == mask.test_ids
    assert np.array_equal(loaded.l, mask.l)
    path.write_text(
        '{"n_classes": 2, "n_docs": 3, "train_ids": [0], "test_ids": [5]}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="partition"):
        load_mask(path, 2, 3)
