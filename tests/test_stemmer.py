import os
import string
from pathlib import Path
from unittest import mock

import _stem_oracle as oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gssnmf.stemmer import porter_stem
from gssnmf.textpipe import _default_stopwords, tokenize

ROOT = Path(__file__).resolve().parent.parent

# Reference pairs: the algorithm's published step examples carried through
# the full rule set, plus a few corpus-style words.
VECTORS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("generalizations", "gener"),
    ("oscillators", "oscil"),
    ("connect", "connect"),
    ("connected", "connect"),
    ("connecting", "connect"),
    ("connection", "connect"),
    ("connections", "connect"),
    # corpus-style words
    ("robbery", "robberi"),
    ("burglary", "burglari"),
    ("murder", "murder"),
    ("manslaughter", "manslaught"),
    ("running", "run"),
    ("instruction", "instruct"),
]


@pytest.mark.parametrize("word,expected", VECTORS)
def test_reference_vectors(word, expected):
    assert porter_stem(word) == expected


def test_short_words_unchanged():
    for w in ("a", "is", "by", "i"):
        assert porter_stem(w) == w


def test_y_as_vowel():
    # y after a consonant acts as a vowel for the measure
    assert porter_stem("cry") == "cry"
    assert porter_stem("crying") == "cry"


# Every suffix some step tests for, so that drawn words reach every rule.
_SUFFIXES = sorted(
    {suffix for suffix, _ in oracle._STEP2 + oracle._STEP3}
    | set(oracle._STEP4)
    | {"sses", "ies", "ss", "s", "eed", "ed", "ing", "y", "e", "ll"}
)


@given(st.builds(
    lambda stem, ends: stem + "".join(ends),
    st.text(string.ascii_lowercase, max_size=8),
    st.lists(st.sampled_from(_SUFFIXES), max_size=2),
))
def test_matches_oracle_on_lowercase_words(word):
    assert porter_stem(word) == oracle.porter_stem(word)


def test_matches_oracle_on_every_stem_with_one_or_two_suffixes():
    # Stems of measure 0 to 2 ending in a vowel, y, a consonant, s, t or zz:
    # each step's conditions then both hold and fail on some word.
    stems = ["", "a", "y", "by", "bay", "bab", "abab", "babab", "bas", "bat",
             "fizz", "troubl"]
    words = sorted({stem + first + second for stem in stems for first in _SUFFIXES
                    for second in _SUFFIXES + [""]})
    assert [porter_stem(w) for w in words] == [oracle.porter_stem(w) for w in words]


@given(st.text("aeiouyyybcrst", max_size=12))
def test_matches_oracle_on_y_and_vowel_runs(word):
    assert porter_stem(word) == oracle.porter_stem(word)


@pytest.mark.parametrize("seed", [1, 11])
def test_matches_oracle_on_benchmark_text(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    with mock.patch.dict(os.environ):  # run.py pins BLAS threads on import
        import run
    run.gen.write_text_inputs(tmp_path, seed, run.WORKLOADS["paper_chain"].size)
    words = sorted({
        token
        for doc in (tmp_path / "docs").iterdir()
        for token in tokenize(doc.read_text(encoding="utf-8"))
    })
    assert len(words) > 1000
    assert [porter_stem(w) for w in words] == [oracle.porter_stem(w) for w in words]


def test_matches_oracle_on_stopwords():
    words = sorted(_default_stopwords())
    assert [porter_stem(w) for w in words] == [oracle.porter_stem(w) for w in words]
