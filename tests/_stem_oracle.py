"""The Porter stemmer as sixteen functions, kept as a test oracle.

``gssnmf.stemmer`` holds Porter's 1980 rules as suffix tables behind one
rule and reads every consonant/vowel test off one c/v form of the word.
This is the implementation it replaced, unchanged: one function per step,
a recursive consonant test and longest-first copies of the suffix tables.
The tests require the two to stem every word alike.
"""

from __future__ import annotations

import functools

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel when preceded by a consonant ("syzygy"), else a consonant.
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant run transitions, the m of [C](VC)^m[V]."""
    m = 0
    prev_cons = None
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant ending where the final consonant is not w, x, y
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2 = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)

# Longest suffix first so that e.g. "ement" is tried before "ment" and "ent".
_STEP2_ORDERED = sorted(_STEP2, key=lambda r: -len(r[0]))
_STEP3_ORDERED = sorted(_STEP3, key=lambda r: -len(r[0]))
_STEP4_ORDERED = sorted(_STEP4, key=len, reverse=True)


def _replace_suffix(word: str, rules, min_measure: int) -> str:
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + repl
            return word
    return word


def _step2(word: str) -> str:
    return _replace_suffix(word, _STEP2_ORDERED, 0)


def _step3(word: str) -> str:
    return _replace_suffix(word, _STEP3_ORDERED, 0)


def _step4(word: str) -> str:
    for suffix in _STEP4_ORDERED:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem a lowercase alphabetic token."""
    return _stem(word)


# Text repeats a few thousand token types many times over; the bound keeps
# the memo's size independent of the input's length. The memo sits behind
# ``porter_stem`` so that the public name stays a plain function, which is
# what perfbench's span tracer wraps.
@functools.lru_cache(maxsize=1 << 16)
def _stem(word: str) -> str:
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
