"""Suffix-stripping stemmer implementing Porter's 1980 algorithm.

Standard rule set, applied to lowercase alphabetic tokens. Words of length
one or two are returned unchanged, matching the reference implementation.
Within each step the longest matching suffix wins; if its condition fails
no shorter suffix is tried. ``porter_stem`` keeps no memo; ``build_corpus``
keeps one per call.
"""

from __future__ import annotations

_VOWELS = "aeiou"

# Steps 1a, 2, 3 and 4 as (suffix, replacement, least measure of the stem)
# rules, longest suffix first so that e.g. "ement" is tried before "ment".
_STEP1A = (("sses", "ss", 0), ("ies", "i", 0), ("ss", "ss", 0), ("s", "", 0))

_STEP2 = (
    ("ational", "ate", 1), ("ization", "ize", 1), ("iveness", "ive", 1),
    ("fulness", "ful", 1), ("ousness", "ous", 1), ("tional", "tion", 1),
    ("biliti", "ble", 1), ("entli", "ent", 1), ("ousli", "ous", 1),
    ("ation", "ate", 1), ("alism", "al", 1), ("aliti", "al", 1),
    ("iviti", "ive", 1), ("enci", "ence", 1), ("anci", "ance", 1),
    ("izer", "ize", 1), ("abli", "able", 1), ("alli", "al", 1),
    ("ator", "ate", 1), ("eli", "e", 1),
)

_STEP3 = (
    ("icate", "ic", 1), ("ative", "", 1), ("alize", "al", 1),
    ("iciti", "ic", 1), ("ical", "ic", 1), ("ness", "", 1), ("ful", "", 1),
)

# Step 4 drops its suffixes outright; "ion" also needs an s or t before it.
_STEP4 = tuple((suffix, "", 2) for suffix in (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion",
    "ism", "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou",
))


def _forms(word: str) -> str:
    """Each letter of ``word`` as ``c`` (consonant) or ``v`` (vowel)."""
    form = ""
    for ch in word:
        # y is a vowel when preceded by a consonant ("syzygy"), else a consonant.
        form += "v" if ch in _VOWELS or (ch == "y" and form[-1:] == "c") else "c"
    return form


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant run transitions, the m of [C](VC)^m[V]."""
    return _forms(stem).count("vc")


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _forms(word)[-1] == "c"


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant ending where the final consonant is not w, x, y
    return _forms(stem).endswith("cvc") and stem[-1] not in "wxy"


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    stripped = None
    if word.endswith("ed") and "v" in _forms(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and "v" in _forms(word[:-3]):
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


def _replace_suffix(word: str, rules) -> str:
    for suffix, repl, least in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem + repl if _measure(stem) >= least else word
    return word


def porter_stem(word: str) -> str:
    """Stem a lowercase alphabetic token."""
    if len(word) <= 2:
        return word
    word = _replace_suffix(word, _STEP1A)
    word = _step1b(word)
    if word.endswith("y") and "v" in _forms(word[:-1]):
        word = word[:-1] + "i"
    word = _replace_suffix(word, _STEP2)
    word = _replace_suffix(word, _STEP3)
    word = _replace_suffix(word, _STEP4)
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            word = word[:-1]
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word
