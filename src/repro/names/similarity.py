"""String- and name-similarity measures used for OCR-noise matching.

All measures are implemented from scratch on top of the standard library.
Distances operate on already-normalized keys (see
:mod:`repro.names.normalize`); :func:`name_similarity` composes them into a
single score over :class:`~repro.names.model.PersonName` pairs.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.names.model import PersonName
from repro.names.normalize import normalization_key, surname_key


def levenshtein(a: str, b: str, *, max_distance: int | None = None) -> int:
    """Edit distance between ``a`` and ``b`` (insert/delete/substitute = 1).

    When ``max_distance`` is given the computation is banded: the function
    returns ``max_distance + 1`` as soon as the true distance provably
    exceeds the bound, which keeps blocking-based resolution fast.

    >>> levenshtein("kitten", "sitting")
    3
    >>> levenshtein("abc", "abc")
    0
    >>> levenshtein("abcdef", "zzzzzz", max_distance=2)
    3
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    if max_distance is not None and len(b) - len(a) > max_distance:
        return max_distance + 1

    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        row_min = j
        for i, ca in enumerate(a, start=1):
            cost = min(
                previous[i] + 1,  # deletion
                current[i - 1] + 1,  # insertion
                previous[i - 1] + (ca != cb),  # substitution
            )
            current.append(cost)
            row_min = min(row_min, cost)
        if max_distance is not None and row_min > max_distance:
            return max_distance + 1
        previous = current
    return previous[-1]


def damerau_levenshtein(a: str, b: str) -> int:
    """Edit distance that also counts adjacent transpositions as one edit.

    This is the restricted (optimal string alignment) variant, which is the
    right model for OCR and typing noise.

    >>> damerau_levenshtein("ca", "ac")
    1
    >>> damerau_levenshtein("herdon", "hemdon")
    1
    """
    if a == b:
        return 0
    rows = len(a) + 1
    cols = len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = a[i - 1] != b[j - 1]
            best = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                best = min(best, dist[i - 2][j - 2] + 1)
            dist[i][j] = best
    return dist[-1][-1]


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1].

    >>> round(jaro("martha", "marhta"), 4)
    0.9444
    >>> jaro("", "") == 1.0
    True
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)

    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ch:
                a_matched[i] = b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    # Count transpositions between the matched subsequences.
    b_indices = [j for j, used in enumerate(b_matched) if used]
    transpositions = 0
    k = 0
    for i, used in enumerate(a_matched):
        if used:
            if a[i] != b[b_indices[k]]:
                transpositions += 1
            k += 1
    transpositions //= 2

    m = float(matches)
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler(a: str, b: str, *, prefix_scale: float = 0.1) -> float:
    """Jaro–Winkler similarity: Jaro boosted for common prefixes (≤ 4 chars).

    >>> jaro_winkler("mcateer", "mcateer")
    1.0
    >>> jaro_winkler("dixon", "dicksonx") > jaro("dixon", "dicksonx")
    True
    """
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def jaccard_ngrams(a: str, b: str, *, n: int = 2) -> float:
    """Jaccard similarity of the character n-gram sets of ``a`` and ``b``.

    Strings shorter than ``n`` are padded conceptually by using the whole
    string as a single gram.

    >>> jaccard_ngrams("night", "nacht") < jaccard_ngrams("night", "nights")
    True
    """
    grams_a = _ngrams(a, n)
    grams_b = _ngrams(b, n)
    if not grams_a and not grams_b:
        return 1.0
    union = grams_a | grams_b
    if not union:
        return 0.0
    return len(grams_a & grams_b) / len(union)


def _ngrams(text: str, n: int) -> set[str]:
    if len(text) < n:
        return {text} if text else set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    "l": "4",
    **dict.fromkeys("mn", "5"),
    "r": "6",
}


def soundex(text: str) -> str:
    """American Soundex code of ``text`` (4 characters, e.g. ``"R163"``).

    Non-alphabetic characters are ignored; empty input yields ``"0000"``.

    >>> soundex("Robert")
    'R163'
    >>> soundex("Rupert")
    'R163'
    >>> soundex("Ashcraft")
    'A261'
    """
    letters = [c for c in text.casefold() if c.isalpha()]
    if not letters:
        return "0000"
    first = letters[0]
    code = [first.upper()]
    previous = _SOUNDEX_CODES.get(first, "")
    for ch in letters[1:]:
        digit = _SOUNDEX_CODES.get(ch, "")
        if digit and digit != previous:
            code.append(digit)
            if len(code) == 4:
                break
        if ch not in "hw":  # h/w do not reset the run; vowels do
            previous = digit
    return "".join(code).ljust(4, "0")


class SimilarityKey(NamedTuple):
    """The folded fields of one name that :func:`key_similarity` reads."""

    suffix: str
    surname: str  #: :func:`~repro.names.normalize.surname_key` of the surname
    given: str  #: :func:`~repro.names.normalize.normalization_key` of the given name
    first: str  #: first token of ``given``, or ``""``


def similarity_key(name: PersonName) -> SimilarityKey:
    """Fold ``name`` once for scoring against many others.

    >>> similarity_key(PersonName("O'Brien", "J. Davitt", "Jr."))
    SimilarityKey(suffix='Jr.', surname='obrien', given='j davitt', first='j')
    """
    given = normalization_key(name.given)
    return SimilarityKey(
        name.suffix, surname_key(name.surname), given, given.split()[0] if given else ""
    )


def name_similarity(a: PersonName, b: PersonName) -> float:
    """Composite similarity in [0, 1] between two parsed names.

    Weighted blend: surname Jaro–Winkler (dominant), given-name Jaro–Winkler
    over normalized keys, an initials-compatibility term, and a suffix
    agreement gate.  Different generational suffixes denote different people
    and clamp the score to 0.  Callers scoring one name against many fold
    it once with :func:`similarity_key` and call :func:`key_similarity`.

    >>> from repro.names.parser import parse_name
    >>> herdon = parse_name("Herdon, Judith")
    >>> hemdon = parse_name("Hemdon, Judith")
    >>> name_similarity(herdon, hemdon) > 0.9
    True
    >>> jr = parse_name("Smith, John, Jr.")
    >>> iii = parse_name("Smith, John, III")
    >>> name_similarity(jr, iii)
    0.0
    """
    return key_similarity(similarity_key(a), similarity_key(b))


def key_similarity(a: SimilarityKey, b: SimilarityKey) -> float:
    """:func:`name_similarity` over two names' :func:`similarity_key`.

    Equal keys score exactly 1.0, so identical spellings always match.
    """
    suffix_a, s_a, g_a, first_a = a
    suffix_b, s_b, g_b, first_b = b
    if suffix_a and suffix_b and suffix_a != suffix_b:
        return 0.0

    # OCR damage is a small number of character edits; surnames further
    # apart than that are different names no matter how high Jaro–Winkler
    # runs on their shared prefix ("Whisker" vs "White").
    if s_a != s_b and damerau_levenshtein(s_a, s_b) > 2:
        return 0.0
    surname_score = jaro_winkler(s_a, s_b)

    # Two clearly different full first names denote different people even
    # under an identical surname ("Johnson, Earl" vs "Johnson, Edward");
    # only small edit distances are plausible OCR variants.
    if (
        len(first_a) > 2
        and len(first_b) > 2
        and damerau_levenshtein(first_a, first_b) > 2
    ):
        return 0.0
    if g_a and g_b:
        given_score = jaro_winkler(g_a, g_b)
        # Initial-vs-full-name compatibility: "J" matches "Judith" — but
        # only when one side actually is an initial; two different full
        # names sharing a first letter ("Earl"/"Edward") are not variants.
        if given_score < 0.8 and _initials_compatible(g_a, g_b):
            given_score = max(given_score, 0.85)
    elif g_a or g_b:
        given_score = 0.6  # one side missing: weak evidence either way
    else:
        given_score = 1.0

    return 0.65 * surname_score + 0.35 * given_score


def _initials_compatible(a: str, b: str) -> bool:
    """True when the given names match as initial-vs-name expansions.

    Each aligned token pair must share its first letter **and** at least
    one of the two tokens must be a bare initial (length 1): ``"j timothy"``
    is compatible with ``"john timothy"`` via its initial, but
    ``"earl"``/``"edward"`` are two different full names.
    """
    ta = a.split()
    tb = b.split()
    if not ta or not tb:
        return False
    saw_initial_expansion = False
    for x, y in zip(ta, tb):
        if x[0] != y[0]:
            return False
        if len(x) == 1 or len(y) == 1:
            saw_initial_expansion = True
        elif x != y:
            return False  # two differing full tokens are not variants
    return saw_initial_expansion
