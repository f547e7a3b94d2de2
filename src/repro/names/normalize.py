"""Name normalization: case/diacritic folding and OCR artifact cleanup.

These functions produce *matching keys*, not display strings: they are
lossy on purpose.  Display formatting lives on
:class:`repro.names.model.PersonName`; collation keys live in
:mod:`repro.core.collation`.
"""

from __future__ import annotations

import re
import unicodedata

# OCR confusions that appear in scanned front matter.  Keys are regex
# fragments applied to *whole tokens* of the matching key, so "ll" -> "II"
# only fires where a generational suffix is expected (handled by the parser);
# here we only fix intra-word artifacts that are safe in any position.
_APOSTROPHE_VARIANTS = re.compile(r"[‘’ʼ`']")
_MULTI_SPACE = re.compile(r"\s+")
_NON_NAME_CHARS = re.compile(r"[^a-z0-9\- ]")

# Latin letters NFKD leaves whole (a stroke or ligature is not a combining
# mark), folded to the letters they file with.  Without this the matching
# key would drop them outright: "Østergaard" -> "stergaard".
_UNDECOMPOSABLE_LETTERS = str.maketrans({
    "ø": "o", "Ø": "O",
    "ł": "l", "Ł": "L",
    "đ": "d", "Đ": "D",
    "ð": "d", "Ð": "D",
    "æ": "ae", "Æ": "AE",
    "œ": "oe", "Œ": "OE",
    "þ": "th", "Þ": "TH",
    "ı": "i",
})


def strip_diacritics(text: str) -> str:
    """Remove combining marks: ``"Müller"`` → ``"Muller"``.

    Uses NFKD decomposition and drops combining code points, which covers
    the Latin-script diacritics that occur in author names; letters with no
    decomposition (``ø``, ``ł``, ``æ``, ``þ`` …) are then folded to their
    base letters.  ASCII text is returned unchanged, since NFKD is the
    identity on it.

    >>> strip_diacritics("Łukasiewicz"), strip_diacritics("Østergaard")
    ('Lukasiewicz', 'Ostergaard')
    """
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return stripped.translate(_UNDECOMPOSABLE_LETTERS)


def fold_case(text: str) -> str:
    """Aggressive case folding suitable for matching keys."""
    return text.casefold()


def strip_ocr_artifacts(text: str) -> str:
    """Remove noise characters that scanners introduce into names.

    - normalizes curly/backtick apostrophes to ``'``
    - drops stray brackets and pipes (column-rule bleed-through)
    - collapses runs of whitespace

    The result is still a display-ish string (case preserved).

    >>> strip_ocr_artifacts("W’mck,  Michael |W.")
    "W'mck, Michael W."
    """
    text = _APOSTROPHE_VARIANTS.sub("'", text)
    text = text.replace("|", " ").replace("[", " ").replace("]", " ")
    text = _MULTI_SPACE.sub(" ", text)
    return text.strip()


def normalization_key(text: str) -> str:
    """Canonical matching key for a name fragment.

    Lower-cased, diacritics stripped, apostrophes removed, punctuation other
    than hyphens dropped, whitespace collapsed.

    >>> normalization_key("O’Brien")
    'obrien'
    >>> normalization_key("Bates-Smith,  Pamela A.")
    'bates-smith pamela a'
    """
    text = strip_ocr_artifacts(text)
    text = strip_diacritics(text)
    text = fold_case(text)
    text = text.replace("'", "")
    text = text.replace(".", " ").replace(",", " ")
    text = _NON_NAME_CHARS.sub("", text)
    return _MULTI_SPACE.sub(" ", text).strip()


def surname_key(surname: str) -> str:
    """Matching key for surnames: :func:`normalization_key` minus hyphens.

    Hyphenated and spaced double surnames match each other
    (``Bates-Smith`` vs ``Bates Smith``).
    """
    return normalization_key(surname).replace("-", " ")


def equivalent_names(a: str, b: str) -> bool:
    """True when two raw name fragments normalize to the same key."""
    return normalization_key(a) == normalization_key(b)
