"""Parsing raw author-name strings into :class:`PersonName` values.

The primary input format is the inverted form used by author indexes::

    Abdalla, Tarek F.*
    Arceneaux, Webster J., III
    Byrd, Hon. Robert C.
    Fox, Fred L., 1I*          (OCR: "1I" is "II")
    Webster-O'Keefe, M. Katherine

Direct form (``Given Surname``) is also accepted for ingest paths that see
bylines instead of index rows.
"""

from __future__ import annotations

import functools
import re

from repro.errors import NameParseError
from repro.names.model import (
    NameForm,
    PersonName,
    canonical_honorific,
    canonical_suffix,
)
from repro.names.normalize import strip_ocr_artifacts

#: Surname particles that attach to the following token in direct form
#: ("Ludwig van Beethoven" -> surname "van Beethoven").
_PARTICLES = frozenset(
    {"van", "von", "de", "der", "den", "del", "della", "di", "da", "la", "le", "st.", "ter"}
)

#: Characters OCR commonly substitutes for the Roman-numeral ``I``.
_ROMAN_CONFUSIONS = str.maketrans({"l": "I", "1": "I", "|": "I", "!": "I", "i": "I"})

_TRAILING_STUDENT = re.compile(r"\*\s*$")
_COMMA_SPLIT = re.compile(r"\s*,\s*")

#: Distinct (string, form) parses kept.  Index rows repeat their authors
#: (a 10k-record corpus has ~2k distinct author strings), and a parse is
#: a pure function of its input whose result is frozen, so rows share it.
PARSE_CACHE_SIZE = 4096


def _ocr_suffix(token: str) -> str | None:
    """Canonical suffix for ``token``, tolerating OCR ``l``/``1`` for ``I``.

    >>> _ocr_suffix("ll")
    'II'
    >>> _ocr_suffix("1I")
    'II'
    >>> _ocr_suffix("Jr.")
    'Jr.'
    >>> _ocr_suffix("Leon") is None
    True
    """
    direct = canonical_suffix(token)
    if direct is not None:
        return direct
    cleaned = token.strip().rstrip(",")
    if cleaned.endswith("."):
        # A trailing period marks a given-name initial ("Larry V."), never
        # a Roman-numeral suffix; only Jr./Sr. carry periods, and those
        # were handled by canonical_suffix above.
        return None
    repaired = cleaned.translate(_ROMAN_CONFUSIONS)
    # Only accept repairs that are pure Roman-numeral strings; anything with
    # a surviving non-I/V character was a real word, not a numeral.
    if repaired and set(repaired) <= {"I", "V"}:
        return canonical_suffix(repaired)
    return None


def _split_honorific(text: str) -> tuple[str, str]:
    """Split a leading honorific off ``text``; returns (honorific, rest)."""
    parts = text.split(None, 1)
    if not parts:
        return "", text
    honorific = canonical_honorific(parts[0])
    if honorific is None:
        return "", text
    rest = parts[1] if len(parts) > 1 else ""
    return honorific, rest


def parse_name(raw: str, *, form: NameForm | None = None) -> PersonName:
    """Parse ``raw`` into a :class:`PersonName`.

    Parameters
    ----------
    raw:
        The name string.  A trailing ``*`` marks student material.
    form:
        Force a syntactic form.  When ``None`` the form is inferred: a comma
        means inverted, otherwise direct (or surname-only for one token).

    Raises
    ------
    NameParseError
        If the string is empty or unparseable.  Failures are not cached.
    """
    return _parse_name_cached(raw, form)


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_name_cached(raw: str, form: NameForm | None) -> PersonName:
    original = raw
    text = strip_ocr_artifacts(raw)
    if not text:
        raise NameParseError("empty name", text=original)

    is_student = bool(_TRAILING_STUDENT.search(text))
    if is_student:
        text = _TRAILING_STUDENT.sub("", text).strip()
    if not text:
        raise NameParseError("name contains only a student marker", text=original)

    if form is None:
        form = NameForm.INVERTED if "," in text else _infer_direct_form(text)

    if form is NameForm.INVERTED:
        name = _parse_inverted(text, original)
    elif form is NameForm.DIRECT:
        name = _parse_direct(text, original)
    else:
        name = PersonName(surname=text, raw=original, form=NameForm.SURNAME_ONLY)

    if is_student:
        name = name.with_student(True)
    return name


def try_parse_name(raw: str, *, form: NameForm | None = None) -> PersonName | None:
    """Like :func:`parse_name` but returns ``None`` instead of raising."""
    try:
        return parse_name(raw, form=form)
    except NameParseError:
        return None


def _infer_direct_form(text: str) -> NameForm:
    return NameForm.SURNAME_ONLY if len(text.split()) == 1 else NameForm.DIRECT


def _parse_inverted(text: str, original: str) -> PersonName:
    parts = _COMMA_SPLIT.split(text)
    parts = [p for p in parts if p]
    if not parts:
        raise NameParseError("no name content around commas", text=original)

    surname = parts[0]
    rest = parts[1:]

    suffix = ""
    if rest:
        candidate = _ocr_suffix(rest[-1])
        if candidate is not None and (len(rest) > 1 or _looks_like_bare_suffix(rest[-1])):
            suffix = candidate
            rest = rest[:-1]

    given_text = ", ".join(rest)
    honorific, given_text = _split_honorific(given_text)

    # A suffix can also ride inside the given segment without its own comma
    # ("George W. III"): peel it off the final whitespace token.
    if not suffix and given_text:
        tokens = given_text.split()
        candidate = _ocr_suffix(tokens[-1])
        if candidate is not None and len(tokens) > 1:
            suffix = candidate
            given_text = " ".join(tokens[:-1])

    return PersonName(
        surname=surname,
        given=given_text.strip(),
        suffix=suffix,
        honorific=honorific,
        raw=original,
        form=NameForm.INVERTED,
    )


def _looks_like_bare_suffix(token: str) -> bool:
    """Guard against eating a one-token given name that resembles a numeral.

    ``"Watts, V"`` is ambiguous; we treat a lone ``V`` (or ``II``…) after
    the surname as a given-name initial unless it carries a period-free
    multi-char numeral shape (``III``) or the Jr./Sr. spellings.
    """
    cleaned = token.strip().strip(",")
    if canonical_suffix(cleaned) in {"Jr.", "Sr."}:
        return True
    repaired = cleaned.translate(_ROMAN_CONFUSIONS)
    return len(repaired) >= 2 and set(repaired) <= {"I", "V"}


def _parse_direct(text: str, original: str) -> PersonName:
    # Direct form may still carry a comma before the suffix
    # ("John Smith, Jr."); commas are separators here, never content.
    tokens = [t for t in text.replace(",", " ").split() if t]
    if not tokens:
        raise NameParseError("empty direct-form name", text=original)

    honorific = canonical_honorific(tokens[0]) or ""
    if honorific:
        tokens = tokens[1:]
        if not tokens:
            raise NameParseError("honorific without a name", text=original)

    suffix = ""
    if len(tokens) >= 2:
        candidate = _ocr_suffix(tokens[-1])
        if candidate is not None:
            suffix = candidate
            tokens = tokens[:-1]

    if len(tokens) == 1:
        return PersonName(
            surname=tokens[0],
            suffix=suffix,
            honorific=honorific,
            raw=original,
            form=NameForm.DIRECT,
        )

    # Glue particles onto the surname: "Joan Van Tol" -> surname "Van Tol".
    surname_start = len(tokens) - 1
    while surname_start > 1 and tokens[surname_start - 1].casefold() in _PARTICLES:
        surname_start -= 1

    surname = " ".join(tokens[surname_start:])
    given = " ".join(tokens[:surname_start])
    return PersonName(
        surname=surname,
        given=given,
        suffix=suffix,
        honorific=honorific,
        raw=original,
        form=NameForm.DIRECT,
    )
