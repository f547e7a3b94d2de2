"""Bibliographic collation: the ordering rules the printed index obeys.

Observed conventions of the reference artifact (verified against the WVLR
text) and encoded here:

* primary order is the case/diacritic-folded surname, compared literally —
  ``McAteer`` sorts between ``Maxwell`` and ``Meadows`` (the artifact does
  **not** use the older "Mc as Mac" library rule; we keep that rule behind
  :attr:`CollationOptions.mc_as_mac` for the E8 ablation);
* apostrophes are ignored inside surnames (``O'Brien`` ~ ``OBrien``) while
  hyphens and spaces count as word breaks filed before letters
  (word-by-word filing: ``Van Tol`` < ``VanCamp`` < ``vanEgmond``);
* given names break surname ties; honorifics are ignored for ordering
  (``Byrd, Hon. Robert C.`` sorts as ``Byrd, Robert C.``);
* generational suffixes break given-name ties in seniority order
  (Jr. < Sr. < II < III < IV);
* for the same person, non-student rows precede student rows;
* an author's own articles appear in citation (volume, page) order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.entry import IndexEntry
from repro.names.model import PersonName
from repro.names.normalize import normalization_key, strip_diacritics


@dataclass(frozen=True, slots=True)
class CollationOptions:
    """Tunable collation rules (the E8 ablation toggles these).

    Attributes
    ----------
    mc_as_mac:
        Treat a leading ``Mc`` as ``Mac`` (traditional library filing).
        The reference artifact does not do this; default off.
    ignore_suffix:
        Drop the generational-suffix tiebreak (naive behaviour).
    ignore_student_flag:
        Drop the non-student-first rule for identical names.
    """

    mc_as_mac: bool = False
    ignore_suffix: bool = False
    ignore_student_flag: bool = False


DEFAULT_OPTIONS = CollationOptions()

#: Distinct (name, options) author keys kept.  Every row of an author folds
#: the same name, and a 10k-record corpus has ~2k distinct author strings.
AUTHOR_KEY_CACHE_SIZE = 4096


def surname_sort_key(surname: str, options: CollationOptions = DEFAULT_OPTIONS) -> str:
    """Folded surname key using word-by-word ("nothing before something")
    filing: hyphens count as word breaks and spaces sort before letters,
    which is how the artifact orders its ``Van`` block
    (``Van Damme`` < ``Van Tol`` < ``VanCamp`` < ``vanEgmond``).

    >>> surname_sort_key("O'Brien")
    'obrien'
    >>> surname_sort_key("Bates-Smith")
    'bates smith'
    >>> surname_sort_key("Van Tol") < surname_sort_key("VanCamp")
    True
    >>> surname_sort_key("McAteer", CollationOptions(mc_as_mac=True))
    'macateer'
    """
    key = normalization_key(surname).replace("-", " ")
    if options.mc_as_mac and key.startswith("mc") and not key.startswith("mac"):
        key = "mac" + key[2:]
    return key


def given_sort_key(name: PersonName) -> str:
    """Folded given-name key; honorifics are excluded by construction."""
    return normalization_key(name.given)


def name_sort_key(
    name: PersonName, options: CollationOptions = DEFAULT_OPTIONS
) -> tuple[Any, ...]:
    """Composite sort key for a person name under ``options``."""
    key, _ = _author_key(name, options)
    if not options.ignore_student_flag:
        key += (1 if name.is_student else 0,)
    return key


def collation_key(
    entry: IndexEntry, options: CollationOptions = DEFAULT_OPTIONS
) -> tuple[Any, ...]:
    """Full sort key for one index row: author key, then citation order.

    The student flag is a row property (the asterisk is printed per row),
    so it is taken from the entry, not the parsed name.
    """
    author, inverted = _author_key(entry.author, options)
    key: list[Any] = list(author)
    if not options.ignore_student_flag:
        key.append(1 if entry.is_student_work else 0)
    key.append((entry.citation.volume, entry.citation.page, entry.citation.year))
    key.append(_title_key(entry.title))
    # Deterministic final tiebreak: distinct rows whose folded keys collide
    # (e.g. "A-a" vs "Aa") must still sort the same way from any input
    # order, so the raw strings settle it.
    key.append((inverted, entry.title, entry.is_student_work))
    return tuple(key)


@functools.lru_cache(maxsize=AUTHOR_KEY_CACHE_SIZE)
def _author_key(
    name: PersonName, options: CollationOptions
) -> tuple[tuple[Any, ...], str]:
    """The name-dependent part of a sort key, folded once per distinct name:
    (folded surname, folded given name[, suffix rank]) and the inverted
    spelling that breaks ties between names whose folded keys collide."""
    key: tuple[Any, ...] = (surname_sort_key(name.surname, options), given_sort_key(name))
    if not options.ignore_suffix:
        key += (name.suffix_rank,)
    return key, name.inverted(student_marker=True)


def _title_key(title: str) -> str:
    return strip_diacritics(title).casefold()


def sort_entries(
    entries: Sequence[IndexEntry], options: CollationOptions = DEFAULT_OPTIONS
) -> list[IndexEntry]:
    """Entries in printed-index order (stable under equal keys).

    >>> from repro.core.entry import PublicationRecord, explode
    >>> records = [
    ...     PublicationRecord.create(1, "B", ["McAteer, J. Davitt"], "80:397 (1978)"),
    ...     PublicationRecord.create(2, "A", ["Maxwell, Robert E."], "70:155 (1968)"),
    ...     PublicationRecord.create(3, "C", ["Meadows, James D.*"], "85:969 (1983)"),
    ... ]
    >>> entries = [e for r in records for e in explode(r)]
    >>> [e.author.surname for e in sort_entries(entries)]
    ['Maxwell', 'McAteer', 'Meadows']
    """
    return sorted(entries, key=lambda e: collation_key(e, options))


def naive_key(entry: IndexEntry) -> tuple[str, Any]:
    """The baseline's key: raw string sort, no folding, no conventions.

    Used by :mod:`repro.baselines.naive`; deliberately wrong on O'/Mc/case
    edge cases so E8 has a behavioural gap to measure.
    """
    return (entry.author.inverted(), (entry.citation.volume, entry.citation.page))
