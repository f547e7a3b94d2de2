"""Property-based tests for collation and the index builder."""

import string
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citation.model import Citation
from repro.core.builder import build_index
from repro.core.collation import (
    CollationOptions,
    collation_key,
    given_sort_key,
    name_sort_key,
    sort_entries,
    surname_sort_key,
)
from repro.core.entry import IndexEntry, PublicationRecord
from repro.errors import ReproError
from repro.names.model import PersonName
from repro.names.normalize import strip_diacritics
from repro.names.parser import _parse_name_cached, parse_name

surnames = st.text(alphabet=string.ascii_letters + "'-", min_size=1, max_size=12).filter(
    lambda s: s.strip("'- ") != ""
)
givens = st.text(alphabet=string.ascii_letters + ". ", max_size=10)
suffixes = st.sampled_from(["", "Jr.", "Sr.", "II", "III"])
all_options = st.sampled_from([
    CollationOptions(),
    CollationOptions(mc_as_mac=True),
    CollationOptions(ignore_suffix=True),
    CollationOptions(ignore_student_flag=True),
])


@st.composite
def names(draw):
    return PersonName(
        surname=draw(surnames),
        given=draw(givens),
        suffix=draw(suffixes),
        is_student=draw(st.booleans()),
    )


@st.composite
def entries(draw):
    return IndexEntry(
        author=draw(names()),
        title=draw(st.text(min_size=1, max_size=30)),
        citation=Citation(
            volume=draw(st.integers(min_value=1, max_value=99)),
            page=draw(st.integers(min_value=1, max_value=1500)),
            year=draw(st.integers(min_value=1900, max_value=2020)),
        ),
        is_student_work=draw(st.booleans()),
    )


class TestCollationProperties:
    @given(st.lists(entries(), max_size=40), st.randoms())
    @settings(max_examples=60)
    def test_sort_is_permutation_invariant(self, items, rnd):
        baseline = sort_entries(items)
        shuffled = items[:]
        rnd.shuffle(shuffled)
        assert sort_entries(shuffled) == baseline

    @given(st.lists(entries(), max_size=40))
    def test_sort_is_idempotent(self, items):
        once = sort_entries(items)
        assert sort_entries(once) == once

    @given(st.lists(entries(), max_size=40))
    def test_keys_nondecreasing_after_sort(self, items):
        ordered = sort_entries(items)
        keys = [collation_key(e) for e in ordered]
        assert keys == sorted(keys)

    @given(entries(), all_options)
    def test_key_is_deterministic(self, entry, options):
        assert collation_key(entry, options) == collation_key(entry, options)


@st.composite
def publication_records(draw):
    n_authors = draw(st.integers(min_value=1, max_value=3))
    return PublicationRecord(
        record_id=draw(st.integers(min_value=1, max_value=10**6)),
        title=draw(st.text(min_size=1, max_size=40).filter(lambda t: t.strip())),
        authors=tuple(draw(names()) for _ in range(n_authors)),
        citation=Citation(
            volume=draw(st.integers(min_value=1, max_value=99)),
            page=draw(st.integers(min_value=1, max_value=1500)),
            year=draw(st.integers(min_value=1900, max_value=2020)),
        ),
        is_student_work=draw(st.booleans()),
    )


class TestBuilderProperties:
    @given(st.lists(publication_records(), max_size=25))
    @settings(max_examples=50)
    def test_every_author_of_every_record_appears(self, records):
        index = build_index(records)
        built_keys = {e.row_key() for e in index}
        for record in records:
            for author in record.authors:
                key = (
                    author.identity_key(),
                    record.title.strip().casefold(),
                    record.citation,
                )
                # Builder strips titles; mirror that in the expected key.
                assert any(k[0] == key[0] and k[2] == key[2] for k in built_keys)

    @given(st.lists(publication_records(), max_size=25))
    @settings(max_examples=50)
    def test_no_duplicate_rows(self, records):
        index = build_index(records)
        keys = [e.row_key() for e in index]
        assert len(keys) == len(set(keys))

    @given(st.lists(publication_records(), max_size=25))
    @settings(max_examples=50)
    def test_groups_partition_entries(self, records):
        index = build_index(records)
        grouped = [e for g in index.groups() for e in g.entries]
        assert grouped == list(index.entries)

    @given(st.lists(publication_records(), max_size=20))
    @settings(max_examples=50)
    def test_statistics_consistent(self, records):
        index = build_index(records)
        stats = index.statistics()
        assert stats.entry_count == len(index)
        assert stats.author_count == len(index.groups())
        assert sum(stats.entries_by_letter.values()) == len(index)
        assert sum(stats.entries_by_volume.values()) == len(index)
        assert 0.0 <= stats.student_share <= 1.0


# -- the name, key and parse caches return what a fresh computation does ------

# Letters with combining marks (é ü ñ), letters NFKD leaves whole (ø ł đ æ œ
# þ ð ı) and ß, which only casefold expands; a fixed alphabet keeps
# generation cheap.
FOLDED_LETTERS = "éüñøłđæœþðıßØÆ"
folded_text = st.text(alphabet=string.ascii_letters + FOLDED_LETTERS + " .-'", max_size=12)
folded_surnames = folded_text.filter(lambda s: s.strip())


@st.composite
def folded_entries(draw):
    return IndexEntry(
        author=PersonName(
            surname=draw(folded_surnames),
            given=draw(folded_text),
            suffix=draw(suffixes),
            honorific=draw(st.sampled_from(["", "Hon."])),
            is_student=draw(st.booleans()),
        ),
        title=draw(folded_surnames),
        citation=Citation(volume=1, page=draw(st.integers(1, 9)), year=1990),
        is_student_work=draw(st.booleans()),
    )


def fresh_collation_key(entry, options):
    """The full row key computed field by field, with no cache involved."""
    name = entry.author
    key = [surname_sort_key(name.surname, options), given_sort_key(name)]
    if not options.ignore_suffix:
        key.append(name.suffix_rank)
    if not options.ignore_student_flag:
        key.append(1 if entry.is_student_work else 0)
    key.append((entry.citation.volume, entry.citation.page, entry.citation.year))
    key.append(strip_diacritics(entry.title).casefold())
    key.append((name.inverted(student_marker=True), entry.title, entry.is_student_work))
    return tuple(key)


def fresh_name_key(name, options):
    key = [surname_sort_key(name.surname, options), given_sort_key(name)]
    if not options.ignore_suffix:
        key.append(name.suffix_rank)
    if not options.ignore_student_flag:
        key.append(1 if name.is_student else 0)
    return tuple(key)


class TestCachedEqualsFresh:
    @given(st.lists(folded_entries(), min_size=1, max_size=6), all_options)
    def test_collation_key_matches_fresh(self, items, options):
        # Twice over the list: the first call may fill the cache, the
        # second reads it.
        for entry in items + items:
            assert collation_key(entry, options) == fresh_collation_key(entry, options)
            assert name_sort_key(entry.author, options) == fresh_name_key(entry.author, options)

    @given(folded_surnames, folded_text, st.sampled_from(["", ", Jr.", ", III", " II"]),
           st.sampled_from(["", "*"]))
    def test_parse_name_matches_uncached(self, surname, given_name, suffix, marker):
        raw = f"{surname}, {given_name}{suffix}{marker}"
        try:
            expected = _parse_name_cached.__wrapped__(raw, None)
        except ReproError as exc:
            for _ in range(2):
                with pytest.raises(type(exc)):
                    parse_name(raw)
            return
        assert parse_name(raw) == expected
        assert parse_name(raw) == expected

    @given(st.text(alphabet="".join(map(chr, range(128)))))
    def test_ascii_is_left_alone(self, text):
        decomposed = unicodedata.normalize("NFKD", text)
        assert strip_diacritics(text) == "".join(
            ch for ch in decomposed if not unicodedata.combining(ch)
        )
