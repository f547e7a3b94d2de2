"""Unit tests for repro.core.collation — the artifact's ordering rules."""

import pytest

from repro.core.builder import build_index
from repro.core.collation import (
    CollationOptions,
    collation_key,
    naive_key,
    name_sort_key,
    sort_entries,
    surname_sort_key,
)
from repro.core.entry import PublicationRecord, explode


def entries_for(*author_citation_pairs):
    out = []
    for i, (author, citation) in enumerate(author_citation_pairs):
        record = PublicationRecord.create(i + 1, f"Title {i}", [author], citation)
        out.extend(explode(record))
    return out


def ordered_surnames(*author_citation_pairs, options=CollationOptions()):
    entries = sort_entries(entries_for(*author_citation_pairs), options)
    return [e.author.surname for e in entries]


class TestSurnameKeys:
    def test_case_insensitive(self):
        assert surname_sort_key("MCATEER") == surname_sort_key("McAteer")

    def test_apostrophe_ignored(self):
        assert surname_sort_key("O'Brien") == "obrien"

    def test_hyphen_is_word_break(self):
        assert surname_sort_key("Bates-Smith") == "bates smith"

    def test_space_kept_for_word_by_word_filing(self):
        assert surname_sort_key("Van Tol") == "van tol"
        assert surname_sort_key("Van Tol") < surname_sort_key("VanCamp")

    def test_mc_literal_by_default(self):
        assert surname_sort_key("McAteer") == "mcateer"

    def test_mc_as_mac_option(self):
        options = CollationOptions(mc_as_mac=True)
        assert surname_sort_key("McAteer", options) == "macateer"

    def test_mac_not_doubled(self):
        options = CollationOptions(mc_as_mac=True)
        assert surname_sort_key("MacLeod", options) == "macleod"


class TestArtifactOrdering:
    def test_mc_files_literally(self):
        # The printed artifact: Maxwell < McAteer < McBride < Meadows.
        got = ordered_surnames(
            ("Meadows, James D.", "85:969 (1983)"),
            ("McBride, Timothy B.", "90:731 (1988)"),
            ("Maxwell, Robert E.", "70:155 (1968)"),
            ("McAteer, J. Davitt", "80:397 (1978)"),
        )
        assert got == ["Maxwell", "McAteer", "McBride", "Meadows"]

    def test_mc_as_mac_changes_order(self):
        got = ordered_surnames(
            ("Maxwell, Robert E.", "70:155 (1968)"),
            ("McAteer, J. Davitt", "80:397 (1978)"),
            options=CollationOptions(mc_as_mac=True),
        )
        assert got == ["McAteer", "Maxwell"]

    def test_given_name_breaks_ties(self):
        entries = sort_entries(entries_for(
            ("Brown, Ronald R.", "69:327 (1967)"),
            ("Brown, Jay M.", "80:1 (1977)"),
            ("Brown, Kelley L.", "95:1091 (1993)"),
        ))
        assert [e.author.given for e in entries] == ["Jay M.", "Kelley L.", "Ronald R."]

    def test_honorific_ignored_in_ordering(self):
        entries = sort_entries(entries_for(
            ("Byrd, Ray A.", "71:416 (1969)"),
            ("Byrd, Hon. Robert C.", "90:727 (1988)"),
        ))
        # "Ray A." < "Robert C."; the Hon. must not sort under "h".
        assert [e.author.given for e in entries] == ["Ray A.", "Robert C."]

    def test_suffix_seniority_order(self):
        entries = sort_entries(entries_for(
            ("Smith, John, III", "70:1 (1968)"),
            ("Smith, John", "70:2 (1968)"),
            ("Smith, John, Jr.", "70:3 (1968)"),
            ("Smith, John, II", "70:4 (1968)"),
        ))
        assert [e.author.suffix for e in entries] == ["", "Jr.", "II", "III"]

    def test_citation_order_within_author(self):
        entries = sort_entries(entries_for(
            ("Cardi, Vincent P.", "95:913 (1993)"),
            ("Cardi, Vincent P.", "75:319 (1973)"),
            ("Cardi, Vincent P.", "77:401 (1975)"),
        ))
        assert [e.citation.volume for e in entries] == [75, 77, 95]

    def test_student_rows_after_nonstudent(self):
        records = [
            PublicationRecord.create(1, "Student note", ["Bryant, S. Benjamin*"], "79:610 (1977)"),
            PublicationRecord.create(2, "Article", ["Bryant, S. Benjamin"], "95:663 (1993)"),
        ]
        entries = sort_entries([e for r in records for e in explode(r)])
        assert [e.is_student_work for e in entries] == [False, True]

    def test_student_rule_can_be_disabled(self):
        records = [
            PublicationRecord.create(1, "Student note", ["Bryant, S. Benjamin*"], "79:610 (1977)"),
            PublicationRecord.create(2, "Article", ["Bryant, S. Benjamin"], "95:663 (1993)"),
        ]
        entries = sort_entries(
            [e for r in records for e in explode(r)],
            CollationOptions(ignore_student_flag=True),
        )
        # Without the rule, citation order puts the 1977 student note first.
        assert [e.is_student_work for e in entries] == [True, False]

    def test_diacritics_fold(self):
        got = ordered_surnames(
            ("Zúñiga, A.", "70:1 (1968)"),
            ("Zlotnick, David", "83:375 (1981)"),
        )
        assert got == ["Zlotnick", "Zúñiga"]

    def test_hyphenated_files_word_by_word(self):
        got = ordered_surnames(
            ("Bates-Smith, Pamela A.", "84:687 (1982)"),
            ("Bates, Zed", "70:1 (1968)"),
            ("Batessmith, Aaa", "70:2 (1968)"),
        )
        # Word-by-word filing: the hyphen break files before the run-on.
        assert got == ["Bates", "Bates-Smith", "Batessmith"]

    def test_van_block_matches_artifact(self):
        got = ordered_surnames(
            ("vanEgmond, Lee", "94:531 (1991)"),
            ("VanCamp, Stephen R.", "92:761 (1990)"),
            ("Van Tol, Joan E.", "91:1 (1988)"),
            ("Van Damme, Monique", "89:803 (1987)"),
        )
        assert got == ["Van Damme", "Van Tol", "VanCamp", "vanEgmond"]


class TestUndecomposableLetters:
    """Letters NFKD leaves whole must fold to their base letters, not
    vanish from the key."""

    @pytest.mark.parametrize("surname,expected", [
        ("Østergaard", "ostergaard"),
        ("Łukasiewicz", "lukasiewicz"),
        ("Đorđević", "dordevic"),
        ("Æsir", "aesir"),
        ("Þórsson", "thorsson"),
        ("Guðmundsson", "gudmundsson"),
        ("Œhlenschläger", "oehlenschlager"),
        ("Yıldız", "yildiz"),
        ("Strauß", "strauss"),
    ])
    def test_surname_key(self, surname, expected):
        assert surname_sort_key(surname) == expected

    def test_build_files_among_the_os(self):
        index = build_index([
            PublicationRecord.create(1, "T1", ["Stein, C."], "90:1 (1987)"),
            PublicationRecord.create(2, "T2", ["Smith, B."], "90:2 (1987)"),
            PublicationRecord.create(3, "T3", ["Østergaard, Anne"], "90:3 (1987)"),
            PublicationRecord.create(4, "T4", ["Oakes, D."], "90:4 (1987)"),
        ])
        assert [g.heading for g in index.groups()] == [
            "Oakes, D.", "Østergaard, Anne", "Smith, B.", "Stein, C.",
        ]


class TestKeys:
    def test_name_sort_key_options(self):
        from repro.names.parser import parse_name

        name = parse_name("Smith, John, Jr.")
        full = name_sort_key(name)
        no_suffix = name_sort_key(name, CollationOptions(ignore_suffix=True))
        assert len(full) > len(no_suffix)

    def test_collation_key_deterministic(self, sample_records):
        entries = [e for r in sample_records for e in explode(r)]
        assert [collation_key(e) for e in entries] == [collation_key(e) for e in entries]

    def test_naive_key_differs_on_case(self):
        entries = entries_for(
            ("mcateer, J.", "70:1 (1968)"),
            ("Maxwell, R.", "70:2 (1968)"),
        )
        naive_sorted = sorted(entries, key=naive_key)
        proper_sorted = sort_entries(entries)
        # Raw string sort puts capital M before lowercase m (wrong);
        # proper collation folds case.
        assert [e.author.surname for e in naive_sorted] == ["Maxwell", "mcateer"]
        assert [e.author.surname for e in proper_sorted] == ["Maxwell", "mcateer"]

    def test_naive_key_wrong_on_apostrophe(self):
        entries = entries_for(
            ("O'Brien, A.", "70:1 (1968)"),
            ("Oakes, B.", "70:2 (1968)"),
        )
        naive_sorted = sorted(entries, key=naive_key)
        proper_sorted = sort_entries(entries)
        # Apostrophe (0x27) < 'a': naive puts O'Brien first; folded keys
        # compare obrien > oakes, so proper order is Oakes first.
        assert [e.author.surname for e in naive_sorted] == ["O'Brien", "Oakes"]
        assert [e.author.surname for e in proper_sorted] == ["Oakes", "O'Brien"]


class TestTotalOrder:
    def test_sort_is_permutation_invariant(self, sample_records):
        import random

        entries = [e for r in sample_records for e in explode(r)]
        baseline = sort_entries(entries)
        for seed in range(5):
            shuffled = entries[:]
            random.Random(seed).shuffle(shuffled)
            assert sort_entries(shuffled) == baseline
