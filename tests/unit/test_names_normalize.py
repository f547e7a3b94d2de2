"""Unit tests for repro.names.normalize."""

import pytest

from repro.names.normalize import (
    equivalent_names,
    fold_case,
    normalization_key,
    strip_diacritics,
    strip_ocr_artifacts,
    surname_key,
)


class TestStripDiacritics:
    @pytest.mark.parametrize("text,expected", [
        ("Müller", "Muller"),
        ("Renée", "Renee"),
        ("Ångström", "Angstrom"),
        ("Dvořák", "Dvorak"),
        ("Østergaard", "Ostergaard"),
        ("Łódź", "Lodz"),
        ("Đorđe", "Dorde"),
        ("Æbeltoft", "AEbeltoft"),
        ("Þór", "THor"),
        ("plain", "plain"),
        ("", ""),
    ])
    def test_cases(self, text, expected):
        assert strip_diacritics(text) == expected


class TestFoldCase:
    def test_lowercases(self):
        assert fold_case("McAteer") == "mcateer"

    def test_german_sharp_s(self):
        assert fold_case("Straße") == "strasse"


class TestStripOcrArtifacts:
    def test_curly_apostrophes(self):
        assert strip_ocr_artifacts("O’Brien") == "O'Brien"

    def test_backtick(self):
        assert strip_ocr_artifacts("O`Brien") == "O'Brien"

    def test_pipes_and_brackets(self):
        assert strip_ocr_artifacts("a|b[c]d") == "a b c d"

    def test_whitespace_collapsed(self):
        assert strip_ocr_artifacts("  a   b  ") == "a b"


class TestNormalizationKey:
    def test_apostrophe_dropped(self):
        assert normalization_key("O'Brien") == "obrien"

    def test_hyphen_preserved(self):
        assert normalization_key("Bates-Smith") == "bates-smith"

    def test_punctuation_to_spaces(self):
        assert normalization_key("Tarek F.") == "tarek f"

    def test_diacritics_and_case(self):
        assert normalization_key("MÜLLER") == "muller"

    def test_empty(self):
        assert normalization_key("") == ""

    def test_commas(self):
        assert normalization_key("Smith, John") == "smith john"


class TestSurnameKey:
    def test_hyphen_becomes_space(self):
        assert surname_key("Bates-Smith") == surname_key("Bates Smith")

    def test_differs_from_normalization_key(self):
        assert normalization_key("Bates-Smith") != surname_key("Bates-Smith")


class TestEquivalentNames:
    def test_equivalent_variants(self):
        assert equivalent_names("O’Brien", "O'Brien")
        assert equivalent_names("MCATEER", "McAteer")

    def test_non_equivalent(self):
        assert not equivalent_names("Smith", "Smyth")
