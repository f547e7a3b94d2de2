"""Unit tests for repro.names.parser — including the artifact's own spellings."""

import pytest

from repro.errors import NameParseError
from repro.names.model import NameForm
from repro.names.parser import parse_name, try_parse_name


class TestInvertedBasics:
    def test_surname_and_given(self):
        name = parse_name("Abdalla, Tarek F.")
        assert name.surname == "Abdalla"
        assert name.given == "Tarek F."
        assert name.form is NameForm.INVERTED

    def test_student_marker(self):
        name = parse_name("Abdalla, Tarek F.*")
        assert name.is_student is True
        assert name.given == "Tarek F."

    def test_no_student_marker(self):
        assert parse_name("Abdalla, Tarek F.").is_student is False

    def test_raw_preserved(self):
        assert parse_name("Abdalla, Tarek F.*").raw == "Abdalla, Tarek F.*"

    def test_single_given_name(self):
        name = parse_name("Areen, Judith")
        assert (name.surname, name.given) == ("Areen", "Judith")

    def test_initial_then_name(self):
        name = parse_name("Galloway, L. Thomas")
        assert name.given == "L. Thomas"

    def test_two_given_names(self):
        name = parse_name("Wilkinson, Carroll Wetzel")
        assert name.given == "Carroll Wetzel"


class TestSuffixes:
    def test_comma_suffix_jr(self):
        name = parse_name("Bean, Ralph J., Jr.")
        assert name.suffix == "Jr."
        assert name.given == "Ralph J."

    def test_comma_suffix_iii(self):
        name = parse_name("Arceneaux, Webster J., III")
        assert name.suffix == "III"

    def test_comma_suffix_iv(self):
        name = parse_name("Rockefeller, John D., IV")
        assert name.suffix == "IV"

    @pytest.mark.parametrize("raw", [
        "Bailey, Gene W., ll",     # OCR: ll
        "Fox, Fred L., 1I",        # OCR: 1I
        "Southworth, Louis S., Il",  # OCR: Il
        "Fisher, John W., II",
    ])
    def test_ocr_ii_variants(self, raw):
        assert parse_name(raw).suffix == "II"

    def test_ocr_iii_lll(self):
        assert parse_name("Lavender, George W., lll*").suffix == "III"

    def test_student_after_suffix(self):
        name = parse_name("McCune, W. Richard, Jr.*")
        assert name.suffix == "Jr."
        assert name.is_student is True

    def test_lone_v_is_given_initial_not_suffix(self):
        # "Watts, V" is a given initial; only Jr./Sr. and multi-char
        # numerals are accepted as a bare second segment.
        name = parse_name("Watts, V")
        assert name.suffix == ""
        assert name.given == "V"

    def test_suffix_inside_given_segment(self):
        name = parse_name("Goplerud, C. Peter III")
        assert name.suffix == "III"
        assert name.given == "C. Peter"


class TestHonorifics:
    def test_hon(self):
        name = parse_name("Byrd, Hon. Robert C.")
        assert name.honorific == "Hon."
        assert name.given == "Robert C."

    def test_hon_with_suffix(self):
        name = parse_name("Brotherton, Hon. W.T., Jr.")
        assert (name.honorific, name.given, name.suffix) == ("Hon.", "W.T.", "Jr.")

    def test_dr(self):
        name = parse_name("Weese, Dr. Samuel H.")
        assert name.honorific == "Dr."

    def test_multiword_given_after_honorific(self):
        name = parse_name("Higginbotham, Hon. A. Leon, Jr.")
        assert (name.honorific, name.given, name.suffix) == ("Hon.", "A. Leon", "Jr.")


class TestSurnameShapes:
    @pytest.mark.parametrize("surname", [
        "Bates-Smith", "Crain-Mountney", "Webster-O'Keefe", "Van Tol", "vanEgmond",
        "O'Brien", "DiSalvo", "McAteer", "FitzGerald", ".Chanbers",
    ])
    def test_surnames_roundtrip(self, surname):
        assert parse_name(f"{surname}, Alex B.").surname == surname


class TestDirectForm:
    def test_given_surname(self):
        name = parse_name("Judith Areen")
        assert (name.surname, name.given) == ("Areen", "Judith")
        assert name.form is NameForm.DIRECT

    def test_particle_surname(self):
        name = parse_name("Joan Van Tol")
        assert name.surname == "Van Tol"
        assert name.given == "Joan"

    def test_honorific_direct(self):
        name = parse_name("Hon. Patricia M. Wald")
        assert name.honorific == "Hon."
        assert name.surname == "Wald"

    def test_surname_only(self):
        name = parse_name("Bobango")
        assert name.form is NameForm.SURNAME_ONLY
        assert name.given == ""


class TestErrors:
    @pytest.mark.parametrize("raw", ["", "   ", "*", " * "])
    def test_empty_inputs_raise(self, raw):
        with pytest.raises(NameParseError):
            parse_name(raw)

    def test_try_parse_returns_none(self):
        assert try_parse_name("*") is None

    def test_try_parse_success(self):
        assert try_parse_name("Areen, Judith").surname == "Areen"

    def test_comma_only(self):
        with pytest.raises(NameParseError):
            parse_name(",")

    @pytest.mark.parametrize("raw", [",", "*"])
    def test_failure_repeats(self, raw):
        # Parses are memoized; a failure must not be, or a second call
        # would return something other than the same error.
        for _ in range(2):
            with pytest.raises(NameParseError):
                parse_name(raw)


class TestOcrCleanup:
    def test_curly_apostrophe_normalized(self):
        assert parse_name("O’Brien, James M.").surname == "O'Brien"

    def test_pipe_noise_removed(self):
        name = parse_name("Smith, |John A.")
        assert name.given == "John A."


class TestRoundTrip:
    @pytest.mark.parametrize("raw", [
        "Abdalla, Tarek F.",
        "Arceneaux, Webster J., III",
        "Byrd, Hon. Robert C.",
        "Brotherton, Hon. W.T., Jr.",
        "Van Tol, Joan E.",
        "Webster-O'Keefe, M. Katherine",
    ])
    def test_inverted_reparse_is_stable(self, raw):
        once = parse_name(raw)
        twice = parse_name(once.inverted())
        assert once.identity_key() == twice.identity_key()
        assert once.honorific == twice.honorific
