"""Unit tests for the renderers."""

import json

import pytest

from repro.core.builder import build_index
from repro.core.entry import PublicationRecord
from repro.core.pagination import PageLayout
from repro.core.render import available_formats, get_renderer
from repro.core.render.latex import latex_escape


@pytest.fixture()
def index(sample_records):
    return build_index(sample_records)


@pytest.fixture()
def tricky_index():
    return build_index([
        PublicationRecord.create(
            1,
            'Tax & Estates: 50% "Net" Gains_in <Coal> | Law {x}',
            ["O'Brien, A.*"],
            "70:1 (1968)",
        ),
    ])


class TestRegistry:
    def test_available_formats(self):
        assert set(available_formats()) == {
            "text", "markdown", "html", "latex", "json", "csv",
        }

    def test_get_renderer(self):
        assert get_renderer("text").format_name == "text"

    def test_unknown_renderer(self):
        with pytest.raises(KeyError):
            get_renderer("docx")

    @pytest.mark.parametrize("fmt", ["text", "markdown", "html", "latex", "json", "csv"])
    def test_unknown_option_rejected(self, index, fmt):
        with pytest.raises(TypeError):
            index.render(fmt, bogus_option=1)


class TestTextRenderer:
    def test_paginated_has_headers(self, index):
        output = index.render("text", layout=PageLayout(first_page=1365))
        assert "AUTHOR INDEX" in output or "WEST VIRGINIA LAW REVIEW" in output
        assert "1365" in output

    def test_unpaginated_continuous(self, index):
        output = index.render("text", paginated=False)
        assert "AUTHOR" in output.splitlines()[0]
        assert "1365" not in output

    def test_student_asterisk_rendered(self, index):
        output = index.render("text", paginated=False)
        assert "Fox, Fred L., II*" in output

    def test_long_titles_wrap(self, index):
        output = index.render("text", paginated=False)
        assert "The Public Trust Doctrine: A New" in output  # wrapped line 1

    def test_text_wraps_to_its_own_column(self):
        # The same string as a heading and as a title wraps at each
        # column's width: 26 for the author, 36 for the title.
        text = "Abernathy-Whitcombe, Jonathan Q."
        output = build_index([
            PublicationRecord.create(1, text, [text], "90:1 (1987)"),
        ]).render("text", paginated=False)
        assert output.splitlines()[2:] == [
            f"{'Abernathy-Whitcombe,':<26} {text:<36} {'90:1 (1987)':>16}",
            "Jonathan Q.",
        ]

    def test_citation_column_right_aligned(self, index):
        output = index.render("text", paginated=False)
        line = next(l for l in output.splitlines() if "69:293" in l)
        assert line.endswith("69:293 (1967)")

    def test_layout_type_checked(self, index):
        with pytest.raises(TypeError):
            index.render("text", layout="big")


class TestMarkdownRenderer:
    def test_table_structure(self, index):
        output = index.render("markdown")
        lines = output.splitlines()
        assert lines[0] == "| Author | Article | Citation |"
        assert lines[1] == "| --- | --- | --- |"

    def test_title_option(self, index):
        output = index.render("markdown", title="Author Index")
        assert output.startswith("# Author Index")

    def test_pipes_escaped(self, tricky_index):
        output = tricky_index.render("markdown")
        assert "\\|" in output

    def test_author_once_per_group(self, sample_records):
        extra = sample_records + [
            PublicationRecord.create(
                99, "Another by McAteer", ["McAteer, J. Davitt"], "86:735 (1984)"
            )
        ]
        output = build_index(extra).render("markdown")
        assert output.count("McAteer, J. Davitt") == 1

    def test_repeat_author_option(self, sample_records):
        extra = sample_records + [
            PublicationRecord.create(
                99, "Another by McAteer", ["McAteer, J. Davitt"], "86:735 (1984)"
            )
        ]
        output = build_index(extra).render("markdown", repeat_author=True)
        assert output.count("McAteer, J. Davitt") == 2


class TestHtmlRenderer:
    def test_document_structure(self, index):
        output = index.render("html")
        assert output.startswith("<!DOCTYPE html>")
        assert "</html>" in output

    def test_escaping(self, tricky_index):
        output = tricky_index.render("html")
        assert "&amp;" in output
        assert "&lt;Coal&gt;" in output
        assert "<Coal>" not in output

    def test_letter_anchors(self, index):
        output = index.render("html")
        assert 'id="letter-F"' in output
        assert 'id="letter-M"' in output

    def test_anchors_disabled(self, index):
        output = index.render("html", letter_anchors=False)
        assert "letter-" not in output

    def test_title_option(self, index):
        output = index.render("html", title="My <Index>")
        assert "<title>My &lt;Index&gt;</title>" in output


class TestLatexRenderer:
    def test_escape_function(self):
        assert latex_escape("a & b") == r"a \& b"
        assert latex_escape("50%") == r"50\%"
        assert latex_escape("x_y") == r"x\_y"
        assert latex_escape("{z}") == r"\{z\}"

    def test_longtable_body(self, index):
        output = index.render("latex")
        assert output.startswith(r"\begin{longtable}")
        assert r"\end{longtable}" in output

    def test_standalone_document(self, index):
        output = index.render("latex", standalone=True)
        assert r"\documentclass{article}" in output
        assert r"\end{document}" in output

    def test_specials_escaped(self, tricky_index):
        output = tricky_index.render("latex")
        assert r"\&" in output
        assert r"\%" in output


class TestCsvRenderer:
    def test_header_and_rows(self, index):
        import csv as csv_module
        import io

        rows = list(csv_module.DictReader(io.StringIO(index.render("csv"))))
        assert len(rows) == len(index)
        assert set(rows[0]) == {"author", "student", "title", "volume", "page", "year"}

    def test_quoting_safe(self, tricky_index):
        import csv as csv_module
        import io

        [row] = list(csv_module.DictReader(io.StringIO(tricky_index.render("csv"))))
        assert row["title"].startswith("Tax & Estates")

    def test_tab_delimiter(self, index):
        output = index.render("csv", delimiter="\t")
        assert "\t" in output.splitlines()[0]

    def test_reingestable_via_export_reader(self, index, tmp_path):
        # The CSV renderer's author column matches export.read_csv's name
        # format; a light reshape round-trips the rows.
        import csv as csv_module
        import io

        rows = list(csv_module.DictReader(io.StringIO(index.render("csv"))))
        assert all(r["volume"].isdigit() for r in rows)


class TestJsonRenderer:
    def test_valid_json_roundtrip(self, index):
        rows = json.loads(index.render("json"))
        assert len(rows) == len(index)
        assert {"author", "student", "title", "volume", "page", "year", "record_id"} <= set(rows[0])

    def test_compact_option(self, index):
        compact = index.render("json", indent=None)
        assert "\n" not in compact.strip()

    def test_order_matches_index(self, index):
        rows = json.loads(index.render("json"))
        assert [r["author"] for r in rows] == [e.author.inverted() for e in index]

    def test_indent_type_checked(self, index):
        with pytest.raises(TypeError):
            index.render("json", indent="two")
