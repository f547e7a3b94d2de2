"""Plain-text facsimile renderer.

Reproduces the look of the printed artifact: paginated three-column layout
with running headers, wrapped titles, and the author printed once per row
group.  This is the renderer the fidelity experiment (E1) inspects.
"""

from __future__ import annotations

import textwrap
from typing import TYPE_CHECKING

from repro.core.entry import IndexEntry
from repro.core.pagination import PageLayout, paginate
from repro.core.render.base import Renderer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.builder import AuthorIndex

_AUTHOR_WIDTH = 26
_TITLE_WIDTH = 36
_CITE_WIDTH = 16


class TextRenderer(Renderer):
    """Facsimile text output (see module docstring)."""

    format_name = "text"

    def render(self, index: "AuthorIndex", **options: object) -> str:
        """Render.

        Options
        -------
        layout:
            A :class:`PageLayout`; defaults to the artifact's layout.
        paginated:
            When False (default True), emit one continuous table without
            page furniture — easier to diff and to feed to other tools.
        """
        self._reject_unknown(options, "layout", "paginated")
        layout = options.get("layout", PageLayout())
        if not isinstance(layout, PageLayout):
            raise TypeError("layout must be a PageLayout")
        paginated = bool(options.get("paginated", True))

        wrapped: dict[tuple[str, int], list[str]] = {}
        if not paginated:
            lines = [layout.column_head(), ""]
            for entry in index:
                lines.extend(_entry_lines(entry, wrapped))
            return "\n".join(lines).rstrip() + "\n"

        blocks: list[str] = []
        for page in paginate(index, layout):
            lines = [page.header, "", page.column_head, ""]
            for entry in page.entries:
                lines.extend(_entry_lines(entry, wrapped))
            blocks.append("\n".join(lines).rstrip())
        return "\n\n".join(blocks) + "\n"


def _wrap(text: str, width: int, wrapped: dict[tuple[str, int], list[str]]) -> list[str]:
    """``textwrap.wrap(text, width) or [""]``, done once per distinct
    text in ``wrapped``: an author heading repeats on each of its rows,
    and a co-authored title on each co-author's row.

    A text whose only whitespace is single spaces between words, with no
    hyphen and no word wider than ``width``, is filled here: one line if
    it fits, else words taken greedily, which is what ``textwrap`` makes
    of it.  Any other text goes to ``textwrap``, which also splits at
    hyphens, breaks long words and normalises whitespace.
    """
    lines = wrapped.get((text, width))
    if lines is not None:
        return lines
    words = text.split(" ")
    if "-" in text or words != text.split() or max(map(len, words)) > width:
        lines = textwrap.wrap(text, width) or [""]
    elif len(text) <= width:
        lines = [text]
    else:
        lines = []
        line = words[0]
        for word in words[1:]:
            if len(line) + 1 + len(word) <= width:
                line += " " + word
            else:
                lines.append(line)
                line = word
        lines.append(line)
    wrapped[text, width] = lines
    return lines


def _entry_lines(entry: IndexEntry, wrapped: dict[tuple[str, int], list[str]]) -> list[str]:
    """Lay one entry out across as many lines as its columns need."""
    author_text = entry.author.inverted() + ("*" if entry.is_student_work else "")
    author_lines = _wrap(author_text, _AUTHOR_WIDTH, wrapped)
    title_lines = _wrap(entry.title, _TITLE_WIDTH, wrapped)
    cite_lines = [entry.citation.columnar()]

    # The wrapped lists are shared between rows: pad copies, not them.
    height = max(len(author_lines), len(title_lines), len(cite_lines))
    author_lines = author_lines + [""] * (height - len(author_lines))
    title_lines = title_lines + [""] * (height - len(title_lines))
    cite_lines += [""] * (height - len(cite_lines))

    return [
        f"{a.ljust(_AUTHOR_WIDTH)} {t.ljust(_TITLE_WIDTH)} {c.rjust(_CITE_WIDTH)}".rstrip()
        for a, t, c in zip(author_lines, title_lines, cite_lines)
    ]
