"""Property test: the text renderer wraps a column as ``textwrap`` does.

``_wrap`` fills texts of single-spaced, hyphen-free words that fit the
column itself and hands every other text to ``textwrap.wrap``.  Either
way the lines must be the ones ``textwrap.wrap(text, width) or [""]``
makes, or the printed artifact would change.
"""

import textwrap

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.render.text import _wrap

#: Words, and the separators that decide which path a text takes:
#: single spaces, hyphens and dashes (textwrap splits there), runs of
#: spaces, and whitespace textwrap normalises (tab, newline) or keeps
#: inside a word (no-break space, em space).  Repeats weight the draw
#: towards single spaces and hyphens between words.
words = st.text("abcdeXYZ0189", min_size=1, max_size=15)
separators = st.sampled_from(
    [" ", " ", " ", "-", "-", "--", "  ", "   ", "\t", "\n", "\xa0", "\u2003"]
)
texts = st.builds(
    lambda lead, pairs: lead + "".join(word + sep for word, sep in pairs),
    st.sampled_from(["", "", " ", "\t"]),
    st.lists(st.tuples(words, st.one_of(separators, st.just(""))), max_size=10),
)


@given(texts, st.integers(min_value=1, max_value=40))
@example("Query Optimization for Object-Oriented Databases", 36)  # hyphen
@example("Supercalifragilisticexpialidocious, Mary", 26)  # word over the width
@example("", 7)
@example("  leading and trailing  ", 10)
@settings(max_examples=1000, deadline=None)
def test_wrap_matches_textwrap(text, width):
    assert _wrap(text, width, {}) == (textwrap.wrap(text, width) or [""])
