"""Property test: a leaf directory answers like a bisect over the leaf.

Leaves are packed with ``LeafNode.pack`` from random sorted keys of one
kind (int, str or tuple), with inline and overflow values; the empty
leaf is among them.  Each leaf is then searched with a random sequence
of keys, present and absent, in any order.  Every answer must equal
``bisect_left`` over ``LeafNode.unpack(page)``; the directory must hold
each cell it decoded once, as a prefix of the leaf; and no search may
decode more cells than a scan from the first cell decodes for the same
key.
"""

from bisect import bisect_left
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import pages
from repro.storage.pages import LeafDirectory, LeafNode, OverflowRef
from tests.cached_nodes import assert_node_matches_page

KEY_KINDS = (
    st.integers(min_value=-(2**70), max_value=2**70),  # bigints past i64 too
    st.text(max_size=12),
    st.tuples(st.integers(min_value=-50, max_value=50), st.text(max_size=6)),
)
VALUES = st.one_of(
    st.binary(max_size=40),
    st.builds(
        OverflowRef,
        st.integers(min_value=1, max_value=2**32 - 1),
        st.integers(min_value=1025, max_value=2**32 - 1),
    ),
)


@st.composite
def searched_leaves(draw):
    """A packed leaf and the keys to search it for."""
    kind = draw(st.sampled_from(KEY_KINDS))
    keys = sorted(draw(st.sets(kind, max_size=30)))
    values = draw(st.lists(VALUES, min_size=len(keys), max_size=len(keys)))
    queries = st.one_of(kind, st.sampled_from(keys)) if keys else kind
    page = LeafNode(keys=keys, values=values).pack()
    return page, draw(st.lists(queries, max_size=40))


class _CountingDecoder:
    """``unpack_key`` that counts the keys decoded (a tuple's parts,
    decoded by recursion, do not count)."""

    def __init__(self) -> None:
        self.keys = 0
        self._depth = 0
        self._unpack_key = pages.unpack_key

    def __call__(self, buf, offset=0):
        self.keys += self._depth == 0
        self._depth += 1
        try:
            return self._unpack_key(buf, offset)
        finally:
            self._depth -= 1


@settings(max_examples=300, deadline=None)
@given(searched_leaves())
def test_directory_answers_like_bisect_and_decodes_no_more_than_a_scan(leaf_queries):
    page, queries = leaf_queries
    leaf = LeafNode.unpack(page)
    directory = LeafDirectory(page)
    decoder = _CountingDecoder()
    with mock.patch.object(pages, "unpack_key", decoder):
        for key in queries:
            held, decoded = len(directory.keys), decoder.keys
            found = directory.find(key)
            cells = decoder.keys - decoded
            i = bisect_left(leaf.keys, key)
            hit = i < len(leaf.keys) and leaf.keys[i] == key
            assert found == (leaf.values[i] if hit else None)
            assert cells == len(directory.keys) - held  # each decode held once
            assert cells <= min(i + 1, len(leaf.keys))  # a scan's cost
            assert_node_matches_page(directory, page)
