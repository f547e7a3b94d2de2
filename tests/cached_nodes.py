"""The check that a node cached on a buffer-pool frame agrees with the
frame's bytes, shared by the paged B+ tree's unit and property tests.

Point reads keep an :class:`InternalNode` on an internal page's frame and
a :class:`LeafDirectory` on a leaf's.  A cached internal node must equal
a fresh decode.  A directory holds only a prefix of the leaf's cells, so
its keys must be the first keys of a fresh decode, with no cell held
twice, each offset must read back its cell's value, and decoding must
have stopped right after the last cell held.
"""

from __future__ import annotations

from typing import Any

from repro.storage.pages import HEADER_SIZE, InternalNode, LeafDirectory, LeafNode


def assert_node_matches_page(node: Any, data: bytes, page_id: int = 0) -> None:
    if not isinstance(node, LeafDirectory):
        assert node == InternalNode.unpack(data), f"stale node on page {page_id}"
        return
    leaf = LeafNode.unpack(data)
    held = len(node.keys)
    assert node.page is data, f"directory of other bytes on page {page_id}"
    assert node.count == len(leaf.keys)
    assert node.keys == leaf.keys[:held], f"directory keys on page {page_id}"
    assert len(node.offsets) == held
    assert [node.value(i) for i in range(held)] == leaf.values[:held]
    end = HEADER_SIZE + 4
    if held:
        last = node.offsets[-1]
        end = last + (9 if data[last] == 1 else 5 + len(leaf.values[held - 1]))
    assert node.end == end, f"directory stopped at {node.end} on page {page_id}"
