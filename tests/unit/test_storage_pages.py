"""Unit tests for repro.storage.pages: the on-disk page grammar.

The property tests pin the contract ``docs/storage_format.md`` promises:
pack → unpack → pack is **byte-identical** for every node kind and every
key type the codec supports, and any single flipped bit anywhere in a
page is caught by the CRC on first read.  The pager allocates by
extending the file, and a file opened for reading refuses writes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.pages import (
    HEADER_SIZE,
    PAGE_SIZE,
    PT_LEAF,
    InternalNode,
    LeafNode,
    OverflowRef,
    PageCorruptionError,
    PageFile,
    PageOverflowError,
    pack_key,
    page_type,
    unpack_key,
    verify_page,
)

# -- key strategies -----------------------------------------------------------

_scalar_keys = st.one_of(
    st.booleans(),
    st.integers(),  # covers i64 and the bigint escape hatch beyond it
    st.text(max_size=40),
    st.floats(allow_nan=False),
)
_keys = st.one_of(
    _scalar_keys,
    st.tuples(_scalar_keys),
    st.tuples(_scalar_keys, _scalar_keys),
    st.tuples(_scalar_keys, _scalar_keys, _scalar_keys),
)


class TestKeyCodec:
    @given(_keys)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_value_and_bytes(self, key):
        raw = pack_key(key)
        back, offset = unpack_key(raw)
        assert back == key
        assert type(back) is type(key)
        assert offset == len(raw)
        # pack -> unpack -> pack is byte-identical
        assert pack_key(back) == raw

    @given(_keys, _keys)
    @settings(max_examples=100, deadline=None)
    def test_concatenated_keys_decode_in_sequence(self, first, second):
        buf = pack_key(first) + pack_key(second)
        a, offset = unpack_key(buf)
        b, end = unpack_key(buf, offset)
        assert (a, b) == (first, second)
        assert end == len(buf)

    def test_bool_is_not_int(self):
        # bool subclasses int; the codec must keep the distinction.
        assert pack_key(True) != pack_key(1)
        assert unpack_key(pack_key(True))[0] is True
        assert unpack_key(pack_key(1))[0] == 1

    def test_bigint_beyond_i64(self):
        huge = 2**200 + 7
        assert unpack_key(pack_key(huge))[0] == huge
        assert unpack_key(pack_key(-huge))[0] == -huge

    def test_unpackable_types_rejected(self):
        with pytest.raises(StorageError):
            pack_key([1, 2])
        with pytest.raises(StorageError):
            pack_key(None)

    def test_oversized_string_rejected(self):
        with pytest.raises(StorageError):
            pack_key("x" * 70_000)


# -- node layouts -------------------------------------------------------------

_values = st.one_of(
    st.binary(max_size=60),
    st.builds(
        OverflowRef,
        head=st.integers(min_value=1, max_value=2**32 - 1),
        length=st.integers(min_value=0, max_value=2**32 - 1),
    ),
)


@st.composite
def _leaf_nodes(draw):
    keys = sorted(
        draw(st.sets(st.integers(min_value=-(2**40), max_value=2**40),
                     max_size=20))
    )
    values = [draw(_values) for _ in keys]
    return LeafNode(
        keys=keys,
        values=values,
        prev_leaf=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        next_leaf=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


@st.composite
def _internal_nodes(draw):
    keys = sorted(
        draw(st.sets(st.integers(min_value=-(2**40), max_value=2**40),
                     max_size=30))
    )
    children = [
        draw(st.integers(min_value=1, max_value=2**32 - 1))
        for _ in range(len(keys) + 1)
    ]
    return InternalNode(keys=keys, children=children)


class TestNodePacking:
    @given(_leaf_nodes())
    @settings(max_examples=100, deadline=None)
    def test_leaf_pack_unpack_pack_byte_identical(self, node):
        page = node.pack()
        assert len(page) == PAGE_SIZE
        verify_page(page, 1)  # pack() stamps a valid CRC
        back = LeafNode.unpack(page)
        assert back.keys == node.keys
        assert back.values == node.values
        assert back.prev_leaf == node.prev_leaf
        assert back.next_leaf == node.next_leaf
        assert back.pack() == page

    @given(_internal_nodes())
    @settings(max_examples=100, deadline=None)
    def test_internal_pack_unpack_pack_byte_identical(self, node):
        page = node.pack()
        back = InternalNode.unpack(page)
        assert back.keys == node.keys
        assert back.children == node.children
        assert back.pack() == page

    def test_leaf_overflow_raises(self):
        node = LeafNode(keys=[1], values=[b"x" * 300])
        with pytest.raises(PageOverflowError):
            node.pack(page_size=256)

    def test_internal_child_count_mismatch_rejected(self):
        with pytest.raises(StorageError):
            InternalNode(keys=[1, 2], children=[3, 4]).pack()

    def test_wrong_page_type_rejected(self):
        leaf_page = LeafNode(keys=[], values=[]).pack()
        with pytest.raises(StorageError):
            InternalNode.unpack(leaf_page)


class TestPageChecksum:
    @given(
        _leaf_nodes(),
        st.integers(min_value=0, max_value=PAGE_SIZE - 1),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_flipped_bit_is_detected(self, node, byte_index, bit):
        page = bytearray(node.pack())
        page[byte_index] ^= 1 << bit
        with pytest.raises(PageCorruptionError) as excinfo:
            verify_page(bytes(page), 42)
        assert excinfo.value.page_id == 42

    def test_short_page_rejected(self):
        with pytest.raises(PageCorruptionError):
            verify_page(b"\x00" * 100, 0)


# -- the pager ----------------------------------------------------------------


class TestPageFile:
    def test_create_and_reopen_meta(self, tmp_path):
        path = tmp_path / "p.pages"
        with PageFile(path, create=True) as pf:
            pid = pf.allocate()
            pf.write_page(pid, LeafNode(keys=[1], values=[b"v"]).pack())
            pf.meta.root = pid
            pf.meta.entry_count = 1
            pf.meta.data_crc = 0xDEADBEEF
            pf.write_meta()
            pf.fsync()
        with PageFile(path) as pf:
            assert pf.meta.root == pid
            assert pf.meta.entry_count == 1
            assert pf.meta.data_crc == 0xDEADBEEF
            assert LeafNode.unpack(pf.read_page(pid)).keys == [1]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            PageFile(tmp_path / "absent.pages")

    def test_allocate_extends_the_file(self, tmp_path):
        with PageFile(tmp_path / "p.pages", create=True) as pf:
            assert [pf.allocate() for _ in range(4)] == [1, 2, 3, 4]
            assert pf.meta.page_count == 5  # page 0 is the meta page

    def test_reader_refuses_writes(self, tmp_path):
        path = tmp_path / "p.pages"
        with PageFile(path, create=True) as pf:
            pid = pf.allocate()
            pf.write_page(pid, LeafNode(keys=[1], values=[b"v"]).pack())
            pf.write_meta()
        published = path.read_bytes()
        with PageFile(path) as pf:
            with pytest.raises(OSError):
                pf.write_page(pid, LeafNode(keys=[2], values=[b"w"]).pack())
            with pytest.raises(OSError):
                pf.write_meta()
            assert LeafNode.unpack(pf.read_page(pid)).keys == [1]
        assert path.read_bytes() == published

    def test_read_detects_disk_corruption(self, tmp_path):
        path = tmp_path / "p.pages"
        with PageFile(path, create=True) as pf:
            pid = pf.allocate()
            pf.write_page(pid, LeafNode(keys=[5], values=[b"v"]).pack())
            pf.write_meta()
        raw = bytearray(path.read_bytes())
        raw[pid * PAGE_SIZE + HEADER_SIZE + 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with PageFile(path) as pf:
            with pytest.raises(PageCorruptionError) as excinfo:
                pf.read_page(pid)
            assert excinfo.value.page_id == pid

    def test_page_type_helper(self):
        assert page_type(LeafNode(keys=[], values=[]).pack()) == PT_LEAF
