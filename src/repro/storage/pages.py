"""Fixed-size page format for the on-disk B+ tree.

Everything the paged storage engine puts on disk is a **4 KiB page**
(:data:`PAGE_SIZE`).  This module owns the byte-level grammar — the page
header, the ``struct``-packed leaf/internal node layouts, the key codec
and the overflow-chain encoding — plus :class:`PageFile`, the pager that
reads, writes and allocates pages through the
:mod:`repro.storage.faultfs` filesystem facade (so the crash matrix can
tear page writes exactly like WAL writes).  A pages file is written
once, by its build; a reader opens it read-only.

The full grammar, with a worked hexdump, is documented in
``docs/storage_format.md``; this docstring keeps only the summary.

Page header (12 bytes, little-endian, ``<BBHII``)::

    offset 0  u8   type        1=meta 2=internal 3=leaf 4=overflow
                               (5 is reserved)
    offset 1  u8   flags       reserved, 0
    offset 2  u16  count       keys (leaf/internal) or payload bytes (overflow)
    offset 4  u32  crc32       CRC-32 of the page with this field zeroed
    offset 8  u32  next        leaf: next leaf · overflow: next chunk · else 0

The CRC covers the *whole* page (header included, CRC field zeroed), so a
torn or bit-flipped page is detected on first read — ``repro fsck`` walks
every reachable page and reports the damaged page id.

Keys are type-tagged so a page file round-trips ``int`` / ``str`` /
``float`` / ``bool`` / tuple keys byte-identically; see :func:`pack_key`.
Values are opaque byte strings.  A value larger than
:data:`OVERFLOW_THRESHOLD` moves to a chain of overflow pages and the
leaf cell keeps only ``(head page, total length)``.

>>> node = LeafNode(keys=[1, 2], values=[b"a", b"bb"], prev_leaf=0, next_leaf=7)
>>> page = node.pack(page_size=256)
>>> len(page)
256
>>> back = LeafNode.unpack(page)
>>> back.keys, back.values, back.next_leaf
([1, 2], [b'a', b'bb'], 7)
>>> back.pack(page_size=256) == page
True
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from repro.errors import StorageError
from repro.storage import faultfs as _faultfs

#: One page; every read and write is exactly this many bytes.
PAGE_SIZE = 4096

#: Page header: type, flags, count, crc32, next.
HEADER = struct.Struct("<BBHII")
HEADER_SIZE = HEADER.size  # 12

#: Page types (header byte 0).  Type 5 is reserved: it marked free-list
#: pages, and no pages file has a free list.
PT_META = 1
PT_INTERNAL = 2
PT_LEAF = 3
PT_OVERFLOW = 4

#: Meta-page payload: magic, version, page_size, root, free_head (always
#: 0), page_count, entry_count, data_crc.
META = struct.Struct("<4sHIIIIQI")
META_MAGIC = b"RPG1"
META_VERSION = 1

#: Values longer than this leave the leaf for an overflow chain.  Kept
#: well under the page payload so a leaf always holds several cells.
OVERFLOW_THRESHOLD = 1024

#: Usable payload bytes per overflow page.
OVERFLOW_CAPACITY = PAGE_SIZE - HEADER_SIZE

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_OVERFLOW_REF = struct.Struct("<II")  # head page, total length


class PageCorruptionError(StorageError):
    """A page failed its CRC or structural checks.

    Carries ``page_id`` so fsck can report exactly which page is damaged.
    """

    def __init__(self, page_id: int, reason: str):
        super().__init__(f"page {page_id}: {reason}")
        self.page_id = page_id
        self.reason = reason


class PageOverflowError(StorageError):
    """A node does not fit in one page."""


# -- key codec ---------------------------------------------------------------

_TAG_INT = 0x01
_TAG_STR = 0x02
_TAG_FLOAT = 0x03
_TAG_BOOL = 0x04
_TAG_BIGINT = 0x05  # decimal string, for ints outside i64
_TAG_TUPLE = 0x06

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def pack_key(key: Any) -> bytes:
    """Canonical tagged bytes of an index key.

    Round-trips ``int`` / ``str`` / ``float`` / ``bool`` and tuples of
    those (composite keys) exactly: ``unpack_key(pack_key(k))[0] == k``
    with the original type (``bool`` is tagged apart from ``int``).
    """
    # bool first: it subclasses int and must keep its type through a
    # round-trip or reopened routing/range semantics would change.
    if isinstance(key, bool):
        return bytes((_TAG_BOOL, 1 if key else 0))
    if isinstance(key, int):
        if _I64_MIN <= key <= _I64_MAX:
            return bytes((_TAG_INT,)) + _I64.pack(key)
        digits = str(key).encode("ascii")
        return bytes((_TAG_BIGINT,)) + _U16.pack(len(digits)) + digits
    if isinstance(key, str):
        raw = key.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise StorageError(f"key too long to page ({len(raw)} bytes)")
        return bytes((_TAG_STR,)) + _U16.pack(len(raw)) + raw
    if isinstance(key, float):
        return bytes((_TAG_FLOAT,)) + _F64.pack(key)
    if isinstance(key, tuple):
        parts = [bytes((_TAG_TUPLE,)), _U16.pack(len(key))]
        parts.extend(pack_key(part) for part in key)
        return b"".join(parts)
    raise StorageError(f"unpageable key type {type(key).__name__!r}")


def unpack_key(buf: bytes | memoryview, offset: int = 0) -> tuple[Any, int]:
    """Decode one key at ``offset``; returns ``(key, next_offset)``."""
    tag = buf[offset]
    offset += 1
    if tag == _TAG_INT:
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == _TAG_STR:
        (length,) = _U16.unpack_from(buf, offset)
        offset += 2
        return bytes(buf[offset : offset + length]).decode("utf-8"), offset + length
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag == _TAG_BOOL:
        return buf[offset] == 1, offset + 1
    if tag == _TAG_BIGINT:
        (length,) = _U16.unpack_from(buf, offset)
        offset += 2
        return int(bytes(buf[offset : offset + length])), offset + length
    if tag == _TAG_TUPLE:
        (count,) = _U16.unpack_from(buf, offset)
        offset += 2
        parts = []
        for _ in range(count):
            part, offset = unpack_key(buf, offset)
            parts.append(part)
        return tuple(parts), offset
    raise StorageError(f"unknown key tag 0x{tag:02x}")


# -- page checksum -----------------------------------------------------------


def finalize_page(page: bytearray) -> bytes:
    """Stamp the header CRC and return the immutable page bytes.

    The CRC covers the full page with the CRC field itself zeroed, so
    header damage (a flipped type byte, a torn ``next`` pointer) is
    caught exactly like payload damage.  Works for any page size (tests
    pack toy-sized pages).
    """
    page[4:8] = b"\x00\x00\x00\x00"
    crc = zlib.crc32(page) & 0xFFFFFFFF
    page[4:8] = _U32.pack(crc)
    return bytes(page)


def verify_page(page: bytes, page_id: int) -> None:
    """Raise :class:`PageCorruptionError` unless the page CRC matches."""
    if len(page) != PAGE_SIZE:
        raise PageCorruptionError(
            page_id, f"short page: {len(page)} of {PAGE_SIZE} bytes"
        )
    stored = _U32.unpack_from(page, 4)[0]
    scratch = bytearray(page)
    scratch[4:8] = b"\x00\x00\x00\x00"
    actual = zlib.crc32(scratch) & 0xFFFFFFFF
    if stored != actual:
        raise PageCorruptionError(
            page_id, f"checksum mismatch: stored {stored:08x}, computed {actual:08x}"
        )


def page_type(page: bytes) -> int:
    """The type byte of a raw page."""
    return page[0]


# -- node layouts ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OverflowRef:
    """A leaf value spilled to an overflow chain: head page + total length."""

    head: int
    length: int


@dataclass(slots=True)
class LeafNode:
    """A leaf page: sorted keys with values (inline bytes or overflow refs).

    Payload layout after the header::

        u32 prev_leaf
        count × cell:
            u16 key_len · key bytes ·
            u8 vtag (0 inline, 1 overflow) ·
            inline:   u32 value_len · value bytes
            overflow: u32 head_page · u32 total_len
    """

    keys: list[Any]
    values: list[bytes | OverflowRef]
    prev_leaf: int = 0
    next_leaf: int = 0

    @staticmethod
    def cell_size(key_len: int, value: bytes | OverflowRef) -> int:
        """Bytes of one cell whose key packs to ``key_len`` bytes."""
        if isinstance(value, OverflowRef):
            return 2 + key_len + 1 + 8
        return 2 + key_len + 1 + 4 + len(value)

    def pack(self, *, page_size: int = PAGE_SIZE) -> bytes:
        out = bytearray()
        out += _U32.pack(self.prev_leaf)
        for key, value in zip(self.keys, self.values):
            key_bytes = pack_key(key)
            out += _U16.pack(len(key_bytes))
            out += key_bytes
            if isinstance(value, OverflowRef):
                out += b"\x01" + _U32.pack(value.head) + _U32.pack(value.length)
            else:
                out += b"\x00" + _U32.pack(len(value)) + value
        if HEADER_SIZE + len(out) > page_size:
            raise PageOverflowError(
                f"leaf needs {HEADER_SIZE + len(out)} bytes, page is {page_size}"
            )
        page = bytearray(page_size)
        HEADER.pack_into(page, 0, PT_LEAF, 0, len(self.keys), 0, self.next_leaf)
        page[HEADER_SIZE : HEADER_SIZE + len(out)] = out
        return finalize_page(page)

    @classmethod
    def unpack(cls, page: bytes) -> "LeafNode":
        ptype, _flags, count, _crc, next_leaf = HEADER.unpack_from(page, 0)
        if ptype != PT_LEAF:
            raise StorageError(f"not a leaf page (type {ptype})")
        view = memoryview(page)
        offset = HEADER_SIZE
        (prev_leaf,) = _U32.unpack_from(view, offset)
        offset += 4
        keys: list[Any] = []
        values: list[bytes | OverflowRef] = []
        for _ in range(count):
            (key_len,) = _U16.unpack_from(view, offset)
            offset += 2
            key, _ = unpack_key(view, offset)
            offset += key_len
            vtag = view[offset]
            offset += 1
            if vtag == 1:
                head, length = _OVERFLOW_REF.unpack_from(view, offset)
                offset += 8
                values.append(OverflowRef(head, length))
            else:
                (vlen,) = _U32.unpack_from(view, offset)
                offset += 4
                values.append(bytes(view[offset : offset + vlen]))
                offset += vlen
            keys.append(key)
        return cls(keys=keys, values=values, prev_leaf=prev_leaf, next_leaf=next_leaf)


class LeafDirectory:
    """The cells of one raw leaf page decoded so far, for point searches.

    Cells are key-sorted but variable-length, so a search reads them
    front to back.  The directory keeps what earlier searches read:
    ``keys``, a prefix of the leaf's keys; ``offsets``, where each of
    those keys' value (its tag byte) sits in ``page``; and ``end``, where
    decoding stopped.  A key not above ``keys[-1]`` is bisected in that
    prefix; any other resumes decoding at ``end`` until a key not below
    it.  No search decodes more cells than a scan from the first cell
    would, and no cell is decoded twice.  Answers match ``bisect_left``
    over :meth:`LeafNode.unpack`'s keys, and only a matched value is
    copied out.

    :meth:`find` grows the directory, so readers that share one must
    serialize their searches (the paged B+ tree searches under the
    buffer pool's lock).

    >>> page = LeafNode(keys=[1, 5, 9], values=[b"a", b"e", b"i"]).pack(page_size=256)
    >>> directory = LeafDirectory(page)
    >>> directory.find(5), directory.keys
    (b'e', [1, 5])
    >>> directory.find(3), directory.find(10), directory.keys
    (None, None, [1, 5, 9])
    """

    __slots__ = ("page", "count", "keys", "offsets", "end")

    def __init__(self, page: bytes):
        ptype, _flags, count, _crc, _next = HEADER.unpack_from(page, 0)
        if ptype != PT_LEAF:
            raise StorageError(f"not a leaf page (type {ptype})")
        self.page = page
        self.count = count
        self.keys: list[Any] = []
        self.offsets: list[int] = []
        self.end = HEADER_SIZE + 4

    def find(self, key: Any) -> bytes | OverflowRef | None:
        """The stored value of ``key``, or ``None``."""
        keys = self.keys
        if keys and not keys[-1] < key:
            i = bisect_left(keys, key)
            return self.value(i) if keys[i] == key else None
        page, offsets = self.page, self.offsets
        offset = self.end
        try:
            for _ in range(self.count - len(keys)):
                (key_len,) = _U16.unpack_from(page, offset)
                cell_key, _ = unpack_key(page, offset + 2)
                at = offset + 2 + key_len
                offset = at + (
                    9 if page[at] == 1 else 5 + _U32.unpack_from(page, at + 1)[0]
                )
                keys.append(cell_key)
                offsets.append(at)
                if not cell_key < key:
                    return self.value(len(keys) - 1) if cell_key == key else None
            return None
        finally:
            # Also on a failed comparison: the cells appended stay
            # decoded, and the next search resumes after them.
            self.end = offset

    def value(self, i: int) -> bytes | OverflowRef:
        """The stored value of the ``i``-th decoded cell."""
        page, at = self.page, self.offsets[i]
        if page[at] == 1:
            return OverflowRef(*_OVERFLOW_REF.unpack_from(page, at + 1))
        (vlen,) = _U32.unpack_from(page, at + 1)
        return bytes(page[at + 5 : at + 5 + vlen])


@dataclass(slots=True)
class InternalNode:
    """An internal page: ``count`` separator keys and ``count+1`` children.

    ``children[i]`` covers keys in ``[keys[i-1], keys[i])`` (open ends at
    the edges).  Payload layout after the header::

        (count+1) × u32 child_page
        count × (u16 key_len · key bytes)
    """

    keys: list[Any]
    children: list[int]

    def pack(self, *, page_size: int = PAGE_SIZE) -> bytes:
        if len(self.children) != len(self.keys) + 1:
            raise StorageError(
                f"internal node with {len(self.keys)} keys needs "
                f"{len(self.keys) + 1} children, has {len(self.children)}"
            )
        out = bytearray()
        for child in self.children:
            out += _U32.pack(child)
        for key in self.keys:
            key_bytes = pack_key(key)
            out += _U16.pack(len(key_bytes))
            out += key_bytes
        if HEADER_SIZE + len(out) > page_size:
            raise PageOverflowError(
                f"internal node needs {HEADER_SIZE + len(out)} bytes, "
                f"page is {page_size}"
            )
        page = bytearray(page_size)
        HEADER.pack_into(page, 0, PT_INTERNAL, 0, len(self.keys), 0, 0)
        page[HEADER_SIZE : HEADER_SIZE + len(out)] = out
        return finalize_page(page)

    @classmethod
    def unpack(cls, page: bytes) -> "InternalNode":
        ptype, _flags, count, _crc, _next = HEADER.unpack_from(page, 0)
        if ptype != PT_INTERNAL:
            raise StorageError(f"not an internal page (type {ptype})")
        view = memoryview(page)
        offset = HEADER_SIZE
        children = list(struct.unpack_from(f"<{count + 1}I", view, offset))
        offset += 4 * (count + 1)
        keys: list[Any] = []
        for _ in range(count):
            (key_len,) = _U16.unpack_from(view, offset)
            offset += 2
            key, _ = unpack_key(view, offset)
            offset += key_len
            keys.append(key)
        return cls(keys=keys, children=children)


# -- the pager ---------------------------------------------------------------


@dataclass(slots=True)
class _Meta:
    root: int = 0
    free_head: int = 0
    page_count: int = 1  # page 0 is the meta page itself
    entry_count: int = 0
    data_crc: int = 0


class PageFile:
    """Raw page I/O over one file: read, write, allocate.

    The pager is deliberately dumb — no caching, no tree knowledge; the
    :class:`~repro.storage.bufferpool.BufferPool` provides caching and
    the :class:`~repro.storage.paged_btree.PagedBTree` provides
    structure.  All writes go through the :mod:`~repro.storage.faultfs`
    facade so crash tests can tear them.

    ``create=True`` starts an empty file to build in: :meth:`allocate`
    extends it by one page id at a time, and nothing is written until
    the builder writes a page.  Without it the file is opened
    read-only, so a published pages file cannot be written again.

    Page 0 is the **meta page**: magic, format version, page size, root
    page id, free-list head (always 0: pages files have no free list),
    page count, entry count, and the data CRC the store layer stamps
    (CRC-32 of the canonical records JSON).  A build writes it last.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        fs: _faultfs.FileSystem | None = None,
        create: bool = False,
    ):
        self.path = Path(path)
        self._fs = fs if fs is not None else _faultfs.REAL_FS
        if not create and not self.path.exists():
            raise StorageError(f"page file {self.path} does not exist")
        self._fh: BinaryIO = self._fs.open(self.path, "w+b" if create else "rb")
        self.meta = _Meta()
        if not create:
            try:
                self._load_meta()
            except BaseException:
                self._fh.close()
                raise

    # -- meta ----------------------------------------------------------------

    def _load_meta(self) -> None:
        raw = self.read_page(0)
        if page_type(raw) != PT_META:
            raise PageCorruptionError(0, f"meta page has type {raw[0]}")
        magic, version, page_size, root, free_head, page_count, entries, crc = (
            META.unpack_from(raw, HEADER_SIZE)
        )
        if magic != META_MAGIC:
            raise PageCorruptionError(0, f"bad magic {magic!r}")
        if version != META_VERSION:
            raise StorageError(f"unsupported page-file version {version}")
        if page_size != PAGE_SIZE:
            raise StorageError(
                f"page file uses {page_size}-byte pages, expected {PAGE_SIZE}"
            )
        self.meta = _Meta(
            root=root,
            free_head=free_head,
            page_count=page_count,
            entry_count=entries,
            data_crc=crc,
        )

    def write_meta(self) -> None:
        """Persist the meta page (root, counts, data CRC)."""
        page = bytearray(PAGE_SIZE)
        HEADER.pack_into(page, 0, PT_META, 0, 0, 0, 0)
        META.pack_into(
            page,
            HEADER_SIZE,
            META_MAGIC,
            META_VERSION,
            PAGE_SIZE,
            self.meta.root,
            self.meta.free_head,
            self.meta.page_count,
            self.meta.entry_count,
            self.meta.data_crc,
        )
        self.write_page(0, finalize_page(page))

    # -- raw page I/O --------------------------------------------------------

    def read_page(self, page_id: int) -> bytes:
        """Read and CRC-verify one page."""
        self._fh.seek(page_id * PAGE_SIZE)
        raw = self._fh.read(PAGE_SIZE)
        verify_page(raw, page_id)
        return raw

    def write_page(self, page_id: int, page: bytes) -> None:
        """Write one finalized (CRC-stamped) page."""
        if len(page) != PAGE_SIZE:
            raise StorageError(f"page must be {PAGE_SIZE} bytes, got {len(page)}")
        self._fh.seek(page_id * PAGE_SIZE)
        self._fh.write(page)

    # -- allocation ----------------------------------------------------------

    def allocate(self) -> int:
        """A fresh page id, at the end of the file."""
        page_id = self.meta.page_count
        self.meta.page_count += 1
        return page_id

    # -- durability ----------------------------------------------------------

    def fsync(self) -> None:
        self._fs.fsync(self._fh)

    def close(self) -> None:
        if not getattr(self._fh, "closed", True):
            self._fh.close()

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "PAGE_SIZE",
    "HEADER_SIZE",
    "PT_META",
    "PT_INTERNAL",
    "PT_LEAF",
    "PT_OVERFLOW",
    "OVERFLOW_THRESHOLD",
    "OVERFLOW_CAPACITY",
    "OverflowRef",
    "LeafNode",
    "LeafDirectory",
    "InternalNode",
    "PageFile",
    "PageCorruptionError",
    "PageOverflowError",
    "pack_key",
    "unpack_key",
    "finalize_page",
    "verify_page",
    "page_type",
]
