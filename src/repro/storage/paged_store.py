"""Read-through record map over a paged B+ tree.

:class:`PagedRecordMap` is the object :class:`~repro.storage.store.RecordStore`
swaps in for its plain ``dict`` when a store runs in ``"paged"`` data
format: the checkpointed records live on disk in a
:class:`~repro.storage.paged_btree.PagedBTree` (the *base*), and
everything written since that checkpoint lives in a small in-memory
*overlay* (a dict of records plus a tombstone set for deletes).  Reads
check the overlay first and fall through to the tree; iteration is a
two-pointer merge of the pk-sorted base, decoded a leaf at a time, with
the sorted overlay.  The result behaves like the dict the store already
uses — ``in`` / ``[key]`` / ``pop`` / ``update`` / ``values`` /
``items`` — with two deliberate differences:

* iteration order is **primary-key order**, not insertion order (the
  base is a sorted tree; a merged iteration has no insertion order to
  preserve);
* records read from the base are decoded fresh on every access (the
  tree stores canonical JSON bytes), so callers must not rely on
  object identity across reads — the store copies at its API boundary
  anyway.

The map is also the checkpoint *source*: :meth:`sorted_encoded_items`
streams ``(pk, canonical-JSON-bytes)`` pairs in pk order, reusing the
base's stored bytes for unmodified records so a checkpoint of a
million-record store with a ten-record overlay decodes ten records,
not a million.

The canonical per-record encoding (sorted keys, compact separators, no
ASCII escaping) is chosen so that concatenating the encoded records as
a JSON array reproduces byte-for-byte what
:func:`~repro.storage.store.records_checksum` hashes — one record
grammar, one checksum, shared by the snapshot writer, recovery, and
``repro fsck``.
"""

from __future__ import annotations

import json
import zlib
from itertools import chain
from typing import Any, Iterator, Mapping

from repro.storage.paged_btree import PagedBTree


def encode_record(record: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes of one record (the tree's value format)."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def decode_record(raw: bytes) -> dict[str, Any]:
    return json.loads(raw.decode("utf-8"))


def decode_leaf(values: list[bytes]) -> list[dict[str, Any]]:
    """The records of one leaf's values, decoded by one ``json.loads``
    over the JSON array they join into (the grammar
    :class:`StreamingChecksum` hashes).  One call per leaf, not per
    record, and the leaf's records share each field-name string."""
    return json.loads(b"[" + b",".join(values) + b"]")


class StreamingChecksum:
    """CRC-32 over a JSON array assembled record-by-record.

    Feeding each record's canonical bytes yields exactly the CRC that
    :func:`~repro.storage.store.records_checksum` computes over the
    materialized list — ``json.dumps(list, separators=(",", ":"))`` is
    literally ``"[" + ",".join(items) + "]"``.
    """

    def __init__(self) -> None:
        self._crc = zlib.crc32(b"[")
        self._count = 0

    def add(self, record_bytes: bytes) -> None:
        if self._count:
            self._crc = zlib.crc32(b",", self._crc)
        self._crc = zlib.crc32(record_bytes, self._crc)
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def hexdigest(self) -> str:
        return f"{zlib.crc32(b']', self._crc) & 0xFFFFFFFF:08x}"

    def value(self) -> int:
        return zlib.crc32(b"]", self._crc) & 0xFFFFFFFF


class PagedRecordMap:
    """Dict-shaped view over base tree + overlay; see the module docstring."""

    def __init__(self, tree: PagedBTree):
        self._tree = tree
        self._overlay: dict[Any, dict[str, Any]] = {}
        self._deleted: set[Any] = set()
        self._len = tree.entry_count

    @property
    def tree(self) -> PagedBTree:
        return self._tree

    @property
    def overlay_size(self) -> int:
        """Records held in memory pending the next checkpoint."""
        return len(self._overlay) + len(self._deleted)

    # -- dict surface --------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: Any) -> bool:
        if key in self._overlay:
            return True
        if key in self._deleted:
            return False
        return key in self._tree

    def __getitem__(self, key: Any) -> dict[str, Any]:
        record = self._overlay.get(key)
        if record is not None:
            return record
        if key in self._deleted:
            raise KeyError(key)
        raw = self._tree.get(key)
        if raw is None:
            raise KeyError(key)
        return decode_record(raw)

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def __setitem__(self, key: Any, record: dict[str, Any]) -> None:
        if key not in self:
            self._len += 1
        self._overlay[key] = record
        self._deleted.discard(key)

    def pop(self, key: Any) -> dict[str, Any]:
        record = self[key]  # raises KeyError when absent
        self._len -= 1
        self._overlay.pop(key, None)
        if key in self._tree:
            self._deleted.add(key)
        return record

    def update(self, other: Mapping[Any, dict[str, Any]]) -> None:
        for key, record in other.items():
            self[key] = record

    def __iter__(self) -> Iterator[Any]:
        for key, _record in self.items():
            yield key

    def keys(self) -> Iterator[Any]:
        return iter(self)

    def values(self) -> Iterator[dict[str, Any]]:
        for _key, record in self.items():
            yield record

    def items(self) -> Iterator[tuple[Any, dict[str, Any]]]:
        """Merged ``(pk, record)`` pairs in primary-key order.

        The base is decoded a leaf at a time (:func:`decode_leaf`), at
        most one leaf ahead of the consumer.  Do not mutate the map
        while iterating (the store collects first and applies after, so
        its own call sites never do).
        """
        base = (
            pair
            for keys, values in self._tree.leaves()
            for pair in zip(keys, decode_leaf(values))
        )
        overlay = ((key, self._overlay[key]) for key in sorted(self._overlay))
        return self._merged(base, overlay)

    # -- checkpoint streaming ------------------------------------------------

    def sorted_encoded_items(self) -> Iterator[tuple[Any, bytes]]:
        """``(pk, canonical bytes)`` in pk order — the checkpoint stream.

        Unmodified base records pass through as their stored bytes; only
        overlay records are (re-)encoded.
        """
        overlay = (
            (key, encode_record(self._overlay[key])) for key in sorted(self._overlay)
        )
        return self._merged(self._tree.items(), overlay)

    def _merged(
        self, base: Iterator[tuple[Any, Any]], overlay: Iterator[tuple[Any, Any]]
    ) -> Iterator[tuple[Any, Any]]:
        """Two-pointer merge of the base's pairs with the overlay's, both
        in pk order: an overlay pair replaces the base pair of its key,
        and deleted keys are skipped.  Once the overlay is spent, the
        rest of the base passes straight through."""
        deleted = self._deleted
        entry = next(base, None)
        for over_key, over_value in overlay:
            while entry is not None and entry[0] < over_key:
                if entry[0] not in deleted:
                    yield entry
                entry = next(base, None)
            if entry is not None and entry[0] == over_key:
                entry = next(base, None)
            yield over_key, over_value
        if entry is None:
            return
        rest = chain((entry,), base)
        if deleted:
            rest = (pair for pair in rest if pair[0] not in deleted)
        yield from rest

    def close(self) -> None:
        self._tree.close()


__all__ = [
    "PagedRecordMap",
    "StreamingChecksum",
    "encode_record",
    "decode_record",
    "decode_leaf",
]
