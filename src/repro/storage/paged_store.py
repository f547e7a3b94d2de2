"""Read-through record map over a paged B+ tree.

:class:`PagedRecordMap` is the object :class:`~repro.storage.store.RecordStore`
swaps in for its plain ``dict`` when a store has a paged checkpoint: the
checkpointed records live on disk in a
:class:`~repro.storage.paged_btree.PagedBTree` (the *base*), and
everything written since that checkpoint lives in a small in-memory
*overlay* (a dict of records plus the set of base keys it hides, each
replaced by an overlay record or deleted).  Reads check the overlay
first and fall through to the tree; iteration is a two-pointer merge of
the pk-sorted base, decoded a leaf at a time, with the sorted overlay.
The reading surface is the dict one the store uses — ``in`` / ``[key]``
/ ``len`` / iteration / ``values`` / ``items`` — with two deliberate
differences:

* iteration order is **primary-key order**, not insertion order (the
  base is a sorted tree; a merged iteration has no insertion order to
  preserve);
* records read from the base are decoded fresh on every access (the
  tree stores canonical JSON bytes), so callers must not rely on
  object identity across reads — the store copies at its API boundary
  anyway.

A store write looks each key up once (:meth:`PagedRecordMap.probe`, at
most one tree descent) and applies with the probes carried in
(:meth:`PagedRecordMap.write`).

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
from repro.storage.pages import OverflowRef


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
        #: Base keys the overlay replaces (also in it) or deletes.
        self._hidden: set[Any] = set()
        self._len = tree.entry_count

    @property
    def tree(self) -> PagedBTree:
        return self._tree

    @property
    def overlay_size(self) -> int:
        """Records and deletions held in memory pending the next checkpoint."""
        return len(self._hidden.union(self._overlay))

    # -- dict surface --------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: Any) -> bool:
        return self.probe(key) is not None

    def __getitem__(self, key: Any) -> dict[str, Any]:
        found = self.probe(key)
        if found is None:
            raise KeyError(key)
        return self.record(found)

    def __iter__(self) -> Iterator[Any]:
        """Keys in primary-key order: the leaves' keys merged with the
        overlay's.  No value is loaded and no record decoded."""
        base = ((key, None) for key in self._tree.keys())
        overlay = ((key, None) for key in sorted(self._overlay))
        return (key for key, _ in self._merged(base, overlay))

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

    # -- the write path ------------------------------------------------------

    def probe(self, key: Any) -> dict[str, Any] | bytes | OverflowRef | None:
        """What the map holds under ``key``: an overlay record, the base's
        undecoded cell (see :meth:`record`), or ``None``.  At most one
        tree descent, none for a key the overlay holds or hides."""
        record = self._overlay.get(key)
        if record is not None or key in self._hidden:
            return record
        return self._tree.find(key)

    def record(self, found: dict[str, Any] | bytes | OverflowRef) -> dict[str, Any]:
        """The record a non-``None`` :meth:`probe` result holds, decoded
        when it came from the base."""
        if isinstance(found, dict):
            return found
        return decode_record(self._tree.load_value(found))

    def write(
        self, changes: Mapping[Any, dict[str, Any] | None], found: Mapping[Any, Any]
    ) -> None:
        """Apply ``changes`` (key → new record, or ``None`` to delete),
        given what :meth:`probe` found under each key; no key is looked
        up again.  Deleting an absent key is a no-op."""
        overlay, hidden = self._overlay, self._hidden
        for key, record in changes.items():
            old = found[key]
            if old is not None and not isinstance(old, dict):
                hidden.add(key)  # a base record is replaced or deleted
            self._len += (record is not None) - (old is not None)
            if record is None:
                overlay.pop(key, None)
            else:
                overlay[key] = record

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
        in pk order: hidden base keys are skipped, so an overlay pair
        replaces the base pair of its key.  Once the overlay is spent,
        the rest of the base passes straight through."""
        hidden = self._hidden
        entry = next(base, None)
        for over_key, over_value in overlay:
            while entry is not None and entry[0] < over_key:
                if entry[0] not in hidden:
                    yield entry
                entry = next(base, None)
            if entry is not None and entry[0] == over_key:
                entry = next(base, None)
            yield over_key, over_value
        if entry is None:
            return
        rest = chain((entry,), base)
        if hidden:
            rest = (pair for pair in rest if pair[0] not in hidden)
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
