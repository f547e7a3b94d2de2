"""Builders for the secondary-index tests: the ways a test makes an index
that the record store makes differently (it fills buckets in one scan of
its records and writes through ``place``/``insert_many``/``remove_many``)."""

from typing import Any, Iterable, TypeVar

from repro.storage.hashindex import HashIndex

I = TypeVar("I", bound=HashIndex)


def built(cls: type[I], pairs: Iterable[tuple[Any, Any]]) -> I:
    """An index of ``cls`` built from ``(key, value)`` pairs: grouped into
    buckets in arrival order and taken over by ``from_buckets``."""
    buckets: dict[Any, list[Any]] = {}
    for key, value in pairs:
        buckets.setdefault(key, []).append(value)
    return cls.from_buckets(buckets)


def remove_key(index: HashIndex, key: Any) -> int:
    """Remove every value under ``key``; returns how many."""
    return index.remove_many([(key, value) for value in index.search(key)])


def insert(index: HashIndex, pairs: list[tuple[Any, Any]]) -> int:
    """Insert ``pairs`` where ``place`` puts their new keys, as a store
    write does (with nothing logged in between)."""
    return index.insert_many(pairs, index.place(pairs))
