"""Stateful property test: the record store against a dict model.

Hypothesis drives arbitrary interleavings of single-record writes
(upsert/update/delete), bulk writes (``put_many``, ``update_where``,
``delete_where``), index declaration, checkpoints and two kinds of
restart — a clean close and reopen, and a crash that abandons the open
store without ``close()`` — checking after every step that the store
agrees with a plain-dict model.  Restarts exercise WAL replay on top of
the paged checkpoint; besides point reads and index probes, four queries
run through the query engine and must match a filter over the model.

The same machine runs over a durable :class:`RecordStore` and a durable
3-shard :class:`ShardedStore`, both queried by :class:`QueryEngine`.  On
the sharded store two more rules quarantine and readmit shards: while a
shard is out of service a strict query raises, and a ``partial=True``
query matches the model without that shard's records.  Quarantine is
persisted, so it also has to survive the restarts.
"""

import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import DuplicateKeyError, RecordNotFoundError, ShardUnavailableError
from repro.query import QueryEngine
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.sharded import ShardedStore
from repro.storage.store import IndexKind, RecordStore

SCHEMA = Schema(
    [
        Field("id", FieldType.INT),
        Field("name", FieldType.STRING),
        Field("year", FieldType.INT),
    ],
    primary_key="id",
)

NAMES = ("a", "b", "c", "d")
keys = st.integers(min_value=0, max_value=20)
names = st.sampled_from(NAMES)
years = st.integers(min_value=1960, max_value=2000)
rows = st.lists(st.tuples(keys, names, years), max_size=8)


class StoreMachine(RuleBasedStateMachine):
    #: ``None`` drives a single RecordStore; N drives an N-shard store.
    shards: int | None = None

    def __init__(self):
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="repro-store-prop-")
        self.model: dict[int, dict] = {}
        #: Whether the index declarations made so far reached a checkpoint
        #: (declarations are durable from the next checkpoint only).
        self.indexes_durable = False
        self.indexes_declared = False
        #: Stores left open by ``crash``; closed only at teardown, long
        #: after their replacement recovered from disk.
        self._abandoned: list = []
        #: Shards out of service (sharded machine only).
        self.quarantined: set[int] = set()
        self._open()

    def _open(self):
        if self.shards is None:
            self.store = RecordStore(SCHEMA, self._dir)
        else:
            self.store = ShardedStore(SCHEMA, self._dir, shards=self.shards)
        self.engine = QueryEngine(self.store)

    def teardown(self):
        self.store.close()
        for store in self._abandoned:
            store.close()
        shutil.rmtree(self._dir, ignore_errors=True)

    @initialize()
    def initial_indexes(self):
        self.create_indexes()

    @rule()
    def create_indexes(self):
        self.store.create_index("name", IndexKind.HASH)
        self.store.create_index("year", IndexKind.BTREE)
        if not self.indexes_declared:
            self.indexes_declared = True
            self.indexes_durable = False

    @rule(key=keys, name=names, year=years)
    def upsert(self, key, name, year):
        record = {"id": key, "name": name, "year": year}
        self.store.upsert(record)
        self.model[key] = record

    @rule(key=keys)
    def delete(self, key):
        if key in self.model:
            self.store.delete(key)
            del self.model[key]
        else:
            with pytest.raises(RecordNotFoundError):
                self.store.delete(key)

    @rule(key=keys, year=years)
    def update_year(self, key, year):
        if key in self.model:
            self.store.update(key, {"year": year})
            self.model[key]["year"] = year

    @rule(batch=rows, replace=st.booleans())
    def put_many(self, batch, replace):
        records = [{"id": k, "name": n, "year": y} for k, n, y in batch]
        batch_keys = [r["id"] for r in records]
        conflict = len(set(batch_keys)) < len(batch_keys) or any(
            k in self.model for k in batch_keys
        )
        if conflict and not replace:
            with pytest.raises(DuplicateKeyError):
                self.store.put_many(records)
            return
        written = self.store.put_many(
            records, on_conflict="replace" if replace else "error"
        )
        assert written == len(records)
        for record in records:
            self.model[record["id"]] = dict(record)

    @rule(name=names, year=years)
    def update_where(self, name, year):
        count = self.store.update_where(lambda r: r["name"] == name, {"year": year})
        matched = [r for r in self.model.values() if r["name"] == name]
        assert count == len(matched)
        for record in matched:
            record["year"] = year

    @rule(name=names)
    def delete_where(self, name):
        count = self.store.delete_where(lambda r: r["name"] == name)
        doomed = [k for k, r in self.model.items() if r["name"] == name]
        assert count == len(doomed)
        for key in doomed:
            del self.model[key]

    @rule()
    def checkpoint(self):
        self.store.checkpoint()
        self.indexes_durable = self.indexes_declared

    def _reopened(self):
        self._open()
        self.indexes_declared = self.indexes_durable
        assert self.store.has_index("name") == self.indexes_durable
        assert self.store.has_index("year") == self.indexes_durable

    @rule()
    def restart(self):
        self.store.close()
        self._reopened()

    @rule()
    def crash(self):
        # The process dies: the store is never closed, and a new one
        # recovers from whatever reached the directory.
        self._abandoned.append(self.store)
        self._reopened()

    @invariant()
    def contents_match(self):
        assert len(self.store) == len(self.model)
        assert sorted(self.store.keys()) == sorted(self.model)
        for key, record in self.model.items():
            assert self.store.get(key) == record

    @invariant()
    def hash_index_consistent(self):
        if not self.store.has_index("name"):
            return  # not declared since the last restart
        for name in NAMES:
            got = sorted(r["id"] for r in self.store.find_by("name", name))
            want = sorted(k for k, r in self.model.items() if r["name"] == name)
            assert got == want

    @invariant()
    def btree_range_consistent(self):
        if not self.store.has_index("year"):
            return
        ranged = self.store.range_by("year", 1970, 1990)
        want = sorted(
            (r["year"], k) for k, r in self.model.items() if 1970 <= r["year"] <= 1990
        )
        assert sorted(r["id"] for r in ranged) == sorted(k for _, k in want)
        # Field order, on a sharded store too (a k-way merge of the
        # shards' runs).
        years_out = [r["year"] for r in ranged]
        assert years_out == sorted(years_out)

    @invariant()
    def queries_match_model(self):
        def by_id(records):
            return sorted(records, key=lambda r: r["id"])

        # While shards are quarantined a strict query refuses to run,
        # and a partial one answers from the other shards' records.
        partial = bool(self.quarantined)
        if partial:
            with pytest.raises(ShardUnavailableError):
                self.engine.execute("*")
        model = [
            r for r in self.model.values()
            if not partial or self.store.shard_for(r["id"]) not in self.quarantined
        ]

        def execute(text):
            rows = self.engine.execute(text, partial=partial)
            if partial:
                assert rows.shards_failed == tuple(sorted(self.quarantined))
            return rows

        for name in NAMES:
            got = execute(f'name = "{name}"')
            assert by_id(got) == by_id(r for r in model if r["name"] == name)

        got = execute("year >= 1970 AND year <= 1990")
        assert by_id(got) == by_id(r for r in model if 1970 <= r["year"] <= 1990)

        # Ties on year break on the primary key, on every store.
        got = execute("* ORDER BY year LIMIT 5")
        assert got == sorted(model, key=lambda r: (r["year"], r["id"]))[:5]

        got = execute("* GROUP BY name")
        counts = Counter(r["name"] for r in model)
        assert got == [{"name": n, "count": counts[n]} for n in sorted(counts)]


class ShardedStoreMachine(StoreMachine):
    shards = 3

    @rule(shard=st.integers(min_value=0, max_value=2))
    def quarantine(self, shard):
        self.store.quarantine(shard, "test")
        self.quarantined.add(shard)

    @rule(shard=st.integers(min_value=0, max_value=2))
    def readmit(self, shard):
        self.store.readmit(shard)
        self.quarantined.discard(shard)


_SETTINGS = settings(max_examples=40, stateful_step_count=40, deadline=None)
TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = _SETTINGS
TestShardedStoreMachine = ShardedStoreMachine.TestCase
TestShardedStoreMachine.settings = _SETTINGS
