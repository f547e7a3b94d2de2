"""Stateful property test: the record store against a dict model.

Hypothesis drives arbitrary interleavings of single-record writes
(insert/upsert/update/delete), bulk writes (``put_many``, mixed
``apply_batch``, ``update_where``, ``delete_where``), transactions that
commit or roll back, index declaration, checkpoints and three kinds of
restart — a clean close and reopen, a crash that abandons the open
store without ``close()``, and a crash inside a checkpoint at a faultfs
failpoint — checking after every step that the store agrees with a
plain-dict model.  Restarts exercise WAL replay on top of the paged
checkpoint; besides point reads and probes of a hash, an ordered and a
composite index, four queries run through the query engine and must
match a filter over the model.

The same machine runs over a durable :class:`RecordStore` and a durable
3-shard :class:`ShardedStore`, both queried by :class:`QueryEngine`.  On
the sharded store more rules quarantine and readmit shards: while a
shard is out of service a strict query raises, and a ``partial=True``
query matches the model without that shard's records.  Quarantine is
persisted, so it also has to survive the restarts.  The scrubber joins
them: a sweep over undamaged shards quarantines nothing, and a sweep
after damage planted in one shard's manifest or live log quarantines
exactly that shard, which a repairing sweep then heals with every
record.

An in-memory :class:`RecordStore` runs the same write rules, without the
restart, crash and checkpoint rules (it has no directory to recover
from).
"""

import json
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import (
    DuplicateKeyError,
    RecordNotFoundError,
    ShardUnavailableError,
    StorageError,
)
from repro.query import QueryEngine
from repro.storage.faultfs import FAILPOINTS, FaultFS, InjectedFault
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.scrub import Scrubber
from repro.storage.sharded import ShardedStore
from repro.storage.store import SNAPSHOT_NAME, WAL_NAME, IndexKind, RecordStore

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
#: A mixed batch: ``("put", key, name, year)`` or ``("del", key)``.
batch_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, names, years),
        st.tuples(st.just("del"), keys),
    ),
    max_size=8,
)
#: A key no rule ever writes: deleting it in a batch is a no-op.
ABSENT = 99
COMPOSITE = ("name", "year")

#: Damage fsck can roll back (manifest edits, a truncated manifest) or
#: trim (a torn tail on the live log) without losing a committed record.
DAMAGES = ("record_count", "checksum", "version", "indexes", "truncated", "torn_tail")


def _plant(directory: Path, damage: str) -> None:
    """Plant ``damage`` in the store directory ``directory``."""
    if damage == "torn_tail":
        with open(directory / WAL_NAME, "ab") as fh:
            fh.write(b'W1 deadbeef 42 {"op":')
        return
    manifest = directory / SNAPSHOT_NAME
    raw = manifest.read_bytes()
    if damage == "truncated":
        manifest.write_bytes(raw[: len(raw) // 2])
        return
    state = json.loads(raw)
    if damage == "record_count":
        state["record_count"] += 1
    elif damage == "checksum":
        state["checksum"] = f"{int(state['checksum'], 16) ^ 1:08x}"
    elif damage == "version":
        state["version"] = 9
    else:
        state["indexes"] = [{"field": 7, "kind": "btree"}]
    manifest.write_text(json.dumps(state))


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

    def _open(self, fs=None):
        if self.shards is None:
            self.store = RecordStore(SCHEMA, self._dir, fs=fs)
        else:
            self.store = ShardedStore(SCHEMA, self._dir, shards=self.shards, fs=fs)
        self.engine = QueryEngine(self.store)

    def _shard_dir(self, shard: int) -> str | None:
        """Path fragment of shard ``shard``'s files (``None`` unsharded)."""
        return None if self.shards is None else f"shard-{shard:02d}/"

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
        self.store.create_composite_index(COMPOSITE)
        if not self.indexes_declared:
            self.indexes_declared = True
            self.indexes_durable = False

    @rule(key=keys, name=names, year=years)
    def upsert(self, key, name, year):
        record = {"id": key, "name": name, "year": year}
        self.store.upsert(record)
        self.model[key] = record

    @rule(key=keys, name=names, year=years)
    def insert(self, key, name, year):
        record = {"id": key, "name": name, "year": year}
        if key in self.model:
            with pytest.raises(DuplicateKeyError):
                self.store.insert(record)
            return
        self.store.insert(record)
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

    @rule(ops=batch_ops, churn=st.tuples(keys, names, years))
    def apply_batch(self, ops, churn):
        # Besides the drawn ops, every batch puts a key and deletes it
        # again, and deletes a key that is absent.
        key, name, year = churn
        ops = [*ops, ("put", key, name, year), ("del", key), ("del", ABSENT)]
        operations = []
        for op in ops:
            if op[0] == "put":
                record = {"id": op[1], "name": op[2], "year": op[3]}
                operations.append({"op": "put", "record": record})
                self.model[op[1]] = dict(record)
            else:
                operations.append({"op": "del", "key": op[1]})
                self.model.pop(op[1], None)
        self.store.apply_batch(operations)

    @precondition(lambda self: self.shards is None)
    @rule(puts=rows, deletes=st.lists(keys, max_size=3), commit=st.booleans())
    def transaction(self, puts, deletes, commit):
        view = {key: dict(record) for key, record in self.model.items()}

        class Rollback(Exception):
            pass

        try:
            with self.store.transaction() as txn:
                for key, name, year in puts:
                    record = {"id": key, "name": name, "year": year}
                    txn.upsert(record)
                    view[key] = dict(record)
                for key in deletes:
                    if key in view:
                        txn.delete(key)
                        del view[key]
                if not commit:
                    raise Rollback
        except Rollback:
            pass
        if commit:
            self.model = view

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

    def _reopened(self, fs=None):
        self._open(fs)
        self.indexes_declared = self.indexes_durable
        # Every shard reopens with the same declarations.
        for store in getattr(self.store, "shards", (self.store,)):
            assert store.has_index("name") == self.indexes_durable
            assert store.has_index("year") == self.indexes_durable
            assert (COMPOSITE in store.composite_indexes()) == self.indexes_durable

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

    @rule(
        failpoint=st.sampled_from(FAILPOINTS),
        skip=st.integers(0, 6),
        shard=st.integers(0, 2),
    )
    def crash_in_checkpoint(self, failpoint, skip, shard):
        # Reopen on a fault-injecting filesystem, fail one write, fsync
        # or rename of a checkpoint, and let the process die there.  On
        # a sharded store the fault targets one shard's files, whose
        # checkpoint runs in one thread, so a ``skip`` always lands on
        # the same event.  The reopen keeps only durable index
        # declarations, and a checkpoint, published or not, re-declares
        # exactly those, so the model's index state stands either way.
        self.store.close()
        fs = FaultFS()
        self._reopened(fs)
        fs.arm(failpoint, skip=skip, path=self._shard_dir(shard))
        try:
            self.store.checkpoint()
        except (InjectedFault, StorageError):
            pass
        fs.disarm_all()
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
    def composite_consistent(self):
        if COMPOSITE not in self.store.composite_indexes():
            return
        pairs = {(r["name"], r["year"]) for r in self.model.values()}
        pairs.add(("a", 1959))  # a pair no record holds
        for pair in sorted(pairs):
            got = sorted(r["id"] for r in self.store.find_by_composite(COMPOSITE, pair))
            want = sorted(
                k for k, r in self.model.items() if (r["name"], r["year"]) == pair
            )
            assert got == want

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

    @rule(shard=st.integers(min_value=0, max_value=2), damage=st.sampled_from(DAMAGES))
    def scrub_heals_planted_damage(self, shard, damage):
        directory = self.store.shard_path(shard)
        if not (directory / SNAPSHOT_NAME).exists():
            return  # no checkpoint yet: nothing to roll back to
        _plant(directory, damage)
        scrubber = Scrubber(self.store, bytes_per_s=None)
        assert scrubber.run_once().corrupt_shards == (shard,)
        self.quarantined.add(shard)
        assert set(self.store.health.quarantined_shards()) == self.quarantined
        self.queries_match_model()
        # The repairing sweep heals every quarantined shard, the damaged
        # one and any an operator pulled, and reopens each from disk.
        healed = scrubber.run_once(repair=True)
        assert all(healed.shards[i].repaired for i in self.quarantined)
        self.quarantined.clear()
        assert self.store.health.quarantined_shards() == ()

    @rule()
    def scrub_passes_undamaged(self):
        # Whatever the rules before left on disk (a crash inside a
        # checkpoint included), an undamaged store scrubs clean.
        report = Scrubber(self.store, bytes_per_s=None).run_once()
        assert report.clean, report.render()
        assert set(self.store.health.quarantined_shards()) == self.quarantined


class MemoryStoreMachine(StoreMachine):
    """The write rules over an in-memory store, which has no directory:
    nothing to checkpoint, restart or crash, so those rules are off."""

    def _open(self, fs=None):
        self.store = RecordStore(SCHEMA)
        self.engine = QueryEngine(self.store)

    checkpoint = restart = crash = crash_in_checkpoint = None


_SETTINGS = settings(max_examples=40, stateful_step_count=40, deadline=None)
TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = _SETTINGS
TestShardedStoreMachine = ShardedStoreMachine.TestCase
TestShardedStoreMachine.settings = _SETTINGS
TestMemoryStoreMachine = MemoryStoreMachine.TestCase
TestMemoryStoreMachine.settings = _SETTINGS
