"""Acceptance chaos drill from the shard fault-tolerance issue.

Persistent corruption on 1 of 4 shards must leave the other three
serving (partial mode), fail strict queries with a typed error, then be
healed by the scrubber — and after repair a strict query is
byte-identical to the pre-damage baseline with zero committed-record
loss.
"""

import pytest

from repro.errors import ShardUnavailableError
from repro.query import QueryEngine
from repro.storage import HEALTHY, QUARANTINED, ShardedStore, Scrubber
from repro.storage.faultfs import FaultFS, InjectedFault, flip_bit_on_disk
from repro.storage.pages import PAGE_SIZE
from repro.storage.schema import Field, FieldType, Schema

SCHEMA = Schema(
    [Field("id", FieldType.INT), Field("surname", FieldType.STRING)],
    primary_key="id",
)

QUERY = "surname = 's3' ORDER BY id"


def test_corruption_partial_service_then_self_heal(tmp_path):
    fs = FaultFS()
    root = tmp_path / "store"
    store = ShardedStore(SCHEMA, root, shards=4, fs=fs, data_format="paged")
    store.put_many([{"id": i, "surname": f"s{i % 7}"} for i in range(2000)])
    store.checkpoint()
    store.put_many(
        [{"id": 5000 + i, "surname": f"s{i % 7}"} for i in range(100)]
    )
    engine = QueryEngine(store)
    baseline = engine.execute(QUERY)
    assert baseline  # the drill must actually exercise rows

    # Chaos: the second checkpoint publishes shard-01's snapshot then
    # dies before reclaiming its WAL; a bit then rots in the new pages
    # file.  The surviving history makes a zero-loss repair possible.
    fs.arm("fail_after_rename", path="shard-01/snapshot.json")
    with pytest.raises(InjectedFault):
        store.checkpoint()
    pages = sorted((root / "shard-01").glob("store.pages.*"))[-1]
    flip_bit_on_disk(pages, byte_index=3 * PAGE_SIZE + 100, bit=4)
    store.readmit(1, reopen=True)  # reload the damaged on-disk state

    # Scrub detects and quarantines exactly the damaged shard.
    scrubber = Scrubber(store, bytes_per_s=None)
    report = scrubber.run_once()
    assert report.corrupt_shards == (1,)
    assert store.health.state(1) == QUARANTINED
    for i in (0, 2, 3):
        assert store.health.state(i) == HEALTHY

    # Strict refuses; partial serves the three healthy shards.
    with pytest.raises(ShardUnavailableError):
        engine.execute(QUERY)
    partial = engine.execute(QUERY, partial=True)
    assert partial.partial is True
    assert partial.shards_failed == (1,)
    expected_partial = [
        r for r in baseline if store.shard_for(r["id"]) != 1
    ]
    assert list(partial) == expected_partial

    # Self-heal: quarantine → fsck --repair (rollback + WAL replay) →
    # re-verify → readmit.
    healed = scrubber.run_once(repair=True)
    assert healed.shards[1].repaired
    assert store.health.state(1) == HEALTHY

    # Post-repair strict query is byte-identical; nothing was lost.
    assert engine.execute(QUERY) == baseline
    assert len(store) == 2100
    assert scrubber.run_once().clean

    # The healed state is durable across a full close/reopen.
    store.close()
    with ShardedStore(SCHEMA, root, data_format="paged") as reopened:
        assert len(reopened) == 2100
        assert reopened.health.state(1) == HEALTHY
        assert QueryEngine(reopened).execute(QUERY) == baseline
