"""WorkloadTable / KeyUsageTable aggregation, eviction, and exposition."""

import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics, workload
from repro.obs.workload import (
    DEFAULT_EXPOSITION_LIMIT,
    KeyUsageTable,
    WorkloadTable,
    _key_label,
    render_prometheus_workload,
)
from tests.unit.test_obs_promexport import parse_exposition


@pytest.fixture(autouse=True)
def clean_metrics():
    metrics.reset()
    yield
    metrics.reset()


class TestWorkloadTable:
    def test_record_aggregates_per_fingerprint(self):
        table = WorkloadTable()
        table.record("aa", "year >= ?", rows_returned=10, cpu_ns=100, wall_ns=200)
        table.record("aa", "year >= ?", rows_returned=5, cpu_ns=50, wall_ns=70,
                     plan_cached=True)
        table.record("bb", "volume = ?", rows_returned=1)
        (top,) = table.top(1)
        assert top["fingerprint"] == "aa"
        assert top["calls"] == 2
        assert top["rows_returned"] == 15
        assert top["cpu_ns"] == 150
        assert top["wall_ns"] == 270
        assert top["plan_cache_hits"] == 1
        assert len(table) == 2

    def test_interruption_kinds_count_separately(self):
        table = WorkloadTable()
        for kind in ("timeout", "timeout", "cancelled", "budget"):
            table.record("aa", "t", interrupted=kind)
        table.record("aa", "t", shed=True)
        (row,) = table.top(1)
        assert row["deadline_exceeded"] == 2
        assert row["cancelled"] == 1
        assert row["budget_exceeded"] == 1
        assert row["shed"] == 1

    def test_operator_breakdown_rolls_up(self):
        table = WorkloadTable()
        nodes = [
            {"op": "filter", "rows_in": 10, "rows_out": 4, "cpu_ns": 5,
             "wall_ns": 9, "bytes": 100},
            {"op": "seq-scan", "rows_in": 10, "rows_out": 10, "cpu_ns": 7,
             "wall_ns": 11, "bytes": 100},
        ]
        table.record("aa", "t", operators=nodes)
        table.record("aa", "t", operators=nodes[:1])
        (row,) = table.top(1)
        assert row["operators"]["filter"] == {
            "calls": 2, "rows_in": 20, "rows_out": 8, "cpu_ns": 10,
            "wall_ns": 18, "bytes": 200,
        }
        assert row["operators"]["seq-scan"]["calls"] == 1

    def test_topk_evicts_coldest_and_counts_it(self):
        table = WorkloadTable(maxsize=2)
        table.record("hot", "h")
        table.record("hot", "h")
        table.record("warm", "w")
        table.record("cold", "c")  # evicts warm (fewest calls, not cold itself)
        fingerprints = {row["fingerprint"] for row in table.top(10)}
        assert fingerprints == {"hot", "cold"}
        assert table.evicted_fingerprints == 1
        assert table.evicted_calls == 1
        snap = table.snapshot()
        assert snap["evicted_fingerprints"] == 1
        assert snap["tracked"] == 2

    def test_top_sort_keys_validated(self):
        table = WorkloadTable()
        with pytest.raises(ValueError, match="sort_by"):
            table.top(5, sort_by="nope")

    def test_disabled_table_records_nothing(self):
        table = WorkloadTable()
        table.enabled = False
        table.record("aa", "t")
        assert len(table) == 0

    def test_concurrent_records_lose_nothing(self):
        table = WorkloadTable()
        n, threads = 500, 8

        def hammer(fingerprint: str) -> None:
            for _ in range(n):
                table.record(fingerprint, "t", rows_returned=1, cpu_ns=2)

        workers = [
            threading.Thread(target=hammer, args=(f"fp{i % 2}",))
            for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        rows = {r["fingerprint"]: r for r in table.top(4)}
        assert rows["fp0"]["calls"] == n * threads // 2
        assert rows["fp1"]["calls"] == n * threads // 2
        assert rows["fp0"]["cpu_ns"] == n * threads  # 2 ns × calls


class _MinScanTable(KeyUsageTable):
    """Eviction by a scan of the whole key map for the fewest probes,
    the first in insertion order among ties: the oracle for the heap."""

    def __init__(self, keys_per_field: int):
        super().__init__(keys_per_field)
        self.evicted = 0

    def _apply(self, field, key_rows, probes, mult):
        keys = self._fields.setdefault(field, {})
        totals = self._totals.setdefault(field, [0, 0])
        totals[0] += probes
        for key, rows in key_rows:
            label = _key_label(key)
            rows *= mult
            totals[1] += rows
            cell = keys.get(label)
            if cell is None:
                keys[label] = [mult, rows]
                if len(keys) > self.keys_per_field:
                    coldest = min(keys, key=lambda k: keys[k][0])
                    del keys[coldest]
                    self.evicted += 1
            else:
                cell[0] += mult
                cell[1] += rows


_FIELDS = st.sampled_from(["year", "surnames", "volume"])
_SMALL = st.integers(min_value=0, max_value=2)
_KEYS = st.one_of(st.integers(min_value=0, max_value=12), st.tuples(_SMALL, _SMALL))
_ROWS = st.integers(min_value=0, max_value=3)
_KEY_USAGE_OPS = st.one_of(
    st.tuples(st.just("record"), _FIELDS, _KEYS, _ROWS),
    st.tuples(
        st.just("record_many"),
        _FIELDS,
        st.lists(st.tuples(_KEYS, _ROWS), max_size=6),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(st.just("check")),
)


class TestKeyUsageTable:
    def test_probe_counts_and_histogram(self):
        table = KeyUsageTable()
        table.record("year", 1978, rows=3)
        table.record("year", 1978, rows=2)
        table.record("year", 1990, rows=1)
        hist = table.histogram("year")
        assert hist["probes"] == 3
        assert hist["rows"] == 6
        assert hist["tracked_keys"] == 2
        assert hist["top_keys"][0] == {"key": "1978", "probes": 2, "rows": 5}
        assert hist["top_key_row_share"] == round(5 / 6, 4)

    def test_unseen_field_is_none(self):
        assert KeyUsageTable().histogram("nope") is None

    def test_bounded_keys_evict_least_probed(self):
        table = KeyUsageTable(keys_per_field=2)
        table.record("f", "a")
        table.record("f", "a")
        table.record("f", "b")
        table.record("f", "c")  # evicts b
        labels = {k["key"] for k in table.histogram("f")["top_keys"]}
        assert labels == {"a", "c"}
        # Totals keep counting what the bounded key map forgot.
        assert table.histogram("f")["probes"] == 4

    def test_ties_evict_the_earliest_tracked_key(self):
        table = KeyUsageTable(keys_per_field=3)

        def probe(*keys):
            for key in keys:
                table.record("f", key)
            return table.histogram("f")  # folds the probes now

        probe("a", "b", "c", "b", "a")  # a and b hold 2 probes, c 1
        probe("d")  # c and d tie at 1: c entered first and goes
        probe("e")  # d and e tie at 1: d goes
        hist = probe("a", "f")  # e and f tie at 1: e goes
        assert [(k["key"], k["probes"]) for k in hist["top_keys"]] == [
            ("a", 3),
            ("b", 2),
            ("f", 1),
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        keys_per_field=st.integers(min_value=1, max_value=8),
        fold_every=st.integers(min_value=1, max_value=9),
        ops=st.lists(_KEY_USAGE_OPS, max_size=80),
    )
    def test_heap_eviction_matches_a_min_scan(self, keys_per_field, fold_every, ops):
        """Random multi-field probe streams, folded at random points:
        after every fold, every histogram and the eviction count equal
        those of the linear ``min`` scan the heap replaced."""
        evicted = metrics.counter("storage.keyusage.evicted")
        table = KeyUsageTable(keys_per_field)
        oracle = _MinScanTable(keys_per_field)
        before = evicted.value
        with mock.patch.object(workload, "_FOLD_EVERY", fold_every):
            for op in ops + [("check",)]:
                if op[0] == "record":
                    for t in (table, oracle):
                        t.record(*op[1:])
                elif op[0] == "record_many":
                    field, key_rows, probes = op[1:]
                    for t in (table, oracle):
                        t.record_many(field, key_rows, probes=probes)
                else:
                    assert table.fields() == oracle.fields()
                    for field in oracle.fields():
                        got = table.histogram(field, n=keys_per_field)
                        assert got == oracle.histogram(field, n=keys_per_field)
                    assert evicted.value - before == oracle.evicted

    def test_long_keys_are_truncated(self):
        table = KeyUsageTable()
        table.record("f", "x" * 200)
        (key,) = table.histogram("f")["top_keys"]
        assert len(key["key"]) == 64
        assert key["key"].endswith("...")


class TestPrometheusExposition:
    def test_empty_table_renders_empty(self):
        assert render_prometheus_workload(WorkloadTable()) == ""

    def test_exposition_parses_and_is_bounded(self):
        table = WorkloadTable()
        for i in range(DEFAULT_EXPOSITION_LIMIT + 5):
            for _ in range(i + 1):  # distinct call counts: stable top-K
                table.record(f"fp{i:02}", "t", cpu_ns=1_000_000, rows_returned=2)
        text = render_prometheus_workload(table)
        families = parse_exposition(text)
        calls = families["repro_workload_calls_total"]
        assert calls["type"] == "counter"
        assert len(calls["samples"]) == DEFAULT_EXPOSITION_LIMIT
        labels = {s[1]["fingerprint"] for s in calls["samples"]}
        assert "fp00" not in labels  # coldest fell outside the cap
        seconds = families["repro_workload_cpu_seconds_total"]
        assert all(value > 0 for _, _, value in seconds["samples"])
