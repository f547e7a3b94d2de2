"""Unit tests for repro.query.executor."""

import pytest

from repro.errors import QueryPlanError, QuerySyntaxError
from repro.query.executor import QueryEngine
from repro.query.parser import parse_query
from repro.storage.store import IndexKind


@pytest.fixture()
def engine(memory_store):
    rows = [
        {"id": 1, "name": "smith", "year": 1980, "tags": ["coal"], "active": True},
        {"id": 2, "name": "jones", "year": 1985, "tags": ["coal", "tax"], "active": False},
        {"id": 3, "name": "smith", "year": 1990, "tags": [], "active": True},
        {"id": 4, "name": "li", "year": 1975, "tags": ["tort"], "active": False},
        {"id": 5, "name": "garcia", "year": 1990, "tags": ["tax"], "active": True},
    ]
    for row in rows:
        memory_store.insert(row)
    memory_store.create_index("name", IndexKind.HASH)
    memory_store.create_index("year", IndexKind.BTREE)
    memory_store.create_index("tags", IndexKind.BTREE)
    return QueryEngine(memory_store)


def ids(rows):
    return sorted(r["id"] for r in rows)


class TestExecute:
    def test_equality(self, engine):
        assert ids(engine.execute('name = "smith"')) == [1, 3]

    def test_range(self, engine):
        assert ids(engine.execute("year >= 1985")) == [2, 3, 5]

    def test_conjunction(self, engine):
        assert ids(engine.execute('name = "smith" AND year >= 1985')) == [3]

    def test_disjunction(self, engine):
        assert ids(engine.execute('name = "li" OR name = "garcia"')) == [4, 5]

    def test_negation(self, engine):
        assert ids(engine.execute('NOT name = "smith"')) == [2, 4, 5]

    def test_list_membership(self, engine):
        assert ids(engine.execute('tags:"tax"')) == [2, 5]

    def test_select_all(self, engine):
        assert ids(engine.execute("*")) == [1, 2, 3, 4, 5]

    def test_no_matches(self, engine):
        assert engine.execute('name = "nobody"') == []

    def test_bool_field(self, engine):
        assert ids(engine.execute("active = true")) == [1, 3, 5]

    def test_accepts_parsed_query(self, engine):
        q = parse_query("year < 1980")
        assert ids(engine.execute(q)) == [4]

    def test_syntax_error_propagates(self, engine):
        with pytest.raises(QuerySyntaxError):
            engine.execute("year >=")


class TestOrderLimit:
    def test_order_by_asc(self, engine):
        rows = engine.execute("* ORDER BY year")
        assert [r["year"] for r in rows] == [1975, 1980, 1985, 1990, 1990]

    def test_order_by_desc(self, engine):
        rows = engine.execute("* ORDER BY year DESC")
        assert rows[0]["year"] == 1990

    def test_order_by_string_field(self, engine):
        rows = engine.execute("* ORDER BY name")
        assert [r["name"] for r in rows][:2] == ["garcia", "jones"]

    def test_limit(self, engine):
        assert len(engine.execute("* LIMIT 2")) == 2

    def test_limit_zero(self, engine):
        assert engine.execute("* LIMIT 0") == []

    @pytest.mark.parametrize(
        "query", ["* LIMIT 0", "* ORDER BY year DESC LIMIT 0", "* GROUP BY year LIMIT 0"]
    )
    def test_limit_zero_reads_no_row(self, engine, query):
        from repro.resilience.deadline import Guard

        plain, profiled = Guard(max_rows=100), Guard(max_rows=100)
        assert engine.execute(query, guard=plain) == []
        assert engine.execute(query, guard=profiled, profile=True).rows == []
        assert plain.rows_examined == profiled.rows_examined == 0

    def test_limit_larger_than_result(self, engine):
        assert len(engine.execute("* LIMIT 100")) == 5

    def test_order_by_unknown_field(self, engine):
        with pytest.raises(QueryPlanError):
            engine.execute("* ORDER BY bogus")

    @pytest.mark.parametrize(
        "query",
        [
            "* ORDER BY name DESC",
            "* ORDER BY name",
            "* ORDER BY year DESC",
            "* GROUP BY tags ORDER BY count DESC",
            "* GROUP BY year ORDER BY count",
        ],
    )
    def test_sorted_limit_keeps_the_full_sorts_first_rows(self, engine, query):
        # A sort under LIMIT keeps only LIMIT rows (a bounded heap); ties
        # (equal names, equal counts) come out as the whole sort has them.
        whole = engine.execute(query)
        for k in range(len(whole) + 2):
            assert engine.execute(f"{query} LIMIT {k}") == whole[:k]
            profile = engine.execute(f"{query} LIMIT {k}", profile=True)
            assert profile.rows == whole[:k]
            sort = next(n for n in profile.root.iter_nodes() if n.op == "sort")
            assert sort.rows_returned == min(k, len(whole))


class TestEquivalence:
    QUERIES = [
        'name = "smith"',
        "year >= 1980 AND year < 1990",
        'tags:"coal" AND active = true',
        'NOT (name = "li") AND year <= 1990',
        '(name = "jones" OR name = "li") AND year > 1970',
        "* ORDER BY year DESC LIMIT 3",
        'name != "smith" ORDER BY id',
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_planned_equals_scan(self, engine, query):
        planned = engine.execute(query)
        scanned = engine.execute_without_indexes(query)
        assert ids(planned) == ids(scanned)

    @pytest.mark.parametrize(
        "query", ["* GROUP BY year", "* GROUP BY tags ORDER BY count DESC LIMIT 1"]
    )
    def test_scan_keeps_group_by(self, engine, query):
        assert engine.execute_without_indexes(query) == engine.execute(query)

    def test_explain_matches_execution_path(self, engine):
        assert engine.explain('name = "smith"').startswith("INDEX LOOKUP")
        assert engine.explain("* ").startswith("FULL SCAN")


class TestListFieldDedup:
    def test_duplicate_list_elements_single_row(self, memory_store):
        memory_store.create_index("tags", IndexKind.BTREE)
        memory_store.insert(
            {"id": 1, "name": "x", "year": 1990, "tags": ["coal", "coal"]}
        )
        engine = QueryEngine(memory_store)
        assert len(engine.execute('tags:"coal"')) == 1

    def test_range_over_list_field_dedups(self, memory_store):
        memory_store.create_index("tags", IndexKind.BTREE)
        memory_store.insert({"id": 1, "name": "x", "year": 1990, "tags": ["a", "b"]})
        engine = QueryEngine(memory_store)
        rows = engine.execute('tags >= "a" AND tags <= "z"')
        assert len(rows) == 1


class TestIndexOrder:
    """ORDER BY on the field an index range scans: no sort, and LIMIT
    stops the scan."""

    @pytest.fixture()
    def years(self, memory_store):
        memory_store.put_many(
            [
                {"id": i, "name": f"n{i % 7}", "year": 1950 + (i * 7) % 40}
                for i in range(200)
            ]
        )
        memory_store.create_index("name", IndexKind.HASH)
        memory_store.create_index("year", IndexKind.BTREE)
        memory_store.create_index("tags", IndexKind.BTREE)
        return QueryEngine(memory_store)

    @pytest.mark.parametrize(
        "query, ordered",
        [
            ("year >= 1980 ORDER BY year LIMIT 5", True),
            ("year >= 1980 AND year < 1985 ORDER BY year", True),
            ('year >= 1980 AND name != "n3" ORDER BY year LIMIT 5', True),
            ("year >= 1980 ORDER BY year DESC LIMIT 5", False),
            ("year >= 1980 ORDER BY name LIMIT 5", False),
            ('tags >= "a" ORDER BY tags LIMIT 5', False),
            ("year >= 1980 GROUP BY year ORDER BY year", False),
            ('name = "n3" AND year >= 1980 ORDER BY year', False),
            ("* ORDER BY year LIMIT 5", False),
        ],
    )
    def test_planner_marks_index_ordered_plans(self, years, query, ordered):
        plan, _ = years._plan(parse_query(query))
        assert plan.index_ordered is ordered
        assert ("index order" in years.explain(query)) is ordered

    def test_limit_stops_the_scan_without_a_sort(self, years):
        query = "year >= 1980 ORDER BY year LIMIT 5"
        profile = years.execute(query, profile=True)
        assert [n.op for n in profile.root.iter_nodes()] == ["limit", "index-range"]
        access = profile.root.children[0]
        assert access.rows_examined == 5
        assert "index order serves ORDER BY year ASC" in access.detail
        assert profile.rows == years.execute(query)
        assert profile.rows == years.execute_without_indexes(query)

    def test_residual_reads_only_as_far_as_limit_needs(self, years):
        from repro.obs import workload
        from repro.query.fingerprint import fingerprint_of

        query = 'year >= 1980 AND name != "n3" ORDER BY year LIMIT 4'
        in_range = sorted(
            (r for r in years.store.scan() if r["year"] >= 1980),
            key=lambda r: (r["year"], r["id"]),
        )
        passing = [i for i, r in enumerate(in_range) if r["name"] != "n3"]
        needed = passing[3] + 1  # the scan stops at the 4th passing row
        workload.reset()
        plain = years.execute(query)
        profile = years.execute(query, profile=True)
        assert plain == profile.rows == [in_range[i] for i in passing[:4]]
        *_, filtered, access = profile.root.iter_nodes()
        assert (filtered.op, access.op) == ("filter", "index-range")
        assert access.rows_examined == filtered.rows_examined == needed
        fingerprint = fingerprint_of(parse_query(query))[0]
        (row,) = [r for r in workload.top(50) if r["fingerprint"] == fingerprint]
        assert row["rows_examined"] == 2 * needed

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("year >= 1980 ORDER BY year LIMIT 5", 5),
            ("* LIMIT 5", 5),
            ('name = "n3"', 29),
        ],
    )
    def test_workload_row_counts_the_rows_the_access_path_read(
        self, years, query, expected
    ):
        from repro.obs import workload
        from repro.query.fingerprint import fingerprint_of

        workload.reset()
        years.execute(query)
        fingerprint = fingerprint_of(parse_query(query))[0]
        (row,) = [r for r in workload.top(50) if r["fingerprint"] == fingerprint]
        *_, access = years.execute(query, profile=True).root.iter_nodes()
        assert row["rows_examined"] == access.rows_examined == expected
        if query.startswith("year"):
            usage = workload.get_default_key_usage().histogram("year")
            assert usage["rows"] == 2 * expected  # both runs, 5 rows each


class TestOneExecution:
    """Each execute() runs its plan once, and counts it once."""

    @staticmethod
    def _counts():
        from repro.obs import metrics

        snap = metrics.snapshot()
        counters = snap["counters"]
        seconds = snap["histograms"].get("query.seconds", {"count": 0})
        return {
            "executions": counters.get("query.executions", 0),
            "seconds": seconds["count"],
            "scans": counters.get("storage.store.scan.count", 0),
            "examined": counters.get("query.rows.examined", 0),
        }

    def _delta(self, run):
        before = self._counts()
        result = run()
        after = self._counts()
        return result, {key: after[key] - before[key] for key in after}

    def test_slow_logged_query_runs_once(self, memory_store):
        from repro.obs.slowlog import SlowQueryLog

        memory_store.put_many({"id": i, "name": "n", "year": i} for i in range(50))
        slow_log = SlowQueryLog(threshold_s=0.0)  # every query is slow
        engine = QueryEngine(memory_store, slow_log=slow_log)
        rows, delta = self._delta(lambda: engine.execute("*", max_rows=1_000))
        assert len(rows) == 50
        assert delta == {"executions": 1, "seconds": 1, "scans": 1, "examined": 50}
        (entry,) = slow_log.entries()
        assert entry["rows"] == entry["rows_examined"] == 50
        assert "profile" not in entry

    @pytest.mark.parametrize(
        ("read", "returned"),
        [
            (lambda engine: engine.execute("year >= 1920"), 140),
            (lambda engine: engine.count("year >= 1920"), 0),
            (lambda engine: engine.aggregate("year >= 1920", "year"), 1),
            (lambda engine: engine.execute_paged("year >= 1920", page_size=7), 7),
        ],
        ids=["execute", "count", "aggregate", "execute_paged"],
    )
    def test_reads_outside_execute_count_one_execution(self, memory_store, read, returned):
        import time

        from repro.obs import metrics

        memory_store.put_many(
            {"id": i, "name": "n", "year": 1900 + i % 80} for i in range(200)
        )
        engine = QueryEngine(memory_store)

        def returned_and_seconds():
            snap = metrics.snapshot()
            seconds = snap["histograms"].get("query.seconds", {"sum": 0.0})
            return snap["counters"].get("query.rows.returned", 0), seconds["sum"]

        rows_before, seconds_before = returned_and_seconds()
        began = time.perf_counter()
        _, delta = self._delta(lambda: read(engine))
        elapsed = time.perf_counter() - began
        rows_after, seconds_after = returned_and_seconds()
        assert delta == {"executions": 1, "seconds": 1, "scans": 1, "examined": 200}
        assert rows_after - rows_before == returned
        # The one latency sample lies inside the call it times.
        assert 0 <= seconds_after - seconds_before <= elapsed

    @pytest.mark.parametrize(
        "query", ["*", "year >= 1910", "year >= 1910 LIMIT 5", "* ORDER BY year DESC LIMIT 3"]
    )
    @pytest.mark.parametrize("mode", ["plain", "profiled", "partial"])
    def test_rows_examined_counter_counts_every_execution(self, query, mode):
        from repro.resilience.deadline import Guard
        from repro.storage import ShardedStore
        from repro.storage.schema import Field, FieldType, Schema

        schema = Schema(
            [Field("id", FieldType.INT), Field("year", FieldType.INT)], primary_key="id"
        )
        with ShardedStore(schema, shards=3) as store:
            store.put_many({"id": i, "year": 1900 + i % 25} for i in range(90))
            engine = QueryEngine(store)
            guard = Guard(max_rows=1_000)
            result, delta = self._delta(
                lambda: engine.execute(
                    query, guard=guard, profile=mode == "profiled",
                    partial=mode == "partial",
                )
            )
        assert delta["executions"] == 1
        assert delta["examined"] == guard.rows_examined > 0
        if query in ("*", "year >= 1910"):
            assert delta["examined"] == 90
        if mode == "profiled":
            *_, access = (n for n in result.root.iter_nodes() if n.op != "shard")
            assert access.rows_examined == delta["examined"]

    @pytest.mark.parametrize(
        "query",
        ["*", "year >= 1920", "year >= 1920 LIMIT 5", "* ORDER BY year DESC",
         "year >= 1920 GROUP BY year"],
    )
    def test_profiled_run_reads_the_thread_clock_per_stage_not_per_row(
        self, simple_schema, monkeypatch, query
    ):
        import time

        from repro.storage.store import RecordStore

        def clock_reads(rows: int) -> int:
            store = RecordStore(simple_schema)
            store.put_many(
                {"id": i, "name": "n", "year": 1900 + i % 50} for i in range(rows)
            )
            engine = QueryEngine(store)
            engine.execute(query, profile=True)  # plan it once, uncounted
            reads = [0]
            clock = time.thread_time_ns

            def counting() -> int:
                reads[0] += 1
                return clock()

            with monkeypatch.context() as patch:
                patch.setattr(time, "thread_time_ns", counting)
                engine.execute(query, profile=True)
            return reads[0]

        assert clock_reads(100) == clock_reads(1_000)
