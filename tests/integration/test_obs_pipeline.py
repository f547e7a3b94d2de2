"""Observability integration: a full index build emits the documented
span tree and moves every metric family end-to-end."""

import pytest

from repro.core.builder import AuthorIndexBuilder
from repro.core.entry import explode
from repro.corpus.wvlr import PUBLICATION_SCHEMA, populate_store
from repro.names.resolution import NameResolver
from repro.obs import metrics, tracing
from repro.query.executor import QueryEngine, QueryProfile
from repro.query.parser import parse_query
from repro.search.engine import TitleSearchEngine
from repro.storage.store import IndexKind, RecordStore


@pytest.fixture(autouse=True)
def clean_obs():
    """Reset the process-global registry and tracer around each test."""
    metrics.reset()
    tracing.reset()
    yield
    metrics.reset()
    tracing.reset()


class TestBuildSpanTree:
    def test_build_emits_expected_span_tree(self, reference_records):
        AuthorIndexBuilder().add_records(reference_records).build()
        root = tracing.last_root()
        assert root is not None
        assert root.name == "build.index"
        assert root.attributes["records"] == len(reference_records)
        assert root.attributes["entries"] > 0
        assert [c.name for c in root.children] == [
            "build.explode",
            "build.dedupe",
            "build.collate",
        ]
        assert all(c.duration_s >= 0 for c in root.iter_spans())
        assert root.duration_s >= sum(c.duration_s for c in root.children)

    def test_resolving_build_adds_resolve_span(self, reference_records):
        builder = AuthorIndexBuilder(resolve_variants=True)
        builder.add_records(reference_records).build()
        root = tracing.last_root()
        assert [c.name for c in root.children] == [
            "build.explode",
            "build.resolve",
            "build.dedupe",
            "build.collate",
        ]
        report = NameResolver().resolve(
            [e.author for record in reference_records for e in explode(record)]
        )
        attributes = root.children[1].attributes
        assert attributes["entries"] == report.input_count
        assert attributes["spellings"] == report.spelling_count
        assert attributes["pairs_scored"] == report.pairs_scored
        assert attributes["clusters"] == len(report.clusters)
        assert attributes["entries"] > attributes["spellings"] > attributes["clusters"]

    def test_build_metrics_move_with_the_span(self, reference_records):
        AuthorIndexBuilder().add_records(reference_records).build()
        snap = metrics.snapshot()
        assert snap["counters"]["build.count"] == 1
        assert snap["counters"]["build.records"] == len(reference_records)
        assert snap["counters"]["build.entries.collated"] > 0
        assert snap["histograms"]["build.seconds"]["count"] == 1


class TestEndToEndFamilies:
    def test_full_pipeline_populates_every_family(
        self, tmp_path, reference_records
    ):
        with RecordStore(PUBLICATION_SCHEMA, tmp_path / "db") as store:
            populate_store(store, reference_records)
            store.create_index("surnames", IndexKind.HASH)
            store.create_index("year", IndexKind.BTREE)
            engine = QueryEngine(store)
            rows = engine.execute(parse_query("year >= 1985 LIMIT 10"))
            assert len(rows) == 10
            profile = engine.execute(
                parse_query("year >= 1985 ORDER BY page LIMIT 10"), profile=True
            )
            assert isinstance(profile, QueryProfile)
            assert len(profile.rows) == 10
        TitleSearchEngine(reference_records).search("law")
        AuthorIndexBuilder().add_records(reference_records).build()

        counters = metrics.snapshot()["counters"]
        assert counters["storage.store.put.count"] == len(reference_records)
        assert counters["storage.wal.append.count"] >= 1
        assert counters["storage.wal.append.bytes"] > 0
        assert counters["query.executions"] == 2
        assert counters["query.rows.returned"] == 20
        assert counters["search.queries"] == 1
        assert counters["search.postings.scanned"] > 0
        assert counters["build.count"] == 1

    def test_profiled_query_emits_query_span(self, tmp_path, reference_records):
        with RecordStore(PUBLICATION_SCHEMA, tmp_path / "db") as store:
            populate_store(store, reference_records)
            store.create_index("year", IndexKind.BTREE)
            engine = QueryEngine(store)
            engine.execute(parse_query("year >= 1985 LIMIT 10"), profile=True)
        root = tracing.last_root()
        assert root.name == "query.execute"
        assert root.attributes["access"] == "index-range"
        assert root.attributes["rows"] == 10
