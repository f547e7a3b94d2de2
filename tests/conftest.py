"""Shared fixtures for the test suite."""

from __future__ import annotations

import hypothesis
import pytest
from hypothesis import strategies as st

from repro.core.entry import PublicationRecord
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig
from repro.corpus.wvlr import load_reference_records
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.store import RecordStore


@pytest.hookimpl(trylast=True)  # after Hypothesis's plugin leaves its set-up phase
def pytest_sessionstart(session: pytest.Session) -> None:
    """Build Hypothesis's Unicode charmap once, before any test draws text.

    An unrestricted ``st.text()`` makes Hypothesis build the charmap on its
    first draw (~2 s on a 2-vCPU host) and cache it under ``.hypothesis/``.
    A fresh checkout has no cache, so without this the first property test
    to draw text fails the too-slow health check.
    """
    hypothesis.find(
        st.text(min_size=1), lambda s: True, settings=hypothesis.settings(database=None)
    )


@pytest.fixture(scope="session")
def reference_records() -> list[PublicationRecord]:
    """The curated WVLR corpus (read-only; session-scoped for speed)."""
    return load_reference_records()


@pytest.fixture(scope="session")
def synthetic_records() -> list[PublicationRecord]:
    """A deterministic 400-record synthetic corpus."""
    return list(SyntheticCorpus(SyntheticCorpusConfig(size=400, seed=1234)).records())


@pytest.fixture()
def simple_schema() -> Schema:
    """A small scalar schema used across storage/query tests."""
    return Schema(
        [
            Field("id", FieldType.INT),
            Field("name", FieldType.STRING),
            Field("year", FieldType.INT),
            Field("score", FieldType.FLOAT, required=False),
            Field("active", FieldType.BOOL, required=False),
            Field("tags", FieldType.STRING_LIST, required=False),
        ],
        primary_key="id",
    )


@pytest.fixture()
def memory_store(simple_schema: Schema) -> RecordStore:
    """An empty in-memory store over ``simple_schema``."""
    return RecordStore(simple_schema)


@pytest.fixture()
def sample_records() -> list[PublicationRecord]:
    """A handful of hand-picked records exercising the edge cases."""
    return [
        PublicationRecord.create(
            1, "Habeas Corpus in West Virginia", ["Fox, Fred L., 1I*"], "69:293 (1967)"
        ),
        PublicationRecord.create(
            2,
            "A Miner's Bill of Rights",
            ["Galloway, L. Thomas", "McAteer, J. Davitt", "Webb, Richard L."],
            "80:397 (1978)",
        ),
        PublicationRecord.create(
            3, "The Delicate Balance of Freedom", ["Maxwell, Robert E."], "70:155 (1968)"
        ),
        PublicationRecord.create(
            4,
            "A Case of Treasonous Interpretation",
            ["Brotherton, Hon. W.T., Jr."],
            "90:3 (1987)",
        ),
        PublicationRecord.create(
            5,
            "The Public Trust Doctrine: A New Approach to Environmental Preservation",
            ["Van Tol, Joan E.*"],
            "81:455 (1979)",
        ),
        PublicationRecord.create(
            6,
            "Death Knell for Trageser",
            ["Webster-O'Keefe, M. Katherine*"],
            "85:371 (1983)",
        ),
    ]
