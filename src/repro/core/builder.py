"""The author-index builder — the library's primary public API.

:class:`AuthorIndexBuilder` turns publication records into an
:class:`AuthorIndex`: exploded per author, de-duplicated, optionally
OCR-repaired and entity-resolved, and collated under the artifact's rules.

Typical use::

    builder = AuthorIndexBuilder()
    builder.add_records(records)
    index = builder.build()
    print(index.render("text"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.core.collation import CollationOptions, DEFAULT_OPTIONS, collation_key
from repro.core.entry import IndexEntry, PublicationRecord, explode
from repro.errors import RenderError
from repro.names.model import PersonName
from repro.names.resolution import NameResolver
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

_BUILD_COUNT = _metrics.counter("build.count")
_BUILD_RECORDS = _metrics.counter("build.records")
_ENTRIES_COLLATED = _metrics.counter("build.entries.collated")
_ENTRIES_DEDUPED = _metrics.counter("build.entries.deduped")
_BUILD_SECONDS = _metrics.histogram("build.seconds")


@dataclass(frozen=True, slots=True)
class AuthorGroup:
    """All rows of one author heading, in printed order."""

    author: PersonName
    entries: tuple[IndexEntry, ...]

    @property
    def heading(self) -> str:
        return self.author.inverted()


class AuthorIndex:
    """A built index: ordered entries plus grouped views and rendering."""

    def __init__(self, entries: Sequence[IndexEntry], options: CollationOptions):
        self._entries = tuple(entries)
        self.options = options

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[IndexEntry]:
        return iter(self._entries)

    @property
    def entries(self) -> tuple[IndexEntry, ...]:
        return self._entries

    def groups(self) -> list[AuthorGroup]:
        """Consecutive entries with the same author identity, grouped.

        The student flag participates in grouping because the artifact
        prints ``Name`` and ``Name*`` as separate headings.
        """
        groups: list[AuthorGroup] = []
        bucket: list[IndexEntry] = []
        for entry in self._entries:
            if bucket and _heading_key(bucket[0]) != _heading_key(entry):
                groups.append(AuthorGroup(bucket[0].author, tuple(bucket)))
                bucket = []
            bucket.append(entry)
        if bucket:
            groups.append(AuthorGroup(bucket[0].author, tuple(bucket)))
        return groups

    def authors(self) -> list[PersonName]:
        """Distinct author headings in index order."""
        return [g.author for g in self.groups()]

    def render(self, fmt: str = "text", **options: object) -> str:
        """Render with a registered renderer (``text``, ``markdown``,
        ``html``, ``latex``, ``json``)."""
        from repro.core.render import get_renderer

        try:
            renderer = get_renderer(fmt)
        except KeyError:
            raise RenderError(f"unknown format {fmt!r}") from None
        return renderer.render(self, **options)

    def statistics(self):
        """Summary statistics (see :class:`repro.core.statistics.IndexStatistics`)."""
        from repro.core.statistics import IndexStatistics

        return IndexStatistics.from_index(self)


def _heading_key(entry: IndexEntry) -> tuple:
    return (entry.author.identity_key(), entry.is_student_work)


class AuthorIndexBuilder:
    """Accumulates records and builds :class:`AuthorIndex` values.

    Parameters
    ----------
    options:
        Collation rules; defaults to the artifact's conventions.
    resolve_variants:
        When set, author names are clustered with
        :class:`~repro.names.resolution.NameResolver` before collation and
        each cluster's canonical spelling replaces its variants — this is
        what repairs OCR-split authors into one heading.
    resolver:
        Custom resolver (implies ``resolve_variants``).
    """

    def __init__(
        self,
        *,
        options: CollationOptions = DEFAULT_OPTIONS,
        resolve_variants: bool = False,
        resolver: NameResolver | None = None,
    ):
        self.options = options
        self._resolver = resolver if resolver is not None else (
            NameResolver() if resolve_variants else None
        )
        self._records: list[PublicationRecord] = []

    # -- accumulation --------------------------------------------------------

    def add_record(self, record: PublicationRecord) -> "AuthorIndexBuilder":
        """Add one record; returns self for chaining."""
        self._records.append(record)
        return self

    def add_records(self, records: Iterable[PublicationRecord]) -> "AuthorIndexBuilder":
        """Add many records; returns self for chaining.

        This is the batched ingestion entry point: records accumulate in
        one extend and :meth:`build` processes the whole corpus in single
        explode/dedupe/collate passes, so feeding a full volume here costs
        the same as the sum of its rows — there is no per-record overhead
        to amortize.  Pair with :meth:`RecordStore.put_many` (via
        ``PublicationRepository.add_all``) to keep the storage side
        batched too.
        """
        self._records.extend(records)
        return self

    @property
    def record_count(self) -> int:
        return len(self._records)

    # -- build ------------------------------------------------------------------

    def build(self) -> AuthorIndex:
        """Explode, (optionally) resolve, de-duplicate, and collate.

        Emits a ``build.index`` span with one child per phase
        (``build.explode``, ``build.resolve`` when resolution is on,
        ``build.dedupe``, ``build.collate``) plus the ``build.*`` metric
        family (see ``docs/observability.md``).
        """
        with _BUILD_SECONDS.time(), _tracing.span(
            "build.index", records=len(self._records)
        ) as build_span:
            with _tracing.span("build.explode"):
                entries = [
                    entry for record in self._records for entry in explode(record)
                ]
            exploded = len(entries)
            if self._resolver is not None:
                with _tracing.span("build.resolve", entries=len(entries)) as span:
                    entries = self._canonicalize(entries, span)
            with _tracing.span("build.dedupe", entries=len(entries)):
                entries = _dedupe(entries)
            with _tracing.span("build.collate", entries=len(entries)):
                entries.sort(key=lambda e: collation_key(e, self.options))
            _BUILD_COUNT.inc()
            _BUILD_RECORDS.inc(len(self._records))
            _ENTRIES_COLLATED.inc(len(entries))
            _ENTRIES_DEDUPED.inc(exploded - len(entries))
            build_span.set_attribute("entries", len(entries))
            return AuthorIndex(entries, self.options)

    def _canonicalize(self, entries: list[IndexEntry], span: Any) -> list[IndexEntry]:
        assert self._resolver is not None
        report = self._resolver.resolve([e.author for e in entries])
        span.set_attribute("spellings", report.spelling_count)
        span.set_attribute("pairs_scored", report.pairs_scored)
        span.set_attribute("clusters", len(report.clusters))
        replacement: dict[tuple, PersonName] = {}
        for cluster in report.clusters:
            for member in cluster.members:
                replacement[member.identity_key()] = cluster.canonical
        return [
            IndexEntry(
                author=replacement.get(e.author.identity_key(), e.author),
                title=e.title,
                citation=e.citation,
                is_student_work=e.is_student_work,
                record_id=e.record_id,
            )
            for e in entries
        ]


def _dedupe(entries: list[IndexEntry]) -> list[IndexEntry]:
    """Drop rows identical in (author, title, citation), keeping the first."""
    seen: set[tuple] = set()
    out: list[IndexEntry] = []
    for entry in entries:
        key = entry.row_key()
        if key not in seen:
            seen.add(key)
            out.append(entry)
    return out


def build_index(
    records: Iterable[PublicationRecord],
    *,
    options: CollationOptions = DEFAULT_OPTIONS,
    resolve_variants: bool = False,
) -> AuthorIndex:
    """One-call convenience: records in, built index out.

    >>> from repro.core.entry import PublicationRecord
    >>> idx = build_index([
    ...     PublicationRecord.create(1, "T1", ["Zed, Amy"], "90:1 (1987)"),
    ...     PublicationRecord.create(2, "T2", ["Abel, Bo"], "91:5 (1988)"),
    ... ])
    >>> [g.heading for g in idx.groups()]
    ['Abel, Bo', 'Zed, Amy']
    """
    return (
        AuthorIndexBuilder(options=options, resolve_variants=resolve_variants)
        .add_records(records)
        .build()
    )
