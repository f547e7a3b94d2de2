"""The resolver clusters distinct spellings exactly as it would clustering rows.

:class:`NameResolver` blocks, folds and scores each distinct
``(surname, given, suffix)`` once.  The oracle below is the per-row
algorithm it replaced: block every row, score every row pair that shares a
block with :func:`name_similarity`, union rows, and assemble clusters in
order of their first row.  Both must give the same clusters, members and
assignments on inputs full of repeated spellings.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.names.model import NameForm, PersonName
from repro.names.normalize import surname_key
from repro.names.resolution import NameResolver, _pick_canonical
from repro.names.similarity import name_similarity, soundex

# One or two edits apart, first-letter damage (Kerdon), case-only
# differences (HERDON) and a second surname family.
SURNAMES = ["Herdon", "Hemdon", "Hemdom", "Kerdon", "HERDON", "Smith", "Smyth"]
GIVENS = ["", "Judith", "J.", "Judith A.", "Earl", "judith"]
SUFFIXES = ["", "", "Jr.", "III"]

spellings = st.tuples(
    st.sampled_from(SURNAMES), st.sampled_from(GIVENS), st.sampled_from(SUFFIXES)
)


@st.composite
def name_lists(draw) -> list[PersonName]:
    """Rows drawn from a pool of a few spellings, so most rows repeat one;
    repeats differ in honorific, student marker, raw string and form."""
    pool = draw(st.lists(spellings, min_size=1, max_size=6, unique=True))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool),
                st.sampled_from(["", "Hon.", "Dr."]),
                st.booleans(),
                st.sampled_from(["", "Herdon, Judith", "J. Herdon*"]),
                st.sampled_from(list(NameForm)),
            ),
            max_size=40,
        )
    )
    return [
        PersonName(surname, given, suffix, honorific, student, raw, form)
        for (surname, given, suffix), honorific, student, raw, form in rows
    ]


def per_row_resolve(
    names: list[PersonName], threshold: float, block_by_initial: bool
) -> tuple[list[tuple[PersonName, tuple[PersonName, ...]]], list[int]]:
    """Reference: the resolver's algorithm run over rows, not spellings."""
    blocks: dict[str, list[int]] = defaultdict(list)
    for i, name in enumerate(names):
        skey = surname_key(name.surname)
        keys = [f"sx:{soundex(skey)}", f"pf:{skey[:2]}"]
        if block_by_initial:
            initial = name.initials[:1]
            for key in keys:
                blocks[f"{key}:{initial}"].append(i)
                if initial:
                    blocks[f"{key}:"].append(i)
        else:
            for key in keys:
                blocks[key].append(i)

    parent = list(range(len(names)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for indexes in blocks.values():
        for a, i in enumerate(indexes):
            for j in indexes[a + 1 :]:
                if name_similarity(names[i], names[j]) >= threshold:
                    parent[find(j)] = find(i)

    groups: dict[int, list[int]] = defaultdict(list)
    for i in range(len(names)):
        groups[find(i)].append(i)
    clusters = [
        (_pick_canonical([names[i] for i in rows]), tuple(names[i] for i in rows), rows)
        for rows in groups.values()
    ]
    clusters.sort(key=lambda c: (surname_key(c[0].surname), c[0].given))
    assignments = [0] * len(names)
    for cluster_id, (_, _, rows) in enumerate(clusters):
        for i in rows:
            assignments[i] = cluster_id
    return [(canonical, members) for canonical, members, _ in clusters], assignments


@settings(max_examples=300, deadline=None)
@given(
    name_lists(),
    st.sampled_from([0.5, 0.85, 0.9, 1.0]),
    st.booleans(),
)
def test_spellings_resolve_like_rows(names, threshold, block_by_initial):
    resolver = NameResolver(threshold=threshold, block_by_initial=block_by_initial)
    report = resolver.resolve(names)
    expected_clusters, expected_assignments = per_row_resolve(
        names, threshold, block_by_initial
    )
    assert [(c.canonical, c.members) for c in report.clusters] == expected_clusters
    assert report.assignments == expected_assignments
    assert report.spelling_count == len({(n.surname, n.given, n.suffix) for n in names})
    # Each merge joins two clusters of spellings.
    assert report.pairs_merged == report.spelling_count - len(report.clusters)
