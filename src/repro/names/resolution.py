"""Entity resolution: clustering author-name variants that denote one person.

OCR'd front matter spells the same author several ways (the paper text
contains *Herdon/Hemdon*, *Johnson/Johson*, *Cumutte/Curnutte*).  The
resolver blocks candidate pairs by phonetic surname key, scores them with
:func:`repro.names.similarity.name_similarity`, and merges matches with a
union–find structure, once per distinct spelling rather than once per
input name.  The result is a set of clusters with a canonical
representative each, holding every input name.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.names.model import PersonName
from repro.names.normalize import surname_key
from repro.names.similarity import key_similarity, similarity_key, soundex


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, size: int):
        self._parent = list(range(size))
        self._size = [1] * size

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s set."""
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True


@dataclass(frozen=True, slots=True)
class NameCluster:
    """A resolved cluster: one inferred person, several observed spellings."""

    canonical: PersonName
    members: tuple[PersonName, ...]

    @property
    def variant_count(self) -> int:
        """Number of distinct raw spellings in the cluster."""
        return len({m.raw or m.inverted() for m in self.members})


@dataclass(slots=True)
class ResolutionReport:
    """Outcome of a resolution run.

    ``assignments[i]`` is the cluster index (into :attr:`clusters`) of the
    i-th *input* name, preserving the caller's ordering for scoring.

    The resolver works on distinct spellings, names equal in
    ``(surname, given, suffix)``: ``spelling_count`` is how many the
    input held, ``pairs_scored`` counts the pairs of distinct spellings
    that shared a block and were scored, and ``pairs_merged`` the scored
    pairs that joined two clusters.  Repeats of one spelling are never
    scored against each other; they always share a cluster.
    """

    clusters: list[NameCluster]
    assignments: list[int]
    spelling_count: int
    pairs_scored: int
    pairs_merged: int

    @property
    def input_count(self) -> int:
        return len(self.assignments)

    def cluster_of(self, name: PersonName) -> NameCluster | None:
        """Find the cluster containing ``name`` (by identity key)."""
        key = name.identity_key()
        for cluster in self.clusters:
            if any(m.identity_key() == key for m in cluster.members):
                return cluster
        return None

    def score_against(
        self, truth: Sequence[Sequence[int]]
    ) -> tuple[float, float]:
        """Pairwise precision/recall against planted ground-truth clusters.

        ``truth`` lists ground-truth clusters as sequences of input indexes
        (the same indexes :attr:`assignments` is keyed by).
        """
        predicted_pairs = {
            (i, j)
            for i in range(len(self.assignments))
            for j in range(i + 1, len(self.assignments))
            if self.assignments[i] == self.assignments[j]
        }
        truth_pairs = set()
        for group in truth:
            members = sorted(group)
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    truth_pairs.add((members[x], members[y]))

        if not predicted_pairs:
            precision = 1.0  # no merges → no wrong merges
        else:
            precision = len(predicted_pairs & truth_pairs) / len(predicted_pairs)
        recall = (
            1.0
            if not truth_pairs
            else len(predicted_pairs & truth_pairs) / len(truth_pairs)
        )
        return precision, recall


class NameResolver:
    """Clusters :class:`PersonName` values that likely denote one person.

    Parameters
    ----------
    threshold:
        Minimum :func:`name_similarity` score to merge two names.
    block_by_initial:
        Also require matching first given-initial within a block, which
        sharply cuts candidate pairs on large corpora.  Names without a
        given name always stay eligible.
    """

    def __init__(self, *, threshold: float = 0.90, block_by_initial: bool = True):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.block_by_initial = block_by_initial

    def resolve(self, names: Sequence[PersonName]) -> ResolutionReport:
        """Cluster ``names`` and return a :class:`ResolutionReport`.

        Blocking and scoring read only ``(surname, given, suffix)``, and
        two names equal in those share every block and score exactly 1.0,
        so they always merge.  Each distinct spelling is therefore
        blocked, folded and scored once; every input name is then a
        member of its spelling's cluster, in input order.
        """
        spelling_ids: dict[tuple[str, str, str], int] = {}
        spellings: list[PersonName] = []
        row_spelling: list[int] = []
        for name in names:
            spelling = (name.surname, name.given, name.suffix)
            if spelling not in spelling_ids:
                spelling_ids[spelling] = len(spellings)
                spellings.append(name)
            row_spelling.append(spelling_ids[spelling])
        keys = [similarity_key(name) for name in spellings]
        blocks = self._build_blocks(spellings, [key.surname for key in keys])
        uf = UnionFind(len(spellings))
        seen_pairs: set[tuple[int, int]] = set()
        scored = 0
        merged = 0
        for indexes in blocks.values():
            for a_pos in range(len(indexes)):
                for b_pos in range(a_pos + 1, len(indexes)):
                    i, j = indexes[a_pos], indexes[b_pos]
                    pair = (i, j) if i < j else (j, i)
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    scored += 1
                    if key_similarity(keys[i], keys[j]) >= self.threshold:
                        if uf.union(i, j):
                            merged += 1

        # Input rows by their spelling's set, in order of each set's first row.
        rows_by_root: dict[int, list[int]] = defaultdict(list)
        for i, spelling in enumerate(row_spelling):
            rows_by_root[uf.find(spelling)].append(i)
        clusters: list[NameCluster] = []
        member_indexes: list[list[int]] = []
        for members in rows_by_root.values():
            group = [names[i] for i in members]
            clusters.append(
                NameCluster(canonical=_pick_canonical(group), members=tuple(group))
            )
            member_indexes.append(members)
        order = sorted(
            range(len(clusters)),
            key=lambda c: (
                surname_key(clusters[c].canonical.surname),
                clusters[c].canonical.given,
            ),
        )
        clusters = [clusters[c] for c in order]
        member_indexes = [member_indexes[c] for c in order]
        assignments = [0] * len(names)
        for cluster_id, indexes in enumerate(member_indexes):
            for i in indexes:
                assignments[i] = cluster_id
        return ResolutionReport(
            clusters=clusters,
            assignments=assignments,
            spelling_count=len(spellings),
            pairs_scored=scored,
            pairs_merged=merged,
        )

    def _build_blocks(
        self, names: Sequence[PersonName], surname_keys: Sequence[str]
    ) -> dict[str, list[int]]:
        """Candidate blocks: phonetic key ∪ surname-prefix key.

        Soundex alone misses OCR confusions that change a consonant's
        class (``Herdon``/``Hemdon``: H635 vs H535), so every name is also
        blocked on its first two surname letters.  A pair sharing either
        key meets; union–find makes double-counted pairs harmless.
        """
        blocks: dict[str, list[int]] = defaultdict(list)
        for i, (name, skey) in enumerate(zip(names, surname_keys)):
            keys = [f"sx:{soundex(skey)}", f"pf:{skey[:2]}"]
            if self.block_by_initial:
                initial = name.initials[:1]
                for key in keys:
                    blocks[f"{key}:{initial}"].append(i)
                    if initial:
                        # Names lacking a given name must still meet everyone.
                        blocks[f"{key}:"].append(i)
            else:
                for key in keys:
                    blocks[key].append(i)
        return blocks


def _pick_canonical(group: Iterable[PersonName]) -> PersonName:
    """Choose the representative spelling for a cluster.

    Preference order: the most frequent identity key, ties broken toward the
    longest given name (fullest information), then toward the
    lexicographically greatest inverted spelling (``Smyth, Ann`` over
    ``Smith, Ann``), so the choice does not depend on input order.
    """
    members = list(group)
    counts = Counter(m.identity_key() for m in members)

    def rank(name: PersonName) -> tuple[int, int, str]:
        return (
            counts[name.identity_key()],
            len(name.given),
            # max() prefers the greatest spelling on a tie, whatever the order
            name.inverted(),
        )

    return max(members, key=rank)


def resolve_names(
    names: Sequence[PersonName], *, threshold: float = 0.90
) -> ResolutionReport:
    """Convenience wrapper: resolve with default blocking."""
    return NameResolver(threshold=threshold).resolve(names)
