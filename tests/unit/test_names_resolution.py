"""Unit tests for repro.names.resolution."""

import pytest

from repro.names.model import PersonName
from repro.names.parser import parse_name
from repro.names.resolution import NameResolver, UnionFind, resolve_names
from repro.names.similarity import name_similarity


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(3)
        assert len({uf.find(i) for i in range(3)}) == 3

    def test_union_merges(self):
        uf = UnionFind(3)
        assert uf.union(0, 1) is True
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) != uf.find(0)

    def test_union_idempotent(self):
        uf = UnionFind(2)
        uf.union(0, 1)
        assert uf.union(0, 1) is False

    def test_transitive(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)


def _names(*raw: str) -> list[PersonName]:
    return [parse_name(r) for r in raw]


class TestResolver:
    def test_distinct_names_stay_apart(self):
        report = resolve_names(_names("Areen, Judith", "Bagge, Carl E."))
        assert len(report.clusters) == 2

    def test_ocr_variants_merge(self):
        report = resolve_names(_names("Herdon, Judith", "Hemdon, Judith"))
        assert len(report.clusters) == 1

    def test_different_people_same_surname(self):
        report = resolve_names(
            _names("Johnson, Earl, Jr.", "Johnson, Edward P.", "Johnson, Ben")
        )
        assert len(report.clusters) == 3

    def test_assignments_align_with_input(self):
        names = _names("Herdon, Judith", "Bagge, Carl E.", "Hemdon, Judith")
        report = NameResolver().resolve(names)
        assert len(report.assignments) == 3
        assert report.assignments[0] == report.assignments[2]
        assert report.assignments[0] != report.assignments[1]

    def test_canonical_prefers_frequent_spelling(self):
        names = _names("Johnson, Edward P.", "Johnson, Edward P.", "Johson, Edward P.")
        report = NameResolver().resolve(names)
        assert len(report.clusters) == 1
        assert report.clusters[0].canonical.surname == "Johnson"

    def test_cluster_of_lookup(self):
        names = _names("Herdon, Judith", "Hemdon, Judith")
        report = NameResolver().resolve(names)
        cluster = report.cluster_of(names[1])
        assert cluster is not None
        assert cluster.variant_count == 2

    def test_cluster_of_missing(self):
        report = resolve_names(_names("Areen, Judith"))
        assert report.cluster_of(parse_name("Zed, Q.")) is None

    def test_empty_input(self):
        report = resolve_names([])
        assert report.clusters == []
        assert report.input_count == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            NameResolver(threshold=0.0)
        with pytest.raises(ValueError):
            NameResolver(threshold=1.5)

    def test_higher_threshold_merges_less(self):
        names = _names("Herdon, Judith", "Hemdon, Judith")
        loose = NameResolver(threshold=0.85).resolve(names)
        strict = NameResolver(threshold=0.999).resolve(names)
        assert len(loose.clusters) <= len(strict.clusters)

    def test_clusters_sorted_by_surname(self):
        report = resolve_names(
            _names("Zlotnick, David", "Areen, Judith", "McAteer, J. Davitt")
        )
        surnames = [c.canonical.surname for c in report.clusters]
        assert surnames == ["Areen", "McAteer", "Zlotnick"]

    def test_pair_counters(self):
        names = _names("Herdon, Judith", "Hemdon, Judith", "Areen, Judith")
        report = NameResolver().resolve(names)
        assert report.pairs_merged == 1
        assert report.pairs_scored >= 1

    def test_tie_picks_greatest_spelling_in_either_order(self):
        # Equal counts and given-name lengths: max() over inverted() wins.
        for raw in (("Smith, Ann", "Smyth, Ann"), ("Smyth, Ann", "Smith, Ann")):
            report = resolve_names(_names(*raw))
            assert len(report.clusters) == 1
            assert report.clusters[0].canonical.inverted() == "Smyth, Ann"


class TestDistinctSpellings:
    """Repeats of one (surname, given, suffix) are blocked and scored once."""

    def test_counters_count_pairs_of_spellings(self):
        names = _names(*["Herdon, Judith"] * 50, *["Hemdon, Judith"] * 50, "Areen, Judith")
        report = NameResolver().resolve(names)
        assert report.pairs_scored == 1
        assert report.pairs_merged == 1
        assert report.spelling_count == 3
        big = [c for c in report.clusters if len(c.members) == 100]
        assert len(big) == 1
        assert big[0].variant_count == 2
        assert len(report.clusters) == 2

    @pytest.mark.parametrize(
        "raw",
        ["Herdon, Judith", "Herdon", "Smith, John, Jr.", "Smith, III", "Ng, J. T."],
    )
    def test_a_spelling_scores_one_against_itself(self, raw):
        name = parse_name(raw)
        assert name_similarity(name, name) == 1.0

    def test_repeats_share_a_cluster_at_the_strictest_threshold(self):
        names = _names("Herdon, Judith", "Areen, Judith", "Herdon, Judith", "Herdon, Judith")
        report = NameResolver(threshold=1.0).resolve(names)
        assert report.assignments[0] == report.assignments[2] == report.assignments[3]
        assert report.assignments[1] != report.assignments[0]

    def test_members_keep_their_own_names(self):
        plain = PersonName("Herdon", "Judith", raw="Herdon, Judith")
        honored = PersonName("Herdon", "Judith", honorific="Hon.", raw="Hon. Judith Herdon")
        student = PersonName("Herdon", "Judith", is_student=True, raw="Herdon, Judith*")
        report = NameResolver().resolve([plain, honored, student])
        assert len(report.clusters) == 1
        members = report.clusters[0].members
        assert len(members) == 3
        assert all(m is n for m, n in zip(members, (plain, honored, student)))


class TestScoring:
    def test_perfect_resolution_scores_one(self):
        names = _names("Herdon, Judith", "Hemdon, Judith", "Bagge, Carl E.")
        truth = [[0, 1], [2]]
        report = NameResolver().resolve(names)
        precision, recall = report.score_against(truth)
        assert precision == 1.0
        assert recall == 1.0

    def test_under_merge_hurts_recall_not_precision(self):
        names = _names("Herdon, Judith", "Hemdon, Judith")
        report = NameResolver(threshold=0.9999).resolve(names)
        precision, recall = report.score_against([[0, 1]])
        assert precision == 1.0
        assert recall == 0.0

    def test_no_truth_pairs(self):
        names = _names("Areen, Judith", "Bagge, Carl E.")
        report = NameResolver().resolve(names)
        precision, recall = report.score_against([[0], [1]])
        assert precision == 1.0
        assert recall == 1.0


class TestSyntheticGroundTruth:
    def test_planted_noise_recall(self):
        from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig

        corpus = SyntheticCorpus(SyntheticCorpusConfig(size=100, seed=5, author_pool=40))
        names, truth = corpus.noisy_variants(noise_rate=2.0)
        report = NameResolver().resolve(names)
        precision, recall = report.score_against(truth)
        assert precision >= 0.98
        assert recall >= 0.85
