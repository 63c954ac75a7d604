"""Tests for agglomerative hierarchical clustering (Algorithm 2),
including exact cross-validation against scipy's linkage."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from repro.errors import ClusteringError
from repro.cluster.hierarchical import (
    LINKAGES,
    agglomerative_cluster,
    build_dendrogram,
    cut_dendrogram,
)
from repro.minhash.similarity import MatchCounts


def random_similarity(n, seed):
    rng = np.random.default_rng(seed)
    base = rng.random((n, n))
    sim = (base + base.T) / 2
    np.fill_diagonal(sim, 1.0)
    return sim


def quantised_similarity(n, seed, levels=50):
    """Tie-heavy symmetric matrix with at most ``levels`` distinct values
    k / (levels - 1), shaped like WGS reads: tight groups (>= 0.81 within),
    low similarity between groups, and sparse bridges (0.51-0.80) only
    inside three super-groups, so θ = 0.5 and 0.9 both stop early."""
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, max(1, n // 8), n)
    same = groups[:, None] == groups[None, :]
    supergroup = groups % 3
    bridge = (supergroup[:, None] == supergroup[None, :]) & (rng.random((n, n)) < 0.02)
    between = np.where(
        bridge, rng.integers(25, 40, (n, n)), rng.integers(0, 25, (n, n))
    )
    k = np.where(same, rng.integers(40, levels, (n, n)), between)
    upper = np.triu(k, 1)
    sim = (upper + upper.T) / (levels - 1)
    np.fill_diagonal(sim, 1.0)
    return sim


def as_counts(sim, levels=50):
    """The match counts whose quotients are ``quantised_similarity``."""
    return MatchCounts(np.rint(sim * (levels - 1)).astype(np.uint8), levels - 1)


def partitions_equal(a, b):
    n = len(a)
    pa = {(i, j) for i in range(n) for j in range(n) if a[i] == a[j]}
    pb = {(i, j) for i in range(n) for j in range(n) if b[i] == b[j]}
    return pa == pb


class TestBuildDendrogram:
    def test_single_leaf(self):
        d = build_dendrogram(np.array([[1.0]]))
        assert d.num_leaves == 1
        assert len(d) == 0

    def test_complete_dendrogram(self):
        d = build_dendrogram(random_similarity(8, 0))
        assert d.is_complete

    def test_merge_similarities_monotone_average(self):
        """Average/complete linkage similarities never increase between
        merges (reducibility)."""
        for link in ("average", "complete"):
            d = build_dendrogram(random_similarity(12, 1), linkage=link)
            sims = [s.similarity for s in d.steps]
            assert all(a >= b - 1e-9 for a, b in zip(sims, sims[1:])), link

    def test_stop_threshold(self):
        sim = np.array(
            [
                [1.0, 0.9, 0.1],
                [0.9, 1.0, 0.1],
                [0.1, 0.1, 1.0],
            ]
        )
        d = build_dendrogram(sim, stop_threshold=0.5)
        assert len(d) == 1  # only the 0.9 merge
        assert d.steps[0].similarity == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ClusteringError, match="square"):
            build_dendrogram(np.zeros((2, 3)))
        with pytest.raises(ClusteringError, match="symmetric"):
            build_dendrogram(np.array([[1.0, 0.2], [0.8, 1.0]]))
        with pytest.raises(ClusteringError, match="\\[0, 1\\]"):
            build_dendrogram(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ClusteringError, match="empty"):
            build_dendrogram(np.zeros((0, 0)))
        with pytest.raises(ClusteringError, match="unknown linkage"):
            build_dendrogram(random_similarity(3, 0), linkage="ward")
        with pytest.raises(ClusteringError):
            build_dendrogram(random_similarity(3, 0), stop_threshold=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_as_such(self, bad):
        sim = random_similarity(4, 0)
        sim[1, 2] = sim[2, 1] = bad
        with pytest.raises(ClusteringError, match="non-finite"):
            build_dendrogram(sim)

    @pytest.mark.parametrize("bad", [7.0, np.nan])
    def test_bad_diagonal_rejected(self, bad):
        sim = random_similarity(4, 0)
        sim[2, 2] = bad
        with pytest.raises(ClusteringError):
            build_dendrogram(sim)

    def test_diagonal_does_not_influence_merges(self):
        sim = quantised_similarity(30, 4)
        low_diagonal = sim.copy()
        np.fill_diagonal(low_diagonal, 0.0)
        assert build_dendrogram(sim).steps == build_dendrogram(low_diagonal).steps

    def test_validation_checks_every_row_band(self):
        """The checks run over row bands; a defect in the last band only
        is still found, and the error precedence (non-finite, then
        symmetry, then range) holds across bands."""
        n = 700  # two validation bands
        base = quantised_similarity(n, 5)
        asymmetric = base.copy()
        asymmetric[n - 1, 3] += 0.01
        with pytest.raises(ClusteringError, match="symmetric"):
            build_dendrogram(asymmetric)
        out_of_range = base.copy()
        out_of_range[n - 1, n - 2] = out_of_range[n - 2, n - 1] = 1.5
        with pytest.raises(ClusteringError, match="\\[0, 1\\]"):
            build_dendrogram(out_of_range)
        both = asymmetric.copy()
        both[0, 1] = both[1, 0] = 1.5
        with pytest.raises(ClusteringError, match="symmetric"):
            build_dendrogram(both)
        nan_last = both.copy()
        nan_last[n - 1, n - 1] = np.nan
        with pytest.raises(ClusteringError, match="non-finite"):
            build_dendrogram(nan_last)
        # 1e-8 absolute asymmetry is tolerated, as with np.allclose(s, s.T).
        tolerated = base.copy()
        tolerated[n - 1, 3] += 5e-9
        assert len(build_dendrogram(tolerated, stop_threshold=0.9)) > 0

    def test_counts_rejected_with_the_float_messages(self):
        """Match counts are checked on the integers, with the float path's
        messages in its precedence: square, empty, symmetric, range."""
        def counts(rows, n=10):
            return MatchCounts(np.array(rows, dtype=np.uint8), n)

        cases = [
            (counts([[10, 2], [8, 10]]), "symmetric"),
            (counts([[10, 11], [11, 10]]), "\\[0, 1\\]"),
            (counts([[10, 11], [2, 10]]), "symmetric"),
            (counts([[10, 2, 3], [2, 10, 4]]), "square"),
            (MatchCounts(np.zeros((0, 0), dtype=np.uint8), 10), "empty"),
        ]
        for matrix, message in cases:
            with pytest.raises(ClusteringError, match=message):
                build_dendrogram(matrix)
        # An in-range count of exactly n is a similarity of 1.
        assert len(build_dendrogram(counts([[10, 10], [10, 10]]))) == 1

    @pytest.mark.parametrize("counts", [False, True])
    def test_input_not_mutated(self, counts):
        sim = quantised_similarity(60, 3)
        data = as_counts(sim).counts if counts else sim
        before = data.copy()
        build_dendrogram(MatchCounts(data, 49) if counts else data)
        assert data.tobytes() == before.tobytes()

    def test_near_symmetric_accepted_through_allclose(self):
        """A band that is not exactly symmetric still passes when it is
        symmetric to within allclose's tolerance (float noise such as
        an average of the two triangles computed in different orders)."""
        sim = quantised_similarity(60, 7)
        noisy = sim + np.triu(np.full_like(sim, 1e-12), 1)
        assert not np.array_equal(noisy, noisy.T)
        assert len(build_dendrogram(noisy, stop_threshold=0.5)) > 0

    def test_asymmetry_beyond_tolerance_rejected(self):
        sim = quantised_similarity(60, 7)
        sim[10, 40] += 1e-6
        with pytest.raises(ClusteringError, match="symmetric"):
            build_dendrogram(sim)


#: sha256 of build_dendrogram's step list over quantised_similarity at
#: (seed, n) = (0, 40), (1, 100), (2, 200), recorded before the merge loop
#: stopped writing dead slots and Dendrogram.append stopped re-validating.
MERGE_ORDER_SHA256 = {
    ("single", None): "2de934e27736950e7901639876da6956da64281afbcb0c9026e03e9298477272",
    ("single", 0.5): "1a47380c328b8b908ca23a2a461a58d34c95bb77a27ba0b5d408d01bd7b28024",
    ("single", 0.9): "4e93cb33c5f7e049e4bd70baacb757a138247247a2a799a2528ee1aa637d4d49",
    ("average", None): "bcd796e3537dcb143418a463b67f0622a07b091452eda49884ed3ba17e5d35a6",
    ("average", 0.5): "21d5ec00558d73218c33ec074865589c926d2f3644fc5439d8b093da2c07413d",
    ("average", 0.9): "fc5175597d3cc35a58826cf7a63a47977f43326ab881baaa14d22a05bf6c862e",
    ("complete", None): "f5926df11102868f41c34f73be83f55dfee28e80aa56e17e85bb3ae31cdb59c2",
    ("complete", 0.5): "04fe9ea8c34e2fa5c31c07ebed4e09f623b25c34272e3b5eb3dc92c0f53bd1f0",
    ("complete", 0.9): "52551f5c7a54264232b4cb020362034e54e31cb939dfc5c78b0a474b43030296",
}


class TestMergeOrderCharacterization:
    """Merge order, first-index tie-breaking included, is pinned on
    tie-heavy matrices: any change to the merge loop that reorders tied
    merges or perturbs an average-linkage float changes a digest.  The
    match counts of the same matrices must give the same digests."""

    @pytest.mark.parametrize("link,stop", sorted(MERGE_ORDER_SHA256, key=str))
    def test_step_list_digest(self, link, stop):
        for carrier in (np.asarray, as_counts):
            digest = hashlib.sha256()
            for seed, n in ((0, 40), (1, 100), (2, 200)):
                sim = quantised_similarity(n, seed)
                assert len(np.unique(sim)) <= 50
                d = build_dendrogram(carrier(sim), linkage=link, stop_threshold=stop)
                steps = [(s.left, s.right, s.similarity, s.size) for s in d.steps]
                digest.update(repr(steps).encode())
            assert digest.hexdigest() == MERGE_ORDER_SHA256[(link, stop)], carrier


class TestScipyEquivalence:
    """Our agglomeration must match scipy.cluster.hierarchy exactly
    (similarity 1-d <-> distance d) for every linkage."""

    @pytest.mark.parametrize("link", LINKAGES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_partition_at_thresholds(self, link, seed):
        n = 14
        sim = random_similarity(n, seed)
        d = build_dendrogram(sim, linkage=link)
        Z = linkage(squareform(1.0 - sim, checks=False), method=link)
        for theta in (0.2, 0.4, 0.6, 0.8):
            ours = d.cut(theta)
            theirs = fcluster(Z, t=1.0 - theta, criterion="distance")
            assert partitions_equal(ours, list(theirs)), (link, seed, theta)

    @pytest.mark.parametrize("link", LINKAGES)
    def test_merge_heights_match(self, link):
        sim = random_similarity(10, 7)
        d = build_dendrogram(sim, linkage=link)
        Z = linkage(squareform(1.0 - sim, checks=False), method=link)
        ours = sorted(1.0 - s.similarity for s in d.steps)
        theirs = sorted(Z[:, 2])
        assert np.allclose(ours, theirs, atol=1e-9), link


class TestCutAndCluster:
    def test_cut_dendrogram_wrapper(self):
        d = build_dendrogram(random_similarity(6, 3))
        labels = cut_dendrogram(d, 0.5)
        assert len(labels) == 6
        with pytest.raises(ClusteringError):
            cut_dendrogram(d, 1.5)

    def test_agglomerative_cluster_end_to_end(self):
        sim = np.array(
            [
                [1.0, 0.95, 0.1, 0.1],
                [0.95, 1.0, 0.1, 0.1],
                [0.1, 0.1, 1.0, 0.9],
                [0.1, 0.1, 0.9, 1.0],
            ]
        )
        a = agglomerative_cluster(sim, ["a", "b", "c", "d"], 0.5)
        assert a.num_clusters == 2
        assert a["a"] == a["b"]
        assert a["c"] == a["d"]
        assert a["a"] != a["c"]

    def test_id_count_mismatch(self):
        with pytest.raises(ClusteringError):
            agglomerative_cluster(random_similarity(3, 0), ["a", "b"], 0.5)

    def test_threshold_one_only_perfect_merges(self):
        sim = np.array([[1.0, 1.0], [1.0, 1.0]])
        a = agglomerative_cluster(sim, ["a", "b"], 1.0)
        assert a.num_clusters == 1

    @given(st.integers(min_value=2, max_value=20), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_cluster_count_bounds(self, n, seed):
        sim = random_similarity(n, seed)
        a = agglomerative_cluster(sim, [f"s{i}" for i in range(n)], 0.5)
        assert 1 <= a.num_clusters <= n
        assert a.num_sequences == n

    def test_monotone_in_threshold(self):
        """Higher θ can only produce more (or equally many) clusters."""
        sim = random_similarity(15, 9)
        ids = [f"s{i}" for i in range(15)]
        counts = [
            agglomerative_cluster(sim, ids, t).num_clusters
            for t in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert counts == sorted(counts)
