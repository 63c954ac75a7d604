"""Tests for the sparse candidate-pair similarity path, including exact
equivalence with the dense algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClusteringError
from repro.cluster.greedy import greedy_cluster
from repro.cluster.sparse import (
    candidate_pairs,
    sparse_greedy_cluster,
    sparse_single_linkage,
)
from repro.cluster.hierarchical import agglomerative_cluster
from repro.minhash.sketch import MinHashSketch
from repro.minhash.similarity import pairwise_similarity_matrix


def make_sketches(rows, key=(4, 100, 0)):
    return [
        MinHashSketch(f"s{i}", np.asarray(row, dtype=np.int64), family_key=key)
        for i, row in enumerate(rows)
    ]


@st.composite
def sketch_sets(draw, max_sketches=14, width=8):
    n = draw(st.integers(min_value=1, max_value=max_sketches))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 6), min_size=width, max_size=width),
            min_size=n, max_size=n,
        )
    )
    return make_sketches(rows, key=(width, 7, 0))


class TestCandidatePairs:
    def test_collision_counts_are_positional_matches(self):
        sketches = make_sketches([[1, 2, 3, 4], [1, 2, 9, 9], [7, 7, 7, 7]])
        pairs = candidate_pairs(sketches)
        assert pairs[(0, 1)] == 2
        assert (0, 2) not in pairs
        assert (1, 2) not in pairs

    def test_max_group_caps_degenerate_values(self):
        # All sketches share component 0 -> group of 5 skipped at cap 4.
        rows = [[7, i, i + 1, i + 2] for i in range(0, 15, 3)]
        sketches = make_sketches(rows)
        capped = candidate_pairs(sketches, max_group=4)
        assert capped == {}
        uncapped = candidate_pairs(sketches)
        assert len(uncapped) == 10  # all C(5,2) pairs collide in slot 0

    def test_validation(self):
        with pytest.raises(ClusteringError):
            candidate_pairs([])

    @given(sketch_sets())
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_nonzero_entries(self, sketches):
        # A collision count over n components is the positional match
        # count, so collisions / n is the dense positional entry.
        pairs = candidate_pairs(sketches)
        dense = pairwise_similarity_matrix(sketches, estimator="positional")
        n = len(sketches)
        width = len(sketches[0])
        for i in range(n):
            for j in range(i + 1, n):
                if dense[i, j] > 0:
                    assert pairs[(i, j)] / width == dense[i, j]
                else:
                    assert (i, j) not in pairs


class TestSparseSingleLinkage:
    @given(sketch_sets(), st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    @settings(max_examples=50, deadline=None)
    def test_equals_dense_single_linkage(self, sketches, theta):
        sparse = sparse_single_linkage(sketches, theta)
        dense_matrix = pairwise_similarity_matrix(sketches, estimator="positional")
        dense = agglomerative_cluster(
            dense_matrix, [s.read_id for s in sketches], theta, linkage="single"
        )

        def partition(a):
            groups = {}
            for rid, lbl in a.items():
                groups.setdefault(lbl, set()).add(rid)
            return {frozenset(g) for g in groups.values()}

        assert partition(dict(sparse)) == partition(dict(dense))

    def test_zero_threshold_rejected(self):
        sketches = make_sketches([[1, 2, 3, 4]])
        with pytest.raises(ClusteringError):
            sparse_single_linkage(sketches, 0.0)


class TestSparseGreedy:
    @given(sketch_sets(), st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    @settings(max_examples=50, deadline=None)
    def test_equals_dense_greedy(self, sketches, theta):
        sparse = sparse_greedy_cluster(sketches, theta)
        dense = greedy_cluster(sketches, theta, estimator="positional")
        assert dict(sparse) == dict(dense)

    def test_scales_with_candidates_not_pairs(self):
        """With disjoint sketch families, candidate count stays linear."""
        rows = []
        for family in range(20):
            base = [family * 100 + c for c in range(8)]
            rows.append(base)
            rows.append(base)  # one duplicate per family
        sketches = make_sketches(rows, key=(8, 10_000, 0))
        pairs = candidate_pairs(sketches)
        assert len(pairs) == 20  # one pair per family, not C(40,2)
        a = sparse_greedy_cluster(sketches, 0.9)
        assert a.num_clusters == 20
