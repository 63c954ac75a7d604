"""Tests for the dendrogram structure."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClusteringError
from repro.cluster.dendrogram import Dendrogram, MergeStep


class TestDendrogramValidation:
    def test_empty_ok(self):
        d = Dendrogram(3)
        assert len(d) == 0
        assert not d.is_complete

    def test_too_many_merges(self):
        with pytest.raises(ClusteringError, match="exceed"):
            Dendrogram(2, [MergeStep(0, 1, 0.9, 2), MergeStep(2, 0, 0.8, 3)])

    def test_reuse_rejected(self):
        d = Dendrogram(3, [MergeStep(0, 1, 0.9, 2)])
        with pytest.raises(ClusteringError, match="reuses"):
            d.append(MergeStep(0, 2, 0.5, 3))

    def test_future_id_rejected(self):
        with pytest.raises(ClusteringError, match="invalid cluster id"):
            Dendrogram(3, [MergeStep(0, 5, 0.9, 2)])

    def test_append_rolls_back_on_error(self):
        d = Dendrogram(3, [MergeStep(0, 1, 0.9, 2)])
        with pytest.raises(ClusteringError):
            d.append(MergeStep(1, 2, 0.5, 3))
        assert len(d) == 1

    def test_zero_leaves_rejected(self):
        with pytest.raises(ClusteringError):
            Dendrogram(0)


class TestCut:
    def test_no_merges(self):
        assert Dendrogram(3).cut(0.5) == [0, 1, 2]

    def test_full_merge_chain(self):
        d = Dendrogram(3, [MergeStep(0, 1, 0.9, 2), MergeStep(3, 2, 0.7, 3)])
        assert d.cut(0.0) == [0, 0, 0]
        assert d.cut(0.8) == [0, 0, 1]
        assert d.cut(0.95) == [0, 1, 2]

    def test_threshold_inclusive(self):
        d = Dendrogram(2, [MergeStep(0, 1, 0.9, 2)])
        assert d.cut(0.9) == [0, 0]

    def test_labels_dense(self):
        d = Dendrogram(4, [MergeStep(1, 2, 0.9, 2)])
        labels = d.cut(0.5)
        assert sorted(set(labels)) == list(range(len(set(labels))))


class TestScipyExport:
    def test_roundtrip_against_scipy(self):
        from scipy.cluster.hierarchy import fcluster

        d = Dendrogram(
            4,
            [
                MergeStep(0, 1, 0.9, 2),
                MergeStep(2, 3, 0.8, 2),
                MergeStep(4, 5, 0.3, 4),
            ],
        )
        Z = d.to_scipy_linkage()
        assert Z.shape == (3, 4)
        # Cut at distance 0.5 (similarity 0.5): scipy labels must induce
        # the same partition as our cut.
        ours = d.cut(0.5)
        theirs = fcluster(Z, t=0.5, criterion="distance")
        pairs_ours = {(i, j) for i in range(4) for j in range(4) if ours[i] == ours[j]}
        pairs_theirs = {
            (i, j) for i in range(4) for j in range(4) if theirs[i] == theirs[j]
        }
        assert pairs_ours == pairs_theirs

    def test_incomplete_rejected(self):
        d = Dendrogram(3, [MergeStep(0, 1, 0.9, 2)])
        with pytest.raises(ClusteringError, match="complete"):
            d.to_scipy_linkage()

    def test_distance_conversion(self):
        d = Dendrogram(2, [MergeStep(0, 1, 0.75, 2)])
        Z = d.to_scipy_linkage()
        assert Z[0, 2] == pytest.approx(0.25)
        assert Z[0, 3] == 2


class TestImpossibleMerges:
    def test_self_merge_rejected(self):
        with pytest.raises(ClusteringError, match="merge 0 reuses .* cluster 0"):
            Dendrogram(3, [MergeStep(0, 0, 0.9, 2)])

    def test_self_merge_append_rejected(self):
        d = Dendrogram(3, [MergeStep(0, 1, 0.9, 2)])
        with pytest.raises(ClusteringError, match="merge 1 reuses .* cluster 3"):
            d.append(MergeStep(3, 3, 0.5, 4))
        assert d.steps == [MergeStep(0, 1, 0.9, 2)]

    def test_wrong_size_rejected(self):
        with pytest.raises(ClusteringError, match="merge 0 has size 5"):
            Dendrogram(3, [MergeStep(0, 1, 0.9, 5)])

    def test_wrong_size_append_rejected(self):
        d = Dendrogram(3, [MergeStep(0, 1, 0.9, 2)])
        with pytest.raises(ClusteringError, match="hold 3 leaves"):
            d.append(MergeStep(3, 2, 0.8, 5))
        d.append(MergeStep(3, 2, 0.8, 3))
        assert d.to_scipy_linkage()[:, 3].tolist() == [2, 3]


@st.composite
def step_sequences(draw):
    """A leaf count and a merge-step sequence mixing valid and invalid
    steps; sizes are drawn near the consistent value so that long valid
    prefixes are common."""
    num_leaves = draw(st.integers(1, 6))
    steps = []
    sizes = [1] * num_leaves
    for _ in range(draw(st.integers(0, num_leaves + 2))):
        upper = len(sizes) + 1
        left = draw(st.integers(-1, upper))
        right = draw(st.integers(-1, upper))
        joined = sum(sizes[s] if 0 <= s < len(sizes) else 1 for s in (left, right))
        size = draw(st.one_of(st.just(joined), st.integers(0, num_leaves + 1)))
        steps.append(MergeStep(left, right, 0.5, size))
        sizes.append(size)
    return num_leaves, steps


def _outcome(fn):
    try:
        fn()
    except ClusteringError as exc:
        return str(exc)
    return None


class TestIncrementalAppend:
    @given(step_sequences())
    @settings(max_examples=300, deadline=None)
    def test_append_matches_constructor(self, case):
        """Appending a step accepts or rejects it exactly when the
        constructor does on the accepted steps plus that step, with the
        same message; a rejected append changes nothing."""
        num_leaves, steps = case
        d = Dendrogram(num_leaves)
        accepted = []
        for step in steps:
            expected = _outcome(lambda: Dendrogram(num_leaves, accepted + [step]))
            assert _outcome(lambda: d.append(step)) == expected
            if expected is None:
                accepted.append(step)
            assert d.steps == accepted

    def test_caterpillar_appends_are_constant_time(self):
        """Each append checks one step: 10,000 merges onto one growing
        cluster must not pay a whole-history re-validation per append
        (tens of seconds at this size)."""
        n = 10_001
        d = Dendrogram(n)
        start = time.perf_counter()
        d.append(MergeStep(0, 1, 1.0, 2))
        for k in range(1, n - 1):
            d.append(MergeStep(n + k - 1, k + 1, 1.0, k + 2))
        elapsed = time.perf_counter() - start
        assert d.is_complete
        assert elapsed < 2.0, f"10,000 appends took {elapsed:.2f} s"
