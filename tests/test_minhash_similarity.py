"""Tests for Jaccard estimation and the pairwise similarity matrix,
including hypothesis properties of the estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SketchError
from repro.minhash.sketch import MinHashSketch, SketchingConfig, compute_sketches
from repro.minhash.similarity import (
    condensed_to_square,
    estimate_jaccard,
    exact_jaccard,
    pairwise_similarity_matrix,
    positional_similarity,
    set_similarity,
)
from repro.seq.records import SequenceRecord


def _sketch(read_id, values, key=(4, 100, 0)):
    return MinHashSketch(read_id, np.asarray(values), family_key=key)


class TestExactJaccard:
    def test_identical(self):
        assert exact_jaccard([1, 2, 3], [3, 2, 1]) == 1.0

    def test_disjoint(self):
        assert exact_jaccard([1, 2], [3, 4]) == 0.0

    def test_partial(self):
        assert exact_jaccard([1, 2, 3], [2, 3, 4]) == 0.5

    def test_duplicates_ignored(self):
        assert exact_jaccard([1, 1, 2], [2, 2, 1]) == 1.0

    def test_both_empty_rejected(self):
        with pytest.raises(SketchError):
            exact_jaccard([], [])

    @given(
        st.sets(st.integers(0, 50), min_size=1, max_size=30),
        st.sets(st.integers(0, 50), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        a = np.array(sorted(a))
        b = np.array(sorted(b))
        j = exact_jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == exact_jaccard(b, a)


class TestEstimators:
    def test_positional_identical(self):
        s = _sketch("a", [1, 2, 3, 4])
        assert positional_similarity(s, _sketch("b", [1, 2, 3, 4])) == 1.0

    def test_positional_half(self):
        a = _sketch("a", [1, 2, 3, 4])
        b = _sketch("b", [1, 2, 9, 9])
        assert positional_similarity(a, b) == 0.5

    def test_set_collapses_duplicates(self):
        a = _sketch("a", [1, 1, 2, 2])
        b = _sketch("b", [2, 2, 1, 1])
        # Positionally nothing matches; as sets they are identical.
        assert positional_similarity(a, b) == 0.0
        assert set_similarity(a, b) == 1.0

    def test_estimator_dispatch(self):
        a = _sketch("a", [1, 2, 3, 4])
        b = _sketch("b", [4, 3, 2, 1])
        assert estimate_jaccard(a, b, estimator="set") == 1.0
        assert estimate_jaccard(a, b, estimator="positional") == 0.0
        with pytest.raises(SketchError, match="unknown estimator"):
            estimate_jaccard(a, b, estimator="bogus")

    def test_family_mismatch_rejected(self):
        a = _sketch("a", [1, 2, 3, 4], key=(1, 1, 1))
        b = _sketch("b", [1, 2, 3, 4], key=(2, 2, 2))
        with pytest.raises(SketchError, match="different hash families"):
            positional_similarity(a, b)

    def test_length_mismatch_rejected(self):
        a = _sketch("a", [1, 2, 3])
        b = _sketch("b", [1, 2, 3, 4])
        with pytest.raises(SketchError, match="lengths differ"):
            positional_similarity(a, b)


class TestPairwiseMatrix:
    def test_symmetric_unit_diagonal(self, two_family_sketches):
        m = pairwise_similarity_matrix(two_family_sketches)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)

    def test_set_estimator_matches_pairwise_calls(self, two_family_sketches):
        sk = two_family_sketches[:4]
        m = pairwise_similarity_matrix(sk, estimator="set")
        for i in range(4):
            for j in range(4):
                assert m[i, j] == pytest.approx(set_similarity(sk[i], sk[j]))

    def test_positional_estimator_matches_pairwise_calls(self, two_family_sketches):
        sk = two_family_sketches[:4]
        m = pairwise_similarity_matrix(sk, estimator="positional")
        for i in range(4):
            for j in range(4):
                assert m[i, j] == pytest.approx(positional_similarity(sk[i], sk[j]))

    def test_row_range(self, two_family_sketches):
        full = pairwise_similarity_matrix(two_family_sketches)
        band = pairwise_similarity_matrix(two_family_sketches, row_range=(2, 5))
        assert band.shape == (3, len(two_family_sketches))
        assert np.allclose(band, full[2:5])

    def test_row_range_validation(self, two_family_sketches):
        with pytest.raises(SketchError):
            pairwise_similarity_matrix(two_family_sketches, row_range=(5, 2))
        with pytest.raises(SketchError):
            pairwise_similarity_matrix(two_family_sketches, row_range=(0, 999))

    def test_empty(self):
        assert pairwise_similarity_matrix([]).shape == (0, 0)

    def test_blocks_separate_families(self, two_family_records, small_config):
        sketches = compute_sketches(two_family_records, small_config)
        labels = [r.label for r in two_family_records]
        m = pairwise_similarity_matrix(sketches)
        same, diff = [], []
        for i in range(len(sketches)):
            for j in range(i + 1, len(sketches)):
                (same if labels[i] == labels[j] else diff).append(m[i, j])
        assert np.mean(same) > np.mean(diff)


class TestCondensedToSquare:
    def test_roundtrip(self):
        condensed = np.array([0.1, 0.2, 0.3])
        square = condensed_to_square(condensed, 3)
        assert square[0, 1] == 0.1
        assert square[0, 2] == 0.2
        assert square[1, 2] == 0.3
        assert np.allclose(square, square.T)
        assert np.allclose(np.diag(square), 1.0)

    def test_size_validation(self):
        with pytest.raises(SketchError):
            condensed_to_square(np.array([0.1, 0.2]), 3)


class TestEstimatorAccuracy:
    def test_positional_unbiased_on_dna(self):
        """End-to-end Equation-3 check on real sequence data."""
        rng = np.random.default_rng(0)
        base = "".join(rng.choice(list("ACGT"), size=400))
        mutated = list(base)
        for i in range(0, 400, 10):
            mutated[i] = "ACGT"[(("ACGT".index(mutated[i])) + 1) % 4]
        records = [
            SequenceRecord("a", base),
            SequenceRecord("b", "".join(mutated)),
        ]
        config = SketchingConfig(kmer_size=8, num_hashes=512, seed=0)
        sketches = compute_sketches(records, config)
        from repro.seq.kmers import kmer_set

        true_j = exact_jaccard(
            kmer_set(records[0].sequence, 8), kmer_set(records[1].sequence, 8)
        )
        est = positional_similarity(*sketches)
        assert abs(est - true_j) < 0.07


@st.composite
def positional_cases(draw):
    """Sketch matrices for the positional kernel's byte-identity net.

    Rows are copies of a few pool rows with some entries redrawn, so that
    long runs of matching positions (and full matches) are common.
    ``kind`` picks the value range: small values (the WGS k=5 shape),
    values whose low 8/16/32 bits coincide while higher bits differ, or
    negative values.
    """
    num_hashes = draw(st.sampled_from([1, 100, 255, 256, 300]))
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["small", "bit8", "bit16", "bit32", "negative"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        if kind == "negative":
            return rng.integers(-3, 3, shape)
        low = rng.integers(0, 5, shape)
        if kind == "small":
            return low
        shift = int(kind[3:])
        return low + (rng.integers(0, 3, shape) << shift)

    pool = values((draw(st.integers(1, 3)), num_hashes))
    matrix = pool[rng.integers(0, len(pool), n)]
    redraw = rng.random((n, num_hashes)) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    matrix[redraw] = values((n, num_hashes))[redraw]
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n))
    return matrix, (start, stop)


class TestPositionalKernelByteIdentity:
    @given(positional_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pair_mean(self, case):
        matrix, (start, stop) = case
        key = (matrix.shape[1], 0, 0)
        sketches = [_sketch(f"r{i}", row, key=key) for i, row in enumerate(matrix)]
        n = len(sketches)
        reference = np.array(
            [[np.mean(matrix[i] == matrix[j]) for j in range(n)] for i in range(n)]
        )
        full = pairwise_similarity_matrix(sketches, estimator="positional")
        assert full.dtype == np.float64
        assert full.tobytes() == reference.tobytes()
        band = pairwise_similarity_matrix(
            sketches, estimator="positional", row_range=(start, stop)
        )
        assert band.shape == (stop - start, n)
        assert band.tobytes() == reference[start:stop].tobytes()
