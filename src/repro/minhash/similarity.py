"""Jaccard-similarity estimation from min-hash sketches.

Two estimators are provided:

* ``positional`` — the classical MinHash estimator: the fraction of sketch
  components where the two minima coincide.  This is an unbiased estimator
  of Jaccard similarity (Equation 3).
* ``set`` — the estimator written in Algorithm 1 line 9 of the paper:
  treat each sketch as a *set* of values and compute
  ``|A ∩ B| / |A ∪ B|``.  When the universe is large the two estimators
  agree closely; the set form is what the published pseudocode uses, so it
  is the default for the greedy algorithm.

The pairwise matrix (used by the hierarchical algorithm, Algorithm 2
step 3) is computed one sketch position at a time: each position's column
is narrowed to the smallest unsigned dtype that holds every value exactly,
the band's rows are compared against the whole column, and the matches
are accumulated in a small integer counter (:func:`pairwise_match_counts`)
that is divided by n once.  The Map-Reduce layer partitions rows across
tasks exactly as described in Section III-C ("row-wise partition") and
ships those counts, not the floats, on to the merge loop
(:class:`MatchCounts`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import SketchError
from repro.minhash.sketch import MinHashSketch, padded_value_sets, sketch_matrix

ESTIMATORS = ("positional", "set")


def exact_jaccard(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """True Jaccard similarity of two feature sets (Equation 1)."""
    a = np.unique(np.asarray(set_a))
    b = np.unique(np.asarray(set_b))
    if a.size == 0 and b.size == 0:
        raise SketchError("Jaccard of two empty sets is undefined")
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union


def positional_similarity(s1: MinHashSketch, s2: MinHashSketch) -> float:
    """Fraction of matching sketch components (classical estimator)."""
    _check_pair(s1, s2)
    return float(np.mean(s1.values == s2.values))


def set_similarity(s1: MinHashSketch, s2: MinHashSketch) -> float:
    """Jaccard of sketch *value sets* — Algorithm 1 line 9 verbatim."""
    _check_pair(s1, s2)
    a, b = s1.value_set, s2.value_set
    union = len(a | b)
    if union == 0:
        raise SketchError("both sketches are empty")
    return len(a & b) / union


def estimate_jaccard(
    s1: MinHashSketch, s2: MinHashSketch, *, estimator: str = "set"
) -> float:
    """Estimate Jaccard similarity between two sketched sequences."""
    if estimator == "set":
        return set_similarity(s1, s2)
    if estimator == "positional":
        return positional_similarity(s1, s2)
    raise SketchError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")


def _check_pair(s1: MinHashSketch, s2: MinHashSketch) -> None:
    if not s1.compatible_with(s2):
        raise SketchError(
            f"sketches {s1.read_id!r} and {s2.read_id!r} use different hash "
            "families and cannot be compared"
        )
    if len(s1) != len(s2):
        raise SketchError(
            f"sketch lengths differ: {len(s1)} vs {len(s2)}"
        )


def pairwise_similarity_matrix(
    sketches: Sequence[MinHashSketch],
    *,
    estimator: str = "positional",
    row_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """All-pairs estimated-Jaccard matrix for ``sketches``.

    Parameters
    ----------
    estimator:
        ``"positional"`` (vectorised, default for the matrix path) or
        ``"set"`` (paper-literal, slower).
    row_range:
        Optional ``(start, stop)`` half-open row slice: compute only those
        rows of the matrix.  This is the unit of parallelism used by the
        Map-Reduce similarity job (each task owns a band of rows).  The
        returned array then has shape ``(stop - start, N)``.

    Returns
    -------
    ``float64`` matrix; the full matrix is symmetric with unit diagonal.
    The positional matrix is :func:`pairwise_match_counts` divided by n.
    """
    if estimator not in ESTIMATORS:
        raise SketchError(
            f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}"
        )
    if not sketches:
        return np.empty((0, 0), dtype=np.float64)
    if estimator == "positional":
        counts = pairwise_match_counts(sketches, row_range=row_range)
        return MatchCounts(counts, len(sketches[0])).similarity()
    matrix, start, stop = _sketch_rows(sketches, row_range)
    n = matrix.shape[0]

    # Set-based path: each row's distinct values live in a padded sorted
    # block, so one np.isin per row scores it against every other row at
    # once (pads are -1, never a hash value, so they can't match).
    padded, counts = padded_value_sets(matrix)
    out = np.empty((stop - start, n), dtype=np.float64)
    for i in range(start, stop):
        member = np.isin(padded, padded[i, : counts[i]])
        inter = member.sum(axis=1)
        # Sketches are non-empty, so the union never vanishes.
        out[i - start] = inter / (counts + counts[i] - inter)
    return out


def pairwise_match_counts(
    sketches: Sequence[MinHashSketch],
    *,
    row_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Rows ``row_range`` of the positional match-count matrix: how many of
    the n sketch positions two sketches agree on.

    The dtype is ``np.min_scalar_type(n)`` (uint8 up to n = 255).  One
    pass per position compares the band's slice of that position's
    column against the whole column and adds the matches into that
    counter.  The count k is exact, so ``k / n`` is the same float64 that
    ``np.mean`` of the boolean matches produces; the similarity job ships
    these counts and the merge loop divides them once.
    """
    if not sketches:
        return np.empty((0, 0), dtype=np.uint8)
    matrix, start, stop = _sketch_rows(sketches, row_range)
    num_hashes = matrix.shape[1]
    # Columns in the narrowest unsigned dtype that holds every value
    # exactly; int64 when a value is negative.
    lo, hi = int(matrix.min()), int(matrix.max())
    columns = np.ascontiguousarray(
        matrix.T, dtype=np.min_scalar_type(hi) if lo >= 0 else np.int64
    )
    counts = np.zeros(
        (stop - start, matrix.shape[0]), dtype=np.min_scalar_type(num_hashes)
    )
    equal = np.empty(counts.shape, dtype=bool)
    for column in columns:
        np.equal(column[start:stop, None], column[None, :], out=equal)
        counts += equal.view(np.uint8)
    return counts


@dataclass(frozen=True, eq=False)
class MatchCounts:
    """Positional match counts and the rule ``similarity = count / n``:
    ``counts[i, j] = k`` means sketches i and j agree on k of their
    ``num_hashes`` positions.  The dense similarity job hands the merge
    loop these N² bytes (``np.min_scalar_type(n)``), not an 8N² float64
    matrix, and the loop divides them once."""

    counts: np.ndarray
    num_hashes: int

    def __post_init__(self):
        counts = self.counts
        if not isinstance(counts, np.ndarray) or counts.dtype.kind not in "ui":
            raise SketchError("match counts must be an integer numpy array")
        if self.num_hashes < 1:
            raise SketchError(f"num_hashes must be >= 1, got {self.num_hashes}")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts.shape

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes

    def similarity(self) -> np.ndarray:
        """The float64 matrix ``counts / num_hashes`` (a new array per call)."""
        return self.counts / self.num_hashes


def _sketch_rows(
    sketches: Sequence[MinHashSketch], row_range: tuple[int, int] | None
) -> tuple[np.ndarray, int, int]:
    """The stacked sketch matrix and the validated ``(start, stop)`` rows."""
    n = len(sketches)
    start, stop = row_range if row_range is not None else (0, n)
    if not (0 <= start <= stop <= n):
        raise SketchError(f"row_range {row_range} out of bounds for N={n}")
    return sketch_matrix(sketches), start, stop  # validates family compatibility


def condensed_to_square(condensed: np.ndarray, n: int) -> np.ndarray:
    """Expand a condensed upper-triangle vector (scipy ``pdist`` layout)
    into a full symmetric matrix with unit diagonal."""
    expected = n * (n - 1) // 2
    condensed = np.asarray(condensed, dtype=np.float64)
    if condensed.size != expected:
        raise SketchError(
            f"condensed vector has {condensed.size} entries, expected {expected}"
        )
    out = np.eye(n, dtype=np.float64)
    idx = np.triu_indices(n, k=1)
    out[idx] = condensed
    out[(idx[1], idx[0])] = condensed
    return out
