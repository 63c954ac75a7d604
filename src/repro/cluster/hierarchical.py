"""Agglomerative hierarchical clustering — Algorithm 2 (MrMC-MinH^h).

Builds a dendrogram from the all-pairs estimated-Jaccard matrix by
iteratively merging the most-similar pair under the chosen linkage policy
(single, average or complete — the paper's ``$LINK`` parameter), and cuts
it at the similarity threshold θ (``$CUTOFF``): merging stops when no pair
of clusters is at least θ similar.

Implementation: the classic "generic" agglomerative algorithm with exact
nearest-neighbour caches — O(N²) memory and roughly O(N²) time.  Each
merge does O(N) contiguous numpy work (one merged row, one cache lift,
one argmax over the caches), an O(1) :meth:`Dendrogram.append`, and one
``(rows, N)`` block rescan of the rows whose cached neighbour was in the
merged pair (3.6 rows per merge on average, 16 at most, on a 2,000-read
Table III WGS matrix).  Similarity-space Lance-Williams updates:

* single   — ``s_new = max(s_i, s_j)``
* complete — ``s_new = min(s_i, s_j)``
* average  — ``s_new = (n_i s_i + n_j s_j) / (n_i + n_j)``

All three linkages are *reducible*, but single linkage can still raise a
row's best similarity after a merge; the cache update therefore both
recomputes rows whose cached neighbour died and lifts caches where the
merged row beats them, keeping the caches exact.  Dead slots are never
written again: their stale rows and columns are masked out wherever a
row is scanned, so the merge order (first-index ``argmax`` tie-breaking
included) is that of a matrix whose dead entries are all -inf.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ClusteringError
from repro.cluster.assignments import ClusterAssignment
from repro.cluster.dendrogram import Dendrogram, MergeStep
from repro.minhash.similarity import MatchCounts

LINKAGES = ("single", "average", "complete")

_NEG = -np.inf


#: Elements per row band of the matrix validation; bounds its temporaries.
_VALIDATION_BAND_ELEMENTS = 1 << 18


def _validate_similarity(similarity: np.ndarray | MatchCounts) -> np.ndarray:
    """Check ``similarity`` and return the merge loop's private float64
    matrix: a copy of a float input, or match counts divided by n once.
    Counts are checked on the integers, which is exactly checking k / n:
    integers are finite, and symmetric or in [0, n] exactly when k / n is
    symmetric or in [0, 1]."""
    counts = isinstance(similarity, MatchCounts)
    if counts:
        s, low_bound, high_bound = similarity.counts, 0, similarity.num_hashes
    else:
        s = np.asarray(similarity, dtype=np.float64)
        low_bound, high_bound = -1e-9, 1 + 1e-9
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ClusteringError(f"similarity must be square, got shape {s.shape}")
    n = s.shape[0]
    if n < 1:
        raise ClusteringError("similarity matrix is empty")
    # Row bands keep every temporary at band size instead of N x N; the
    # checks are the whole-matrix ones, restricted to the band's rows.  An
    # exactly symmetric band skips allclose; min and max carry finiteness
    # (a NaN or an inf reaches one of them) and range.
    finite = symmetric = in_range = True
    rows = max(1, _VALIDATION_BAND_ELEMENTS // n)
    for lo in range(0, n, rows):
        band = s[lo : lo + rows]
        mirror = s[:, lo : lo + rows].T
        low, high = band.min(), band.max()
        finite = finite and bool(np.isfinite(low) and np.isfinite(high))
        symmetric = symmetric and (
            np.array_equal(band, mirror) or np.allclose(band, mirror, atol=1e-8)
        )
        in_range = in_range and low_bound <= low and high <= high_bound
    if not finite:
        raise ClusteringError(
            "similarity matrix has non-finite entries (NaN or inf)"
        )
    if not symmetric:
        raise ClusteringError("similarity matrix must be symmetric")
    if not in_range:
        raise ClusteringError("similarities must lie in [0, 1]")
    return similarity.similarity() if counts else s.copy()


def build_dendrogram(
    similarity: np.ndarray | MatchCounts,
    *,
    linkage: str = "average",
    stop_threshold: float | None = None,
) -> Dendrogram:
    """Agglomerate a similarity matrix into a dendrogram.

    Parameters
    ----------
    similarity:
        Symmetric ``(N, N)`` matrix of finite similarities in [0, 1], or
        the :class:`~repro.minhash.similarity.MatchCounts` it is the
        quotient of.  Never modified: the merge loop works on a private
        float64 matrix, a copy of a float input or the one division of
        the counts, so a dense fit holds one 8N² matrix, not two.  The
        diagonal is validated like every other entry (a NaN or a 7.0
        there is rejected), but its values never influence a merge.
    linkage:
        One of :data:`LINKAGES`.
    stop_threshold:
        When given, stop once the best available merge similarity drops
        below it (the paper's θ cutoff applied during construction — the
        resulting partial dendrogram's active clusters are the final
        clustering).  ``None`` builds the complete dendrogram.
    """
    if linkage not in LINKAGES:
        raise ClusteringError(
            f"unknown linkage {linkage!r}; expected one of {LINKAGES}"
        )
    if stop_threshold is not None and not 0.0 <= stop_threshold <= 1.0:
        raise ClusteringError(
            f"stop_threshold must be in [0,1], got {stop_threshold}"
        )
    s = _validate_similarity(similarity)
    n = s.shape[0]
    dendrogram = Dendrogram(n)
    if n == 1:
        return dendrogram

    np.fill_diagonal(s, _NEG)
    active = np.ones(n, dtype=bool)
    live = n
    sizes = np.ones(n, dtype=np.int64)
    cluster_ids = np.arange(n, dtype=np.int64)  # dendrogram id living in each slot

    # Dead slots hold -inf in nn_sim, so the argmax below only sees live ones.
    nn_idx = np.argmax(s, axis=1)
    nn_sim = s[np.arange(n), nn_idx]

    for step in range(n - 1):
        i = int(np.argmax(nn_sim))
        best = nn_sim[i]
        if best == _NEG:
            break
        if stop_threshold is not None and best < stop_threshold:
            break
        j = int(nn_idx[i])
        if i > j:
            i, j = j, i

        si, sj = s[i], s[j]
        ni, nj = sizes[i], sizes[j]
        if linkage == "single":
            merged = np.maximum(si, sj)
        elif linkage == "complete":
            merged = np.minimum(si, sj)
        else:  # average
            merged = (ni * si + nj * sj) / (ni + nj)

        new_id = n + step
        dendrogram.append(
            MergeStep(
                left=int(cluster_ids[i]),
                right=int(cluster_ids[j]),
                similarity=float(best),
                size=int(ni + nj),
            )
        )

        # Merged cluster lives in slot i; slot j dies.  Row and column j
        # keep stale values from here on: every later read masks them.
        active[j] = False
        live -= 1
        merged[i] = _NEG
        merged[~active] = _NEG
        s[i, :] = merged
        s[:, i] = merged
        sizes[i] = ni + nj
        cluster_ids[i] = new_id
        nn_sim[j] = _NEG

        if live == 1:
            break

        # Exact cache maintenance:
        # (1) slot i gets a fresh neighbour;
        nn_idx[i] = int(np.argmax(merged))
        nn_sim[i] = merged[nn_idx[i]]
        # (2) rows whose cached neighbour was i or j recompute over the
        #     live slots;
        stale = active & ((nn_idx == i) | (nn_idx == j))
        stale[i] = False
        rows = np.flatnonzero(stale)
        if rows.size:
            block = np.where(active, s[rows], _NEG)
            nn_idx[rows] = block.argmax(axis=1)
            nn_sim[rows] = block[np.arange(rows.size), nn_idx[rows]]
        # (3) rows where the merged cluster now beats the cache are lifted
        #     (single linkage can increase similarities).  Dead entries of
        #     ``merged`` are -inf, so they never lift.
        lift = merged > nn_sim
        nn_sim[lift] = merged[lift]
        nn_idx[lift] = i

    return dendrogram


def cut_dendrogram(dendrogram: Dendrogram, threshold: float) -> list[int]:
    """Labels for the dendrogram's leaves after cutting at similarity
    ``threshold`` (apply only merges with similarity >= threshold)."""
    if not 0.0 <= threshold <= 1.0:
        raise ClusteringError(f"threshold must be in [0,1], got {threshold}")
    return dendrogram.cut(threshold)


def multi_threshold_cut(
    dendrogram: Dendrogram,
    read_ids: Sequence[str],
    thresholds: Sequence[float],
) -> dict[float, ClusterAssignment]:
    """Cut one dendrogram at several thresholds.

    The paper: "Clustering results at different hierarchical taxonomic
    levels are also produced by setting similarity threshold within a
    cluster" — one dendrogram build serves every taxonomic level.  The
    dendrogram must have been built without a ``stop_threshold`` (or with
    one at or below ``min(thresholds)``), otherwise low-threshold cuts
    would be missing merges.

    Returns ``{threshold: assignment}``; cuts are nested (every cluster
    at a lower threshold is a union of clusters at any higher one).
    """
    if not thresholds:
        raise ClusteringError("multi_threshold_cut needs at least one threshold")
    if len(read_ids) != dendrogram.num_leaves:
        raise ClusteringError(
            f"{len(read_ids)} read ids for a {dendrogram.num_leaves}-leaf "
            "dendrogram"
        )
    out: dict[float, ClusterAssignment] = {}
    for theta in thresholds:
        if not 0.0 <= theta <= 1.0:
            raise ClusteringError(f"threshold must be in [0,1], got {theta}")
        labels = dendrogram.cut(theta)
        out[theta] = ClusterAssignment.from_labels(read_ids, labels)
    return out


def agglomerative_cluster(
    similarity: np.ndarray | MatchCounts,
    read_ids: Sequence[str],
    threshold: float,
    *,
    linkage: str = "average",
) -> ClusterAssignment:
    """End-to-end Algorithm 2: matrix -> dendrogram -> θ cut -> labels."""
    if not isinstance(similarity, MatchCounts):
        similarity = np.asarray(similarity)
    if len(read_ids) != similarity.shape[0]:
        raise ClusteringError(
            f"{len(read_ids)} read ids for a {similarity.shape[0]}-row matrix"
        )
    if not 0.0 <= threshold <= 1.0:
        raise ClusteringError(f"threshold must be in [0,1], got {threshold}")
    dendrogram = build_dendrogram(
        similarity, linkage=linkage, stop_threshold=threshold
    )
    labels = dendrogram.cut(threshold)
    return ClusterAssignment.from_labels(read_ids, labels)
