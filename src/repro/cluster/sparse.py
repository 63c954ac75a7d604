"""In-process collision-candidate join: the reference for the sparse path.

The dense all-pairs job (Algorithm 2 step 3) is quadratic; at the paper's
scales (50 k–10 M reads) its own reported runtimes are only achievable if
the similarity job touches far fewer than N² pairs.  The Map-Reduce-native
way to do that is to group records by ``(hash index, min-hash value)``:
two sequences can only be similar if they collide in at least one sketch
component (the probability of at least one collision among n components
is ``1 - (1 - J)^n``, overwhelming for any J above threshold at n = 50+).

This module is not a pipeline path: :class:`~repro.cluster.pipeline.MrMCMinH`
runs that grouping as the MapReduce chain in
:mod:`repro.cluster.sparse_jobs`.  What lives here is the in-process
reference the chain, the tests and the benchmarks compare against, and
the edge-stream clusterers (:func:`make_edge_stream`) the chain's verify
sink feeds.  The references group on one band per position, the chain's
banding at θ = 1/n; at higher θ the chain's wider pigeonhole bands find
a subset of those pairs and the same edges:

* :func:`candidate_pairs` — all pairs colliding in at least one sketch
  component with their collision counts (a count over n components is
  the positional match count), found by grouping;
* :func:`sparse_single_linkage` — exact single-linkage clustering at
  threshold θ over the candidate graph (a pair with zero collisions has
  estimated similarity 0, so no merge at θ > 0 is ever missed);
* :func:`sparse_greedy_cluster` — Algorithm 1 (positional estimator)
  accelerated with the collision index: each new representative only
  scans its candidates.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

import numpy as np

from repro.errors import ClusteringError
from repro.cluster.assignments import ClusterAssignment
from repro.cluster.unionfind import UnionFind
from repro.minhash.sketch import MinHashSketch, sketch_matrix


def candidate_pair_arrays(
    sketches: Sequence[MinHashSketch],
    *,
    max_group: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised collision-candidate enumeration.

    Returns ``(ii, jj, collisions)`` int64 arrays with ``ii < jj``
    element-wise — the array form of :func:`candidate_pairs`, and what the
    sparse clustering paths consume directly.

    Per sketch component the column is sorted once (stable, so indices
    stay ascending within a collision group); group boundaries fall out of
    one ``diff``, and each group's ``C(s, 2)`` intra-group pairs are
    enumerated with a closed-form triangular decode instead of nested
    Python loops.  Pair multiplicities across components come from one
    ``np.unique`` over fused ``i * N + j`` keys.
    """
    if not sketches:
        raise ClusteringError("no sketches to index")
    matrix = sketch_matrix(sketches)  # validates family compatibility
    n, n_hashes = matrix.shape
    empty = np.empty(0, dtype=np.int64)
    keys_per_hash: list[np.ndarray] = []
    for h in range(n_hashes):
        column = matrix[:, h]
        order = np.argsort(column, kind="stable")
        ordered = column[order]
        run_starts = np.concatenate(([0], np.flatnonzero(np.diff(ordered)) + 1))
        run_sizes = np.diff(np.concatenate((run_starts, [n])))
        keep = run_sizes >= 2
        if max_group is not None:
            keep &= run_sizes <= max_group
        starts = run_starts[keep]
        sizes = run_sizes[keep]
        if starts.size == 0:
            continue
        pair_counts = sizes * (sizes - 1) // 2
        total = int(pair_counts.sum())
        # p = local pair index within its group; decode p -> (x, y) with
        # 0 <= x < y < s via p = C(y, 2) + x (float sqrt + exact fix-up).
        offsets = np.cumsum(pair_counts) - pair_counts
        p = np.arange(total, dtype=np.int64) - np.repeat(offsets, pair_counts)
        y = ((np.sqrt(8.0 * p + 1.0) + 1.0) / 2.0).astype(np.int64)
        y = np.where(y * (y - 1) // 2 > p, y - 1, y)
        y = np.where(y * (y + 1) // 2 <= p, y + 1, y)
        x = p - y * (y - 1) // 2
        base = np.repeat(starts, pair_counts)
        ii = order[base + x]
        jj = order[base + y]
        keys_per_hash.append(ii * n + jj)
    if not keys_per_hash:
        return empty, empty, empty
    keys, collisions = np.unique(np.concatenate(keys_per_hash), return_counts=True)
    return keys // n, keys % n, collisions.astype(np.int64)


def candidate_pairs(
    sketches: Sequence[MinHashSketch],
    *,
    max_group: int | None = None,
) -> dict[tuple[int, int], int]:
    """Collision-candidate pairs with their collision counts.

    Parameters
    ----------
    max_group:
        Skip collision groups larger than this (a degenerate value shared
        by everything generates quadratically many candidates — Hadoop
        implementations cap exactly this way).  ``None`` keeps all.

    Returns
    -------
    ``{(i, j): collisions}`` with ``i < j`` over sketch indices.
    """
    ii, jj, collisions = candidate_pair_arrays(sketches, max_group=max_group)
    return {
        (int(i), int(j)): int(c)
        for i, j, c in zip(ii.tolist(), jj.tolist(), collisions.tolist())
    }


class SingleLinkageEdgeStream:
    """Incremental single-linkage clustering fed one edge at a time.

    Feed above-threshold ``(i, j)`` index pairs through :meth:`add` as
    they are produced (e.g. straight from a reducer's output stream) and
    call :meth:`finish` once: every edge merges two union-find components,
    so memory is O(N) regardless of how many edges stream past — never
    O(edges).  The result is independent of edge order and duplication —
    :meth:`UnionFind.labels` renumbers components in first-seen index
    order — which is what lets the in-process path and the MapReduce job
    chain (:mod:`repro.cluster.sparse_jobs`) produce byte-identical
    assignments from differently-ordered pair streams.
    """

    def __init__(self, read_ids: Sequence[str]):
        self.read_ids = list(read_ids)
        if not self.read_ids:
            raise ClusteringError("cannot cluster an empty sketch list")
        self._uf = UnionFind(len(self.read_ids))
        self.edges_seen = 0

    def add(self, i: int, j: int) -> None:
        self._uf.union(i, j)
        self.edges_seen += 1

    def finish(self) -> ClusterAssignment:
        return ClusterAssignment.from_labels(self.read_ids, self._uf.labels())


class GreedyEdgeStream:
    """Incremental Algorithm-1 clustering fed one edge at a time.

    Accumulates the adjacency (O(N + edges kept) — only *above-threshold*
    edges, the sparse survivors, not the full candidate list) and runs the
    assignment sweep in :meth:`finish`: indices are scanned in input
    order, the first unassigned index becomes a representative and claims
    all its still-unassigned neighbours.  Only the edge *set* matters
    (every neighbour of a representative gets the same label), so the
    result is order/duplication independent and shared by the in-process
    and engine paths.
    """

    def __init__(self, read_ids: Sequence[str]):
        self.read_ids = list(read_ids)
        if not self.read_ids:
            raise ClusteringError("cannot cluster an empty sketch list")
        if len(set(self.read_ids)) != len(self.read_ids):
            raise ClusteringError("sketch read ids must be unique")
        self._neighbours: dict[int, list[int]] = defaultdict(list)
        self.edges_seen = 0

    def add(self, i: int, j: int) -> None:
        self._neighbours[i].append(j)
        self._neighbours[j].append(i)
        self.edges_seen += 1

    def finish(self) -> ClusterAssignment:
        n = len(self.read_ids)
        labels = np.full(n, -1, dtype=np.int64)
        next_label = 0
        for i in range(n):
            if labels[i] >= 0:
                continue
            labels[i] = next_label
            for j in self._neighbours.get(i, ()):
                # Only sequences after i in input order can still be
                # unassigned; Algorithm 1 assigns them to the current rep.
                if labels[j] < 0:
                    labels[j] = next_label
            next_label += 1
        return ClusterAssignment.from_labels(
            self.read_ids, [int(v) for v in labels]
        )


def make_edge_stream(read_ids: Sequence[str], method: str):
    """Edge-stream clusterer for a pipeline method name.

    ``"hierarchical"`` maps to single linkage (what the sparse path
    computes exactly), ``"greedy"`` to the Algorithm-1 sweep.
    """
    if method == "greedy":
        return GreedyEdgeStream(read_ids)
    if method == "hierarchical":
        return SingleLinkageEdgeStream(read_ids)
    raise ClusteringError(
        f"unknown edge-stream method {method!r}; expected 'greedy' or 'hierarchical'"
    )


def single_linkage_from_edges(
    read_ids: Sequence[str],
    edges,
) -> ClusterAssignment:
    """Single-linkage clustering over a stream of above-threshold edges.

    Thin wrapper over :class:`SingleLinkageEdgeStream`; ``edges`` is any
    iterable (list or generator) of ``(i, j)`` index pairs and is consumed
    lazily — results are identical either way by construction.
    """
    stream = SingleLinkageEdgeStream(read_ids)
    for i, j in edges:
        stream.add(i, j)
    return stream.finish()


def greedy_from_edges(
    read_ids: Sequence[str],
    edges,
) -> ClusterAssignment:
    """Algorithm 1's assignment sweep over a stream of above-threshold edges.

    Thin wrapper over :class:`GreedyEdgeStream`; ``edges`` is consumed
    lazily, list or generator alike.
    """
    stream = GreedyEdgeStream(read_ids)
    for i, j in edges:
        stream.add(i, j)
    return stream.finish()


def sparse_single_linkage(
    sketches: Sequence[MinHashSketch],
    threshold: float,
    *,
    max_group: int | None = None,
) -> ClusterAssignment:
    """Exact single-linkage clustering at θ using only candidate pairs.

    Single linkage merges two clusters iff *some* cross pair reaches θ;
    pairs absent from the candidate set have estimated similarity below
    ``1/n`` (zero collisions), so for any θ > 0 the candidate graph
    contains every merging edge and the result equals the dense
    computation (with ``max_group=None``).
    """
    if not sketches:
        raise ClusteringError("cannot cluster an empty sketch list")
    if not 0.0 < threshold <= 1.0:
        raise ClusteringError(
            f"threshold must be in (0, 1] for the sparse path, got {threshold}"
        )
    ii, jj, collisions = candidate_pair_arrays(sketches, max_group=max_group)
    num_hashes = len(sketches[0])
    hits = collisions / num_hashes >= threshold
    return single_linkage_from_edges(
        [s.read_id for s in sketches],
        zip(ii[hits].tolist(), jj[hits].tolist()),
    )


def sparse_greedy_cluster(
    sketches: Sequence[MinHashSketch],
    threshold: float,
    *,
    max_group: int | None = None,
) -> ClusterAssignment:
    """Algorithm 1 with candidate pruning.

    Identical result to
    :func:`repro.cluster.greedy.greedy_cluster(..., estimator="positional")`
    for θ > 0 (zero-collision pairs cannot clear any positive θ), but each
    representative only scores sequences it collides with.
    """
    if not sketches:
        raise ClusteringError("cannot cluster an empty sketch list")
    if not 0.0 < threshold <= 1.0:
        raise ClusteringError(
            f"threshold must be in (0, 1] for the sparse path, got {threshold}"
        )
    ii, jj, collisions = candidate_pair_arrays(sketches, max_group=max_group)
    num_hashes = len(sketches[0])
    hits = collisions / num_hashes >= threshold
    # Only above-threshold edges can ever join a cluster; drop the rest
    # before the assignment sweep.
    return greedy_from_edges(
        [s.read_id for s in sketches],
        zip(ii[hits].tolist(), jj[hits].tolist()),
    )
