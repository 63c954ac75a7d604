"""LSH candidate generation and verification as first-class MapReduce jobs.

:mod:`repro.cluster.sparse` computes collision-candidate pairs in-process
with vectorised numpy; this module expresses the *same* computation as a
two-job chain on the real engine — the LSH-on-MapReduce pattern of
Sunarso et al. (*Scalable Protein Sequence Similarity Search using LSH
and MapReduce*) applied to the paper's min-hash sketches::

    job 1  "lsh-candidates"
        map     sketch i            -> ((band_index, band_values), i)
        reduce  collision group     -> ((i, j), 1) deduplicated pairs
    job 2  "verify-candidates"
        map     identity            (combiner sums per-pair multiplicity)
        reduce  ((i, j), counts)    -> ((i, j), (collisions, match))
                                        verified against side-data sketches
    driver  above-threshold edges   -> union-find / greedy sweep
                                        (repro.cluster.sparse helpers)

**Pigeonhole bands** (the default whenever a threshold is given).  A pair
the verifier accepts matches in at least ``θ·n`` of the ``n`` positions,
so it has at most ``m`` mismatches, where ``m`` is the largest ``k`` with
``(n - k) / n >= θ`` (:func:`max_mismatches`, evaluated with the verify
reducer's own float comparison).  Splitting the positions into ``m + 1``
disjoint contiguous bands (:func:`pigeonhole_bands`; widths differ by at
most one, e.g. 50 positions at θ=0.95 -> 17/17/16) leaves at least one
band with no mismatch, so every edge collides on some band key: the
candidates are a superset of the edges, and since job 2 re-scores each
candidate, the edge set — and the assignment — is exactly the one every
other exact path produces.  Band keys are the raw band value tuples, so
no hash collision can merge groups.

``band_size=1`` (and ``threshold=None``, i.e. :func:`engine_candidate_pairs`)
keys on ``(hash index, min-hash value)`` — exactly the grouping of
:func:`repro.cluster.sparse.candidate_pairs` — so the chain's candidate
pairs and collision counts equal the in-process join's.  An explicit
wider ``band_size`` keeps fixed-width bands, trading recall for fewer
candidates (not exact).

Exactness conditions: ``max_group=None`` (a cap drops whole band groups,
and with them possibly the one band an edge matched on) and
``min_shared=1`` (with pigeonhole bands collision counts count bands, not
positions, so ``min_shared > 1`` is rejected).  Under those, single
linkage and positional greedy are byte-identical to the in-process and
dense-positional paths.  Banding and verification both use the side-data
matrix, so with ``wire_bits`` the bands cover the same low-bit values the
verifier compares against ``effective_threshold(θ, b)``.

Following Ene et al. (*Fast Clustering using MapReduce*), the chain is
measured in **rounds** and **shuffle bytes**, not just wall-clock:
:class:`SparseEngineRun` carries both, and an active
:mod:`repro.obs` tracer records ``phase:lsh-candidates`` /
``phase:verify`` / ``phase:cluster`` spans plus
``sparse_jobs.*`` gauges.
"""

from __future__ import annotations

import time
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ClusteringError, SparseCompatibilityError
from repro.cluster.assignments import ClusterAssignment
from repro.cluster.sparse import (
    greedy_from_edges,
    make_edge_stream,
    single_linkage_from_edges,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob, identity_mapper
from repro.mapreduce.types import JobConf, JobTrace
from repro.minhash.sketch import MinHashSketch, sketch_matrix
from repro.minhash.wire import effective_threshold, pack_values, unpack_values
from repro.obs.trace import current_tracer

ENGINE_METHODS = ("hierarchical", "greedy")


# --------------------------------------------------------------- side data


@dataclass(frozen=True)
class SketchSideData:
    """Distributed-cache analogue: the sketch matrix every verify task reads.

    The verify reducer needs random access to all sketches, which Hadoop
    ships via the DistributedCache rather than the shuffle.  The payload
    is either the full-precision little-endian int64 matrix
    (``bits=None``, exact verification) or a b-bit packed plane from
    :func:`repro.minhash.wire.pack_values` (verification happens in
    low-bit space against :func:`effective_threshold`).  The CRC mirrors
    the wire frames' IFile-checksum model.
    """

    payload: bytes
    crc: int
    num_records: int
    num_hashes: int
    bits: int | None

    @classmethod
    def pack(cls, matrix: np.ndarray, bits: int | None = None) -> "SketchSideData":
        matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64))
        if matrix.ndim != 2:
            raise ClusteringError(
                f"expected a 2-D sketch matrix, got shape {matrix.shape}"
            )
        if bits is None:
            payload = matrix.astype("<i8").tobytes()
        else:
            payload = pack_values(matrix, bits)
        return cls(
            payload=payload,
            crc=zlib.crc32(payload),
            num_records=matrix.shape[0],
            num_hashes=matrix.shape[1],
            bits=bits,
        )

    def matrix(self) -> np.ndarray:
        """Decode (and CRC-verify) the payload back to an int64 matrix."""
        if zlib.crc32(self.payload) != self.crc:
            raise ClusteringError("sketch side data failed its CRC check")
        if self.bits is None:
            return (
                np.frombuffer(self.payload, dtype="<i8")
                .reshape(self.num_records, self.num_hashes)
                .astype(np.int64)
            )
        return unpack_values(
            self.payload, self.num_records, self.num_hashes, self.bits
        )

    @property
    def nbytes(self) -> int:
        return len(self.payload)


# ------------------------------------------------------------ job 1: bands


def max_mismatches(num_hashes: int, threshold: float) -> int:
    """Largest ``m`` with ``(num_hashes - m) / num_hashes >= threshold``.

    The expression is the verify reducer's own (``matches / num_hashes``
    compared with ``>=``), so a pair it accepts never has more than ``m``
    mismatching positions.  ``threshold`` must be in ``(0, 1]``.
    """
    m = 0
    while (num_hashes - m - 1) / num_hashes >= threshold:
        m += 1
    return m


def band_bounds(num_hashes: int, num_bands: int) -> tuple[tuple[int, int], ...]:
    """``num_bands`` disjoint contiguous ``(start, stop)`` bands covering
    every position; widths differ by at most one, wider bands first."""
    width, extra = divmod(num_hashes, num_bands)
    bounds = []
    start = 0
    for b in range(num_bands):
        stop = start + width + (b < extra)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


def pigeonhole_bands(num_hashes: int, threshold: float) -> tuple[tuple[int, int], ...]:
    """``m + 1`` bands (``m = max_mismatches``): every pair at or above
    ``threshold`` matches fully on at least one of them."""
    return band_bounds(num_hashes, max_mismatches(num_hashes, threshold) + 1)


class LshBandMapper:
    """Emit ``((band_index, band_key), sketch_index)`` for every band.

    ``bounds`` are ``(start, stop)`` position ranges.  A one-position
    band keys on the min-hash value itself, so width-1 bands reproduce the
    collision join of :mod:`repro.cluster.sparse` exactly; wider bands key
    on the raw value tuple, so distinct bands never share a group.
    """

    def __init__(self, bounds: Sequence[tuple[int, int]]):
        self.bounds = tuple(bounds)

    def __call__(self, key, values):
        for b, (start, stop) in enumerate(self.bounds):
            if stop - start == 1:
                yield (b, values[start]), key
            else:
                yield (b, tuple(values[start:stop])), key


class CandidatePairReducer:
    """One collision group -> its deduplicated intra-group pairs.

    Emits ``((i, j), 1)`` with ``i < j``; the verify job sums the
    multiplicities into per-pair collision counts.  Groups larger than
    ``max_group`` are dropped — the degenerate-value cap real Hadoop LSH
    jobs apply, mirrored from :func:`repro.cluster.sparse.candidate_pairs`.
    """

    def __init__(self, max_group: int | None = None):
        self.max_group = max_group

    def __call__(self, key, members):
        members = sorted(set(members))
        if len(members) < 2:
            return
        if self.max_group is not None and len(members) > self.max_group:
            return
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                yield (members[a], members[b]), 1


# ----------------------------------------------------------- job 2: verify


def sum_combiner(key, values):
    """Sum per-pair multiplicities map-side to shrink the shuffle."""
    yield key, sum(values)


class VerifyReducer:
    """Aggregate collision counts and verify every candidate pair.

    Sums the pair's multiplicities into its collision count, drops pairs
    below ``min_shared``, then scores the pair against the side-data
    sketches: ``match`` is the positional match fraction — computed over
    the low b bits when the side data is b-bit packed, in which case the
    driver thresholds it at :func:`effective_threshold` rather than θ.
    Emits ``((i, j), (collisions, match))`` for *all* surviving
    candidates so the candidate set and the edge set both come out of one
    reduce pass.
    """

    def __init__(self, side: SketchSideData, min_shared: int = 1):
        self.side = side
        self.min_shared = min_shared
        self._matrix: np.ndarray | None = None

    def __getstate__(self):
        # The decoded matrix is a per-process cache; ship only the frame.
        state = dict(self.__dict__)
        state["_matrix"] = None
        return state

    def __call__(self, pair, counts):
        if self._matrix is None:
            self._matrix = self.side.matrix()
        collisions = int(sum(counts))
        if collisions < self.min_shared:
            return
        i, j = pair
        matches = int(np.count_nonzero(self._matrix[i] == self._matrix[j]))
        yield pair, (collisions, matches / self.side.num_hashes)


# ----------------------------------------------------------------- driver


@dataclass
class SparseEngineRun:
    """Everything produced by one run of the two-job LSH chain."""

    pairs: dict[tuple[int, int], int]
    """Candidate pairs ``{(i, j): collisions}`` — equals
    :func:`repro.cluster.sparse.candidate_pairs` at ``band_size=1``."""

    matches: dict[tuple[int, int], float]
    """Verified positional match fraction per candidate pair."""

    edges: list[tuple[int, int]]
    """Candidate pairs whose verified match cleared the threshold."""

    assignment: ClusterAssignment | None
    """Final clustering (``None`` when run without a threshold)."""

    traces: list[JobTrace]
    counters: Counters
    timings: dict[str, float]
    threshold: float | None
    bands: tuple[tuple[int, int], ...] = ()
    """The ``(start, stop)`` position range of every LSH band."""
    wire_bits: int | None = None
    side_data_bytes: int = 0
    candidate_pair_count: int = 0
    """Verified candidate pairs seen (equals ``len(pairs)`` when collected;
    the only pair accounting available in streamed runs)."""
    edge_count: int = 0
    """Above-threshold edges (equals ``len(edges)`` when collected)."""
    streamed: bool = False
    """True when the verify output was streamed straight into the
    clusterer — ``pairs``/``matches``/``edges`` are then left empty."""

    @property
    def rounds(self) -> int:
        """MapReduce rounds consumed (Ene et al.'s cost measure)."""
        return len(self.traces)

    @property
    def shuffle_bytes(self) -> int:
        """Total shuffle volume across the chain's jobs."""
        return sum(t.shuffle_bytes for t in self.traces)

    @property
    def wall_seconds(self) -> float:
        return sum(self.timings.values())


def run_sparse_jobs(
    sketches: Sequence[MinHashSketch],
    threshold: float | None = None,
    *,
    method: str = "hierarchical",
    runner=None,
    band_size: int | None = None,
    min_shared: int = 1,
    max_group: int | None = None,
    wire_bits: int | None = None,
    num_map_tasks: int = 4,
    num_reduce_tasks: int = 4,
    stream: bool = False,
    spill_threshold_bytes: int | None = None,
) -> SparseEngineRun:
    """Run the LSH candidate chain, optionally through to a clustering.

    Parameters
    ----------
    threshold:
        Similarity threshold θ in ``(0, 1]``.  ``None`` stops after the
        verify job (candidate generation only, no assignment).
    method:
        ``"hierarchical"`` (exact single linkage via union-find over the
        edge stream) or ``"greedy"`` (Algorithm 1's sweep, positional
        estimator semantics).
    band_size:
        ``None`` (default) derives pigeonhole bands from the threshold
        (:func:`pigeonhole_bands`), or one band per position when
        ``threshold`` is ``None``.  An int fixes the band width; it must
        divide ``num_hashes``.  ``1`` yields exactly the in-process
        collision join's candidates.
    min_shared:
        Drop candidates colliding in fewer bands.  Must be ``1`` with
        pigeonhole bands, where a count of bands says nothing about
        positional similarity.
    wire_bits:
        Verify against b-bit packed side-data sketches instead of full
        precision; edges are thresholded at
        ``effective_threshold(threshold, wire_bits)``.
    stream:
        Feed the verify job's output records straight into the edge-stream
        clusterer (``output_sink``) instead of collecting them in the
        driver: the full candidate-pair list is never materialized
        (``pairs``/``matches``/``edges`` stay empty; the counts survive as
        ``candidate_pair_count``/``edge_count``).  Assignments are
        byte-identical to the collected path because both clusterers are
        edge-order/duplication independent.  Requires a ``threshold``.
    spill_threshold_bytes:
        Forwarded to both jobs' :class:`JobConf` — engages the external
        spill-to-disk shuffle so the chain's group-bys also stop being
        memory-bound.  ``None`` keeps the in-memory shuffle.
    """
    from repro.mapreduce.runner import SerialRunner

    if not sketches:
        raise ClusteringError("no sketches to index")
    if stream and threshold is None:
        raise ClusteringError(
            "stream=True requires a threshold (edges stream into a clusterer)"
        )
    if min_shared < 1:
        raise ClusteringError(f"min_shared must be >= 1, got {min_shared}")
    if method not in ENGINE_METHODS:
        raise ClusteringError(
            f"unknown method {method!r}; expected one of {ENGINE_METHODS}"
        )
    matrix = sketch_matrix(sketches)  # validates family compatibility
    n, num_hashes = matrix.shape
    if threshold is not None and not 0.0 < threshold <= 1.0:
        raise ClusteringError(
            f"threshold must be in (0, 1] for the sparse path, got {threshold}"
        )
    theta = threshold
    if threshold is not None and wire_bits is not None:
        theta = effective_threshold(threshold, wire_bits)
    if band_size is None and theta is not None:
        if min_shared > 1:
            raise SparseCompatibilityError(
                f"min_shared={min_shared} with pigeonhole bands would drop "
                "true edges (collisions count bands, not positions); pass "
                "band_size=1 to filter on shared positions"
            )
        bounds = pigeonhole_bands(num_hashes, theta)
    else:
        width = 1 if band_size is None else band_size
        if width < 1 or num_hashes % width != 0:
            raise SparseCompatibilityError(
                f"band_size must be >= 1 and divide num_hashes "
                f"({num_hashes}), got {width}"
            )
        bounds = band_bounds(num_hashes, num_hashes // width)

    runner = runner or SerialRunner()
    tracer = current_tracer()
    counters = Counters()
    traces: list[JobTrace] = []
    timings: dict[str, float] = {}

    # ---- round 1: banding map + pair-emitting reduce ---------------------
    t0 = time.perf_counter()
    with tracer.span(
        "phase:lsh-candidates",
        kind="phase",
        bands=len(bounds),
        num_records=n,
    ):
        # Band the values the verifier compares: with wire_bits those are
        # the low b bits, where a pair may match without matching in full.
        side = SketchSideData.pack(matrix, wire_bits)
        band_job = MapReduceJob(
            name="lsh-candidates",
            mapper=LshBandMapper(bounds),
            reducer=CandidatePairReducer(max_group),
        )
        inputs = list(enumerate(side.matrix().tolist()))
        band_result = runner.run(
            band_job,
            inputs,
            JobConf(
                num_map_tasks=num_map_tasks,
                num_reduce_tasks=num_reduce_tasks,
                spill_threshold_bytes=spill_threshold_bytes,
            ),
        )
        counters.merge(band_result.counters)
        if band_result.trace is not None:
            traces.append(band_result.trace)
    timings["lsh_candidates"] = time.perf_counter() - t0

    # ---- round 2: per-pair count aggregation + sketch verification -------
    t0 = time.perf_counter()
    with tracer.span(
        "phase:verify",
        kind="phase",
        candidate_records=len(band_result.output),
        wire_bits=wire_bits,
    ):
        verify_job = MapReduceJob(
            name="verify-candidates",
            mapper=identity_mapper,
            combiner=sum_combiner,
            reducer=VerifyReducer(side, min_shared),
        )
        verify_conf = JobConf(
            num_map_tasks=num_map_tasks,
            num_reduce_tasks=num_reduce_tasks,
            spill_threshold_bytes=spill_threshold_bytes,
        )
        clusterer = None
        pair_count = 0
        if stream:
            # Edges flow from the reducers straight into the incremental
            # clusterer: the driver holds O(N) union-find / adjacency
            # state, never the O(pairs) candidate list.
            clusterer = make_edge_stream([s.read_id for s in sketches], method)

            def sink(record):
                nonlocal pair_count
                (i, j), (_collisions, match) = record
                pair_count += 1
                if float(match) >= theta:
                    clusterer.add(int(i), int(j))

            verify_result = runner.run(
                verify_job, band_result.output, verify_conf, output_sink=sink
            )
        else:
            verify_result = runner.run(
                verify_job, band_result.output, verify_conf
            )
        counters.merge(verify_result.counters)
        if verify_result.trace is not None:
            traces.append(verify_result.trace)
    timings["verify"] = time.perf_counter() - t0

    pairs: dict[tuple[int, int], int] = {}
    matches: dict[tuple[int, int], float] = {}
    edges: list[tuple[int, int]] = []
    if not stream:
        for (i, j), (collisions, match) in verify_result.output:
            pair = (int(i), int(j))
            pairs[pair] = int(collisions)
            matches[pair] = float(match)
        if theta is not None:
            edges = [pair for pair, match in matches.items() if match >= theta]
        pair_count = len(pairs)
    edge_count = clusterer.edges_seen if clusterer is not None else len(edges)

    # ---- driver: union-find / greedy sweep over the edge stream ----------
    assignment: ClusterAssignment | None = None
    if threshold is not None:
        t0 = time.perf_counter()
        with tracer.span("phase:cluster", kind="phase", num_edges=edge_count):
            if clusterer is not None:
                assignment = clusterer.finish()
            else:
                read_ids = [s.read_id for s in sketches]
                if method == "hierarchical":
                    assignment = single_linkage_from_edges(read_ids, edges)
                else:
                    assignment = greedy_from_edges(read_ids, edges)
        timings["cluster"] = time.perf_counter() - t0
        counters.increment("sparse_jobs", "clusters", assignment.num_clusters)

    shuffle_bytes = sum(t.shuffle_bytes for t in traces)
    counters.increment("sparse_jobs", "candidate_pairs", pair_count)
    counters.increment("sparse_jobs", "edges", edge_count)
    counters.increment("sparse_jobs", "rounds", len(traces))
    tracer.metrics.gauge("sparse_jobs.candidate_pairs").set(pair_count)
    tracer.metrics.gauge("sparse_jobs.edges").set(edge_count)
    tracer.metrics.gauge("sparse_jobs.rounds").set(len(traces))
    tracer.metrics.gauge("sparse_jobs.shuffle_bytes").set(shuffle_bytes)
    tracer.metrics.gauge("sparse_jobs.side_data_bytes").set(side.nbytes)

    return SparseEngineRun(
        pairs=pairs,
        matches=matches,
        edges=edges,
        assignment=assignment,
        traces=traces,
        counters=counters,
        timings=timings,
        threshold=threshold,
        bands=bounds,
        wire_bits=wire_bits,
        side_data_bytes=side.nbytes,
        candidate_pair_count=pair_count,
        edge_count=edge_count,
        streamed=stream,
    )


def engine_candidate_pairs(
    sketches: Sequence[MinHashSketch],
    *,
    runner=None,
    band_size: int = 1,
    min_shared: int = 1,
    max_group: int | None = None,
    num_map_tasks: int = 4,
    num_reduce_tasks: int = 4,
    spill_threshold_bytes: int | None = None,
) -> tuple[dict[tuple[int, int], int], SparseEngineRun]:
    """Candidate pairs via the job chain; drop-in for
    :func:`repro.cluster.sparse.candidate_pairs` (returns the run too)."""
    run = run_sparse_jobs(
        sketches,
        None,
        runner=runner,
        band_size=band_size,
        min_shared=min_shared,
        max_group=max_group,
        num_map_tasks=num_map_tasks,
        num_reduce_tasks=num_reduce_tasks,
        spill_threshold_bytes=spill_threshold_bytes,
    )
    return run.pairs, run


def engine_sparse_cluster(
    sketches: Sequence[MinHashSketch],
    threshold: float,
    *,
    method: str = "hierarchical",
    runner=None,
    band_size: int | None = None,
    max_group: int | None = None,
    wire_bits: int | None = None,
    num_map_tasks: int = 4,
    num_reduce_tasks: int = 4,
    stream: bool = False,
    spill_threshold_bytes: int | None = None,
) -> SparseEngineRun:
    """Cluster through the job chain.

    With pigeonhole bands (``band_size=None``, the default) or
    ``band_size=1``, ``max_group=None`` and ``wire_bits=None``, the
    assignment is byte-identical to the uncapped
    :func:`repro.cluster.sparse.sparse_single_linkage`
    (``method="hierarchical"``) or
    :func:`repro.cluster.sparse.sparse_greedy_cluster`
    (``method="greedy"``) — streamed or not.  A ``max_group`` cap drops
    candidates the two paths count differently, so it voids the identity.
    """
    if threshold is None:
        raise ClusteringError("engine_sparse_cluster requires a threshold")
    return run_sparse_jobs(
        sketches,
        threshold,
        method=method,
        runner=runner,
        band_size=band_size,
        max_group=max_group,
        wire_bits=wire_bits,
        num_map_tasks=num_map_tasks,
        num_reduce_tasks=num_reduce_tasks,
        stream=stream,
        spill_threshold_bytes=spill_threshold_bytes,
    )
