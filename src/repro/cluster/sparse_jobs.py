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
        map     identity            (combiner collapses each pair's records)
        reduce  ((i, j), counts)    -> ((i, j), match)
                                        verified against side-data sketches
    sink    above-threshold edges   -> union-find / greedy sweep
                                        (repro.cluster.sparse helpers)

:func:`run_sparse_jobs` is the chain's one entry point, and its bands
follow from its threshold alone.

**Pigeonhole bands.**  A pair the
verifier accepts matches in at least ``θ·n`` of the ``n`` positions, so
it has at most ``m`` mismatches, where ``m`` is the largest ``k`` with
``(n - k) / n >= θ`` (:func:`max_mismatches`, evaluated with the verify
reducer's own float comparison).  Splitting the positions into ``m + 1``
disjoint contiguous bands (:func:`pigeonhole_bands`; widths differ by at
most one, e.g. 50 positions at θ=0.95 -> 17/17/16) leaves at least one
band with no mismatch, so every edge collides on some band key: the
candidates are a superset of the edges, and since job 2 re-scores each
candidate, the edge set — and the assignment — is exactly the one every
other exact path produces.  Band keys are the raw band value tuples, so
no hash collision can merge groups.  At θ = 1/n there is one band per
position, the grouping of :func:`repro.cluster.sparse.candidate_pairs`.

Exactness condition: ``max_group=None`` (a cap drops whole band groups,
and with them possibly the one band an edge matched on).  Then single
linkage and positional greedy are byte-identical to the in-process and
dense-positional paths.  Banding and verification both read the int64
matrix of the sketches the chain is given: under ``wire_bits`` the
pipeline hands it low-bit sketches at ``effective_threshold(θ, b)``.

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
from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.cluster.assignments import ClusterAssignment
from repro.cluster.sparse import make_edge_stream
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob, identity_mapper
from repro.mapreduce.types import JobConf, JobTrace
from repro.minhash.sketch import MinHashSketch, sketch_matrix
from repro.obs.trace import current_tracer

ENGINE_METHODS = ("hierarchical", "greedy")


# --------------------------------------------------------------- side data


@dataclass(frozen=True)
class SketchSideData:
    """Distributed-cache analogue: the sketch matrix every verify task reads.

    The verify reducer needs random access to all sketches, which Hadoop
    ships via the DistributedCache rather than the shuffle.  The payload
    is the little-endian int64 matrix of the sketches the chain was given.
    The CRC mirrors the wire frames' IFile-checksum model.
    """

    payload: bytes
    crc: int
    num_records: int
    num_hashes: int

    @classmethod
    def pack(cls, matrix: np.ndarray) -> "SketchSideData":
        matrix = np.asarray(matrix, dtype="<i8")
        if matrix.ndim != 2:
            raise ClusteringError(
                f"expected a 2-D sketch matrix, got shape {matrix.shape}"
            )
        payload = matrix.tobytes()
        return cls(
            payload=payload,
            crc=zlib.crc32(payload),
            num_records=matrix.shape[0],
            num_hashes=matrix.shape[1],
        )

    def matrix(self) -> np.ndarray:
        """Decode (and CRC-verify) the payload back to an int64 matrix."""
        if zlib.crc32(self.payload) != self.crc:
            raise ClusteringError("sketch side data failed its CRC check")
        return (
            np.frombuffer(self.payload, dtype="<i8")
            .reshape(self.num_records, self.num_hashes)
            .astype(np.int64)
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
    """Emit ``((band_index, band_values), sketch_index)`` for every band.

    ``bounds`` are ``(start, stop)`` position ranges; each band keys on its
    raw value tuple, so distinct bands never share a group.
    """

    def __init__(self, bounds: Sequence[tuple[int, int]]):
        self.bounds = tuple(bounds)

    def __call__(self, key, values):
        for b, (start, stop) in enumerate(self.bounds):
            yield (b, tuple(values[start:stop])), key


class CandidatePairReducer:
    """One collision group -> its deduplicated intra-group pairs.

    Emits ``((i, j), 1)`` with ``i < j``; the verify job's combiner
    collapses a pair's records map-side.  Groups larger than
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
    """Verify every candidate pair against the side-data sketches.

    ``match`` is the pair's positional match fraction; the counts it
    arrives with do not enter it.  Emits ``((i, j), match)`` for *all*
    candidates so the candidate set and the edge set both come out of one
    reduce pass.
    """

    def __init__(self, side: SketchSideData):
        self.side = side
        self._matrix: np.ndarray | None = None

    def __getstate__(self):
        # The decoded matrix is a per-process cache; ship only the frame.
        state = dict(self.__dict__)
        state["_matrix"] = None
        return state

    def __call__(self, pair, counts):
        if self._matrix is None:
            self._matrix = self.side.matrix()
        i, j = pair
        matches = int(np.count_nonzero(self._matrix[i] == self._matrix[j]))
        yield pair, matches / self.side.num_hashes


# ----------------------------------------------------------------- driver


@dataclass
class SparseEngineRun:
    """Everything produced by one run of the two-job LSH chain."""

    matches: dict[tuple[int, int], float]
    """Verified positional match fraction ``{(i, j): match}`` of every
    candidate pair (empty when streamed)."""

    edges: list[tuple[int, int]]
    """Candidate pairs whose verified match cleared the threshold (empty
    when streamed)."""

    assignment: ClusterAssignment
    """Final clustering."""

    traces: list[JobTrace]
    counters: Counters
    timings: dict[str, float]
    rounds: int
    """MapReduce rounds consumed (Ene et al.'s cost measure): the jobs the
    chain ran, whether or not the runner traced them."""
    bands: tuple[tuple[int, int], ...] = ()
    """The ``(start, stop)`` position range of every LSH band."""
    candidate_pair_count: int = 0
    """Verified candidate pairs seen (equals ``len(matches)`` when
    collected; the only pair accounting available in streamed runs)."""
    edge_count: int = 0
    """Above-threshold edges (equals ``len(edges)`` when collected)."""

    @property
    def shuffle_bytes(self) -> int | None:
        """Total shuffle volume the runner measured across the chain's
        jobs; ``None`` when no job was traced (a runner built with
        ``trace=False`` measures no bytes, though the jobs shuffled)."""
        if not self.traces:
            return None
        return sum(t.shuffle_bytes for t in self.traces)


def run_sparse_jobs(
    sketches: Sequence[MinHashSketch],
    threshold: float,
    *,
    method: str = "hierarchical",
    runner=None,
    max_group: int | None = None,
    num_tasks: int = 4,
    stream: bool = False,
    spill_threshold_bytes: int | None = None,
) -> SparseEngineRun:
    """Run the LSH candidate chain through to a clustering at ``threshold``.

    With ``max_group=None`` the assignment is byte-identical to
    :func:`repro.cluster.sparse.sparse_single_linkage`
    (``method="hierarchical"``) or
    :func:`repro.cluster.sparse.sparse_greedy_cluster`
    (``method="greedy"``) — streamed or not.

    Parameters
    ----------
    threshold:
        Similarity threshold θ in ``(0, 1]``; the bands are its pigeonhole
        bands (:func:`pigeonhole_bands`).
    method:
        ``"hierarchical"`` (exact single linkage via union-find over the
        edge stream) or ``"greedy"`` (Algorithm 1's sweep, positional
        estimator semantics).
    max_group:
        Drop collision groups larger than this (not exact); ``None``
        keeps all.
    num_tasks:
        Map and reduce tasks of both jobs.
    stream:
        Only feed the verify job's output records into the edge-stream
        clusterer: the full candidate-pair list is never materialized
        (``matches``/``edges`` stay empty; the counts survive as
        ``candidate_pair_count``/``edge_count``).  Without it the same
        records are also kept.
    spill_threshold_bytes:
        Forwarded to both jobs' :class:`JobConf` — engages the external
        spill-to-disk shuffle so the chain's group-bys also stop being
        memory-bound.  ``None`` keeps the in-memory shuffle.
    """
    from repro.mapreduce.runner import SerialRunner

    if not sketches:
        raise ClusteringError("no sketches to index")
    if threshold is None or not 0.0 < threshold <= 1.0:
        raise ClusteringError(
            f"threshold must be in (0, 1] for the sparse path, got {threshold}"
        )
    if method not in ENGINE_METHODS:
        raise ClusteringError(
            f"unknown method {method!r}; expected one of {ENGINE_METHODS}"
        )
    matrix = sketch_matrix(sketches)  # validates family compatibility
    n, num_hashes = matrix.shape
    bounds = pigeonhole_bands(num_hashes, threshold)

    runner = runner or SerialRunner()
    tracer = current_tracer()
    timings: dict[str, float] = {}
    conf = JobConf(
        num_map_tasks=num_tasks,
        num_reduce_tasks=num_tasks,
        spill_threshold_bytes=spill_threshold_bytes,
    )

    # ---- round 1: banding map + pair-emitting reduce ---------------------
    t0 = time.perf_counter()
    with tracer.span(
        "phase:lsh-candidates",
        kind="phase",
        bands=len(bounds),
        num_records=n,
    ):
        band_job = MapReduceJob(
            name="lsh-candidates",
            mapper=LshBandMapper(bounds),
            reducer=CandidatePairReducer(max_group),
        )
        band_result = runner.run(band_job, list(enumerate(matrix.tolist())), conf)
    timings["lsh_candidates"] = time.perf_counter() - t0

    # ---- round 2: sketch verification of every candidate pair ------------
    t0 = time.perf_counter()
    with tracer.span(
        "phase:verify",
        kind="phase",
        candidate_records=len(band_result.output),
    ):
        # Every verified record goes through one sink: its edge flows from
        # the reducers straight into the incremental clusterer (the driver
        # holds O(N) union-find / adjacency state), and without ``stream``
        # the record is kept as well.
        clusterer = make_edge_stream([s.read_id for s in sketches], method)
        matches: dict[tuple[int, int], float] = {}
        edges: list[tuple[int, int]] = []
        pair_count = 0

        def sink(record):
            nonlocal pair_count
            (i, j), match = record
            pair_count += 1
            edge = float(match) >= threshold
            if edge:
                clusterer.add(int(i), int(j))
            if not stream:
                pair = (int(i), int(j))
                matches[pair] = float(match)
                if edge:
                    edges.append(pair)

        side = SketchSideData.pack(matrix)
        verify_job = MapReduceJob(
            name="verify-candidates",
            mapper=identity_mapper,
            combiner=sum_combiner,
            reducer=VerifyReducer(side),
        )
        verify_result = runner.run(
            verify_job, band_result.output, conf, output_sink=sink
        )
    timings["verify"] = time.perf_counter() - t0

    # ---- driver: finish the union-find / greedy sweep --------------------
    edge_count = clusterer.edges_seen
    t0 = time.perf_counter()
    with tracer.span("phase:cluster", kind="phase", num_edges=edge_count):
        assignment = clusterer.finish()
    timings["cluster"] = time.perf_counter() - t0

    results = (band_result, verify_result)
    traces = [r.trace for r in results if r.trace is not None]
    counters = Counters()
    for result in results:
        counters.merge(result.counters)
    counters.increment("sparse_jobs", "clusters", assignment.num_clusters)
    counters.increment("sparse_jobs", "candidate_pairs", pair_count)
    counters.increment("sparse_jobs", "edges", edge_count)
    counters.increment("sparse_jobs", "rounds", len(results))
    run = SparseEngineRun(
        matches=matches,
        edges=edges,
        assignment=assignment,
        traces=traces,
        counters=counters,
        timings=timings,
        rounds=len(results),
        bands=bounds,
        candidate_pair_count=pair_count,
        edge_count=edge_count,
    )
    tracer.metrics.gauge("sparse_jobs.candidate_pairs").set(pair_count)
    tracer.metrics.gauge("sparse_jobs.edges").set(edge_count)
    tracer.metrics.gauge("sparse_jobs.rounds").set(len(results))
    if run.shuffle_bytes is not None:
        tracer.metrics.gauge("sparse_jobs.shuffle_bytes").set(run.shuffle_bytes)
    tracer.metrics.gauge("sparse_jobs.side_data_bytes").set(side.nbytes)
    return run
