"""End-to-end MrMC-MinH pipeline (Figure 1 / Algorithm 3).

:class:`MrMCMinH` is the library's headline API.  It chains the Map-Reduce
stages of the paper — FASTA load, integer encoding + k-merization +
min-hash sketching (one map job), row-partitioned all-pairs similarity
(hierarchical variant), and the clustering step — and returns cluster
assignments plus the execution traces the cluster simulator consumes.

Example::

    from repro import MrMCMinH, read_fasta
    model = MrMCMinH(kmer_size=5, num_hashes=100, threshold=0.9,
                     method="hierarchical", linkage="average")
    run = model.fit(read_fasta("sample.fa"))
    print(run.assignment.num_clusters)
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import (
    ClusterConfigError,
    ClusteringError,
    SketchError,
    SparseCompatibilityError,
    WireCompatibilityError,
)
from repro.cluster.assignments import ClusterAssignment
from repro.cluster.greedy import greedy_cluster
from repro.cluster.hierarchical import LINKAGES, agglomerative_cluster
from repro.cluster.matrix import compute_similarity_matrix
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import MapReduceJob, identity_reducer
from repro.mapreduce.runner import SerialRunner
from repro.obs.trace import current_tracer
from repro.mapreduce.types import JobConf, JobTrace, TaskTrace
from repro.minhash.similarity import MatchCounts
from repro.minhash.sketch import (
    MinHashSketch,
    SketchingConfig,
    compute_sketch,
    sketch_values_batch,
)
from repro.minhash.wire import SketchWireCodec, effective_threshold
from repro.seq.fasta import format_fasta
from repro.seq.records import SequenceRecord

METHODS = ("greedy", "hierarchical")

#: Valid values of the pipeline's ``sparse`` parameter.
SPARSE_MODES = (False, "auto", "engine")

#: From this many sketches on, ``sparse="auto"`` runs a shape the engine
#: chain computes exactly on the chain instead of the dense path.  Both
#: paths give byte-identical output for such shapes, so the cutoff decides
#: cost only: below it the all-pairs matrix is cheap, above it the
#: quadratic wall dominates.  Read at fit time.
SPARSE_AUTO_CUTOFF = 4096


class _SketchMapper:
    """Picklable mapper: encode -> k-merize -> min-hash one record.

    Combines the paper's ``StringGenerator``, ``TranslateToKmer`` and
    ``CalculateMinwiseHash`` UDFs into one map stage (they are row-wise
    ``FOREACH`` steps that Pig would fuse into a single map task anyway).
    This is the reference path; :class:`_SketchBatchMapper` produces
    byte-identical output and is what map tasks actually run.
    """

    def __init__(self, config: SketchingConfig):
        self.config = config
        self.family = config.make_family()

    def __call__(self, key, value):
        read_id, sequence = value
        record = SequenceRecord(read_id=read_id, sequence=sequence)
        try:
            sketch = compute_sketch(record, self.config, self.family)
        except SketchError:
            return  # reads shorter than k are dropped, as in real pipelines
        yield key, sketch


class _SketchBatchMapper:
    """Whole-split sketch mapper backed by the vectorised batch kernel.

    One :func:`~repro.minhash.sketch.sketch_values_batch` call sketches
    the entire split — byte-identical to looping :class:`_SketchMapper`
    over it, including dropping reads that produce no k-mer.  Reads are
    validated like the per-record path without building a record per
    read: only one that fails the cheap check (empty id, or a sequence
    that is not a non-empty ``str``) goes through the
    :class:`~repro.seq.records.SequenceRecord` constructor, which raises
    the reference path's exception.  The kernel maps lower-case bases
    like upper-case ones, so the upper-cased copy is never needed.
    """

    def __init__(self, config: SketchingConfig):
        self.config = config

    def __call__(self, split):
        keys = []
        read_ids = []
        sequences = []
        for key, (read_id, sequence) in split:
            if not read_id or type(sequence) is not str or not sequence:
                SequenceRecord(read_id=read_id, sequence=sequence)
            keys.append(key)
            read_ids.append(read_id)
            sequences.append(sequence)
        family = self.config.make_family()
        values, kept = sketch_values_batch(sequences, self.config, family)
        family_key = (family.num_hashes, family.universe_size, self.config.seed)
        return [
            (
                keys[i],
                MinHashSketch(
                    read_id=read_ids[i], values=values[row], family_key=family_key
                ),
            )
            for row, i in enumerate(kept)
        ]


@dataclass
class ClusteringRun:
    """Everything produced by one pipeline execution."""

    assignment: ClusterAssignment
    sketches: list[MinHashSketch]
    matrix: MatchCounts | np.ndarray | None
    """The dense hierarchical path's all-pairs matrix as the similarity
    job returned it (match counts for the positional estimator); ``None``
    when no matrix was computed."""
    traces: list[JobTrace]
    timings: dict[str, float]
    counters: Counters = field(default_factory=Counters)
    mode: str = "dense"
    """Similarity path actually taken: ``dense`` (the all-pairs matrix or
    the greedy sweep) or ``engine`` (the MapReduce LSH chain)."""
    sparse_stats: dict | None = None
    """Candidate/edge/round/shuffle accounting when the engine chain ran;
    ``shuffle_bytes`` is ``None`` when the runner traced no job."""

    @cached_property
    def similarity(self) -> np.ndarray | None:
        """The float64 all-pairs similarity matrix (or ``None``), built
        from :attr:`matrix` on first access, never during the fit."""
        if isinstance(self.matrix, MatchCounts):
            return self.matrix.similarity()
        return self.matrix

    @property
    def wall_seconds(self) -> float:
        """Total measured wall-clock across pipeline stages."""
        return sum(self.timings.values())


class MrMCMinH:
    """The paper's clustering framework.

    Parameters
    ----------
    kmer_size, num_hashes:
        Sketching parameters ``k`` and ``n`` (``$KMER`` / ``$NUMHASH``).
        Paper settings: (5, 100) for whole-metagenome, (15, 50) for 16S.
    threshold:
        Similarity threshold θ (``$CUTOFF``).
    method:
        ``"hierarchical"`` (MrMC-MinH^h, Algorithm 2) or ``"greedy"``
        (MrMC-MinH^g, Algorithm 1).
    linkage:
        ``$LINK`` for the hierarchical method: single/average/complete.
    estimator:
        Sketch-comparison estimator; defaults to the paper-literal choice
        per method ("set" for greedy, "positional" for the matrix), and to
        "positional" for ``sparse="engine"``.  Fixed at construction:
        the similarity path never changes it.
    seed:
        Hash-family seed.
    runner:
        Map-Reduce runner (defaults to a traced
        :class:`~repro.mapreduce.runner.SerialRunner`).
    num_map_tasks:
        Parallelism of the sketch and similarity jobs.
    sparse:
        Similarity path: ``False`` (dense), ``"engine"`` (the MapReduce
        LSH chain of :mod:`repro.cluster.sparse_jobs`) or ``"auto"`` (the
        default).  The chain is exact — byte-identical to the dense
        path — for θ > 0 with the positional estimator and either
        ``method="greedy"`` or ``linkage="single"``; ``"engine"`` raises
        :class:`~repro.errors.SparseCompatibilityError` for any other
        shape.  ``"auto"`` takes the chain for exact shapes from
        :data:`SPARSE_AUTO_CUTOFF` sketches on and the dense path
        otherwise, so its output never depends on input size.  Default
        greedy (the set estimator of Algorithm 1) is not an exact shape
        and stays dense at every size.
    wire_bits:
        Ship sketches through the shuffle as b-bit compressed frames
        (see :mod:`repro.minhash.wire`), cutting sketch-job shuffle
        traffic to ``~b/64`` of the raw bytes.  Downstream clustering
        then runs on the low-b-bit sketches with the threshold mapped to
        ``c + (1 - c) * theta`` (``c = 2**-b``), which makes comparing
        raw b-bit match fractions equivalent to comparing
        collision-corrected Jaccard estimates against ``theta``.  That
        correction is only valid for the positional estimator, so the
        flag rejects ``estimator="set"`` combinations.
    spill_threshold_bytes:
        Engage the external spill-to-disk shuffle
        (:class:`~repro.mapreduce.shuffle.SpillingShuffle`) in every job
        the pipeline runs: per-partition map-output buffers over this
        size are sorted and spilled to CRC-guarded segment files and
        merged lazily, so shuffle memory stays bounded at ~1M-read
        scale.  The engine-sparse path additionally streams verified
        candidate edges straight into the clusterer.  ``None`` (default)
        keeps everything in memory; output is byte-identical either way.
    """

    def __init__(
        self,
        *,
        kmer_size: int = 5,
        num_hashes: int = 100,
        threshold: float = 0.9,
        method: str = "hierarchical",
        linkage: str = "average",
        estimator: str | None = None,
        seed: int = 0,
        runner=None,
        num_map_tasks: int = 4,
        sparse: bool | str = "auto",
        wire_bits: int | None = None,
        spill_threshold_bytes: int | None = None,
    ):
        if method not in METHODS:
            raise ClusterConfigError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        if linkage not in LINKAGES:
            raise ClusterConfigError(
                f"unknown linkage {linkage!r}; expected one of {LINKAGES}"
            )
        if not 0.0 <= threshold <= 1.0:
            raise ClusterConfigError(f"threshold must be in [0,1], got {threshold}")
        if num_map_tasks < 1:
            raise ClusterConfigError(
                f"num_map_tasks must be >= 1, got {num_map_tasks}"
            )
        # False by identity: 0 and 0.0 compare equal to it.
        if not (sparse is False or sparse in ("auto", "engine")):
            raise ClusterConfigError(
                f"unknown sparse mode {sparse!r}; expected one of {SPARSE_MODES}"
            )
        if spill_threshold_bytes is not None and spill_threshold_bytes < 0:
            raise ClusterConfigError(
                "spill_threshold_bytes must be >= 0 or None, got "
                f"{spill_threshold_bytes}"
            )
        self.config = SketchingConfig(
            kmer_size=kmer_size, num_hashes=num_hashes, seed=seed
        )
        self.threshold = threshold
        self.method = method
        self.linkage = linkage
        self.estimator = estimator or (
            "positional"
            if method == "hierarchical" or sparse == "engine"
            else "set"
        )
        self.runner = runner or SerialRunner()
        self.num_map_tasks = num_map_tasks
        self.sparse = sparse
        self.spill_threshold_bytes = spill_threshold_bytes
        self.wire_bits = wire_bits
        if wire_bits is not None:
            if self.estimator != "positional":
                raise WireCompatibilityError(
                    "wire_bits requires the positional estimator (the b-bit "
                    "collision correction does not apply to the set form)"
                )
            # Validates the bit width up front.
            effective_threshold(threshold, wire_bits)
        inexact = self._engine_inexact_reason()
        if sparse == "engine" and inexact is not None:
            raise SparseCompatibilityError(
                inexact, method=method, linkage=linkage, estimator=self.estimator
            )
        self._engine_exact = inexact is None

    def _engine_inexact_reason(self) -> str | None:
        """Why the engine chain cannot reproduce the dense path for this
        configuration, or ``None`` when it can.

        The one exactness rule: θ > 0 (the chain never sees pairs that
        share no sketch value, and at θ <= 0 those are edges too), greedy
        or single linkage (clusterings that depend only on the above-θ
        edge set), and the positional estimator (the match fraction the
        chain verifies).
        """
        if self.threshold <= 0.0:
            return "sparse mode requires threshold > 0"
        if self.method == "hierarchical" and self.linkage != "single":
            return (
                "sparse hierarchical clustering is exact only for "
                "single linkage; use linkage='single' or sparse=False"
            )
        if self.estimator != "positional":
            return (
                f"sparse {self.method} clustering uses the positional "
                f"estimator; drop estimator={self.estimator!r} or sparse=False"
            )
        return None

    def _resolve_mode(self, num_sketches: int) -> str:
        """``"dense"`` or ``"engine"``: the similarity path for one fit.

        ``"auto"`` only picks the engine chain for shapes it computes
        exactly, so the cutoff moves cost, never output.
        """
        if self.sparse == "engine" or (
            self.sparse == "auto"
            and self._engine_exact
            and num_sketches >= SPARSE_AUTO_CUTOFF
        ):
            return "engine"
        return "dense"

    # ------------------------------------------------------------------ fit

    def fit(self, records: Sequence[SequenceRecord]) -> ClusteringRun:
        """Cluster a sample of sequence records.

        When a :class:`~repro.obs.trace.Tracer` is active the whole run is
        recorded under a ``pipeline:mrmcminh`` root span with one
        ``kind="phase"`` child per stage (``phase:sketch``,
        ``phase:similarity``, ``phase:cluster``); the engine nests its
        job/task/attempt spans underneath, and pipeline-level gauges
        (cluster count, sketch throughput, per-phase seconds) land in the
        tracer's metrics registry.
        """
        records = list(records)
        if not records:
            raise ClusteringError("cannot cluster an empty sample")
        tracer = current_tracer()
        with tracer.span(
            "pipeline:mrmcminh",
            kind="pipeline",
            method=self.method,
            sparse=str(self.sparse),
            num_records=len(records),
        ):
            return self._fit_traced(records, tracer)

    def _fit_traced(self, records: list[SequenceRecord], tracer) -> ClusteringRun:
        counters = Counters()
        traces: list[JobTrace] = []
        timings: dict[str, float] = {}

        # ---- stage 1: sketch job (encode + k-merize + min-hash) ---------
        t0 = time.perf_counter()
        with tracer.span("phase:sketch", kind="phase"):
            sketch_job = MapReduceJob(
                name="sketch",
                mapper=_SketchMapper(self.config),
                batch_mapper=_SketchBatchMapper(self.config),
                reducer=identity_reducer,
                wire=(
                    SketchWireCodec(self.wire_bits)
                    if self.wire_bits is not None
                    else None
                ),
            )
            inputs = [
                (i, (rec.read_id, rec.sequence)) for i, rec in enumerate(records)
            ]
            result = self.runner.run(
                sketch_job,
                inputs,
                JobConf(
                    num_map_tasks=self.num_map_tasks,
                    num_reduce_tasks=1,
                    spill_threshold_bytes=self.spill_threshold_bytes,
                ),
            )
            counters.merge(result.counters)
            if result.trace is not None:
                traces.append(result.trace)
            # Output is keyed by input index, so original order is preserved —
            # the greedy algorithm's "choose the first sequence" depends on it.
            sketches = [sketch for _, sketch in result.output]
        timings["sketch"] = time.perf_counter() - t0
        if timings["sketch"] > 0:
            tracer.metrics.gauge("pipeline.sketch_reads_per_sec").set(
                len(sketches) / timings["sketch"]
            )
        if not sketches:
            raise ClusteringError(
                f"no sequence produced a {self.config.kmer_size}-mer sketch"
            )

        # With b-bit sketches, raw match fractions drift up by the random
        # low-bit collision floor; thresholding at theta_eff on them is
        # exactly thresholding corrected Jaccard estimates at theta.
        theta = (
            effective_threshold(self.threshold, self.wire_bits)
            if self.wire_bits is not None
            else self.threshold
        )

        # ---- stage 2/3: similarity + clustering --------------------------
        matrix: MatchCounts | np.ndarray | None = None
        sparse_stats: dict | None = None
        mode = self._resolve_mode(len(sketches))
        if mode == "engine":
            from repro.cluster.sparse_jobs import run_sparse_jobs

            engine_run = run_sparse_jobs(
                sketches,
                theta,
                method=self.method,
                runner=self.runner,
                num_tasks=self.num_map_tasks,
                stream=True,
                spill_threshold_bytes=self.spill_threshold_bytes,
            )
            counters.merge(engine_run.counters)
            traces.extend(engine_run.traces)
            timings["similarity"] = (
                engine_run.timings["lsh_candidates"] + engine_run.timings["verify"]
            )
            timings["cluster"] = engine_run.timings["cluster"]
            traces.append(
                _clustering_trace(
                    "sparse-cluster", len(sketches), timings["cluster"]
                )
            )
            assignment = engine_run.assignment
            sparse_stats = {
                "candidate_pairs": engine_run.candidate_pair_count,
                "edges": engine_run.edge_count,
                "rounds": engine_run.rounds,
                "shuffle_bytes": engine_run.shuffle_bytes,
                "spill_segments": engine_run.counters.get(
                    "shuffle", "spill_segments"
                ),
                "spill_bytes": engine_run.counters.get("shuffle", "spill_bytes"),
            }
        elif self.method == "hierarchical":
            t0 = time.perf_counter()
            with tracer.span("phase:similarity", kind="phase"):
                matrix, sim_result = compute_similarity_matrix(
                    sketches,
                    estimator=self.estimator,
                    runner=self.runner,
                    num_tasks=self.num_map_tasks,
                )
                counters.merge(sim_result.counters)
                if sim_result.trace is not None:
                    traces.append(sim_result.trace)
            timings["similarity"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            with tracer.span("phase:cluster", kind="phase"):
                assignment = agglomerative_cluster(
                    matrix,
                    [s.read_id for s in sketches],
                    theta,
                    linkage=self.linkage,
                )
            elapsed = time.perf_counter() - t0
            timings["cluster"] = elapsed
            traces.append(_clustering_trace("cluster", len(sketches), elapsed))
        else:
            t0 = time.perf_counter()
            with tracer.span("phase:cluster", kind="phase"):
                assignment = greedy_cluster(
                    sketches, theta, estimator=self.estimator
                )
            elapsed = time.perf_counter() - t0
            timings["cluster"] = elapsed
            traces.append(_clustering_trace("greedy-cluster", len(sketches), elapsed))

        counters.increment("pipeline", "sequences_clustered", len(sketches))
        counters.increment("pipeline", "clusters", assignment.num_clusters)
        tracer.metrics.gauge("pipeline.sequences").set(len(sketches))
        tracer.metrics.gauge("pipeline.clusters").set(assignment.num_clusters)
        for phase, seconds in timings.items():
            tracer.metrics.gauge(f"pipeline.phase_seconds.{phase}").set(seconds)
        return ClusteringRun(
            assignment=assignment,
            sketches=sketches,
            matrix=matrix,
            traces=traces,
            timings=timings,
            counters=counters,
            mode=mode,
            sparse_stats=sparse_stats,
        )

    # ------------------------------------------------------- HDFS round-trip

    def fit_hdfs(
        self,
        hdfs: SimulatedHDFS,
        input_path: str,
        output_path: str,
    ) -> ClusteringRun:
        """Full Figure-1 flow: FASTA on HDFS in, cluster labels on HDFS out.

        Input is read the way Hadoop map tasks read it: one split per
        HDFS block via :class:`~repro.mapreduce.inputformat.FastaInputFormat`
        (records spanning block boundaries handled by the ownership
        protocol), with one map task per split so the recorded trace's
        task count matches the file's block count — which is what the
        cluster simulator's locality scheduling consumes.

        The output file holds one ``read_id\\tcluster`` line per sequence,
        the format ``STORE ... INTO '$OUTPUT'`` produces in Algorithm 3.
        """
        from repro.mapreduce.inputformat import FastaInputFormat

        fmt = FastaInputFormat(hdfs, input_path)
        records: list[SequenceRecord] = []
        for split in range(fmt.num_splits):
            records.extend(fmt.read_split(split))
        if not records:
            raise ClusteringError(f"{input_path!r} contains no FASTA records")

        # One map task per block, as Hadoop would launch.
        original_tasks = self.num_map_tasks
        self.num_map_tasks = max(1, fmt.num_splits)
        try:
            run = self.fit(records)
        finally:
            self.num_map_tasks = original_tasks

        lines = [
            f"{read_id}\t{run.assignment[read_id]}"
            for read_id in (r.read_id for r in records)
            if read_id in run.assignment
        ]
        hdfs.put(output_path, "\n".join(lines) + "\n", overwrite=True)
        return run

    @staticmethod
    def stage_records(
        hdfs: SimulatedHDFS, path: str, records: Sequence[SequenceRecord]
    ) -> None:
        """Write records to HDFS as FASTA (the pipeline's input format)."""
        hdfs.put(path, format_fasta(records), overwrite=True)


def _clustering_trace(name: str, num_records: int, elapsed: float) -> JobTrace:
    """Trace for the driver-side clustering stage (single reduce task,
    matching Pig's GROUP ALL -> one reducer plan)."""
    trace = JobTrace(job_name=name)
    trace.reduce_tasks.append(
        TaskTrace(
            task_id=f"{name}-r0000",
            kind="reduce",
            records_in=num_records,
            records_out=num_records,
            cpu_seconds=elapsed,
        )
    )
    return trace
