"""Streaming-edge regression net: clustering from an edge *stream* must
equal clustering from the collected list, and the streamed engine chain
must never materialize the candidate-pair list in the driver.

Covers the satellite requirements: generator == list for both greedy and
single-linkage, a counting-wrapper runner proving the driver's collected
pair count stays zero in stream mode, and an exception mid-stream leaving
no orphaned spill segment directories behind.
"""

import glob

import pytest

from repro.cluster.sparse import (
    GreedyEdgeStream,
    SingleLinkageEdgeStream,
    greedy_from_edges,
    make_edge_stream,
    single_linkage_from_edges,
)
from repro.cluster.sparse_jobs import run_sparse_jobs
from repro.datasets.environmental import generate_environmental_sample
from repro.errors import ClusteringError
from repro.mapreduce.runner import SerialRunner
from repro.minhash.sketch import SketchingConfig, compute_sketches_batch

READ_IDS = [f"r{i}" for i in range(8)]
EDGES = [(0, 1), (1, 2), (4, 5), (0, 2), (6, 7), (4, 5)]


@pytest.fixture(scope="module")
def sketches():
    reads = generate_environmental_sample("53R", num_reads=250, seed=0)
    config = SketchingConfig(kmer_size=9, num_hashes=24, seed=0)
    return compute_sketches_batch(reads, config, config.make_family())


class TestEdgeStreams:
    def test_generator_equals_list_single_linkage(self):
        from_list = single_linkage_from_edges(READ_IDS, EDGES)
        from_gen = single_linkage_from_edges(READ_IDS, (e for e in EDGES))
        assert from_list.to_tsv() == from_gen.to_tsv()

    def test_generator_equals_list_greedy(self):
        from_list = greedy_from_edges(READ_IDS, EDGES)
        from_gen = greedy_from_edges(READ_IDS, (e for e in EDGES))
        assert from_list.to_tsv() == from_gen.to_tsv()

    def test_incremental_add_equals_batch(self):
        for cls, fn in (
            (SingleLinkageEdgeStream, single_linkage_from_edges),
            (GreedyEdgeStream, greedy_from_edges),
        ):
            stream = cls(READ_IDS)
            for i, j in EDGES:
                stream.add(i, j)
            assert stream.edges_seen == len(EDGES)
            assert stream.finish().to_tsv() == fn(READ_IDS, EDGES).to_tsv()

    def test_edge_order_and_duplication_independence(self):
        shuffled = list(reversed(EDGES)) + EDGES  # reordered + duplicated
        for fn in (single_linkage_from_edges, greedy_from_edges):
            assert fn(READ_IDS, EDGES).to_tsv() == fn(READ_IDS, shuffled).to_tsv()

    def test_make_edge_stream_factory(self):
        assert isinstance(
            make_edge_stream(READ_IDS, "greedy"), GreedyEdgeStream
        )
        assert isinstance(
            make_edge_stream(READ_IDS, "hierarchical"), SingleLinkageEdgeStream
        )
        with pytest.raises(ClusteringError, match="unknown edge-stream method"):
            make_edge_stream(READ_IDS, "dense")

    def test_empty_read_ids_rejected(self):
        for cls in (SingleLinkageEdgeStream, GreedyEdgeStream):
            with pytest.raises(ClusteringError):
                cls([])

    def test_greedy_duplicate_read_ids_rejected(self):
        with pytest.raises(ClusteringError, match="unique"):
            GreedyEdgeStream(["a", "a"])


class _CountingRunner(SerialRunner):
    """Records how many output records each job hands back to the driver —
    the quantity stream mode is supposed to bound at zero."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.collected: dict[str, int] = {}

    def run(self, job, inputs, conf=None, **kwargs):
        result = super().run(job, inputs, conf, **kwargs)
        self.collected[job.name] = len(result.output)
        return result


class TestStreamedEngineChain:
    def test_streamed_run_byte_identical_and_unmaterialized(self, sketches):
        base = run_sparse_jobs(
            sketches, 0.8, method="hierarchical", max_group=64
        )
        runner = _CountingRunner()
        streamed = run_sparse_jobs(
            sketches, 0.8, method="hierarchical", max_group=64,
            runner=runner, stream=True,
        )
        assert streamed.assignment.to_tsv() == base.assignment.to_tsv()
        # Nothing materialized driver-side: the verify job returned zero
        # collected records, and the run carries only counts.
        assert runner.collected["verify-candidates"] == 0
        assert streamed.matches == {} and streamed.edges == []
        assert streamed.candidate_pair_count == len(base.matches)
        assert streamed.edge_count == len(base.edges)
        assert (
            streamed.counters.get("sparse_jobs", "candidate_pairs")
            == base.counters.get("sparse_jobs", "candidate_pairs")
        )

    def test_streamed_greedy_matches_collected(self, sketches):
        base = run_sparse_jobs(sketches, 0.8, method="greedy", max_group=64)
        streamed = run_sparse_jobs(
            sketches, 0.8, method="greedy", max_group=64, stream=True
        )
        assert streamed.assignment.to_tsv() == base.assignment.to_tsv()

    def test_streamed_with_spilling_matches_in_memory(self, sketches):
        base = run_sparse_jobs(
            sketches, 0.8, method="hierarchical", max_group=64
        )
        spilled = run_sparse_jobs(
            sketches, 0.8, method="hierarchical", max_group=64,
            stream=True, spill_threshold_bytes=0,
        )
        assert spilled.assignment.to_tsv() == base.assignment.to_tsv()
        assert spilled.counters.get("shuffle", "spill_segments") > 0

    def test_stream_requires_threshold(self, sketches):
        # Streamed or not, a missing threshold is a ClusteringError, not a
        # TypeError from the range check.
        for stream in (True, False):
            with pytest.raises(ClusteringError, match="threshold must be in"):
                run_sparse_jobs(sketches, None, stream=stream)


class TestNoOrphanedSegments:
    def test_reducer_exception_leaves_no_spill_dirs(self, tmp_path, monkeypatch):
        """A job dying mid-stream (reducer raising while partitions are
        spilled) must remove its spill directory on the way out."""
        import tempfile

        from repro.mapreduce.job import MapReduceJob
        from repro.mapreduce.types import JobConf

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def mapper(key, value):
            yield value % 5, value

        def reducer(key, values):
            raise RuntimeError("boom mid-stream")
            yield  # pragma: no cover

        job = MapReduceJob(name="boom", mapper=mapper, reducer=reducer)
        inputs = [(i, i) for i in range(50)]
        seen = []
        with pytest.raises(RuntimeError, match="boom mid-stream"):
            SerialRunner().run(
                job,
                inputs,
                JobConf(num_reduce_tasks=2, spill_threshold_bytes=0),
                output_sink=seen.append,
            )
        assert glob.glob(str(tmp_path / "repro-spill-*")) == []
        assert seen == []

    def test_unrepairable_spill_corruption_leaves_no_spill_dirs(
        self, tmp_path, monkeypatch
    ):
        """finish() raising inside the shuffle stage (bit-rot past the
        re-spill budget) must also clean up — not just reducer errors."""
        import tempfile

        from repro.errors import FaultError
        from repro.mapreduce.faults import FaultPlan
        from repro.mapreduce.job import MapReduceJob
        from repro.mapreduce.types import JobConf

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def mapper(key, value):
            yield value % 3, value

        def reducer(key, values):
            yield key, sum(values)

        job = MapReduceJob(name="rot", mapper=mapper, reducer=reducer)
        plan = FaultPlan(seed=0, spill_corrupt_rate=1.0)  # rots every attempt
        with pytest.raises(FaultError, match="still corrupt"):
            SerialRunner(fault_plan=plan).run(
                job,
                [(i, i) for i in range(30)],
                JobConf(num_reduce_tasks=2, spill_threshold_bytes=0),
            )
        assert glob.glob(str(tmp_path / "repro-spill-*")) == []
