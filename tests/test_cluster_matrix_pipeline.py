"""Tests for the row-partitioned similarity job and the MrMCMinH pipeline."""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import generate_whole_metagenome_sample
from repro.errors import ClusteringError
from repro.cluster.matrix import compute_similarity_matrix, similarity_band_job
from repro.cluster.pipeline import MrMCMinH, _SketchBatchMapper, _SketchMapper
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf
from repro.minhash.similarity import MatchCounts, pairwise_similarity_matrix
from repro.minhash.sketch import MinHashSketch, SketchingConfig
from repro.seq.records import SequenceRecord


def sketches_from_values(values):
    """Sketches with hand-picked values, all from one (nominal) family."""
    values = np.asarray(values, dtype=np.int64)
    key = (values.shape[1], 1 << 20, 0)
    return [
        MinHashSketch(read_id=f"s{i}", values=row, family_key=key)
        for i, row in enumerate(values)
    ]


def random_values(rng, rows, num_hashes, kind):
    """Tie-heavy sketch values: small, negative, or equal in the low bits."""
    if kind == "small":
        return rng.integers(0, 5, (rows, num_hashes))
    if kind == "negative":
        return rng.integers(-3, 3, (rows, num_hashes))
    # Values that agree in their low 8 bits and differ only above them.
    return rng.integers(0, 3, (rows, num_hashes)) << 8 | 7


class TestSimilarityJob:
    def test_matches_direct_computation(self, two_family_sketches):
        direct = pairwise_similarity_matrix(two_family_sketches)
        via_job, result = compute_similarity_matrix(two_family_sketches, num_tasks=3)
        assert via_job.similarity().tobytes() == direct.tobytes()
        assert result.trace is not None
        assert len(result.trace.map_tasks) == 3

    def test_single_task(self, two_family_sketches):
        direct = pairwise_similarity_matrix(two_family_sketches)
        via_job, _ = compute_similarity_matrix(two_family_sketches, num_tasks=1)
        assert via_job.similarity().tobytes() == direct.tobytes()

    def test_more_tasks_than_rows(self, two_family_sketches):
        via_job, _ = compute_similarity_matrix(two_family_sketches, num_tasks=999)
        assert via_job.shape == (len(two_family_sketches),) * 2
        assert via_job.similarity().tobytes() == pairwise_similarity_matrix(
            two_family_sketches
        ).tobytes()

    def test_set_estimator(self, two_family_sketches):
        direct = pairwise_similarity_matrix(two_family_sketches, estimator="set")
        via_job, _ = compute_similarity_matrix(
            two_family_sketches, estimator="set", num_tasks=2
        )
        assert via_job.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("num_hashes", [1, 255, 256, 300])
    @pytest.mark.parametrize("kind", ["small", "negative", "high_bits"])
    @pytest.mark.parametrize("estimator", ["positional", "set"])
    def test_driver_division_is_byte_identical(self, num_hashes, kind, estimator):
        """Positional bands travel as match counts and the job returns them
        as one count matrix; its float64 view must equal the in-process
        matrix byte for byte (and the per-pair np.mean).  The set
        estimator's matrix is float64 as it comes."""
        rng = np.random.default_rng(num_hashes)
        values = random_values(rng, 23, num_hashes, kind)
        sketches = sketches_from_values(values)
        direct = pairwise_similarity_matrix(sketches, estimator=estimator)
        via_job, _ = compute_similarity_matrix(
            sketches, estimator=estimator, num_tasks=4
        )
        if estimator == "positional":
            assert via_job.counts.dtype == np.min_scalar_type(num_hashes)
            via_job = via_job.similarity()
        assert via_job.dtype == np.float64
        assert via_job.tobytes() == direct.tobytes()
        if estimator == "positional":
            mean = np.array([[np.mean(a == b) for b in values] for a in values])
            assert via_job.tobytes() == mean.tobytes()

    @pytest.mark.parametrize("num_hashes", [1, 255, 256, 300])
    def test_positional_band_job_emits_match_counts(self, num_hashes):
        rng = np.random.default_rng(0)
        values = random_values(rng, 10, num_hashes, "small")
        sketches = sketches_from_values(values)
        result = SerialRunner().run(
            similarity_band_job(sketches),
            [(0, (0, 4)), (1, (4, 10))],
            JobConf(num_map_tasks=2, num_reduce_tasks=1),
        )
        for start, band in result.output:
            assert band.dtype == np.min_scalar_type(num_hashes)
            assert band.dtype.kind == "u"
            expected = (values[start : start + len(band), None] == values).sum(axis=2)
            assert np.array_equal(band, expected)

    def test_set_band_job_emits_floats(self, two_family_sketches):
        result = SerialRunner().run(
            similarity_band_job(two_family_sketches, estimator="set"),
            [(0, (0, 3))],
            JobConf(num_map_tasks=1, num_reduce_tasks=1),
        )
        [(_, band)] = result.output
        assert band.dtype == np.float64

    def test_validation(self, two_family_sketches):
        with pytest.raises(ClusteringError):
            compute_similarity_matrix([], num_tasks=2)
        with pytest.raises(ClusteringError):
            compute_similarity_matrix(two_family_sketches, num_tasks=0)
        with pytest.raises(ClusteringError):
            similarity_band_job([])


class TestMrMCMinHConstruction:
    def test_defaults(self):
        model = MrMCMinH()
        assert model.method == "hierarchical"
        assert model.estimator == "positional"

    def test_greedy_default_estimator_is_paper_literal(self):
        assert MrMCMinH(method="greedy").estimator == "set"

    def test_validation(self):
        with pytest.raises(ClusteringError):
            MrMCMinH(method="kmeans")
        with pytest.raises(ClusteringError):
            MrMCMinH(linkage="ward")
        with pytest.raises(ClusteringError):
            MrMCMinH(threshold=2.0)
        with pytest.raises(ClusteringError):
            MrMCMinH(num_map_tasks=0)


class TestMrMCMinHFit:
    def test_hierarchical_separates_families(self, two_family_records):
        model = MrMCMinH(kmer_size=5, num_hashes=48, threshold=0.5, seed=1)
        run = model.fit(two_family_records)
        labels = {r.read_id: r.label for r in two_family_records}
        for members in run.assignment.clusters().values():
            assert len({labels[m] for m in members}) == 1

    def test_greedy_runs(self, two_family_records):
        model = MrMCMinH(method="greedy", kmer_size=5, num_hashes=48, threshold=0.5)
        run = model.fit(two_family_records)
        assert run.similarity is None
        assert run.assignment.num_sequences == len(two_family_records)

    def test_hierarchical_outputs(self, two_family_records):
        run = MrMCMinH(kmer_size=5, num_hashes=48, threshold=0.5).fit(two_family_records)
        n = len(two_family_records)
        assert isinstance(run.matrix, MatchCounts)
        assert "similarity" not in vars(run)  # not built during the fit
        assert run.similarity.shape == (n, n)
        assert run.similarity.tobytes() == pairwise_similarity_matrix(
            run.sketches
        ).tobytes()
        assert [t.job_name for t in run.traces] == ["sketch", "similarity", "cluster"]
        assert set(run.timings) == {"sketch", "similarity", "cluster"}
        assert run.wall_seconds > 0
        assert run.counters.get("pipeline", "sequences_clustered") == n

    def test_dense_fit_holds_one_float64_matrix(self):
        """The merge loop's working matrix is the only N x N float64 array
        a dense average-linkage fit holds: the similarity job's match
        counts reach it undivided.  Two such arrays would need 2 * 8N²."""
        reads = generate_whole_metagenome_sample(
            "S1", num_reads=800, genome_length=5000, seed=0
        )
        model = MrMCMinH(
            kmer_size=5, num_hashes=100, threshold=0.9, method="hierarchical",
            linkage="average", sparse=False,
        )
        tracemalloc.start()
        try:
            run = model.fit(reads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(run.sketches)
        assert n == 800
        assert peak < 2 * 8 * n * n

    def test_deterministic(self, two_family_records):
        a = MrMCMinH(kmer_size=5, num_hashes=48, threshold=0.5, seed=3).fit(
            two_family_records
        )
        b = MrMCMinH(kmer_size=5, num_hashes=48, threshold=0.5, seed=3).fit(
            two_family_records
        )
        assert dict(a.assignment) == dict(b.assignment)

    def test_short_reads_dropped(self):
        records = [
            SequenceRecord("long1", "ACGTACGTACGTACGT"),
            SequenceRecord("tiny", "ACG"),
            SequenceRecord("long2", "ACGTACGTACGTACGT"),
        ]
        run = MrMCMinH(kmer_size=5, num_hashes=16, threshold=0.5).fit(records)
        assert set(run.assignment) == {"long1", "long2"}

    def test_all_too_short_rejected(self):
        with pytest.raises(ClusteringError, match="sketch"):
            MrMCMinH(kmer_size=10, num_hashes=16).fit([SequenceRecord("r", "ACGT")])

    def test_empty_rejected(self):
        with pytest.raises(ClusteringError):
            MrMCMinH().fit([])

    def test_multiprocess_runner_matches_serial(self, two_family_records):
        serial = MrMCMinH(kmer_size=5, num_hashes=48, threshold=0.5, seed=0).fit(
            two_family_records
        )
        parallel = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.5, seed=0,
            runner=MultiprocessRunner(num_workers=2),
        ).fit(two_family_records)
        assert dict(serial.assignment) == dict(parallel.assignment)


def _random_bases(rng, length):
    return "".join(rng.choice(list("ACGT"), size=length))


def _run_reference_mapper(config, split):
    """The per-record sketch mapper looped over a split, as a map task
    without a batch mapper would run it."""
    mapper = _SketchMapper(config)
    return [out for key, value in split for out in mapper(key, value)]


def _valid_split():
    """Readable reads of every kind the sketch job meets, plus the two a
    task drops: an all-N read and one shorter than k."""
    rng = np.random.default_rng(19)
    dense = _random_bases(rng, 1000)  # probed at k=5 (>= 512 windows)
    reads = [
        ("dense", dense),
        ("dense-lower", _random_bases(rng, 1000).lower()),
        ("all-n", "N" * 40),
        ("mixed-case", dense[:60].lower() + dense[60:120]),
        ("short", "ACG"),
        ("short-lower", _random_bases(rng, 30).lower()),
        ("n-peppered", dense[:500] + "nN" + dense[502:]),
    ]
    return [(i, value) for i, value in enumerate(reads)]


#: Reads the reference path rejects, each spliced into the valid split
#: at the given position.
_INVALID = [
    pytest.param(2, ("", "ACGTACGTAC"), id="empty-id"),
    pytest.param(0, (None, "ACGTACGTAC"), id="none-id"),
    pytest.param(3, ("empty", ""), id="empty-sequence"),
    pytest.param(7, ("none", None), id="none-sequence"),
    pytest.param(1, ("int", 12345), id="int-sequence"),
    pytest.param(4, ("list", ["A", "C", "G", "T", "A"]), id="list-sequence"),
    pytest.param(2, ("", None), id="empty-id-and-sequence"),
]


class TestSketchMappers:
    """The batch sketch mapper that map tasks run validates, drops and
    sketches like the per-record reference mapper."""

    config = SketchingConfig(kmer_size=5, num_hashes=100, seed=0)

    def test_valid_split_matches_reference(self):
        split = _valid_split()
        expected = _run_reference_mapper(self.config, split)
        got = _SketchBatchMapper(self.config)(split)
        assert [key for key, _ in got] == [key for key, _ in expected]
        assert [s.read_id for _, s in expected] == [
            "dense", "dense-lower", "mixed-case", "short-lower", "n-peppered"
        ]
        for (_, g), (_, e) in zip(got, expected):
            assert g.read_id == e.read_id
            assert g.family_key == e.family_key
            assert g.values.dtype == e.values.dtype
            assert g.values.tobytes() == e.values.tobytes()

    @pytest.mark.parametrize("position,value", _INVALID)
    def test_invalid_read_raises_like_reference(self, position, value):
        split = _valid_split()
        split.insert(position, (100, value))
        with pytest.raises(Exception) as reference:
            _run_reference_mapper(self.config, split)
        with pytest.raises(Exception) as batch:
            _SketchBatchMapper(self.config)(split)
        assert type(batch.value) is type(reference.value)
        assert str(batch.value) == str(reference.value)

    def test_first_invalid_read_decides_the_error(self):
        split = _valid_split()
        split[1:1] = [(100, ("late", "")), (101, ("", "ACGTACGTAC"))]
        split.insert(1, (102, ("early", 7)))
        with pytest.raises(AttributeError, match="'int' object") as reference:
            _run_reference_mapper(self.config, split)
        with pytest.raises(AttributeError) as batch:
            _SketchBatchMapper(self.config)(split)
        assert str(batch.value) == str(reference.value)


class TestHdfsRoundTrip:
    def test_fit_hdfs(self, two_family_records):
        hdfs = SimulatedHDFS(3, block_size=512)
        MrMCMinH.stage_records(hdfs, "/in.fa", two_family_records)
        model = MrMCMinH(kmer_size=5, num_hashes=48, threshold=0.5)
        run = model.fit_hdfs(hdfs, "/in.fa", "/out.tsv")
        text = hdfs.get_text("/out.tsv")
        lines = text.strip().splitlines()
        assert len(lines) == len(two_family_records)
        for line in lines:
            read_id, label = line.split("\t")
            assert run.assignment[read_id] == int(label)
