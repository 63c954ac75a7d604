"""Unit tests for the engine-sparse LSH job chain (repro.cluster.sparse_jobs)."""

import numpy as np
import pytest

from repro.cluster import pipeline
from repro.cluster.pipeline import MrMCMinH, SPARSE_AUTO_CUTOFF
from repro.cluster.sparse import (
    candidate_pairs,
    sparse_greedy_cluster,
    sparse_single_linkage,
)
from repro.cluster.sparse_jobs import (
    CandidatePairReducer,
    LshBandMapper,
    SketchSideData,
    VerifyReducer,
    band_bounds,
    max_mismatches,
    pigeonhole_bands,
    run_sparse_jobs,
)
from repro.errors import ClusteringError
from repro.mapreduce.runner import SerialRunner
from repro.minhash.sketch import sketches_from_matrix
from repro.minhash.wire import effective_threshold


def make_sketches(n=30, num_hashes=16, universe=12, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, universe, size=(n, num_hashes)).astype(np.int64)
    return sketches_from_matrix(
        values, [f"r{i}" for i in range(n)], (num_hashes, 1 << 30, seed)
    )


class TestCandidateParity:
    # At θ = 1/n the pigeonhole bands are one per position, the in-process
    # join's grouping, so each candidate's match is its collision count / n.
    def test_pairs_equal_in_process_join(self):
        sketches = make_sketches()
        run = run_sparse_jobs(sketches, 1 / 16)
        assert run.matches == {
            pair: c / 16 for pair, c in candidate_pairs(sketches).items()
        }
        assert run.rounds == 2
        assert run.shuffle_bytes > 0

    def test_max_group_cap_applied_identically(self):
        sketches = make_sketches(universe=4)  # big collision groups
        run = run_sparse_jobs(sketches, 1 / 16, max_group=8)
        assert run.matches.keys() == candidate_pairs(sketches, max_group=8).keys()

    def test_wider_bands_generate_a_subset(self):
        # A higher threshold's pigeonhole bands are wider than one position.
        sketches = make_sketches(universe=4)
        base = run_sparse_jobs(sketches, 1 / 16).matches
        banded = run_sparse_jobs(sketches, 0.5).matches
        assert banded and set(banded) < set(base)

    def test_verified_match_is_true_positional_fraction(self):
        sketches = make_sketches()
        run = run_sparse_jobs(sketches, 1 / 16)
        matrix = np.stack([s.values for s in sketches])
        for (i, j), match in run.matches.items():
            expected = np.count_nonzero(matrix[i] == matrix[j]) / matrix.shape[1]
            assert match == expected


class TestClusteringParity:
    @pytest.mark.parametrize("threshold", [0.125, 0.25, 0.5, 0.75])
    def test_single_linkage_byte_identical(self, threshold):
        sketches = make_sketches()
        a = sparse_single_linkage(sketches, threshold)
        b = run_sparse_jobs(sketches, threshold, method="hierarchical")
        assert a.to_tsv() == b.assignment.to_tsv()

    @pytest.mark.parametrize("threshold", [0.125, 0.25, 0.5, 0.75])
    def test_greedy_byte_identical(self, threshold):
        sketches = make_sketches()
        a = sparse_greedy_cluster(sketches, threshold)
        b = run_sparse_jobs(sketches, threshold, method="greedy")
        assert a.to_tsv() == b.assignment.to_tsv()


THETA_GRID = (
    0.01, 0.1, 0.125, 0.2, 0.25, 1 / 3, 0.35, 0.5, 0.6, 2 / 3, 0.7, 0.75,
    0.8, 0.85, 0.9, 0.95, 0.97, 0.99, 1.0,
)


def brute_force_edges(matrix, theta):
    """Every pair whose positional match fraction is at least ``theta``."""
    n, num_hashes = matrix.shape
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if int(np.count_nonzero(matrix[i] == matrix[j])) / num_hashes >= theta
    }


class TestPigeonholeBands:
    def test_max_mismatches_exhaustive(self):
        for n in range(1, 129):
            # The grid plus every attainable match fraction k/n: the
            # thresholds where an off-by-one in m would show.
            for theta in THETA_GRID + tuple(k / n for k in range(1, n + 1)):
                m = max_mismatches(n, theta)
                assert (n - m) / n >= theta, (n, theta, m)
                assert (n - m - 1) / n < theta, (n, theta, m)

    @pytest.mark.parametrize(
        "n, theta, m",
        [
            (100, 0.9, 10), (50, 0.95, 2), (10, 0.7, 3), (3, 1 / 3, 2),
            (32, 1.0, 0), (25, 7 / 25, 18),
        ],
    )
    def test_float_edge_cases(self, n, theta, m):
        # (7 / 25) * 25 == 7.000000000000001: n - ceil(theta * n) would be
        # one short and miss pairs at exactly 7/25, which the verifier
        # accepts.
        assert max_mismatches(n, theta) == m

    def test_bands_partition_the_positions(self):
        for n in range(1, 129):
            for num_bands in range(1, n + 1):
                bounds = band_bounds(n, num_bands)
                assert len(bounds) == num_bands
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
                widths = [stop - start for start, stop in bounds]
                assert max(widths) - min(widths) <= 1 and min(widths) >= 1

    def test_sixteen_s_shape_bands(self):
        assert pigeonhole_bands(50, 0.95) == ((0, 17), (17, 34), (34, 50))
        assert len(pigeonhole_bands(100, 0.9)) == 11

    def test_default_banding_follows_the_threshold(self):
        sketches = make_sketches()
        assert run_sparse_jobs(sketches, 0.75).bands == pigeonhole_bands(16, 0.75)
        assert run_sparse_jobs(sketches, 1 / 16).bands == band_bounds(16, 16)

    @pytest.mark.parametrize(
        "bits, threshold", [(2, 0.5), (1, 0.6), (2, 0.3)]
    )
    def test_bbit_chain_finds_low_bit_only_edges(self, bits, threshold):
        # What MrMCMinH(wire_bits=bits) hands the chain: the low bits of
        # wide-universe sketches, where full values rarely collide and
        # low bits often do, at the b-bit threshold.
        rng = np.random.default_rng(bits * 10 + int(threshold * 10))
        values = rng.integers(0, 1 << 20, size=(60, 16)).astype(np.int64)
        low = values & ((1 << bits) - 1)
        sketches = sketches_from_matrix(
            low, [f"r{i}" for i in range(60)], (16, 1 << bits, 0)
        )
        theta = effective_threshold(threshold, bits)
        run = run_sparse_jobs(sketches, theta)
        expected = brute_force_edges(low, theta)
        assert expected
        assert set(run.edges) == expected


class TestValidation:
    def test_empty_sketches_rejected(self):
        with pytest.raises(ClusteringError, match="no sketches"):
            run_sparse_jobs([], 0.5)

    def test_threshold_range(self):
        with pytest.raises(ClusteringError, match="threshold"):
            run_sparse_jobs(make_sketches(), 0.0)
        with pytest.raises(ClusteringError, match="threshold"):
            run_sparse_jobs(make_sketches(), 1.5)

    def test_unknown_method(self):
        with pytest.raises(ClusteringError, match="method"):
            run_sparse_jobs(make_sketches(), 0.5, method="kmeans")


class TestSideData:
    def test_full_precision_roundtrip(self):
        matrix = np.arange(24, dtype=np.int64).reshape(4, 6)
        side = SketchSideData.pack(matrix)
        assert np.array_equal(side.matrix(), matrix)

    def test_crc_detects_corruption(self):
        side = SketchSideData.pack(np.zeros((2, 2), dtype=np.int64))
        corrupt = SketchSideData(
            payload=side.payload, crc=side.crc ^ 1, num_records=2, num_hashes=2
        )
        with pytest.raises(ClusteringError, match="CRC"):
            corrupt.matrix()

    def test_pack_rejects_a_non_matrix(self):
        with pytest.raises(ClusteringError, match="2-D"):
            SketchSideData.pack(np.zeros(4, dtype=np.int64))


class TestMapperSemantics:
    def test_band1_key_is_hash_index_and_value(self):
        mapper = LshBandMapper(band_bounds(3, 3))
        out = list(mapper(7, [10, 20, 30]))
        assert out == [((0, (10,)), 7), ((1, (20,)), 7), ((2, (30,)), 7)]

    def test_wide_bands_emit_one_key_per_band(self):
        mapper = LshBandMapper(band_bounds(4, 2))
        out = list(mapper(3, [10, 20, 30, 40]))
        assert [k[0] for k, _ in out] == [0, 1]
        assert all(v == 3 for _, v in out)

    def test_unequal_bands_key_on_raw_value_tuples(self):
        mapper = LshBandMapper(band_bounds(5, 2))
        out = list(mapper(4, [1, 2, 3, 4, 5]))
        assert out == [((0, (1, 2, 3)), 4), ((1, (4, 5)), 4)]


class TestReducerContracts:
    def test_candidate_pairs_deduplicated_and_ordered(self):
        out = list(CandidatePairReducer()((0, (1,)), [9, 2, 5, 2, 9]))
        assert out == [((2, 5), 1), ((2, 9), 1), ((5, 9), 1)]

    def test_singleton_group_emits_nothing(self):
        reducer = CandidatePairReducer()
        assert list(reducer((0, (1,)), [3])) == []
        assert list(reducer((0, (1,)), [3, 3, 3])) == []

    def test_max_group_boundary(self):
        reducer = CandidatePairReducer(max_group=4)
        # Repeated members count once against the cap.
        assert len(list(reducer((0, (1,)), [0, 1, 2, 3, 3]))) == 6  # C(4, 2)
        assert list(reducer((0, (1,)), [0, 1, 2, 3, 4])) == []

    def test_verify_scores_from_side_data_whatever_the_counts(self):
        matrix = np.array([[1, 2, 3, 4], [1, 2, 0, 4], [9, 9, 9, 9]])
        reducer = VerifyReducer(SketchSideData.pack(matrix))
        for counts in ([1], [3, 1], [0]):
            assert list(reducer((0, 1), counts)) == [((0, 1), 0.75)]
        assert list(reducer((0, 2), [4])) == [((0, 2), 0.0)]


class TestObservability:
    def test_traces_and_metrics_recorded(self):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.activate():
            run = run_sparse_jobs(make_sketches(), 0.5)
        names = [s.name for s in tracer.spans]
        assert "phase:lsh-candidates" in names
        assert "phase:verify" in names
        assert "phase:cluster" in names
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["sparse_jobs.candidate_pairs"] == len(run.matches)
        assert gauges["sparse_jobs.rounds"] == 2
        assert gauges["sparse_jobs.shuffle_bytes"] == run.shuffle_bytes

    def test_counters_carry_pair_accounting(self):
        run = run_sparse_jobs(make_sketches(), 0.5)
        stats = run.counters.as_dict()["sparse_jobs"]
        assert stats["candidate_pairs"] == len(run.matches)
        assert stats["rounds"] == 2

    def test_rounds_counted_without_traces(self, two_family_records):
        # JobService's default runner records no traces.
        from repro.obs import Tracer

        runner = SerialRunner(trace=False)
        tracer = Tracer()
        with tracer.activate():
            run = run_sparse_jobs(make_sketches(), 0.5, runner=runner)
        assert run.traces == [] and run.shuffle_bytes is None
        assert run.rounds == 2
        assert run.counters.get("sparse_jobs", "rounds") == 2
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["sparse_jobs.rounds"] == 2
        assert "sparse_jobs.shuffle_bytes" not in gauges  # nothing measured
        fit = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="single", sparse="engine",
            runner=runner,
        ).fit(two_family_records)
        assert fit.sparse_stats["rounds"] == 2


class TestPipelineIntegration:
    def test_engine_mode_matches_in_process_sparse(self, two_family_records):
        base = dict(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="single", seed=1,
        )
        b = MrMCMinH(sparse="engine", **base).fit(two_family_records)
        a = sparse_single_linkage(b.sketches, base["threshold"])
        assert a.to_tsv() == b.assignment.to_tsv()
        assert b.mode == "engine"
        assert b.sparse_stats["rounds"] == 2
        assert b.sparse_stats["shuffle_bytes"] > 0

    def test_auto_resolves_dense_below_cutoff(self, two_family_records):
        run = MrMCMinH(kmer_size=5, num_hashes=32, threshold=0.6).fit(
            two_family_records
        )
        assert run.mode == "dense"
        assert run.sparse_stats is None

    def test_auto_resolves_engine_above_cutoff(
        self, two_family_records, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "SPARSE_AUTO_CUTOFF", 4)
        model = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="single",
        )
        run = model.fit(two_family_records)
        assert run.mode == "engine"
        assert run.sparse_stats["candidate_pairs"] > 0

    def test_auto_stays_dense_for_inexact_shapes(
        self, two_family_records, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "SPARSE_AUTO_CUTOFF", 4)
        # Average linkage is never sparse-exact: auto must not flip.
        run = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="average",
        ).fit(two_family_records)
        assert run.mode == "dense"
        # The set estimator pins dense too, requested or by default.
        for estimator in ("set", None):
            run = MrMCMinH(
                kmer_size=5, num_hashes=32, threshold=0.6,
                method="greedy", estimator=estimator,
            ).fit(two_family_records)
            assert run.mode == "dense"

    def test_default_cutoff_exported(self):
        assert SPARSE_AUTO_CUTOFF == 4096
        assert MrMCMinH().sparse == "auto"

    def test_engine_mode_with_wire_bits(self, two_family_records):
        run = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="greedy", estimator="positional",
            wire_bits=8, sparse="engine",
        ).fit(two_family_records)
        assert run.mode == "engine"
        assert run.assignment.num_sequences == len(two_family_records)


class TestServiceIntegration:
    def test_engine_spec_routes_through_service(self, two_family_records):
        from repro.mapreduce.service import ClusterJobSpec, JobService

        spec = ClusterJobSpec(
            records=tuple(two_family_records),
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="single", sparse="engine",
        )
        svc = JobService(num_slots=1)
        svc.start()
        try:
            ticket = svc.submit("t0", spec)
            run = ticket.result(timeout=60)
        finally:
            svc.shutdown()
        assert run.mode == "engine"
        expected = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="single", sparse=False,
        ).fit(two_family_records)
        assert expected.mode == "dense"
        assert run.assignment.to_tsv() == expected.assignment.to_tsv()

    def test_degraded_engine_spec_stays_on_engine(self, two_family_records):
        from repro.mapreduce.service import ClusterJobSpec
        from repro.mapreduce.runner import SerialRunner

        spec = ClusterJobSpec(
            records=tuple(two_family_records),
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="single", sparse="engine",
        )
        run = spec.execute(SerialRunner(), degraded=True)
        assert run.mode == "engine"
