"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_domain_parentage(self):
        assert issubclass(errors.FastaParseError, errors.SequenceError)
        assert issubclass(errors.KmerError, errors.SequenceError)
        assert issubclass(errors.HdfsError, errors.MapReduceError)
        assert issubclass(errors.SimulationError, errors.MapReduceError)
        assert issubclass(errors.PigParseError, errors.PigError)

    def test_service_error_parentage(self):
        for exc_type in (
            errors.ServiceOverloadedError,
            errors.CircuitOpenError,
            errors.ServiceStoppedError,
            errors.DeadlineExceededError,
            errors.JobCancelledError,
        ):
            assert issubclass(exc_type, errors.ServiceError)
        assert issubclass(errors.ServiceError, errors.ReproError)
        # Service errors are a peer domain, not engine errors: catching
        # MapReduceError must not swallow an admission rejection.
        assert not issubclass(errors.ServiceError, errors.MapReduceError)

    def test_retry_after_hint_formatting(self):
        exc = errors.ServiceOverloadedError("queue full", retry_after=1.5)
        assert exc.retry_after == 1.5
        assert "1.50s" in str(exc)
        open_exc = errors.CircuitOpenError("tripped", retry_after=0.25)
        assert open_exc.retry_after == 0.25
        assert "0.25s" in str(open_exc)

    def test_line_number_formatting(self):
        exc = errors.FastaParseError("bad record", line_number=7)
        assert "line 7" in str(exc)
        assert exc.line_number == 7
        plain = errors.FastaParseError("bad record")
        assert plain.line_number is None
        assert "line" not in str(plain)

    def test_pig_parse_error_line(self):
        exc = errors.PigParseError("oops", line_number=3)
        assert "line 3" in str(exc)

    def test_single_except_catches_library_errors(self):
        """The documented catch-all behaviour."""
        from repro.seq.alphabet import encode_dna
        from repro.minhash.universal import UniversalHashFamily

        for trigger in (
            lambda: encode_dna("XYZ"),
            lambda: UniversalHashFamily(0, 10),
        ):
            with pytest.raises(errors.ReproError):
                trigger()


class TestClusteringErrorTaxonomy:
    def test_parentage_chain(self):
        assert issubclass(errors.ClusterConfigError, errors.ClusteringError)
        assert issubclass(
            errors.SparseCompatibilityError, errors.ClusterConfigError
        )
        assert issubclass(
            errors.WireCompatibilityError, errors.ClusterConfigError
        )
        # Still inside the one-except contract.
        assert issubclass(errors.SparseCompatibilityError, errors.ReproError)

    def test_sparse_compatibility_error_carries_configuration(self):
        exc = errors.SparseCompatibilityError(
            "nope", method="hierarchical", linkage="average", estimator="set"
        )
        assert exc.method == "hierarchical"
        assert exc.linkage == "average"
        assert exc.estimator == "set"
        assert str(exc) == "nope"
        bare = errors.SparseCompatibilityError("bare")
        assert bare.method is bare.linkage is bare.estimator is None

    def test_pipeline_raises_typed_config_errors(self):
        from repro.cluster.pipeline import MrMCMinH

        with pytest.raises(errors.ClusterConfigError, match="method"):
            MrMCMinH(method="kmeans")
        with pytest.raises(errors.ClusterConfigError, match="linkage"):
            MrMCMinH(linkage="centroid")
        with pytest.raises(errors.ClusterConfigError, match="threshold"):
            MrMCMinH(threshold=1.5)

    def test_pipeline_raises_sparse_compatibility_with_attrs(self):
        from repro.cluster.pipeline import MrMCMinH

        with pytest.raises(errors.SparseCompatibilityError) as info:
            MrMCMinH(sparse="engine", method="hierarchical", linkage="average")
        assert info.value.linkage == "average"
        assert "single" in str(info.value)

        with pytest.raises(errors.SparseCompatibilityError) as info:
            MrMCMinH(sparse="engine", method="greedy", estimator="set")
        assert info.value.estimator == "set"

        with pytest.raises(errors.SparseCompatibilityError) as info:
            MrMCMinH(sparse="engine", threshold=0.0)
        assert "threshold > 0" in str(info.value)

    def test_engine_rejects_set_estimator_for_single_linkage(self):
        # The chain verifies positional match fractions; it must not
        # silently cluster positional edges under estimator="set".
        from repro.cluster.pipeline import MrMCMinH

        with pytest.raises(errors.SparseCompatibilityError) as info:
            MrMCMinH(
                method="hierarchical", linkage="single", estimator="set",
                sparse="engine",
            )
        assert info.value.estimator == "set"
        assert info.value.method == "hierarchical"
        assert "positional" in str(info.value)

    @pytest.mark.parametrize("sparse", [0, 0.0, 1, True, None, "dense"])
    def test_pipeline_rejects_unknown_sparse_modes(self, sparse):
        from repro.cluster.pipeline import MrMCMinH

        with pytest.raises(errors.ClusterConfigError, match="sparse mode") as info:
            MrMCMinH(method="hierarchical", linkage="single", sparse=sparse)
        for mode in ("False", "'auto'", "'engine'"):
            assert mode in str(info.value)

    def test_pipeline_raises_wire_compatibility(self):
        from repro.cluster.pipeline import MrMCMinH

        with pytest.raises(errors.WireCompatibilityError, match="positional"):
            MrMCMinH(method="greedy", estimator="set", wire_bits=4)

    def test_catching_clustering_error_covers_the_sparse_family(self):
        from repro.cluster.sparse_jobs import run_sparse_jobs
        from repro.minhash.sketch import sketches_from_matrix

        with pytest.raises(errors.ClusteringError):
            run_sparse_jobs([], 0.5)
        sketches = sketches_from_matrix([[0] * 4, [0] * 4], ["a", "b"], (4, 7, 0))
        with pytest.raises(errors.ClusteringError):
            run_sparse_jobs(sketches, 1.5)


class TestSchedulerPipelineIntegration:
    def test_table3_workload_fifo_vs_fair(self):
        """Schedule several real pipeline runs as a shared-cluster
        workload: fair sharing must not change the makespan but must cut
        the short job's latency when queued behind long ones."""
        from repro.cluster.pipeline import MrMCMinH
        from repro.datasets import generate_whole_metagenome_sample
        from repro.mapreduce.scheduler import (
            job_from_trace,
            mean_latency,
            simulate_schedule,
        )
        from repro.mapreduce.types import JobTrace

        def pipeline_as_job(sid, num_reads, arrival):
            reads = generate_whole_metagenome_sample(
                sid, num_reads=num_reads, genome_length=4000, seed=0
            )
            run = MrMCMinH(kmer_size=5, num_hashes=48, threshold=0.78, seed=0).fit(reads)
            merged = JobTrace(job_name=sid)
            for t in run.traces:
                merged.map_tasks.extend(t.map_tasks)
                merged.reduce_tasks.extend(t.reduce_tasks)
            return job_from_trace(merged, arrival=arrival)

        jobs = [
            pipeline_as_job("S1", 120, arrival=0.0),
            pipeline_as_job("S13", 30, arrival=1.0),  # the short job
        ]
        capacity = 16.0  # 8 nodes x 2 map slots
        fifo = {o.name: o for o in simulate_schedule(jobs, capacity, policy="fifo")}
        fair = {o.name: o for o in simulate_schedule(jobs, capacity, policy="fair")}

        assert fair["S13"].latency <= fifo["S13"].latency + 1e-9
        # With parallelism caps the policies can pack capacity slightly
        # differently; fair must never be meaningfully worse overall.
        assert max(o.finish for o in fair.values()) <= (
            max(o.finish for o in fifo.values()) * 1.05
        )
        # mean_latency is reported, not asserted: fair sharing optimises
        # fairness, not mean latency (SRPT would).
        assert mean_latency(list(fair.values())) > 0
