"""End-to-end chaos acceptance: the greedy MrMC-MinH pipeline, run over
simulated HDFS with seeded mapper crashes and a datanode killed mid-job,
must write byte-identical cluster assignments to a fault-free run.

The seed comes from ``CHAOS_SEED`` (default 0) so CI can sweep a matrix
of seeds over the same test."""

import os

import pytest

from repro.cluster.pipeline import MrMCMinH
from repro.mapreduce.faults import DatanodeKill, FaultPlan, RetryPolicy
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import SerialRunner

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def make_hdfs():
    # Small blocks: the staged FASTA spans ~7 blocks, one map task each.
    return SimulatedHDFS(num_datanodes=4, block_size=256, replication=2, seed=0)


def run_pipeline(
    records, runner=None, hdfs=None, sparse=False, spill=None, estimator=None
):
    fs = hdfs or make_hdfs()
    model = MrMCMinH(
        kmer_size=5,
        num_hashes=48,
        threshold=0.78,
        method="greedy",
        estimator=estimator,
        seed=0,
        runner=runner or SerialRunner(),
        sparse=sparse,
        spill_threshold_bytes=spill,
    )
    MrMCMinH.stage_records(fs, "/in.fasta", records)
    run = model.fit_hdfs(fs, "/in.fasta", "/out.tsv")
    return run, fs.get_text("/out.tsv")


class TestEndToEndChaos:
    def test_chaos_run_byte_identical_to_clean_run(self, two_family_records):
        _clean_run, clean_tsv = run_pipeline(two_family_records)

        chaos_fs = make_hdfs()
        plan = FaultPlan(
            seed=CHAOS_SEED,
            mapper_crash_rate=0.2,
            max_faulted_attempts=2,
            datanode_kills=[DatanodeKill("map_end", 2)],
        ).bind_hdfs(chaos_fs)
        runner = SerialRunner(fault_plan=plan, retry=RetryPolicy(max_attempts=3))
        chaos_run, chaos_tsv = run_pipeline(
            two_family_records, runner=runner, hdfs=chaos_fs
        )

        # The one acceptance bit: chaos never changes the answer.
        assert chaos_tsv == clean_tsv
        assert chaos_tsv.count("\n") == len(two_family_records)

        # The faults really happened and were really recovered.
        assert chaos_run.counters.get("fault", "datanodes_killed") == 1
        assert chaos_run.counters.get("fault", "replicas_recreated") > 0
        assert not chaos_fs.datanode_alive(2)
        retries = sum(t.total_retries for t in chaos_run.traces)
        attempts = sum(t.total_attempts for t in chaos_run.traces)
        assert retries > 0, "chaos plan injected no faults for this seed"
        assert attempts > sum(len(t.all_tasks) for t in chaos_run.traces)
        assert chaos_run.counters.get("fault", "task_retries") == retries

    def test_chaos_run_is_reproducible(self, two_family_records):
        def chaos_tsv_and_retries():
            fs = make_hdfs()
            plan = FaultPlan(
                seed=CHAOS_SEED, mapper_crash_rate=0.2, max_faulted_attempts=2
            ).bind_hdfs(fs)
            runner = SerialRunner(
                fault_plan=plan, retry=RetryPolicy(max_attempts=3)
            )
            run, tsv = run_pipeline(two_family_records, runner=runner, hdfs=fs)
            return tsv, run.counters.get("fault", "task_retries")

        first, second = chaos_tsv_and_retries(), chaos_tsv_and_retries()
        assert first == second

    def test_crash_then_retry_traced_as_sibling_attempt_spans(
        self, two_family_records
    ):
        from repro.mapreduce.faults import Fault
        from repro.obs import Tracer, build_report

        # Deterministic crash of the sketch job's first map attempt; the
        # retry must succeed, and the telemetry must show the whole story.
        plan = FaultPlan(schedule={("sketch", "map", 0, 1): Fault(kind="crash")})
        runner = SerialRunner(fault_plan=plan, retry=RetryPolicy(max_attempts=2))
        tracer = Tracer()
        with tracer.activate():
            run, _tsv = run_pipeline(two_family_records, runner=runner)

        (task,) = [
            s
            for s in tracer.spans
            if s.kind == "task" and s.name == "task:sketch-m0000"
        ]
        attempts = sorted(
            (
                s
                for s in tracer.spans
                if s.kind == "attempt" and s.parent_id == task.span_id
            ),
            key=lambda s: s.attrs["attempt"],
        )
        assert len(attempts) == 2, "failed attempt and retry must be siblings"
        failed, retried = attempts
        assert failed.status == "error"
        assert failed.attrs["fault"] == "crash"
        assert retried.status == "ok"
        assert "fault" not in retried.attrs

        assert tracer.metrics.value("mr.fault.task_retries") >= 1
        assert run.counters.get("fault", "task_retries") >= 1
        report = build_report(tracer.spans, tracer.metrics.snapshot())
        assert report.failed_attempts >= 1
        assert report.retries >= 1
        assert "1 failed attempt(s)" in report.render().splitlines()[-2]

    def test_sparse_jobs_chain_survives_chaos_byte_identical(
        self, two_family_records
    ):
        from repro.mapreduce.faults import BlockBitRot

        # Clean reference: the engine-sparse chain without faults, which
        # itself must match the dense positional greedy run byte for byte.
        _clean_run, clean_tsv = run_pipeline(two_family_records, sparse="engine")
        _dense_run, dense_tsv = run_pipeline(
            two_family_records, estimator="positional"
        )
        assert clean_tsv == dense_tsv

        # Chaos: mapper crashes + corrupted shuffle partitions across all
        # three jobs of the engine-sparse pipeline, plus silent bit-rot in
        # a stored input replica (caught by the per-block CRC scanner).
        chaos_fs = make_hdfs()
        plan = FaultPlan(
            seed=CHAOS_SEED,
            mapper_crash_rate=0.15,
            corrupt_rate=0.15,
            max_faulted_attempts=2,
            block_bitrot=[BlockBitRot("map_end", 1)],
        ).bind_hdfs(chaos_fs)
        runner = SerialRunner(fault_plan=plan, retry=RetryPolicy(max_attempts=4))
        chaos_run, chaos_tsv = run_pipeline(
            two_family_records, runner=runner, hdfs=chaos_fs, sparse="engine"
        )

        assert chaos_tsv == clean_tsv
        assert chaos_run.mode == "engine"
        assert chaos_run.sparse_stats["rounds"] == 2
        retries = sum(t.total_retries for t in chaos_run.traces)
        assert retries > 0, "chaos plan injected no faults for this seed"
        assert chaos_run.counters.get("fault", "task_retries") == retries

    def test_spilled_sparse_chain_survives_chaos_byte_identical(
        self, two_family_records
    ):
        """The external-shuffle chain under full chaos: spilling forced on
        (threshold 0 spills every buffer), mapper crashes, corrupted
        shuffle partitions AND spill-segment bit-rot — the final TSV must
        still match the fault-free in-memory run byte for byte."""
        _clean_run, clean_tsv = run_pipeline(two_family_records, sparse="engine")

        chaos_fs = make_hdfs()
        plan = FaultPlan(
            seed=CHAOS_SEED,
            mapper_crash_rate=0.15,
            corrupt_rate=0.15,
            spill_corrupt_rate=0.3,
            max_faulted_attempts=2,
        ).bind_hdfs(chaos_fs)
        runner = SerialRunner(fault_plan=plan, retry=RetryPolicy(max_attempts=4))
        chaos_run, chaos_tsv = run_pipeline(
            two_family_records, runner=runner, hdfs=chaos_fs,
            sparse="engine", spill=0,
        )

        assert chaos_tsv == clean_tsv
        assert chaos_run.mode == "engine"
        assert chaos_run.sparse_stats["spill_segments"] > 0
        # The bit-rot really struck spill files and was really repaired.
        corrupted = chaos_run.counters.get("fault", "spill_segments_corrupted")
        assert corrupted > 0, "chaos plan rotted no spill segments for this seed"
        assert chaos_run.counters.get("shuffle", "spill_respills") == corrupted

    def test_chaos_on_multiprocess_runner(self, two_family_records):
        from repro.mapreduce.local import MultiprocessRunner

        _clean_run, clean_tsv = run_pipeline(two_family_records)
        plan = FaultPlan(
            seed=CHAOS_SEED, mapper_crash_rate=0.2, max_faulted_attempts=2
        )
        runner = MultiprocessRunner(
            num_workers=2, fault_plan=plan, retry=RetryPolicy(max_attempts=3)
        )
        _chaos_run, chaos_tsv = run_pipeline(two_family_records, runner=runner)
        assert chaos_tsv == clean_tsv
