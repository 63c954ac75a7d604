"""Unit tests for the fault-injection layer: FaultPlan determinism,
schedules, datanode kills, retry policy and the checkpoint store."""

import pickle

import pytest

from repro.errors import FaultError, JobKilledError, MapReduceError
from repro.mapreduce.faults import (
    BARRIERS,
    DatanodeKill,
    Fault,
    FaultPlan,
    JobCheckpoint,
    RetryPolicy,
    records_checksum,
)
from repro.mapreduce.hdfs import SimulatedHDFS

pytestmark = pytest.mark.chaos


class TestFault:
    def test_kinds_validated(self):
        with pytest.raises(MapReduceError, match="unknown fault kind"):
            Fault(kind="explode")

    def test_negative_delay_rejected(self):
        with pytest.raises(MapReduceError, match="delay"):
            Fault(kind="hang", delay=-1.0)


class TestFaultPlanDeterminism:
    def test_same_seed_same_decisions(self):
        draws = [
            FaultPlan(seed=3, mapper_crash_rate=0.5).fault_for("j", "map", i, a)
            for i in range(50)
            for a in (1, 2)
        ]
        again = [
            FaultPlan(seed=3, mapper_crash_rate=0.5).fault_for("j", "map", i, a)
            for i in range(50)
            for a in (1, 2)
        ]
        assert draws == again
        assert any(f is not None for f in draws)  # rate 0.5 over 100 draws

    def test_different_seeds_differ(self):
        a = [FaultPlan(seed=0, mapper_crash_rate=0.5).fault_for("j", "map", i, 1) for i in range(64)]
        b = [FaultPlan(seed=1, mapper_crash_rate=0.5).fault_for("j", "map", i, 1) for i in range(64)]
        assert a != b

    def test_decisions_scoped_per_job_task_attempt(self):
        plan = FaultPlan(seed=0, mapper_crash_rate=0.5)
        draws = {
            (job, i, a): plan.fault_for(job, "map", i, a)
            for job in ("j1", "j2")
            for i in range(20)
            for a in (1, 2)
        }
        # Not all coordinates share the same decision.
        assert len({f is None for f in draws.values()}) == 2

    def test_zero_rates_inject_nothing(self):
        plan = FaultPlan(seed=0)
        assert all(
            plan.fault_for("j", kind, i, a) is None
            for kind in ("map", "reduce")
            for i in range(30)
            for a in (1, 2, 3)
        )

    def test_rate_one_always_injects(self):
        plan = FaultPlan(seed=0, mapper_crash_rate=1.0)
        assert all(
            plan.fault_for("j", "map", i, 1).kind == "crash" for i in range(10)
        )

    def test_reducer_rate_independent_of_mapper_rate(self):
        plan = FaultPlan(seed=0, mapper_crash_rate=1.0, reducer_crash_rate=0.0)
        assert plan.fault_for("j", "map", 0, 1) is not None
        assert plan.fault_for("j", "reduce", 0, 1) is None

    def test_max_faulted_attempts_caps_rate_faults(self):
        plan = FaultPlan(seed=0, mapper_crash_rate=1.0, max_faulted_attempts=2)
        assert plan.fault_for("j", "map", 0, 1) is not None
        assert plan.fault_for("j", "map", 0, 2) is not None
        assert plan.fault_for("j", "map", 0, 3) is None

    def test_schedule_overrides_and_escapes_cap(self):
        fault = Fault(kind="corrupt")
        plan = FaultPlan(
            seed=0,
            max_faulted_attempts=1,
            schedule={("j", "map", 2, 3): fault},
        )
        assert plan.fault_for("j", "map", 2, 3) is fault
        assert plan.fault_for("j", "map", 2, 1) is None

    def test_plan_is_picklable_and_decisions_survive(self):
        plan = FaultPlan(seed=5, mapper_crash_rate=0.4, hang_rate=0.2)
        clone = pickle.loads(pickle.dumps(plan))
        for i in range(40):
            assert plan.fault_for("j", "map", i, 1) == clone.fault_for("j", "map", i, 1)

    def test_invalid_rates_rejected(self):
        for kwargs in (
            {"mapper_crash_rate": 1.5},
            {"reducer_crash_rate": -0.1},
            {"hang_rate": 2.0},
            {"corrupt_rate": -1.0},
        ):
            with pytest.raises(MapReduceError, match="must be in"):
                FaultPlan(**kwargs)

    def test_bad_schedule_entry_rejected(self):
        with pytest.raises(MapReduceError, match="expected a Fault"):
            FaultPlan(schedule={("j", "map", 0, 1): "crash"})


class TestCorruptionDetection:
    def test_corruption_changes_checksum(self):
        records = [("a", 1), ("b", 2), ("c", 3)]
        crc = records_checksum(records)
        corrupted = FaultPlan.corrupt_records(records, "t-0000")
        assert records_checksum(corrupted) != crc

    def test_corruption_of_empty_partition_detected(self):
        crc = records_checksum([])
        corrupted = FaultPlan.corrupt_records([], "t-0000")
        assert records_checksum(corrupted) != crc

    def test_original_records_untouched(self):
        records = [("a", 1), ("b", 2)]
        FaultPlan.corrupt_records(records, "t")
        assert records == [("a", 1), ("b", 2)]

    def test_unpicklable_output_raises_fault(self):
        with pytest.raises(FaultError, match="not picklable"):
            records_checksum([("k", lambda: None)])


class TestDatanodeKills:
    def make_hdfs(self):
        fs = SimulatedHDFS(num_datanodes=4, block_size=16, replication=2, seed=0)
        fs.put("/data", bytes(range(64)))
        return fs

    def test_barrier_kill_and_rereplicate(self):
        fs = self.make_hdfs()
        plan = FaultPlan(datanode_kills=[DatanodeKill("map_end", 1)]).bind_hdfs(fs)
        assert plan.trigger_barrier("job_start") == 0
        assert plan.trigger_barrier("map_end") == 1
        assert not fs.datanode_alive(1)
        # auto_rereplicate restored the replication factor on live nodes.
        for block in fs.stat("/data").blocks:
            live = [n for n in block.replicas if n in fs.live_datanodes]
            assert len(live) >= fs.replication
        assert fs.get("/data") == bytes(range(64))

    def test_kills_fire_once(self):
        fs = self.make_hdfs()
        plan = FaultPlan(datanode_kills=[DatanodeKill("map_end", 0)]).bind_hdfs(fs)
        assert plan.trigger_barrier("map_end") == 1
        assert plan.trigger_barrier("map_end") == 0

    def test_unbound_plan_kills_are_noops(self):
        plan = FaultPlan(datanode_kills=[DatanodeKill("map_end", 0)])
        assert plan.trigger_barrier("map_end") == 0

    def test_no_rereplication_when_disabled(self):
        fs = self.make_hdfs()
        plan = FaultPlan(
            datanode_kills=[DatanodeKill("map_end", 2)], auto_rereplicate=False
        ).bind_hdfs(fs)
        plan.trigger_barrier("map_end")
        # Reads still succeed through surviving replicas (replication 2).
        assert fs.get("/data") == bytes(range(64))

    def test_invalid_barrier_rejected(self):
        with pytest.raises(MapReduceError, match="unknown barrier"):
            DatanodeKill("mid_shuffle", 0)
        with pytest.raises(MapReduceError, match="unknown barrier"):
            FaultPlan().trigger_barrier("mid_shuffle")

    def test_reset_rearms_kills_and_driver_death(self):
        fs = self.make_hdfs()
        plan = FaultPlan(
            datanode_kills=[DatanodeKill("map_end", 0)], kill_job_after_tasks=1
        ).bind_hdfs(fs)
        assert plan.trigger_barrier("map_end") == 1
        with pytest.raises(JobKilledError):
            plan.note_task_complete()
        fs.restart_datanode(0)
        plan.reset()
        assert plan.trigger_barrier("map_end") == 1
        with pytest.raises(JobKilledError):
            plan.note_task_complete()

    def test_barriers_constant_is_exhaustive(self):
        assert set(BARRIERS) == {"job_start", "map_end", "job_end"}


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(max_attempts=10, backoff=0.1, backoff_cap=0.35)
        assert policy.backoff_delay(1) == pytest.approx(0.1)
        assert policy.backoff_delay(2) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.35)  # capped
        assert policy.backoff_delay(8) == pytest.approx(0.35)

    def test_zero_backoff(self):
        assert RetryPolicy(max_attempts=3).backoff_delay(2) == 0.0

    def test_validation(self):
        with pytest.raises(MapReduceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(MapReduceError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(MapReduceError):
            RetryPolicy(speculative_margin=-1.0)
        with pytest.raises(MapReduceError):
            RetryPolicy(backoff=-0.1)


class TestJobCheckpoint:
    def test_round_trip(self, tmp_path):
        ckpt = JobCheckpoint(tmp_path / "ck")
        assert not ckpt.has("j-m0000")
        ckpt.save("j-m0000", {"output": [("a", 1)]})
        assert ckpt.has("j-m0000")
        assert ckpt.load("j-m0000") == {"output": [("a", 1)]}
        assert ckpt.task_ids() == ["j-m0000"]

    def test_save_overwrites_atomically(self, tmp_path):
        ckpt = JobCheckpoint(tmp_path)
        ckpt.save("t", 1)
        ckpt.save("t", 2)
        assert ckpt.load("t") == 2
        assert ckpt.task_ids() == ["t"]

    def test_clear(self, tmp_path):
        ckpt = JobCheckpoint(tmp_path)
        ckpt.save("a", 1)
        ckpt.save("b", 2)
        ckpt.clear()
        assert ckpt.task_ids() == []

    def test_kill_job_after_tasks_validation(self):
        with pytest.raises(MapReduceError, match=">= 1"):
            FaultPlan(kill_job_after_tasks=0)
