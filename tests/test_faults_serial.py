"""Chaos tests for the serial runner: retries, backoff, timeouts,
speculation, exactly-once counters and checkpoint/resume."""

import pytest

from repro.errors import FaultError, JobKilledError, TaskFailedError
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import (
    Fault,
    FaultPlan,
    JobCheckpoint,
    RetryPolicy,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf

pytestmark = pytest.mark.chaos


def tokenize_mapper(key, value):
    for word in value.split():
        yield word, 1


def sum_reducer(key, values):
    yield key, sum(values)


WORDCOUNT = MapReduceJob(
    name="wc", mapper=tokenize_mapper, reducer=sum_reducer, combiner=sum_reducer
)

DOCS = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the quick dog jumps"),
    (3, "brown dog brown fox"),
]

CONF = JobConf(num_map_tasks=4, num_reduce_tasks=2)


def clean_result():
    return SerialRunner().run(WORDCOUNT, DOCS, CONF)


class TestRetries:
    def test_scheduled_crash_is_retried_and_output_identical(self):
        plan = FaultPlan(
            schedule={
                ("wc", "map", 1, 1): Fault(kind="crash", reason="boom"),
                ("wc", "reduce", 0, 1): Fault(kind="crash"),
            }
        )
        result = SerialRunner(
            fault_plan=plan, retry=RetryPolicy(max_attempts=3)
        ).run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_result().output
        assert result.counters.get("fault", "task_retries") == 2
        assert result.counters.get("fault", "attempts_failed") == 2
        trace = result.trace
        failed_map = trace.map_tasks[1]
        assert failed_map.attempts == 2
        assert failed_map.retries == 1
        assert "boom" in failed_map.failures[0]
        assert trace.total_attempts == 6 + 2  # 6 tasks, 2 of them retried once
        assert trace.total_retries == 2

    def test_corrupt_partition_detected_and_retried(self):
        plan = FaultPlan(schedule={("wc", "map", 0, 1): Fault(kind="corrupt")})
        result = SerialRunner(
            fault_plan=plan, retry=RetryPolicy(max_attempts=2)
        ).run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_result().output
        assert "checksum mismatch" in result.trace.map_tasks[0].failures[0]

    def test_exhausted_attempts_raise_task_failed(self):
        plan = FaultPlan(
            schedule={
                ("wc", "map", 2, a): Fault(kind="crash") for a in (1, 2, 3)
            }
        )
        with pytest.raises(TaskFailedError, match="failed after 3 attempt"):
            SerialRunner(fault_plan=plan, retry=RetryPolicy(max_attempts=3)).run(
                WORDCOUNT, DOCS, CONF
            )

    def test_user_exception_retried_when_attempts_allow(self):
        calls = []

        def flaky_mapper(key, value):
            calls.append(key)
            if calls.count(key) == 1:
                raise ValueError("transient")
            yield key, value

        job = MapReduceJob(name="flaky", mapper=flaky_mapper, reducer=sum_reducer)
        result = SerialRunner(retry=RetryPolicy(max_attempts=2)).run(
            job, [(1, 10), (2, 20)], JobConf(num_map_tasks=2)
        )
        assert dict(result.output) == {1: 10, 2: 20}
        assert result.counters.get("fault", "task_retries") == 2
        assert "ValueError: transient" in result.trace.map_tasks[0].failures[0]

    def test_user_exception_propagates_without_retry_budget(self):
        def bad_mapper(key, value):
            raise ValueError("no retries configured")
            yield  # pragma: no cover

        job = MapReduceJob(name="bad", mapper=bad_mapper, reducer=sum_reducer)
        with pytest.raises(ValueError, match="no retries configured"):
            SerialRunner().run(job, [(1, 1)])

    def test_backoff_sleeps_between_attempts(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.mapreduce.runner.time.sleep", sleeps.append)
        plan = FaultPlan(
            schedule={("wc", "map", 0, a): Fault(kind="crash") for a in (1, 2)}
        )
        SerialRunner(
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff=0.01, backoff_cap=1.0),
        ).run(WORDCOUNT, DOCS, CONF)
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_rate_based_chaos_converges_with_attempt_cap(self):
        plan = FaultPlan(
            seed=7, mapper_crash_rate=0.5, corrupt_rate=0.3, max_faulted_attempts=2
        )
        result = SerialRunner(
            fault_plan=plan, retry=RetryPolicy(max_attempts=3)
        ).run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_result().output


class TestHangsAndSpeculation:
    def test_short_hang_is_just_slow(self):
        plan = FaultPlan(
            schedule={("wc", "map", 0, 1): Fault(kind="hang", delay=0.001)}
        )
        result = SerialRunner(
            fault_plan=plan, retry=RetryPolicy(max_attempts=2, timeout=10.0)
        ).run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_result().output
        assert result.trace.map_tasks[0].attempts == 1

    def test_hang_past_deadline_abandoned_and_retried(self):
        plan = FaultPlan(
            schedule={("wc", "map", 3, 1): Fault(kind="hang", delay=5.0)}
        )
        result = SerialRunner(
            fault_plan=plan, retry=RetryPolicy(max_attempts=2, timeout=0.01)
        ).run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_result().output
        task = result.trace.map_tasks[3]
        assert task.attempts == 2
        assert "task_timeout" in task.failures[0]

    def test_straggler_triggers_speculative_win(self):
        # Task 3 hangs far past margin x median of the first three tasks'
        # durations; the backup attempt wins and is recorded as such.
        plan = FaultPlan(
            schedule={("wc", "map", 3, 1): Fault(kind="hang", delay=5.0)}
        )
        result = SerialRunner(
            fault_plan=plan, retry=RetryPolicy(max_attempts=2, speculative_margin=1.5)
        ).run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_result().output
        task = result.trace.map_tasks[3]
        assert task.speculative_win
        assert task.attempts == 2
        assert "straggler" in task.failures[0]
        assert result.counters.get("fault", "speculative_wins") == 1
        assert result.trace.speculative_wins == 1


class TestExactlyOnce:
    def test_failed_attempt_counters_discarded(self):
        # The mapper bumps a user counter on every attempt; only the
        # winning attempt's increments may land in the job counters.
        attempts_seen = []

        def counting_mapper(key, value, context):
            context.increment("user", "mapper_calls")
            attempts_seen.append(key)
            for word in value.split():
                yield word, 1

        job = MapReduceJob(name="cnt", mapper=counting_mapper, reducer=sum_reducer)
        plan = FaultPlan(
            schedule={("cnt", "map", 0, 1): Fault(kind="corrupt")}
        )
        result = SerialRunner(
            fault_plan=plan, retry=RetryPolicy(max_attempts=2)
        ).run(job, DOCS, CONF)
        # 4 splits; split 0 ran twice (5 mapper invocations observed)...
        assert len(attempts_seen) == 5
        # ...but the counter reflects exactly one call per split.
        assert result.counters.get("user", "mapper_calls") == 4


class _CountingMapper:
    """Records every (key) the mapper processes into a shared list."""

    def __init__(self, log):
        self.log = log

    def __call__(self, key, value):
        self.log.append(key)
        for word in value.split():
            yield word, 1


class TestCheckpointResume:
    def test_kill_and_resume_without_reexecution(self, tmp_path):
        ckpt = JobCheckpoint(tmp_path / "ck")
        log = []
        job = MapReduceJob(
            name="wc",
            mapper=_CountingMapper(log),
            reducer=sum_reducer,
            combiner=sum_reducer,
        )

        kill_plan = FaultPlan(kill_job_after_tasks=3)
        with pytest.raises(JobKilledError):
            SerialRunner(fault_plan=kill_plan, checkpoint=ckpt).run(job, DOCS, CONF)
        assert len(ckpt.task_ids()) == 3
        assert log == [0, 1, 2]  # three map tasks completed before the kill

        resumed = SerialRunner(checkpoint=ckpt).run(job, DOCS, CONF)
        # The resumed run re-executed only map task 3 — total mapper calls
        # across both runs equal one pass over the input.
        assert log == [0, 1, 2, 3]
        assert resumed.output == clean_result().output
        assert resumed.counters.get("fault", "tasks_recovered_from_checkpoint") == 3
        assert resumed.trace.recovered_tasks == 3
        assert [t.recovered for t in resumed.trace.map_tasks] == [
            True, True, True, False,
        ]
        # Counters are rebuilt from checkpointed per-task counters, so the
        # job-level totals match a clean run.
        clean = clean_result()
        assert (
            resumed.counters.get("job", "map_output_records")
            == clean.counters.get("job", "map_output_records")
        )

    def test_checkpoint_isolated_per_job_name(self, tmp_path):
        ckpt = JobCheckpoint(tmp_path)
        a = MapReduceJob(name="job-a", mapper=tokenize_mapper, reducer=sum_reducer)
        b = MapReduceJob(name="job-b", mapper=tokenize_mapper, reducer=sum_reducer)
        runner = SerialRunner(checkpoint=ckpt)
        ra = runner.run(a, DOCS, CONF)
        rb = runner.run(b, DOCS, CONF)
        assert ra.output == rb.output
        assert rb.counters.get("fault", "tasks_recovered_from_checkpoint") == 0
        assert len(ckpt.task_ids()) == 12  # 6 tasks per job, distinct ids

    def test_instance_level_defaults_apply(self, tmp_path):
        plan = FaultPlan(schedule={("wc", "map", 0, 1): Fault(kind="crash")})
        runner = SerialRunner(
            fault_plan=plan,
            checkpoint=JobCheckpoint(tmp_path),
            retry=RetryPolicy(max_attempts=2),
        )
        result = runner.run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_result().output
        assert result.trace.map_tasks[0].attempts == 2


class TestFaultErrorShape:
    def test_fault_error_carries_task_context(self):
        err = FaultError("boom", task_id="wc-m0001", attempt=2)
        assert "wc-m0001" in str(err)
        assert "attempt 2" in str(err)

    def test_simulator_accounts_for_measured_attempts(self):
        from repro.mapreduce.costmodel import M1_LARGE_COST_MODEL
        from repro.mapreduce.simulator import ClusterSimulator, ClusterSpec

        plan = FaultPlan(
            schedule={("wc", "map", 1, 1): Fault(kind="crash")}
        )
        faulted = SerialRunner(
            fault_plan=plan, retry=RetryPolicy(max_attempts=2)
        ).run(WORDCOUNT, DOCS, CONF)
        clean = clean_result()
        sim = ClusterSimulator(ClusterSpec(num_nodes=1), M1_LARGE_COST_MODEL)
        faulted_report = sim.simulate_job(faulted.trace)
        clean_report = sim.simulate_job(clean.trace)
        assert faulted_report.retried_tasks == 1
        assert clean_report.retried_tasks == 0
        # The retried attempt serialises: the modeled map phase of the
        # faulted run cannot be shorter than each task running once.
        assert faulted_report.map_phase_s > 0
