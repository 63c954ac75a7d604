"""Chaos tests for the multiprocess runner: retries on the pool, real
worker crashes, timeout abandonment, racing speculation, single-core
degradation and unpicklable-job rejection."""

import dataclasses
import os

import pytest

from repro.errors import MapReduceError, TaskFailedError
from repro.mapreduce.faults import Fault, FaultPlan, JobCheckpoint, RetryPolicy
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.local import MultiprocessRunner
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


def clean_output():
    return SerialRunner().run(WORDCOUNT, DOCS, CONF).output


class _ExitOnceMapper:
    """Kills its worker process (hard ``os._exit``) the first time a given
    task runs; subsequent attempts, seeing the flag file, run normally."""

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def __call__(self, key, value):
        if key == 0 and not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as fh:
                fh.write("died")
            os._exit(1)
        for word in value.split():
            yield word, 1


class TestPoolRetries:
    def test_scheduled_crash_retried_output_identical(self):
        plan = FaultPlan(
            schedule={
                ("wc", "map", 1, 1): Fault(kind="crash"),
                ("wc", "reduce", 1, 1): Fault(kind="crash"),
            }
        )
        runner = MultiprocessRunner(
            num_workers=2, trace=True, fault_plan=plan,
            retry=RetryPolicy(max_attempts=3),
        )
        result = runner.run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_output()
        assert result.counters.get("fault", "task_retries") == 2
        assert result.trace.map_tasks[1].attempts == 2
        assert result.trace.reduce_tasks[1].attempts == 2

    def test_corruption_detected_across_process_boundary(self):
        plan = FaultPlan(schedule={("wc", "map", 2, 1): Fault(kind="corrupt")})
        runner = MultiprocessRunner(
            num_workers=2, trace=True, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2),
        )
        result = runner.run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_output()
        assert "checksum mismatch" in result.trace.map_tasks[2].failures[0]

    def test_exhausted_attempts_raise(self):
        plan = FaultPlan(
            schedule={("wc", "map", 0, a): Fault(kind="crash") for a in (1, 2)}
        )
        with pytest.raises(TaskFailedError, match="failed after 2 attempt"):
            MultiprocessRunner(
                num_workers=2, fault_plan=plan, retry=RetryPolicy(max_attempts=2)
            ).run(WORDCOUNT, DOCS, CONF)

    def test_worker_process_crash_reclaimed_by_timeout(self, tmp_path):
        # The first attempt of map task 0 hard-kills its worker process;
        # the driver abandons the attempt at task_timeout and the retry
        # (on a respawned worker) completes the job.
        job = MapReduceJob(
            name="crashy",
            mapper=_ExitOnceMapper(tmp_path / "died.flag"),
            reducer=sum_reducer,
        )
        runner = MultiprocessRunner(
            num_workers=2, trace=True, retry=RetryPolicy(max_attempts=3, timeout=0.5)
        )
        result = runner.run(job, DOCS, CONF)
        assert dict(result.output) == dict(clean_output())
        assert (tmp_path / "died.flag").exists()
        task = result.trace.map_tasks[0]
        assert task.attempts >= 2
        assert any("task_timeout" in f for f in task.failures)


class TestTimeoutsAndSpeculation:
    def test_hang_abandoned_at_timeout(self):
        plan = FaultPlan(
            schedule={("wc", "map", 3, 1): Fault(kind="hang", delay=5.0)}
        )
        runner = MultiprocessRunner(
            num_workers=2, trace=True, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, timeout=0.1),
        )
        result = runner.run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_output()
        task = result.trace.map_tasks[3]
        assert task.attempts == 2
        assert "task_timeout" in task.failures[0]

    def test_racing_speculative_attempt_wins(self):
        # Task 3 hangs for 1s; a concurrent backup attempt launches once
        # its runtime exceeds margin x median and finishes first.  The
        # hung original's late result is discarded exactly-once.
        plan = FaultPlan(
            schedule={("wc", "map", 3, 1): Fault(kind="hang", delay=1.0)}
        )
        runner = MultiprocessRunner(
            num_workers=2, trace=True, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, speculative_margin=3.0),
        )
        result = runner.run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_output()
        task = result.trace.map_tasks[3]
        assert task.speculative_win
        assert task.attempts == 2
        # Tiny median durations make other in-flight tasks speculation
        # candidates too, so the attempt count is a lower bound.
        assert result.counters.get("fault", "speculative_attempts") >= 1
        assert result.counters.get("fault", "speculative_wins") >= 1


class TestDegradationAndRejection:
    def test_unpicklable_job_rejected_up_front(self):
        job = MapReduceJob(
            name="lambda-job", mapper=lambda k, v: [(k, v)], reducer=sum_reducer
        )
        with pytest.raises(MapReduceError, match="not picklable"):
            MultiprocessRunner(num_workers=2).run(job, DOCS, CONF)

    def test_unpicklable_job_runs_inline_on_single_worker(self):
        job = MapReduceJob(
            name="lambda-job",
            mapper=lambda k, v: [(w, 1) for w in v.split()],
            reducer=sum_reducer,
        )
        result = MultiprocessRunner(num_workers=1).run(job, DOCS, CONF)
        assert dict(result.output) == dict(clean_output())

    def test_single_worker_inline_faults(self):
        plan = FaultPlan(
            schedule={
                ("wc", "map", 0, 1): Fault(kind="crash"),
                ("wc", "map", 2, 1): Fault(kind="corrupt"),
                ("wc", "reduce", 0, 1): Fault(kind="hang", delay=5.0),
            }
        )
        runner = MultiprocessRunner(
            num_workers=1, trace=True, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, timeout=0.05),
        )
        result = runner.run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_output()
        assert result.trace.map_tasks[0].attempts == 2
        assert result.trace.map_tasks[2].attempts == 2
        assert result.trace.reduce_tasks[0].attempts == 2
        assert result.counters.get("fault", "task_retries") == 3

    def test_checkpoint_recovery_on_pool(self, tmp_path):
        ckpt = JobCheckpoint(tmp_path)
        runner = MultiprocessRunner(num_workers=2, trace=True, checkpoint=ckpt)
        first = runner.run(WORDCOUNT, DOCS, CONF)
        assert len(ckpt.task_ids()) == 6
        second = runner.run(WORDCOUNT, DOCS, CONF)
        assert second.output == first.output
        assert second.counters.get("fault", "tasks_recovered_from_checkpoint") == 6
        assert all(t.recovered for t in second.trace.map_tasks)

    def test_single_worker_crash_retry_is_not_speculative(self):
        # Speculation is armed, but a crash retry is a plain retry: only a
        # straggling hang launches a backup that can win.
        plan = FaultPlan(schedule={("wc", "map", 0, 1): Fault(kind="crash")})
        result = MultiprocessRunner(
            num_workers=1, trace=True, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, speculative_margin=1.5),
        ).run(WORDCOUNT, DOCS, CONF)
        assert result.output == clean_output()
        assert result.trace.map_tasks[0].attempts == 2
        assert not result.trace.map_tasks[0].speculative_win
        assert result.counters.get("fault", "speculative_wins") == 0

    def test_pool_accounting_matches_serial_under_slow_node(self):
        plan = FaultPlan(
            schedule={
                ("wc", "map", 1, 1): Fault(kind="slow_node", delay=0.01),
                ("wc", "reduce", 0, 1): Fault(kind="slow_node", delay=0.01),
            }
        )
        serial = SerialRunner(fault_plan=plan).run(WORDCOUNT, DOCS, CONF)
        pooled = MultiprocessRunner(num_workers=2, trace=True, fault_plan=plan).run(
            WORDCOUNT, DOCS, CONF
        )
        assert pooled.output == serial.output
        assert pooled.counters.as_dict() == serial.counters.as_dict()
        assert pooled.counters.get("fault", "slow_node_delays") == 2
        assert pooled.counters.get("job", "reduce_input_records") > 0

        def fields(trace):
            rows = [dataclasses.asdict(t) for t in trace.all_tasks]
            for row in rows:
                del row["cpu_seconds"]  # measured, never identical
            return rows

        assert fields(pooled.trace) == fields(serial.trace)
        # bytes_in is the cost model's HDFS-read input.
        assert all(t.bytes_in > 0 for t in pooled.trace.map_tasks)

    def test_serial_and_multiprocess_agree_under_faults(self):
        plan = FaultPlan(seed=11, mapper_crash_rate=0.4, max_faulted_attempts=2)
        policy = RetryPolicy(max_attempts=3)
        serial = SerialRunner(fault_plan=plan, retry=policy).run(
            WORDCOUNT, DOCS, CONF
        )
        parallel = MultiprocessRunner(num_workers=2, fault_plan=plan, retry=policy).run(
            WORDCOUNT, DOCS, CONF
        )
        assert serial.output == parallel.output == clean_output()
