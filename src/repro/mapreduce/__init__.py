"""A from-scratch Map-Reduce engine modelling the Hadoop substrate.

The paper runs on Hadoop via Pig; this package provides the equivalent
execution substrate in pure Python:

* :mod:`repro.mapreduce.job` — job definitions (mapper/combiner/reducer)
  over ``(key, value)`` records, partitioned by ``stable_hash(key) % R``;
* :mod:`repro.mapreduce.runner` — the one job driver, which also records
  a :class:`~repro.mapreduce.types.JobTrace` (task-level record and byte
  counts) for the cluster simulator, and the deterministic serial runner
  that runs its tasks inline;
* :mod:`repro.mapreduce.local` — the multi-process runner: the same
  driver with its tasks raced on a process pool;
* :mod:`repro.mapreduce.hdfs` — a block-based simulated HDFS with
  replication and locality metadata;
* :mod:`repro.mapreduce.simulator` / :mod:`~repro.mapreduce.costmodel` —
  the discrete-event cluster model used to regenerate Figure 2.
"""

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FaultError,
    JobCancelledError,
    JobKilledError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
    TaskFailedError,
)
from repro.mapreduce.types import JobConf, JobTrace, TaskTrace, stable_hash
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob, identity_mapper, identity_reducer
from repro.mapreduce.cancel import CancelScope, check_cancelled, current_scope
from repro.mapreduce.faults import (
    BlockBitRot,
    DatanodeDegrade,
    DatanodeKill,
    Fault,
    FaultPlan,
    JobCheckpoint,
    RetryPolicy,
)
from repro.mapreduce.runner import JobResult, SerialRunner
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.hdfs import BlockInfo, FileMeta, SimulatedHDFS
from repro.mapreduce.costmodel import HadoopCostModel, M1_LARGE_COST_MODEL
from repro.mapreduce.simulator import ClusterSpec, ClusterSimulator, SimReport
from repro.mapreduce.inputformat import FastaInputFormat, TextInputFormat
from repro.mapreduce.scheduler import (
    WorkloadJob,
    ScheduledJob,
    job_from_trace,
    simulate_schedule,
    mean_latency,
)
from repro.mapreduce.service import (
    CircuitBreaker,
    ClusterJobSpec,
    JobService,
    JobTicket,
    MapReduceSpec,
    failing_spec,
    fluid_prediction,
    sleep_spec,
)

__all__ = [
    "JobConf",
    "JobTrace",
    "TaskTrace",
    "stable_hash",
    "Counters",
    "Fault",
    "FaultPlan",
    "FaultError",
    "DatanodeKill",
    "DatanodeDegrade",
    "BlockBitRot",
    "RetryPolicy",
    "JobCheckpoint",
    "TaskFailedError",
    "JobKilledError",
    "CancelScope",
    "check_cancelled",
    "current_scope",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "JobCancelledError",
    "JobService",
    "JobTicket",
    "CircuitBreaker",
    "MapReduceSpec",
    "ClusterJobSpec",
    "sleep_spec",
    "failing_spec",
    "fluid_prediction",
    "MapReduceJob",
    "identity_mapper",
    "identity_reducer",
    "JobResult",
    "SerialRunner",
    "MultiprocessRunner",
    "BlockInfo",
    "FileMeta",
    "SimulatedHDFS",
    "HadoopCostModel",
    "M1_LARGE_COST_MODEL",
    "ClusterSpec",
    "ClusterSimulator",
    "SimReport",
    "FastaInputFormat",
    "TextInputFormat",
    "WorkloadJob",
    "ScheduledJob",
    "job_from_trace",
    "simulate_schedule",
    "mean_latency",
]
