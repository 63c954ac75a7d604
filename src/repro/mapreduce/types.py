"""Core types shared by the Map-Reduce engine components."""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field

from repro.errors import MapReduceError


def stable_hash(key: object) -> int:
    """Process-stable non-negative hash of an arbitrary picklable key.

    Python's built-in ``hash`` for strings is randomised per process, which
    would make partition assignment nondeterministic across runs and across
    the workers of the multiprocess runner.  We hash the pickled bytes with
    CRC32 instead — stable, fast, and good enough for load balancing.
    """
    try:
        payload = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable keys cannot cross the shuffle
        raise MapReduceError(f"key {key!r} is not picklable: {exc}") from exc
    return zlib.crc32(payload) & 0x7FFFFFFF


@dataclass(frozen=True)
class JobConf:
    """The shape of one Map-Reduce job.

    Execution policy (fault plan, checkpoint, retry policy) is not part of
    a job's shape: it is set once, when the runner is built.

    Attributes
    ----------
    num_map_tasks:
        How many map tasks to split the input into (Hadoop derives this
        from HDFS block count; callers reading from
        :class:`~repro.mapreduce.hdfs.SimulatedHDFS` typically pass the
        file's block count).
    num_reduce_tasks:
        Number of reduce partitions.
    use_combiner:
        Run the job's combiner (when defined) on each map task's output
        before the shuffle.
    spill_threshold_bytes:
        Engage the external spill-to-disk shuffle
        (:class:`~repro.mapreduce.shuffle.SpillingShuffle`): per-partition
        map-output buffers exceeding this estimated byte size are sorted
        and spilled to CRC-guarded temp segment files, and reducers
        merge-iterate the sorted runs lazily (``0`` spills every
        non-empty buffer).  ``None`` (the default) keeps the in-memory
        shuffle; output is byte-identical either way.
    """

    num_map_tasks: int = 1
    num_reduce_tasks: int = 1
    use_combiner: bool = True
    spill_threshold_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.num_map_tasks < 1:
            raise MapReduceError(
                f"num_map_tasks must be >= 1, got {self.num_map_tasks}"
            )
        if self.num_reduce_tasks < 1:
            raise MapReduceError(
                f"num_reduce_tasks must be >= 1, got {self.num_reduce_tasks}"
            )
        if self.spill_threshold_bytes is not None and self.spill_threshold_bytes < 0:
            raise MapReduceError(
                "spill_threshold_bytes must be >= 0 or None, got "
                f"{self.spill_threshold_bytes}"
            )


@dataclass
class TaskTrace:
    """Record/byte accounting for one map or reduce task.

    These traces drive the discrete-event simulator: the *work* a task did
    is real (measured from actual execution); only the wall-clock a given
    cluster would need is modeled.
    """

    task_id: str
    kind: str  # "map" | "reduce"
    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    cpu_seconds: float = 0.0
    # ---- attempt history (fault-tolerant execution) ----------------------
    attempts: int = 1  # attempts launched, including the winner
    failures: list[str] = field(default_factory=list)  # one reason per failed attempt
    speculative_win: bool = False  # a speculative backup attempt won
    recovered: bool = False  # output restored from a JobCheckpoint

    @property
    def retries(self) -> int:
        """Failed attempts that were re-executed."""
        return len(self.failures)


@dataclass
class JobTrace:
    """All task traces plus shuffle volume for one executed job."""

    job_name: str
    map_tasks: list[TaskTrace] = field(default_factory=list)
    reduce_tasks: list[TaskTrace] = field(default_factory=list)
    shuffle_bytes: int = 0

    @property
    def total_map_records(self) -> int:
        return sum(t.records_in for t in self.map_tasks)

    @property
    def total_reduce_records(self) -> int:
        return sum(t.records_in for t in self.reduce_tasks)

    @property
    def all_tasks(self) -> list[TaskTrace]:
        return self.map_tasks + self.reduce_tasks

    @property
    def total_attempts(self) -> int:
        """Attempts launched across all tasks (>= task count)."""
        return sum(t.attempts for t in self.all_tasks)

    @property
    def total_retries(self) -> int:
        """Failed attempts recorded across all tasks."""
        return sum(t.retries for t in self.all_tasks)

    @property
    def speculative_wins(self) -> int:
        """Tasks whose speculative backup attempt finished first."""
        return sum(1 for t in self.all_tasks if t.speculative_win)

    @property
    def recovered_tasks(self) -> int:
        """Tasks restored from a checkpoint instead of re-executed."""
        return sum(1 for t in self.all_tasks if t.recovered)
