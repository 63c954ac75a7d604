"""Deterministic fault injection and recovery for the Map-Reduce engine.

The paper's Hadoop substrate owes its practicality to fault tolerance:
task re-execution and speculative attempts are what make Map-Reduce viable
on commodity clusters.  This module supplies both halves for our real
execution backends:

* **Injection** — a :class:`FaultPlan` decides, deterministically from a
  seed (or an explicit schedule), whether a given task attempt crashes,
  hangs past its deadline, or returns a corrupted shuffle partition, and
  whether HDFS datanodes die at job barriers.  The same plan always
  injects the same faults, so chaos tests are reproducible bit-for-bit.
* **Recovery** — a :class:`RetryPolicy`, set when the runner is built,
  drives per-task retry with exponential backoff, timeout-based attempt
  abandonment and speculative backup attempts; :class:`JobCheckpoint`
  persists completed task outputs so a killed job resumes from the last
  barrier instead of starting over.

Corruption is *detected*, not assumed: every attempt ships a CRC32 of its
output computed at production time, and the runner verifies it on receipt
(the in-memory analogue of Hadoop's IFile checksums).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import FaultError, JobKilledError, MapReduceError

FAULT_KINDS = ("crash", "hang", "corrupt", "slow_node")
BARRIERS = ("job_start", "map_end", "job_end")


@dataclass(frozen=True)
class Fault:
    """One injected fault: what happens to a single task attempt.

    ``slow_node`` models a degraded machine rather than a failure: the
    attempt is delayed by ``delay`` seconds but always completes and is
    never abandoned or speculated against — pure added latency, the kind
    of fault deadlines and admission control exist to absorb.
    """

    kind: str  # "crash" | "hang" | "corrupt" | "slow_node"
    delay: float = 0.0  # added seconds (kind == "hang" or "slow_node")
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise MapReduceError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.delay < 0:
            raise MapReduceError(f"fault delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class DatanodeKill:
    """Kill one HDFS datanode when the job reaches ``barrier``."""

    barrier: str  # "job_start" | "map_end" | "job_end"
    node_id: int

    def __post_init__(self) -> None:
        if self.barrier not in BARRIERS:
            raise MapReduceError(
                f"unknown barrier {self.barrier!r}; expected one of {BARRIERS}"
            )


@dataclass(frozen=True)
class DatanodeDegrade:
    """Degrade one HDFS datanode at ``barrier``: it stays alive but reads
    prefer healthy replicas (the slow-disk / overloaded-node case)."""

    barrier: str
    node_id: int

    def __post_init__(self) -> None:
        if self.barrier not in BARRIERS:
            raise MapReduceError(
                f"unknown barrier {self.barrier!r}; expected one of {BARRIERS}"
            )


@dataclass(frozen=True)
class BlockBitRot:
    """Silently corrupt one stored replica at ``barrier``.

    ``block_index`` selects the ``index``-th block id (sorted) held by
    ``node_id``; the replica's bytes are flipped in place, so only the
    per-block CRC32 check in :class:`~repro.mapreduce.hdfs.SimulatedHDFS`
    can tell — the bit-rot analogue of HDFS's block scanner workload.
    """

    barrier: str
    node_id: int
    block_index: int = 0

    def __post_init__(self) -> None:
        if self.barrier not in BARRIERS:
            raise MapReduceError(
                f"unknown barrier {self.barrier!r}; expected one of {BARRIERS}"
            )
        if self.block_index < 0:
            raise MapReduceError(
                f"block_index must be >= 0, got {self.block_index}"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery knobs, set once as a runner's ``retry`` (the default, one
    attempt, retries nothing).

    ``speculative_margin`` is the Hadoop-style multiplier: a running task
    becomes a speculation candidate once its runtime exceeds
    ``margin x median(completed task durations)``.  ``0`` disables
    speculation.  Backoff between attempts is exponential:
    ``backoff * 2**(attempt-1)`` seconds, capped at ``backoff_cap``.

    ``jitter`` in ``(0, 1]`` spreads that delay over
    ``[(1-jitter)*d, d)`` using a seeded uniform draw (full jitter at
    ``jitter=1``), so a fleet of jobs failing together does not retry in
    lockstep and re-create the overload that failed them.  The draw is a
    pure function of ``(seed, attempt)`` — same seed, same delays — and
    the default ``jitter=0.0`` keeps the historical deterministic
    schedule byte-identical.
    """

    max_attempts: int = 1
    timeout: float | None = None
    speculative_margin: float = 0.0
    backoff: float = 0.0
    backoff_cap: float = 1.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise MapReduceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise MapReduceError(f"timeout must be positive, got {self.timeout}")
        if self.speculative_margin < 0:
            raise MapReduceError(
                f"speculative_margin must be >= 0, got {self.speculative_margin}"
            )
        if self.backoff < 0:
            raise MapReduceError(f"backoff must be >= 0, got {self.backoff}")
        if not 0.0 <= self.jitter <= 1.0:
            raise MapReduceError(f"jitter must be in [0,1], got {self.jitter}")

    def backoff_delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based failed attempt)."""
        if self.backoff <= 0:
            return 0.0
        delay = min(self.backoff_cap, self.backoff * (2.0 ** (attempt - 1)))
        if self.jitter <= 0:
            return delay
        token = f"{self.seed}|backoff-jitter|{attempt}".encode()
        draw = int.from_bytes(hashlib.sha256(token).digest()[:8], "big") / 2**64
        return delay * (1.0 - self.jitter) + delay * self.jitter * draw


def records_checksum(records: Sequence[tuple]) -> int:
    """CRC32 of the pickled records — the shuffle's integrity check."""
    try:
        payload = pickle.dumps(list(records), protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise FaultError(f"task output is not picklable: {exc}") from exc
    return zlib.crc32(payload)


class _CorruptRecord:
    """Sentinel standing in for bytes mangled in transit (never a valid
    ``(key, value)`` pair, so it also trips record validation)."""

    __slots__ = ("origin",)

    def __init__(self, origin: str):
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<corrupt record from {self.origin}>"


class FaultPlan:
    """Seeded, deterministic fault schedule for a whole pipeline.

    Decisions are pure functions of ``(seed, job, kind, index, attempt)``:
    a SHA-256-based hash is mapped to a uniform draw in ``[0, 1)`` and
    compared against the configured rates, so the same plan replayed
    against the same pipeline injects exactly the same faults — including
    across the worker processes of the multiprocess runner (the plan is
    picklable).  An explicit ``schedule`` mapping
    ``(job, kind, index, attempt) -> Fault`` overrides the rate draws.

    Parameters
    ----------
    seed:
        Determinism seed for the rate draws.
    mapper_crash_rate, reducer_crash_rate:
        Probability that a map / reduce task attempt raises.
    hang_rate:
        Probability that an attempt stalls for ``hang_delay`` seconds.
    corrupt_rate:
        Probability that an attempt's output partition is corrupted in
        transit (detected by checksum, triggering a retry).
    slow_node_rate:
        Probability that an attempt lands on a degraded node and is
        delayed by ``slow_node_delay`` seconds.  Unlike a hang, a slow
        attempt always completes — it eats latency budget, not attempts.
    spill_corrupt_rate:
        Probability that one spill segment write of the external shuffle
        suffers bit-rot on disk (a payload byte flipped after the clean
        CRC32 is computed).  The shuffle's verification pass detects the
        mismatch and re-spills the segment from the retained map output —
        the spill-file analogue of the corrupted-partition retry.
    max_faulted_attempts:
        When set, rate-based faults are only injected on attempts
        ``<= max_faulted_attempts`` — guarantees convergence within a known
        attempt budget (explicit ``schedule`` entries are not capped).
    datanode_kills:
        :class:`DatanodeKill` events fired at job barriers once
        :meth:`bind_hdfs` has attached a cluster.
    datanode_degrades:
        :class:`DatanodeDegrade` events: the node survives but reads
        route around it (health-aware replica selection).
    block_bitrot:
        :class:`BlockBitRot` events: a stored replica's bytes are
        silently flipped; only the HDFS per-block CRC32 check catches it
        (failover + quarantine, visible in ``fsck()``).
    auto_rereplicate:
        Run the namenode's block recovery right after each kill, as a
        healthy cluster would (the job then completes via re-replication).
    kill_job_after_tasks:
        Simulated driver death: raise
        :class:`~repro.errors.JobKilledError` once this many tasks have
        completed.  Pair with a :class:`JobCheckpoint` to test resume.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        mapper_crash_rate: float = 0.0,
        reducer_crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        slow_node_rate: float = 0.0,
        spill_corrupt_rate: float = 0.0,
        hang_delay: float = 0.05,
        slow_node_delay: float = 0.02,
        max_faulted_attempts: int | None = None,
        schedule: Mapping[tuple, Fault] | None = None,
        datanode_kills: Sequence[DatanodeKill] = (),
        datanode_degrades: Sequence[DatanodeDegrade] = (),
        block_bitrot: Sequence[BlockBitRot] = (),
        auto_rereplicate: bool = True,
        kill_job_after_tasks: int | None = None,
    ):
        for name, rate in (
            ("mapper_crash_rate", mapper_crash_rate),
            ("reducer_crash_rate", reducer_crash_rate),
            ("hang_rate", hang_rate),
            ("corrupt_rate", corrupt_rate),
            ("slow_node_rate", slow_node_rate),
            ("spill_corrupt_rate", spill_corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise MapReduceError(f"{name} must be in [0,1], got {rate}")
        if hang_delay < 0:
            raise MapReduceError(f"hang_delay must be >= 0, got {hang_delay}")
        if slow_node_delay < 0:
            raise MapReduceError(
                f"slow_node_delay must be >= 0, got {slow_node_delay}"
            )
        if max_faulted_attempts is not None and max_faulted_attempts < 0:
            raise MapReduceError(
                f"max_faulted_attempts must be >= 0, got {max_faulted_attempts}"
            )
        if kill_job_after_tasks is not None and kill_job_after_tasks < 1:
            raise MapReduceError(
                f"kill_job_after_tasks must be >= 1, got {kill_job_after_tasks}"
            )
        self.seed = seed
        self.mapper_crash_rate = mapper_crash_rate
        self.reducer_crash_rate = reducer_crash_rate
        self.hang_rate = hang_rate
        self.corrupt_rate = corrupt_rate
        self.slow_node_rate = slow_node_rate
        self.spill_corrupt_rate = spill_corrupt_rate
        self.hang_delay = hang_delay
        self.slow_node_delay = slow_node_delay
        self.max_faulted_attempts = max_faulted_attempts
        self.schedule = dict(schedule or {})
        for key, fault in self.schedule.items():
            if not isinstance(fault, Fault):
                raise MapReduceError(
                    f"schedule entry {key!r} maps to {fault!r}; expected a Fault"
                )
        self.datanode_kills = tuple(datanode_kills)
        self.datanode_degrades = tuple(datanode_degrades)
        self.block_bitrot = tuple(block_bitrot)
        self.auto_rereplicate = auto_rereplicate
        self.kill_job_after_tasks = kill_job_after_tasks
        # Driver-side mutable state; never shipped to workers (__getstate__).
        self._hdfs = None
        self._fired_kills: set[int] = set()
        self._fired_degrades: set[int] = set()
        self._fired_bitrot: set[int] = set()
        self._completed_tasks = 0

    # ---- determinism core -------------------------------------------------

    def _draw(self, salt: str, job: str, kind: str, index: int, attempt: int) -> float:
        # SHA-256, not CRC32: draws for adjacent (index, attempt) tokens
        # must be independent, and CRC's linearity correlates them badly.
        token = f"{self.seed}|{salt}|{job}|{kind}|{index}|{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def fault_for(self, job: str, kind: str, index: int, attempt: int) -> Fault | None:
        """The fault injected into one task attempt, or None.

        ``kind`` is ``"map"`` or ``"reduce"``; ``index`` the task index
        within its phase; ``attempt`` is 1-based.
        """
        explicit = self.schedule.get((job, kind, index, attempt))
        if explicit is not None:
            return explicit
        if (
            self.max_faulted_attempts is not None
            and attempt > self.max_faulted_attempts
        ):
            return None
        crash_rate = self.mapper_crash_rate if kind == "map" else self.reducer_crash_rate
        if self._draw("crash", job, kind, index, attempt) < crash_rate:
            return Fault(kind="crash", reason="injected crash")
        if self._draw("hang", job, kind, index, attempt) < self.hang_rate:
            return Fault(kind="hang", delay=self.hang_delay, reason="injected hang")
        if self._draw("corrupt", job, kind, index, attempt) < self.corrupt_rate:
            return Fault(kind="corrupt", reason="injected corruption")
        if self._draw("slow", job, kind, index, attempt) < self.slow_node_rate:
            return Fault(
                kind="slow_node",
                delay=self.slow_node_delay,
                reason="attempt scheduled on a degraded node",
            )
        return None

    def spill_fault_for(
        self, job: str, partition: int, segment: int, attempt: int
    ) -> bool:
        """Whether one spill segment write suffers bit-rot.

        ``partition``/``segment`` address the segment within the job's
        external shuffle; ``attempt`` is the 1-based write attempt (a
        re-spill after a detected mismatch draws fresh, so repaired
        segments converge under ``max_faulted_attempts``).
        """
        if (
            self.max_faulted_attempts is not None
            and attempt > self.max_faulted_attempts
        ):
            return False
        draw = self._draw(f"spill-bitrot|{partition}", job, "spill", segment, attempt)
        return draw < self.spill_corrupt_rate

    # ---- injection helpers ------------------------------------------------

    @staticmethod
    def corrupt_records(records: list[tuple], origin: str) -> list[tuple]:
        """Deterministically mangle a task's output partition in transit."""
        corrupted = list(records)
        marker = _CorruptRecord(origin)
        if corrupted:
            corrupted[len(corrupted) // 2] = marker
        else:
            corrupted.append(marker)
        return corrupted

    # ---- datanode kills and driver death ----------------------------------

    def bind_hdfs(self, hdfs) -> "FaultPlan":
        """Attach the HDFS cluster the datanode kills act on."""
        self._hdfs = hdfs
        return self

    def trigger_barrier(self, barrier: str, counters=None) -> int:
        """Fire pending barrier events (kills, degrades, bit-rot) for
        ``barrier``; returns the number of events fired."""
        if barrier not in BARRIERS:
            raise MapReduceError(
                f"unknown barrier {barrier!r}; expected one of {BARRIERS}"
            )
        fired = 0
        for i, kill in enumerate(self.datanode_kills):
            if kill.barrier != barrier or i in self._fired_kills:
                continue
            self._fired_kills.add(i)
            if self._hdfs is None:
                continue  # no cluster bound: the kill has nothing to act on
            self._hdfs.fail_datanode(kill.node_id)
            fired += 1
            if counters is not None:
                counters.increment("fault", "datanodes_killed")
            if self.auto_rereplicate:
                created = self._hdfs.rereplicate()
                if counters is not None:
                    counters.increment("fault", "replicas_recreated", created)
        for i, degrade in enumerate(self.datanode_degrades):
            if degrade.barrier != barrier or i in self._fired_degrades:
                continue
            self._fired_degrades.add(i)
            if self._hdfs is None:
                continue
            self._hdfs.degrade_datanode(degrade.node_id)
            fired += 1
            if counters is not None:
                counters.increment("fault", "datanodes_degraded")
        for i, rot in enumerate(self.block_bitrot):
            if rot.barrier != barrier or i in self._fired_bitrot:
                continue
            self._fired_bitrot.add(i)
            if self._hdfs is None:
                continue
            block_id = self._hdfs.corrupt_replica(rot.node_id, rot.block_index)
            if block_id is not None:
                fired += 1
                if counters is not None:
                    counters.increment("fault", "blocks_bitrotted")
        return fired

    def note_task_complete(self) -> None:
        """Driver-side hook: kill the whole job once N tasks have completed
        (the N-th task's output is already durable in the checkpoint)."""
        self._completed_tasks += 1
        if (
            self.kill_job_after_tasks is not None
            and self._completed_tasks >= self.kill_job_after_tasks
        ):
            raise JobKilledError(
                f"job killed after {self.kill_job_after_tasks} completed task(s)"
            )

    def reset(self) -> "FaultPlan":
        """Clear driver-side progress state (for replaying the same plan)."""
        self._fired_kills = set()
        self._fired_degrades = set()
        self._fired_bitrot = set()
        self._completed_tasks = 0
        return self

    # ---- pickling (workers get the decision function, not driver state) ----

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_hdfs"] = None
        state["_fired_kills"] = set()
        state["_fired_degrades"] = set()
        state["_fired_bitrot"] = set()
        state["_completed_tasks"] = 0
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, crash=({self.mapper_crash_rate},"
            f" {self.reducer_crash_rate}), hang={self.hang_rate},"
            f" corrupt={self.corrupt_rate}, slow={self.slow_node_rate},"
            f" spill={self.spill_corrupt_rate},"
            f" kills={len(self.datanode_kills)},"
            f" scheduled={len(self.schedule)})"
        )


class JobCheckpoint:
    """Filesystem-backed store of completed task outputs.

    One pickle file per task attempt that won, written atomically
    (tmp + rename).  Task ids embed the job name, so one checkpoint
    directory safely covers every job of a multi-job pipeline.  A job
    killed mid-run re-executes only the tasks with no checkpoint entry;
    recovered tasks are marked in the trace and counted under
    ``fault:tasks_recovered_from_checkpoint``.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, task_id: str) -> str:
        safe = task_id.replace(os.sep, "_")
        return os.path.join(self.directory, f"{safe}.ckpt")

    def has(self, task_id: str) -> bool:
        return os.path.exists(self._path(task_id))

    def save(self, task_id: str, payload: object) -> None:
        """Persist one completed task's payload atomically."""
        path = self._path(task_id)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def load(self, task_id: str) -> object:
        with open(self._path(task_id), "rb") as fh:
            return pickle.load(fh)

    def task_ids(self) -> list[str]:
        """Checkpointed task ids, sorted."""
        return sorted(
            name[: -len(".ckpt")]
            for name in os.listdir(self.directory)
            if name.endswith(".ckpt")
        )

    def clear(self) -> None:
        """Drop every checkpoint entry (call after the job commits)."""
        for name in os.listdir(self.directory):
            if name.endswith((".ckpt", ".tmp")):
                os.unlink(os.path.join(self.directory, name))
