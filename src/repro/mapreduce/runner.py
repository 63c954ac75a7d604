"""Job driver: one MapReduce job skeleton, two task executors.

:class:`SerialRunner` and :class:`~repro.mapreduce.local.MultiprocessRunner`
share one driver, in the image of Hadoop's JobTracker: it splits the
input, runs the map phase, routes map output through the job's wire codec
and the in-memory or spilling shuffle, runs the reduce phase, and owns
everything around the tasks — :class:`~repro.mapreduce.faults.FaultPlan`
barriers, cancellation points, checkpoint recovery, counters, the
:class:`~repro.mapreduce.types.JobTrace` and the span tree.  Those traces
are the input to the discrete-event cluster simulator (the real work is
measured; only the distributed wall-clock is modeled — see DESIGN.md
substitution #1).

The driver hands each phase's tasks to an executor, which only decides
when attempts run (the TaskTracker half).  The inline executor defined
here runs them one after another in the driver's process; the pool
executor of :mod:`repro.mapreduce.local` races them on worker processes.
Both run the same per-attempt code: fault injection, the map or reduce
task body (record validation and the combiner included), and, whenever a
fault plan is set, a producer-side CRC32 of the output verified on
receipt.

Execution is fault tolerant: each task runs in an attempt loop driven by
a :class:`~repro.mapreduce.faults.RetryPolicy` (derived from ``JobConf``
unless overridden) — failed attempts are retried with exponential
backoff, hung attempts are abandoned at the task deadline, stragglers get
speculative backup attempts, and completed task outputs can be persisted
to a :class:`~repro.mapreduce.faults.JobCheckpoint` so a killed job
resumes from the last barrier.  Attempt history lands in the trace and in
the ``fault`` counter group.

When a :class:`~repro.obs.trace.Tracer` is active, execution also emits
telemetry: a ``job`` span wrapping ``map``/``shuffle``/``reduce`` stage
spans, one ``task`` span per task, and one ``attempt`` span per attempt —
failed attempts and their successful retries appear as sibling spans with
the injected fault tagged — plus job counters adapted into the tracer's
metrics registry.  With no tracer active all instrumentation is no-op.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import FaultError, MapReduceError, TaskFailedError
from repro.mapreduce.cancel import check_cancelled
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import (
    Fault,
    FaultPlan,
    JobCheckpoint,
    RetryPolicy,
    records_checksum,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.shuffle import (
    SpillingShuffle,
    approx_records_bytes,
    partition_num_records,
    shuffle,
    sort_grouped_keys,
    sort_records,
)
from repro.mapreduce.types import JobConf, JobTrace, TaskTrace
from repro.obs.trace import current_tracer
from repro.utils.chunking import chunk_indices


@dataclass
class JobResult:
    """Output records plus counters and execution trace for one job."""

    output: list[tuple]
    counters: Counters = field(default_factory=Counters)
    trace: JobTrace | None = None


def _through_wire(
    job: MapReduceJob,
    map_outputs: list[list[tuple]],
    counters: Counters,
    trace: JobTrace | None,
) -> list[list[tuple]]:
    """Route map outputs through the job's wire codec.

    Each map task's record list is encoded into a compressed frame (the
    codec stamps a producer-side checksum into it), the trace's shuffle
    bytes are billed at *frame* size — that is the whole point of the
    compressed wire format — and frames are decoded (checksum verified)
    before partitioning, mirroring reduce-side merge input.  Raw-vs-wire
    byte counters record the savings.
    """
    frames = [job.wire.encode_records(out) for out in map_outputs]
    raw = sum(approx_records_bytes(out) for out in map_outputs)
    on_wire = sum(frame.nbytes for frame in frames)
    counters.increment("wire", "frames", len(frames))
    counters.increment("wire", "bytes_raw", raw)
    counters.increment("wire", "bytes_wire", on_wire)
    if raw > 0:
        current_tracer().metrics.gauge("mr.wire.compression_ratio").set(on_wire / raw)
    if trace is not None:
        trace.shuffle_bytes = on_wire
    return [job.wire.decode_records(frame) for frame in frames]


# ---- the per-attempt code every executor runs ------------------------------


class _AttemptSpec(NamedTuple):
    """Everything one task attempt needs; picklable, so it can cross into
    a pool worker."""

    job: MapReduceJob
    kind: str  # "map" | "reduce"
    payload: object  # the map split or the reduce partition's groups
    use_combiner: bool
    fault: Fault | None
    checksummed: bool  # ship a producer-side CRC32 with the output
    task_id: str
    attempt: int


def _validated(emitted, job_name: str, stage: str):
    for pair in emitted:
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise MapReduceError(
                f"{stage} of job {job_name!r} emitted {pair!r}; "
                "expected (key, value) tuples"
            )
        yield pair


def _combine(job: MapReduceJob, pairs: list[tuple]) -> list[tuple]:
    grouped: dict[object, list] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    out: list[tuple] = []
    for key in sort_grouped_keys(grouped.keys()):
        out.extend(job.run_combiner(key, grouped[key]))
    return out


def _map_body(
    job: MapReduceJob, split: Sequence[tuple], use_combiner: bool
) -> tuple[list[tuple], Counters]:
    """One clean map attempt over a split (fresh counters per attempt)."""
    task_counters = Counters()
    out: list[tuple] = []
    if job.batch_mapper is not None:
        emitted = job.run_batch_mapper(split, task_counters)
        if emitted is not None:
            out.extend(_validated(emitted, job.name, "batch_mapper"))
    else:
        for key, value in split:
            emitted = job.run_mapper(key, value, task_counters)
            if emitted is not None:
                out.extend(_validated(emitted, job.name, "mapper"))
    if use_combiner and job.combiner is not None:
        out = _combine(job, out)
    return out, task_counters


def _reduce_body(
    job: MapReduceJob, groups: Sequence[tuple[object, list]]
) -> tuple[list[tuple], Counters]:
    """One clean reduce attempt over a partition's grouped keys."""
    task_counters = Counters()
    out: list[tuple] = []
    for key, values in groups:
        emitted = job.run_reducer(key, values, task_counters)
        if emitted is not None:
            out.extend(_validated(emitted, job.name, "reducer"))
    return out, task_counters


def _verify_checksum(out, checksum: int | None, task_id: str, attempt: int) -> None:
    """Receipt side of the shuffle integrity check (IFile-checksum model)."""
    if checksum is not None and records_checksum(out) != checksum:
        raise FaultError(
            "corrupted shuffle partition (checksum mismatch)",
            task_id=task_id,
            attempt=attempt,
        )


def _run_attempt(
    spec: _AttemptSpec,
    tracer,
    *,
    speculative: bool = False,
    on_hang: Callable[[Fault], None] | None = None,
    verify: bool = True,
) -> tuple[list[tuple], Counters, int | None, float]:
    """One task attempt: injected fault, task body, producer checksum.

    Returns ``(records, task_counters, checksum, seconds)``; ``seconds``
    times the task body alone.  The checksum is computed *before* any
    injected corruption — it models the producer-side checksum that
    travels with the data.  With ``verify`` the receipt check runs here
    too; a pool worker leaves it to the driver.  A hang fault calls
    ``on_hang`` (the inline straggler model) or simply stalls.
    """
    fault = spec.fault
    with tracer.span(
        f"attempt:{spec.attempt}", kind="attempt",
        attempt=spec.attempt, task_id=spec.task_id,
    ) as span:
        if fault is not None:
            span.attrs["fault"] = fault.kind
        if speculative:
            span.attrs["speculative"] = True
        if fault is not None and fault.kind == "crash":
            raise FaultError(
                fault.reason or "injected crash",
                task_id=spec.task_id,
                attempt=spec.attempt,
            )
        if fault is not None and fault.kind == "hang" and on_hang is not None:
            on_hang(fault)
        elif fault is not None and fault.kind in ("hang", "slow_node"):
            # A stall or a degraded node: latency, not a failure.
            time.sleep(fault.delay)
        t0 = time.perf_counter()
        if spec.kind == "map":
            out, task_counters = _map_body(spec.job, spec.payload, spec.use_combiner)
        else:
            out, task_counters = _reduce_body(spec.job, spec.payload)
        seconds = time.perf_counter() - t0
        checksum = records_checksum(out) if spec.checksummed else None
        if fault is not None and fault.kind == "corrupt":
            out = FaultPlan.corrupt_records(out, spec.task_id)
        if verify:
            _verify_checksum(out, checksum, spec.task_id, spec.attempt)
        if speculative:
            span.attrs["speculative_win"] = True
    return out, task_counters, checksum, seconds


# ---- driver-side task state and accounting ---------------------------------


@dataclass
class _Task:
    """One map or reduce task of a running job, with its attempt history."""

    kind: str
    index: int
    task_id: str
    # The reduce partition's groups, or the slice of the job input a map
    # task reads (cut per attempt, so a phase never holds every split).
    payload: object
    records_in: int = 0
    bytes_in: int = 0
    attempts: int = 0  # attempts launched so far
    failures: list[str] = field(default_factory=list)
    speculative_win: bool = False
    done: bool = False
    output: list[tuple] | None = None
    counters: Counters | None = None
    trace: TaskTrace | None = None


class _JobRun:
    """One job's execution state, shared by the driver and its executor.

    Executors call :meth:`launch` before every attempt, :meth:`fail` after
    a failed one and :meth:`commit` when a task's winning attempt is in;
    nothing else in the engine numbers attempts, accounts failures or
    assembles a :class:`~repro.mapreduce.types.TaskTrace`.
    """

    def __init__(
        self,
        job: MapReduceJob,
        inputs: Sequence[tuple],
        conf: JobConf,
        *,
        plan: FaultPlan | None,
        policy: RetryPolicy,
        checkpoint: JobCheckpoint | None,
        counters: Counters,
        measure_bytes: bool,
    ):
        self.job = job
        self.inputs = inputs
        self.conf = conf
        self.plan = plan
        self.policy = policy
        self.checkpoint = checkpoint
        self.counters = counters
        self.measure_bytes = measure_bytes
        self._phase: list[_Task] = []
        self._deliver: Callable[[list[tuple]], None] | None = None
        self._delivered = 0

    def begin_phase(
        self, tasks: list[_Task], deliver: Callable[[list[tuple]], None] | None
    ) -> None:
        """Start a phase; ``deliver`` receives committed outputs in task
        order (each released once delivered)."""
        self._phase, self._deliver, self._delivered = tasks, deliver, 0

    def launch(self, task: _Task) -> _AttemptSpec:
        """Number the next attempt of ``task`` and look up its fault."""
        task.attempts += 1
        plan = self.plan
        fault = (
            plan.fault_for(self.job.name, task.kind, task.index, task.attempts)
            if plan is not None
            else None
        )
        if fault is not None and fault.kind == "slow_node":
            self.counters.increment("fault", "slow_node_delays")
        payload = self.inputs[task.payload] if task.kind == "map" else task.payload
        return _AttemptSpec(
            self.job, task.kind, payload, self.conf.use_combiner, fault,
            plan is not None, task.task_id, task.attempts,
        )

    def failure_reason(self, exc: Exception) -> str:
        """The failure text recorded for ``exc``.  With no retry budget a
        user exception propagates as-is."""
        if isinstance(exc, FaultError):
            return str(exc)
        if self.policy.max_attempts == 1:
            raise exc
        return f"{type(exc).__name__}: {exc}"

    def fail(
        self, task: _Task, reason: str, cause: Exception, *, live_attempts: int = 0
    ) -> bool:
        """Record one failed attempt; True when the task must be retried.

        A failure while another attempt of the task is still running only
        counts: that attempt may yet win.
        """
        task.failures.append(reason)
        self.counters.increment("fault", "attempts_failed")
        if live_attempts:
            return False
        if task.attempts >= self.policy.max_attempts:
            raise TaskFailedError(task.task_id, task.failures) from cause
        self.counters.increment("fault", "task_retries")
        return True

    def commit(
        self,
        task: _Task,
        out: list[tuple],
        task_counters: Counters,
        seconds: float,
        *,
        speculative: bool = False,
    ) -> None:
        """Adopt a winning attempt: only its output and counters count
        (failed attempts' increments are discarded, like Hadoop's committed
        task outputs), then checkpoint it."""
        if speculative:
            task.speculative_win = True
            self.counters.increment("fault", "speculative_wins")
        current_tracer().metrics.histogram("mr.task_seconds").observe(seconds)
        task.trace = TaskTrace(
            task_id=task.task_id,
            kind=task.kind,
            records_in=task.records_in,
            records_out=len(out),
            bytes_in=task.bytes_in,
            bytes_out=approx_records_bytes(out) if self.measure_bytes else 0,
            cpu_seconds=seconds,
            attempts=task.attempts,
            failures=list(task.failures),
            speculative_win=task.speculative_win,
        )
        if self.checkpoint is not None:
            self.checkpoint.save(
                task.task_id,
                {"output": out, "counters": task_counters, "trace": task.trace},
            )
        self._complete(task, out, task_counters)

    def recover(self, task: _Task) -> bool:
        """Restore ``task`` from the checkpoint, if it has an entry."""
        if self.checkpoint is None or not self.checkpoint.has(task.task_id):
            return False
        payload = self.checkpoint.load(task.task_id)
        task.trace = payload["trace"]
        task.trace.recovered = True
        self.counters.increment("fault", "tasks_recovered_from_checkpoint")
        with current_tracer().span(
            f"task:{task.task_id}", kind="task", task_id=task.task_id,
            task_kind=task.kind, recovered=True,
        ):
            pass
        self._complete(task, payload["output"], payload["counters"])
        return True

    def _complete(self, task: _Task, out: list[tuple], task_counters: Counters) -> None:
        task.done, task.output, task.counters = True, out, task_counters
        phase = self._phase
        while self._deliver is not None and self._delivered < len(phase):
            ready = phase[self._delivered]
            if not ready.done:
                break
            self._deliver(ready.output)
            ready.output = None
            self._delivered += 1
        if self.plan is not None:
            self.plan.note_task_complete()


# ---- executors -------------------------------------------------------------


class _InlineExecutor:
    """Runs a phase's attempts one after another in the driver's process.

    A single thread cannot race attempts, so speculation follows a serial
    straggler model (:meth:`_handle_hang`): the straggling attempt is
    abandoned and the retry is labelled as the backup that won.
    """

    def run_phase(self, run: _JobRun, tasks: list[_Task]) -> None:
        tracer = current_tracer()
        durations: list[float] = []  # completed task durations this phase
        for task in tasks:
            check_cancelled(task.task_id)  # cooperative deadline/cancel point
            with tracer.span(
                f"task:{task.task_id}", kind="task",
                task_id=task.task_id, task_kind=task.kind,
            ):
                speculative = False  # this attempt is a speculative backup
                while True:
                    check_cancelled(task.task_id)
                    spec = run.launch(task)
                    try:
                        out, task_counters, _, seconds = _run_attempt(
                            spec,
                            tracer,
                            speculative=speculative,
                            on_hang=lambda fault: self._handle_hang(
                                fault, run.policy, spec, durations
                            ),
                        )
                    except Exception as exc:
                        run.fail(task, run.failure_reason(exc), exc)
                        speculative = getattr(exc, "speculative", False)
                        delay = run.policy.backoff_delay(task.attempts)
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    durations.append(seconds)
                    run.commit(
                        task, out, task_counters, seconds, speculative=speculative
                    )
                    break

    @staticmethod
    def _handle_hang(
        fault: Fault,
        policy: RetryPolicy,
        spec: _AttemptSpec,
        durations: list[float],
    ) -> None:
        """Serial model of a hung attempt.

        A hang whose delay crosses the task deadline (``task_timeout``) is
        abandoned; one that crosses the speculation threshold
        (``speculative_margin x median completed duration``) is abandoned in
        favour of a backup attempt — run *after* abandoning the original,
        so "backup wins" is recorded on the retry.  The pool executor races
        real concurrent attempts.  Hangs below both thresholds simply
        sleep: a slow task, not a failure.
        """
        if policy.timeout is not None and fault.delay >= policy.timeout:
            exc = FaultError(
                f"attempt abandoned at task_timeout={policy.timeout}s "
                f"(hang of {fault.delay}s)",
                task_id=spec.task_id,
                attempt=spec.attempt,
            )
            exc.speculative = policy.speculative_margin > 0
            raise exc
        if policy.speculative_margin > 0 and durations:
            median = statistics.median(durations)
            if fault.delay >= policy.speculative_margin * median:
                exc = FaultError(
                    f"straggler: hang of {fault.delay}s exceeds "
                    f"{policy.speculative_margin}x median "
                    f"({median:.6f}s); speculative backup launched",
                    task_id=spec.task_id,
                    attempt=spec.attempt,
                )
                exc.speculative = True
                raise exc
        time.sleep(fault.delay)


# ---- the job driver --------------------------------------------------------


class _JobDriver:
    """The job skeleton both runners share; subclasses pick the executor."""

    def __init__(
        self,
        *,
        trace: bool = True,
        fault_plan: FaultPlan | None = None,
        checkpoint: JobCheckpoint | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.trace = trace
        self.fault_plan = fault_plan
        self.checkpoint = checkpoint
        self.retry = retry

    def _job_attrs(self) -> dict:
        """Attributes of the ``job`` span naming the backend."""
        return {"runner": "serial"}

    @contextmanager
    def _executor(self, job: MapReduceJob) -> Iterator[_InlineExecutor]:
        """The executor for one job's tasks, held for the whole job."""
        yield _InlineExecutor()

    def run(
        self,
        job: MapReduceJob,
        inputs: Sequence[tuple],
        conf: JobConf | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        checkpoint: JobCheckpoint | None = None,
        retry: RetryPolicy | None = None,
        output_sink: Callable[[tuple], None] | None = None,
    ) -> JobResult:
        """Execute ``job`` over ``inputs`` (a sequence of key/value pairs).

        With ``output_sink`` set, every reduce output record is fed to the
        callback as its task completes instead of being accumulated (the
        returned :class:`JobResult` has an empty ``output`` and
        ``sort_output`` does not apply) — the streaming hand-off the
        sparse candidate-edge path uses to avoid materializing the full
        pair list in the driver.
        """
        conf = conf or JobConf()
        plan = fault_plan if fault_plan is not None else self.fault_plan
        counters = Counters()
        trace = JobTrace(job_name=job.name) if self.trace else None
        run = _JobRun(
            job,
            inputs,
            conf,
            plan=plan,
            policy=retry or self.retry or RetryPolicy.from_conf(conf),
            checkpoint=checkpoint if checkpoint is not None else self.checkpoint,
            counters=counters,
            measure_bytes=self.trace,
        )
        tracer = current_tracer()

        with self._executor(job) as executor, tracer.span(
            f"job:{job.name}", kind="job", job=job.name, **self._job_attrs()
        ) as job_span:
            if plan is not None:
                plan.trigger_barrier("job_start", counters)

            # ---- map phase, split into conf.num_map_tasks tasks ---------
            with tracer.span("map", kind="stage"):
                bounds = chunk_indices(len(inputs), conf.num_map_tasks)
                map_tasks = self._run_phase(
                    executor, run, "map", [slice(*b) for b in bounds]
                )
            self._account(map_tasks, counters, trace.map_tasks if trace else None)
            map_outputs = [task.output for task in map_tasks]

            if plan is not None:
                plan.trigger_barrier("map_end", counters)

            # ---- shuffle -------------------------------------------------
            # The try/finally spans shuffle AND reduce: spill segments must
            # be removed even when finish() itself fails (unrepairable
            # bit-rot), not just on reducer errors.
            spill: SpillingShuffle | None = None
            output: list[tuple] = []
            try:
                with tracer.span("shuffle", kind="stage") as shuffle_span:
                    if job.wire is not None:
                        map_outputs = _through_wire(job, map_outputs, counters, trace)
                    if conf.spill_threshold_bytes is not None:
                        spill = SpillingShuffle(
                            conf.num_reduce_tasks,
                            job.partitioner,
                            spill_threshold_bytes=conf.spill_threshold_bytes,
                            job_name=job.name,
                            fault_plan=plan,
                            counters=counters,
                        )
                        for out in map_outputs:
                            spill.add_task_output(out)
                        partitions, moved = spill.finish()
                        shuffle_span.attrs["spill_segments"] = spill.spill_segments
                        shuffle_span.attrs["spill_bytes"] = spill.spill_bytes
                    else:
                        partitions, moved = shuffle(
                            map_outputs, conf.num_reduce_tasks, job.partitioner
                        )
                    counters.increment("job", "shuffle_records", moved)
                    if trace is not None and job.wire is None:
                        trace.shuffle_bytes = sum(
                            approx_records_bytes(p) for p in map_outputs
                        )
                    shuffle_span.attrs["records"] = moved

                # ---- reduce phase ---------------------------------------
                if output_sink is not None:
                    def deliver(records: list[tuple]) -> None:
                        for record in records:
                            output_sink(record)
                else:
                    deliver = output.extend
                with tracer.span("reduce", kind="stage"):
                    reduce_tasks = self._run_phase(
                        executor, run, "reduce", partitions, deliver
                    )
                self._account(
                    reduce_tasks, counters, trace.reduce_tasks if trace else None
                )
            finally:
                if spill is not None:
                    spill.close()

            if plan is not None:
                plan.trigger_barrier("job_end", counters)

            if trace is not None:
                job_span.attrs["shuffle_bytes"] = trace.shuffle_bytes
            elif job.wire is not None:
                job_span.attrs["shuffle_bytes"] = counters.get("wire", "bytes_wire")
            tracer.metrics.record_counters(counters)

        if conf.sort_output and output_sink is None:
            # Shares shuffle.sort_records so the mixed-type fallback
            # ordering cannot drift from the shuffle's grouping order.
            output = sort_records(output)
        return JobResult(output=output, counters=counters, trace=trace)

    @staticmethod
    def _run_phase(
        executor,
        run: _JobRun,
        kind: str,
        payloads: Sequence[object],
        deliver: Callable[[list[tuple]], None] | None = None,
    ) -> list[_Task]:
        """Recover what the checkpoint holds, execute the rest."""
        tasks = []
        for i, payload in enumerate(payloads):
            task = _Task(kind, i, f"{run.job.name}-{kind[0]}{i:04d}", payload)
            if kind == "map":
                split = run.inputs[payload]
                task.records_in = len(split)
                if run.measure_bytes:
                    task.bytes_in = approx_records_bytes(split)
            else:
                task.records_in = partition_num_records(payload)
            tasks.append(task)
        run.begin_phase(tasks, deliver)
        executor.run_phase(run, [task for task in tasks if not run.recover(task)])
        return tasks

    @staticmethod
    def _account(
        tasks: list[_Task], counters: Counters, traces: list[TaskTrace] | None
    ) -> None:
        """Fold a finished phase into the job counters and trace, in task
        order."""
        for task in tasks:
            counters.merge(task.counters)
            kind = task.kind
            counters.increment("job", f"{kind}_input_records", task.records_in)
            counters.increment("job", f"{kind}_output_records", task.trace.records_out)
            if traces is not None:
                traces.append(task.trace)


class SerialRunner(_JobDriver):
    """Run jobs sequentially in-process, on the inline executor.

    ``trace=True`` (default) records task-level statistics; turn it off for
    micro-benchmarks where the byte-size sampling overhead matters.

    ``fault_plan``, ``checkpoint`` and ``retry`` set instance-wide defaults
    so callers that only hand a runner to a pipeline (e.g.
    :class:`~repro.cluster.pipeline.MrMCMinH`) still get fault-tolerant
    execution; per-call keyword arguments to :meth:`run` override them.
    """

    def run_chain(
        self,
        jobs: Sequence[tuple[MapReduceJob, JobConf | None]],
        inputs: Sequence[tuple],
    ) -> tuple[JobResult, list[JobTrace]]:
        """Run a pipeline of jobs, feeding each job's output to the next.

        Returns the final result and the traces of every stage (the unit
        the cluster simulator schedules).  Instance-level fault plan and
        checkpoint apply to every stage; task ids embed the job name, so
        one checkpoint directory covers the whole chain.
        """
        if not jobs:
            raise MapReduceError("run_chain requires at least one job")
        traces: list[JobTrace] = []
        current: Sequence[tuple] = inputs
        result: JobResult | None = None
        with current_tracer().span("chain", kind="chain", jobs=len(jobs)):
            for job, conf in jobs:
                result = self.run(job, list(current), conf)
                if result.trace is not None:
                    traces.append(result.trace)
                current = result.output
        assert result is not None
        return result, traces
