"""Multiprocess job runner: real parallelism across local cores.

:class:`MultiprocessRunner` is the job driver of
:mod:`repro.mapreduce.runner` with a pool executor: map tasks and reduce
partitions are dispatched as attempts to a ``multiprocessing`` pool.  Jobs
must be defined with picklable (module-level) mapper/reducer functions —
the same constraint real Hadoop streaming imposes (checked up front so
the error is clear).  With ``num_workers=1`` no pool is started and the
runner uses the driver's inline executor, exactly as
:class:`~repro.mapreduce.runner.SerialRunner` does.

The pool executor only schedules attempts, mirroring the Hadoop
TaskTracker protocol (the driver owns splitting, the shuffle, checkpoint
recovery, counters and traces, and every attempt runs the same code as on
the inline executor):

* every task attempt is dispatched asynchronously and retried with
  exponential backoff up to the runner's ``RetryPolicy.max_attempts``;
* attempts that exceed ``RetryPolicy.timeout`` are abandoned (their
  late results are discarded — the in-memory analogue of killing the
  attempt) and re-executed;
* with ``RetryPolicy.speculative_margin > 0``, a task running longer than
  ``margin x median(completed durations)`` gets a concurrent speculative
  backup attempt; the first result wins and the loser's output is
  discarded exactly once;
* with a :class:`~repro.mapreduce.faults.FaultPlan`, every attempt ships
  a CRC32 of its output computed at production time and the driver
  verifies it on receipt, so injected shuffle corruption is detected and
  retried.

When a :class:`~repro.obs.trace.Tracer` is active in the driver, each
worker attempt records its own spans on a throw-away worker-local tracer
and ships them back with the attempt result; the driver merges them at
the task barrier (:meth:`~repro.obs.trace.Tracer.merge_payload` rebases
clocks and re-parents under the driver-side task span), so the final
span tree nests job -> stage -> task -> attempt across process
boundaries, with worker spans keeping their real OS pid.  Failed and
abandoned attempts are synthesised driver-side from observed timing.
"""

from __future__ import annotations

import os
import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context

from repro.errors import FaultError, MapReduceError
from repro.mapreduce.cancel import check_cancelled
from repro.mapreduce.faults import FaultPlan, JobCheckpoint, RetryPolicy
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import (
    _AttemptSpec,
    _InlineExecutor,
    _JobDriver,
    _JobRun,
    _run_attempt,
    _Task,
    _verify_checksum,
)
from repro.obs.trace import NULL_TRACER, Tracer, current_tracer

_POLL_INTERVAL = 0.002


def _pool_attempt(args):
    """One task attempt inside a pool worker.

    Returns ``_run_attempt``'s result plus the span payload of a
    worker-local tracer (``None`` unless ``obs_on``) for the driver to
    merge at the barrier; crashed attempts return nothing — the driver
    synthesises their spans.  The checksum is verified by the driver.
    """
    spec, obs_on = args
    tracer = Tracer() if obs_on else NULL_TRACER
    result = _run_attempt(spec, tracer, verify=False)
    return (*result, tracer.export_payload() if obs_on else None)


@dataclass
class _Attempt:
    """One in-flight attempt of a task on the pool."""

    task: _Task
    spec: _AttemptSpec
    result: object  # AsyncResult
    started: float
    started_rel: float = 0.0  # submit time on the active tracer's clock
    speculative: bool = False
    abandoned: bool = False


class _PoolExecutor:
    """Asynchronous attempt scheduling with timeouts and speculation."""

    def __init__(self, pool):
        self.pool = pool

    def run_phase(self, run: _JobRun, tasks: list[_Task]) -> None:
        policy = run.policy
        tracer = current_tracer()
        phase_span = tracer.current_span()
        active: list[_Attempt] = []
        next_backoff_at: dict[int, float] = {}
        durations: list[float] = []  # completed task durations this phase
        task_spans: dict[int, object] = {}
        if tracer.enabled:
            for task in tasks:
                task_spans[task.index] = tracer.start(
                    f"task:{task.task_id}", kind="task", parent=phase_span,
                    task_id=task.task_id, task_kind=task.kind,
                )

        def submit(task: _Task, *, speculative: bool) -> None:
            spec = run.launch(task)
            active.append(
                _Attempt(
                    task=task,
                    spec=spec,
                    result=self.pool.apply_async(
                        _pool_attempt, ((spec, tracer.enabled),)
                    ),
                    started=time.monotonic(),
                    started_rel=tracer.now(),
                    speculative=speculative,
                )
            )

        def failed(att: _Attempt, reason: str, cause: Exception) -> None:
            live = sum(1 for a in active if a.task is att.task and not a.abandoned)
            if run.fail(att.task, reason, cause, live_attempts=live):
                delay = policy.backoff_delay(att.task.attempts)
                next_backoff_at[att.task.index] = time.monotonic() + delay

        for task in tasks:
            submit(task, speculative=False)
        by_index = {task.index: task for task in tasks}

        remaining = len(tasks)
        while remaining > 0:
            check_cancelled(f"{tasks[0].kind} phase poll")
            progressed = False
            now = time.monotonic()
            for att in list(active):
                task = att.task
                task_span = task_spans.get(task.index)
                if att.result.ready():
                    active.remove(att)
                    progressed = True
                    if task.done or att.abandoned:
                        continue  # loser of a race / killed attempt: discard
                    obs_payload = None
                    try:
                        out, task_counters, checksum, seconds, obs_payload = (
                            att.result.get()
                        )
                        _verify_checksum(out, checksum, task.task_id, att.spec.attempt)
                    except Exception as exc:
                        reason = run.failure_reason(exc)
                        self._attempt_telemetry(
                            tracer, task_span, obs_payload, att, error=reason
                        )
                        failed(att, reason, exc)
                    else:
                        self._attempt_telemetry(
                            tracer, task_span, obs_payload, att, win=att.speculative
                        )
                        if task_span is not None:
                            tracer.finish(task_span)
                        durations.append(seconds)
                        remaining -= 1
                        run.commit(
                            task, out, task_counters, seconds,
                            speculative=att.speculative,
                        )
                    continue
                if task.done or att.abandoned:
                    continue
                runtime = now - att.started
                if policy.timeout is not None and runtime > policy.timeout:
                    # Abandon: the in-flight result will be discarded on
                    # arrival (the analogue of killing the attempt).
                    att.abandoned = True
                    progressed = True
                    exc = FaultError(
                        f"attempt abandoned after task_timeout={policy.timeout}s",
                        task_id=task.task_id,
                        attempt=att.spec.attempt,
                    )
                    self._attempt_telemetry(
                        tracer, task_span, None, att, error=str(exc)
                    )
                    failed(att, str(exc), exc)
                    continue
                if (
                    policy.speculative_margin > 0
                    and durations
                    and task.attempts < policy.max_attempts
                    and sum(
                        1 for a in active if a.task is task and not a.abandoned
                    )
                    < 2
                    and runtime
                    > policy.speculative_margin * statistics.median(durations)
                ):
                    submit(task, speculative=True)
                    run.counters.increment("fault", "speculative_attempts")
                    progressed = True

            # Launch retries whose backoff has elapsed.
            for index, when in list(next_backoff_at.items()):
                if now >= when:
                    del next_backoff_at[index]
                    submit(by_index[index], speculative=False)
                    progressed = True

            if not progressed:
                time.sleep(_POLL_INTERVAL)

    @staticmethod
    def _attempt_telemetry(
        tracer,
        task_span,
        obs_payload: dict | None,
        att: _Attempt,
        *,
        error: str | None = None,
        win: bool = False,
    ) -> None:
        """Land one attempt's spans in the driver tracer.

        Successful attempts ship their own worker-recorded spans
        (``obs_payload``) which are merged under the driver-side task span
        with clocks rebased; crashed/abandoned attempts produced nothing,
        so a span is synthesised from the driver-observed window and the
        injected fault's kind is tagged on.  Either way, failed and
        retried attempts end up as sibling ``attempt`` spans under one
        ``task`` span.
        """
        if not tracer.enabled:
            return
        if obs_payload is not None:
            merged = tracer.merge_payload(obs_payload, parent=task_span)
            parent_id = task_span.span_id if task_span is not None else None
            spans = [s for s in merged if s.parent_id == parent_id] or merged
        else:
            span = tracer.start(
                f"attempt:{att.spec.attempt}", kind="attempt", parent=task_span,
                start_s=att.started_rel, attempt=att.spec.attempt,
                task_id=att.spec.task_id,
            )
            tracer.finish(span)
            spans = [span]
        for span in spans:
            if att.speculative:
                span.attrs["speculative"] = True
            if win:
                span.attrs["speculative_win"] = True
            if att.spec.fault is not None:
                span.attrs.setdefault("fault", att.spec.fault.kind)
            if error is not None:
                span.status = "error"
                span.attrs["error"] = error


class MultiprocessRunner(_JobDriver):
    """Run map and reduce tasks on a local process pool with retries.

    ``trace=True`` records a :class:`~repro.mapreduce.types.JobTrace` with
    full attempt history (off by default: the serial runner remains the
    calibrated trace source for the cluster simulator).  ``fault_plan``,
    ``checkpoint`` and ``retry`` mirror
    :class:`~repro.mapreduce.runner.SerialRunner`.
    """

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        trace: bool = False,
        fault_plan: FaultPlan | None = None,
        checkpoint: JobCheckpoint | None = None,
        retry: RetryPolicy | None = None,
    ):
        if num_workers is not None and num_workers < 1:
            raise MapReduceError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__(
            trace=trace, fault_plan=fault_plan, checkpoint=checkpoint, retry=retry
        )
        self.num_workers = num_workers or max(1, os.cpu_count() or 1)

    def _job_attrs(self) -> dict:
        return {"runner": "multiprocess", "workers": self.num_workers}

    @contextmanager
    def _executor(self, job: MapReduceJob) -> Iterator[object]:
        if self.num_workers == 1:
            yield _InlineExecutor()
            return
        job.ensure_picklable()
        ctx = get_context("spawn" if os.name == "nt" else "fork")
        pool = ctx.Pool(self.num_workers)
        try:
            yield _PoolExecutor(pool)
        finally:
            pool.terminate()
            pool.join()
