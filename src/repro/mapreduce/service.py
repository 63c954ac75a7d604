"""Resilient multi-tenant job service over the Map-Reduce engine.

The paper's framework assumes a dedicated Hadoop cluster per analysis;
a shared deployment instead runs **many** clustering jobs from many
tenants against one pool of driver slots.  :class:`JobService` models
that deployment and the failure modes that come with it:

* **Admission control** — each tenant gets a bounded queue; a full queue
  sheds the submission with a typed :class:`~repro.errors.ServiceOverloadedError`
  carrying a retry-after hint (backpressure, not silent queuing).
* **Scheduling policy** — ``fifo`` (oldest submission first, across all
  tenants) or ``fair`` (least-service tenant first), the same two
  policies the fluid model in :mod:`repro.mapreduce.scheduler` analyses;
  :func:`fluid_prediction` replays a finished workload through that model
  so measured latencies can be validated against theory.
* **Deadlines and cancellation** — every job runs under a
  :class:`~repro.mapreduce.cancel.CancelScope`; a deadline that passes is
  enforced cooperatively at the next task boundary, exactly where
  Hadoop's JobTracker kills tasks of a killed job.
* **Retries** — job-level attempts with seeded, jittered exponential
  backoff (:class:`~repro.mapreduce.faults.RetryPolicy`), layered above
  the engine's own task-level attempts.
* **Circuit breaker** — a tenant whose jobs keep failing is tripped open
  (submissions rejected with :class:`~repro.errors.CircuitOpenError`)
  and re-admitted through a single half-open probe job.
* **Graceful degradation** — jobs submitted ``degradable=True`` are
  rerouted under queue pressure to the cheaper pipeline configuration
  (b-bit sketch wire, sparse similarity where exact) instead of shed.
* **Drain/shutdown** — :meth:`JobService.drain` stops admission and
  waits the backlog out; :meth:`JobService.shutdown` additionally
  cancels queued and running work.

Everything is deterministic given a deterministic workload: ticket ids
are sequence numbers, shedding depends only on queue occupancy, backoff
jitter is seeded, and :meth:`JobService.health` snapshots sort every
section.  When chaos-testing a service, give each concurrent job its own
:class:`~repro.mapreduce.faults.FaultPlan` built from pure rate/schedule
draws — a plan's speculation bookkeeping is driver-side mutable state
and must not be shared across service worker threads.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    JobCancelledError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from repro.mapreduce.cancel import CancelScope
from repro.mapreduce.faults import RetryPolicy
from repro.mapreduce.job import MapReduceJob, identity_reducer
from repro.mapreduce.scheduler import POLICIES, WorkloadJob, simulate_schedule
from repro.mapreduce.types import JobConf
from repro.obs.trace import NULL_TRACER

# Ticket lifecycle.  ``queued -> running -> done|failed`` is the happy
# path; ``shed`` never enters the queue, ``expired``/``cancelled`` can
# strike while queued or running.
STATUSES = (
    "queued",
    "running",
    "done",
    "failed",
    "shed",
    "expired",
    "cancelled",
)

_TERMINAL = frozenset(("done", "failed", "shed", "expired", "cancelled"))


# --------------------------------------------------------------------------
# Job specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MapReduceSpec:
    """A raw Map-Reduce job to run through the service.

    ``degraded`` execution is a no-op for raw jobs — there is no cheaper
    equivalent of an arbitrary mapper/reducer; degradation is a property
    of the clustering pipeline (:class:`ClusterJobSpec`).
    """

    job: MapReduceJob
    inputs: tuple
    conf: JobConf | None = None

    def describe(self) -> str:
        return f"mapreduce:{self.job.name}"

    def execute(self, runner, *, degraded: bool = False):
        return runner.run(self.job, list(self.inputs), self.conf)


@dataclass(frozen=True, eq=False)
class ClusterJobSpec:
    """One MrMC-MinH clustering request (the service's real workload).

    Degraded execution walks the ladder the wire/sparse subsystems
    provide: the b-bit sketch wire (8 bits, positional estimator) always
    applies, and greedy and single-linkage specs (the shapes the chain
    computes exactly) move to the engine LSH chain, ``sparse="engine"``.
    The degraded result is an approximation — that is the contract of
    ``degradable=True`` — but it is itself deterministic.
    """

    records: tuple
    kmer_size: int = 5
    num_hashes: int = 100
    threshold: float = 0.9
    method: str = "hierarchical"
    linkage: str = "average"
    estimator: str | None = None
    seed: int = 0
    num_map_tasks: int = 4
    sparse: bool | str = "auto"

    def describe(self) -> str:
        return f"cluster:{self.method}:{len(self.records)}reads"

    def execute(self, runner, *, degraded: bool = False):
        from repro.cluster.pipeline import MrMCMinH

        kwargs: dict = dict(
            kmer_size=self.kmer_size,
            num_hashes=self.num_hashes,
            threshold=self.threshold,
            method=self.method,
            linkage=self.linkage,
            estimator=self.estimator,
            seed=self.seed,
            runner=runner,
            num_map_tasks=self.num_map_tasks,
            sparse=self.sparse,
        )
        if degraded:
            kwargs["estimator"] = "positional"
            kwargs["wire_bits"] = 8
            if self.method == "greedy" or self.linkage == "single":
                kwargs["sparse"] = "engine"
        pipeline = MrMCMinH(**kwargs)
        return pipeline.fit(list(self.records))


class _SleepMapper:
    """Mapper that sleeps a fixed time per record (picklable)."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __call__(self, key, value):
        time.sleep(self.seconds)
        yield key, value


class _FailingMapper:
    """Mapper that always raises (picklable); drives breaker tests."""

    def __call__(self, key, value):
        raise ValueError("mapper configured to fail")
        yield  # pragma: no cover - makes this a generator function


def sleep_spec(seconds: float, name: str = "sleep") -> MapReduceSpec:
    """A job with a known service time — the unit of load tests.

    One map task, one record, ``seconds`` of work: measured run time is
    deterministic up to scheduler noise, which is exactly what the
    fluid-model validation and the service benchmarks need.
    """
    job = MapReduceJob(
        name=name, mapper=_SleepMapper(seconds), reducer=identity_reducer
    )
    return MapReduceSpec(
        job=job,
        inputs=(("k", name),),
        conf=JobConf(num_map_tasks=1, num_reduce_tasks=1),
    )


def failing_spec(name: str = "doomed") -> MapReduceSpec:
    """A job whose every attempt fails — drives retry/breaker paths."""
    job = MapReduceJob(
        name=name, mapper=_FailingMapper(), reducer=identity_reducer
    )
    return MapReduceSpec(
        job=job,
        inputs=(("k", name),),
        conf=JobConf(num_map_tasks=1, num_reduce_tasks=1),
    )


# --------------------------------------------------------------------------
# Circuit breaker
# --------------------------------------------------------------------------


class CircuitBreaker:
    """Per-tenant failure breaker: ``closed -> open -> half_open``.

    ``threshold`` consecutive job failures trip the breaker open; while
    open every submission is rejected with a retry-after hint.  After
    ``cooldown`` seconds the next submission is admitted as the single
    half-open **probe**: its success closes the breaker, its failure
    re-opens it (and restarts the cooldown).  Callers hold the service
    lock around every method, so the breaker itself is lock-free.
    """

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 5.0,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ServiceError(f"breaker threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ServiceError(f"breaker cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = "closed"
        self.failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    def admit(self, tenant: str) -> None:
        """Raise :class:`CircuitOpenError` unless a submission may enter."""
        if self.state == "closed":
            return
        if self.state == "open":
            waited = self._clock() - self._opened_at
            if waited < self.cooldown:
                raise CircuitOpenError(
                    f"circuit for tenant {tenant!r} is open after "
                    f"{self.failures} consecutive failures",
                    retry_after=self.cooldown - waited,
                )
            self.state = "half_open"
            self._probe_inflight = False
        # half_open: exactly one probe at a time.
        if self._probe_inflight:
            raise CircuitOpenError(
                f"circuit for tenant {tenant!r} is half-open; probe in flight",
                retry_after=self.cooldown,
            )
        self._probe_inflight = True

    def release_probe(self) -> None:
        """Free the half-open probe slot without judging the tenant.

        Used when an admitted probe never produces a verdict — shed at
        the queue, expired, or cancelled — so the breaker is not wedged
        waiting on a probe that will never report.
        """
        self._probe_inflight = False

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"
        self._probe_inflight = False

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            self.state = "open"
            self._opened_at = self._clock()
            self._probe_inflight = False


# --------------------------------------------------------------------------
# Tickets
# --------------------------------------------------------------------------


class JobTicket:
    """Handle for one submitted job.

    All mutable fields are written under the service lock; readers
    synchronise through :attr:`event` (set exactly once, at the terminal
    transition).
    """

    __slots__ = (
        "id",
        "tenant",
        "spec",
        "seq",
        "degradable",
        "deadline_s",
        "status",
        "result_value",
        "error",
        "attempts",
        "degraded",
        "submit_s",
        "start_s",
        "finish_s",
        "event",
        "scope",
        "span",
        "degrade_hint",
    )

    def __init__(
        self,
        *,
        tenant: str,
        spec,
        seq: int,
        degradable: bool,
        deadline_s: float | None,
        submit_s: float,
    ):
        self.id = f"{tenant}-{seq:04d}"
        self.tenant = tenant
        self.spec = spec
        self.seq = seq
        self.degradable = degradable
        self.deadline_s = deadline_s  # absolute, on the service clock
        self.status = "queued"
        self.result_value = None
        self.error: BaseException | None = None
        self.attempts = 0
        self.degraded = False
        self.submit_s = submit_s
        self.start_s: float | None = None
        self.finish_s: float | None = None
        self.event = threading.Event()
        self.scope: CancelScope | None = None
        self.span = None
        self.degrade_hint = False

    @property
    def latency(self) -> float | None:
        """Submission-to-terminal seconds (None while in flight)."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.submit_s

    @property
    def run_seconds(self) -> float | None:
        """Seconds spent actually running (None if never dispatched)."""
        if self.start_s is None or self.finish_s is None:
            return None
        return self.finish_s - self.start_s

    def done(self) -> bool:
        return self.status in _TERMINAL

    def result(self, timeout: float | None = None):
        """Block for the terminal state; return the job's result.

        Raises the stored typed error for ``failed``/``expired``/
        ``cancelled`` tickets and :class:`TimeoutError` if the ticket is
        still in flight after ``timeout`` seconds.
        """
        if not self.event.wait(timeout):
            raise TimeoutError(f"job {self.id} still {self.status}")
        if self.status == "done":
            return self.result_value
        if self.error is not None:
            raise self.error
        raise ServiceError(f"job {self.id} ended as {self.status} with no error")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobTicket(id={self.id!r}, status={self.status!r})"


@dataclass
class _TenantState:
    """Book-keeping for one tenant (all access under the service lock)."""

    name: str
    queue: list = field(default_factory=list)
    running: int = 0
    accepted: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    expired: int = 0
    cancelled: int = 0
    degraded_runs: int = 0
    service_seconds: float = 0.0
    last_pop_seq: int = -1
    latencies: list = field(default_factory=list)
    breaker: CircuitBreaker | None = None


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


# --------------------------------------------------------------------------
# The service
# --------------------------------------------------------------------------


class JobService:
    """Long-lived executor of Map-Reduce jobs for many tenants.

    ``num_slots`` worker threads pull tickets from per-tenant bounded
    queues (depth ``queue_depth``) under the configured ``policy`` and
    execute them on ``runner`` (shared; the serial runner is reentrant
    per-call, and each multiprocess job owns its own pool).  See the
    module docstring for the full resilience feature list.

    Use as a context manager for scoped lifetimes::

        with JobService(num_slots=2) as svc:
            t = svc.submit("alice", sleep_spec(0.01))
            t.result(timeout=5)
    """

    def __init__(
        self,
        *,
        num_slots: int = 2,
        queue_depth: int = 4,
        policy: str = "fair",
        runner=None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        degrade_at: float = 0.75,
        tracer=None,
    ):
        if num_slots < 1:
            raise ServiceError(f"num_slots must be >= 1, got {num_slots}")
        if queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {queue_depth}")
        if policy not in POLICIES:
            raise ServiceError(
                f"unknown admission policy {policy!r}; expected one of {POLICIES}"
            )
        if not 0.0 < degrade_at <= 1.0:
            raise ServiceError(f"degrade_at must be in (0,1], got {degrade_at}")
        if runner is None:
            from repro.mapreduce.runner import SerialRunner

            runner = SerialRunner(trace=False)
        self.num_slots = num_slots
        self.queue_depth = queue_depth
        self.policy = policy
        self.runner = runner
        self.retry = retry or RetryPolicy(max_attempts=1)
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.degrade_at = degrade_at
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = self.tracer.metrics

        self._cond = threading.Condition()
        self._tenants: dict[str, _TenantState] = {}
        self._workers: list[threading.Thread] = []
        self._running_tickets: set[JobTicket] = set()
        self._next_seq = 0
        self._started = False
        self._draining = False
        self._stopped = False
        self._epoch = time.monotonic()

    # ---- clock -----------------------------------------------------------

    def now(self) -> float:
        """Seconds since service creation (the ticket timestamp clock)."""
        return time.monotonic() - self._epoch

    # ---- lifecycle -------------------------------------------------------

    def start(self) -> "JobService":
        """Spawn the worker slots (idempotent)."""
        with self._cond:
            if self._stopped:
                raise ServiceStoppedError("service has been shut down")
            if self._started:
                return self
            self._started = True
        for i in range(self.num_slots):
            worker = threading.Thread(
                target=self._worker_loop, name=f"job-service-slot-{i}", daemon=True
            )
            self._workers.append(worker)
            worker.start()
        return self

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()
        self.shutdown(wait=exc_type is None)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admission and wait until queues and slots are empty.

        Returns True once drained; False if ``timeout`` elapsed first
        (admission stays closed either way — drain is one-way).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            while not self._idle_locked():
                self._expire_queued_locked()
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(
                    timeout=0.05 if remaining is None else min(0.05, remaining)
                )
            return True

    def shutdown(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop the service.

        ``wait=True`` drains first; ``wait=False`` cancels every queued
        ticket and flags running scopes, which take effect at the next
        task boundary.  Either way the worker threads exit.
        """
        if wait:
            self.drain(timeout=timeout)
        with self._cond:
            self._draining = True
            self._stopped = True
            if not wait:
                for state in self._tenants.values():
                    for ticket in list(state.queue):
                        state.queue.remove(ticket)
                        self._finalize_locked(
                            ticket,
                            "cancelled",
                            error=JobCancelledError(
                                f"job {ticket.id} cancelled by shutdown"
                            ),
                        )
                for ticket in self._running_tickets:
                    if ticket.scope is not None:
                        ticket.scope.cancel("service shutdown")
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=timeout)
        self._workers.clear()

    # ---- submission ------------------------------------------------------

    def submit(
        self,
        tenant: str,
        spec,
        *,
        deadline: float | None = None,
        degradable: bool = False,
    ) -> JobTicket:
        """Admit one job for ``tenant``; returns its :class:`JobTicket`.

        ``deadline`` is seconds from now; a job that cannot finish by
        then ends ``expired``.  Raises
        :class:`~repro.errors.ServiceOverloadedError` when the tenant's
        queue is full, :class:`~repro.errors.CircuitOpenError` while the
        tenant's breaker is open, and
        :class:`~repro.errors.ServiceStoppedError` once draining.
        """
        if not tenant:
            raise ServiceError("tenant name must be non-empty")
        if deadline is not None and deadline <= 0:
            raise ServiceError(f"deadline must be positive, got {deadline}")
        with self._cond:
            if self._stopped or self._draining:
                raise ServiceStoppedError(
                    f"service is {'stopped' if self._stopped else 'draining'}; "
                    f"not accepting jobs"
                )
            state = self._tenant_locked(tenant)
            state.breaker.admit(tenant)
            if len(state.queue) >= self.queue_depth:
                state.shed += 1
                state.breaker.release_probe()
                self.metrics.counter(f"service.jobs_shed.{tenant}").inc()
                raise ServiceOverloadedError(
                    f"tenant {tenant!r} queue is full "
                    f"({len(state.queue)}/{self.queue_depth})",
                    retry_after=self._retry_after_locked(),
                )
            seq = self._next_seq
            self._next_seq += 1
            now = self.now()
            ticket = JobTicket(
                tenant=tenant,
                spec=spec,
                seq=seq,
                degradable=degradable,
                deadline_s=None if deadline is None else now + deadline,
                submit_s=now,
            )
            ticket.span = self.tracer.start(
                f"service:{ticket.id}",
                kind="service_job",
                tenant=tenant,
                spec=spec.describe() if hasattr(spec, "describe") else repr(spec),
            )
            state.queue.append(ticket)
            state.accepted += 1
            self.metrics.counter(f"service.jobs_accepted.{tenant}").inc()
            self.metrics.gauge(f"service.queue_depth.{tenant}").set(len(state.queue))
            self._cond.notify()
            return ticket

    # ---- health ----------------------------------------------------------

    def health(self) -> dict:
        """Deterministically ordered snapshot of service state."""
        with self._cond:
            tenants = {}
            for name in sorted(self._tenants):
                state = self._tenants[name]
                entry = {
                    "queued": len(state.queue),
                    "running": state.running,
                    "accepted": state.accepted,
                    "shed": state.shed,
                    "completed": state.completed,
                    "failed": state.failed,
                    "expired": state.expired,
                    "cancelled": state.cancelled,
                    "degraded_runs": state.degraded_runs,
                    "breaker": state.breaker.state,
                    "breaker_failures": state.breaker.failures,
                }
                if state.latencies:
                    entry["latency_p50_ms"] = round(
                        1000 * _percentile(state.latencies, 0.50), 3
                    )
                    entry["latency_p99_ms"] = round(
                        1000 * _percentile(state.latencies, 0.99), 3
                    )
                tenants[name] = entry
            totals = {
                "accepted": sum(s.accepted for s in self._tenants.values()),
                "shed": sum(s.shed for s in self._tenants.values()),
                "completed": sum(s.completed for s in self._tenants.values()),
                "failed": sum(s.failed for s in self._tenants.values()),
                "expired": sum(s.expired for s in self._tenants.values()),
                "cancelled": sum(s.cancelled for s in self._tenants.values()),
                "queued": sum(len(s.queue) for s in self._tenants.values()),
                "running": sum(s.running for s in self._tenants.values()),
            }
            return {
                "policy": self.policy,
                "num_slots": self.num_slots,
                "queue_depth": self.queue_depth,
                "draining": self._draining,
                "stopped": self._stopped,
                "tenants": tenants,
                "totals": totals,
            }

    # ---- internals: locked helpers --------------------------------------

    def _tenant_locked(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(
                name=name,
                breaker=CircuitBreaker(
                    threshold=self.breaker_threshold,
                    cooldown=self.breaker_cooldown,
                ),
            )
            self._tenants[name] = state
        return state

    def _retry_after_locked(self) -> float:
        """Hint: backlog x mean service time / slots."""
        backlog = sum(len(s.queue) + s.running for s in self._tenants.values())
        completed = sum(s.completed + s.failed for s in self._tenants.values())
        total_service = sum(s.service_seconds for s in self._tenants.values())
        mean = (total_service / completed) if completed else 0.1
        return max(0.05, backlog * mean / self.num_slots)

    def _idle_locked(self) -> bool:
        return not self._running_tickets and all(
            not s.queue for s in self._tenants.values()
        )

    def _pressure_locked(self) -> float:
        """Queue occupancy across tenants in [0, 1]."""
        if not self._tenants:
            return 0.0
        capacity = len(self._tenants) * self.queue_depth
        return sum(len(s.queue) for s in self._tenants.values()) / capacity

    def _expire_queued_locked(self) -> None:
        """Fail queued tickets whose deadline has already passed."""
        now = self.now()
        for state in self._tenants.values():
            stale = [
                t
                for t in state.queue
                if t.deadline_s is not None and now >= t.deadline_s
            ]
            for ticket in stale:
                state.queue.remove(ticket)
                self._finalize_locked(
                    ticket,
                    "expired",
                    error=DeadlineExceededError(
                        f"job {ticket.id} deadline passed while queued"
                    ),
                )

    def _pop_next_locked(self) -> JobTicket | None:
        """Pick the next ticket under the configured policy."""
        candidates = [s for s in self._tenants.values() if s.queue]
        if not candidates:
            return None
        if self.policy == "fifo":
            state = min(candidates, key=lambda s: s.queue[0].seq)
        else:  # fair: least concurrently-served, then least historical service
            state = min(
                candidates,
                key=lambda s: (s.running, s.service_seconds, s.last_pop_seq),
            )
        ticket = state.queue.pop(0)
        state.last_pop_seq = ticket.seq
        state.running += 1
        ticket.status = "running"
        ticket.start_s = self.now()
        ticket.degrade_hint = self._pressure_locked() >= self.degrade_at
        self._running_tickets.add(ticket)
        self.metrics.gauge(f"service.queue_depth.{ticket.tenant}").set(
            len(state.queue)
        )
        return ticket

    def _finalize_locked(self, ticket: JobTicket, status: str, *, error=None, result=None):
        """Terminal transition: counters, metrics, span, waiter wake-up."""
        state = self._tenants[ticket.tenant]
        was_running = ticket in self._running_tickets
        self._running_tickets.discard(ticket)
        if was_running:
            state.running -= 1
        ticket.status = status
        ticket.error = error
        ticket.result_value = result
        ticket.finish_s = self.now()
        if ticket.run_seconds is not None:
            state.service_seconds += ticket.run_seconds
        if status in ("done", "failed"):
            state.latencies.append(ticket.latency)
            self.metrics.histogram("service.latency_seconds").observe(ticket.latency)
        if status == "done":
            state.completed += 1
            state.breaker.record_success()
        elif status == "failed":
            state.failed += 1
            state.breaker.record_failure()
        elif status == "expired":
            state.expired += 1
            # A deadline miss is load, not tenant misbehaviour: no
            # breaker verdict, but the probe slot must be released.
            state.breaker.release_probe()
        elif status == "cancelled":
            state.cancelled += 1
            state.breaker.release_probe()
        if ticket.degraded:
            state.degraded_runs += 1
        self.metrics.counter(f"service.jobs_{status}.{ticket.tenant}").inc()
        self.tracer.finish(
            ticket.span, status="ok" if status == "done" else "error"
        )
        ticket.event.set()
        self._cond.notify_all()

    # ---- internals: worker loop ------------------------------------------

    def _worker_loop(self) -> None:
        activation = (
            self.tracer.activate() if self.tracer.enabled else nullcontext()
        )
        with activation:
            while True:
                with self._cond:
                    ticket = None
                    while ticket is None:
                        if self._stopped:
                            return
                        self._expire_queued_locked()
                        ticket = self._pop_next_locked()
                        if ticket is None:
                            self._cond.wait(timeout=0.05)
                self._execute(ticket)

    def _execute(self, ticket: JobTicket) -> None:
        policy = self.retry
        attempt = 0
        while True:
            attempt += 1
            ticket.attempts = attempt
            degraded = ticket.degradable and (ticket.degrade_hint or attempt > 1)
            ticket.degraded = ticket.degraded or degraded
            scope = CancelScope(deadline_s=self._abs_deadline(ticket))
            with self._cond:
                ticket.scope = scope
                if degraded:
                    self.metrics.counter(
                        f"service.jobs_degraded.{ticket.tenant}"
                    ).inc()
            try:
                with scope.activate():
                    scope.check("dispatch")
                    result = ticket.spec.execute(self.runner, degraded=degraded)
            except DeadlineExceededError as exc:
                with self._cond:
                    self._finalize_locked(ticket, "expired", error=exc)
                return
            except JobCancelledError as exc:
                with self._cond:
                    self._finalize_locked(ticket, "cancelled", error=exc)
                return
            except Exception as exc:
                # Engine failures arrive as ReproError subtypes, user
                # errors as-is; both are retryable at the job level
                # (cancellation was already handled above) and fail the
                # job — never the slot — on exhaustion.
                if attempt >= policy.max_attempts:
                    with self._cond:
                        self._finalize_locked(ticket, "failed", error=exc)
                    return
                delay = policy.backoff_delay(attempt)
                remaining = scope.remaining()
                if remaining is not None and delay >= remaining:
                    with self._cond:
                        self._finalize_locked(
                            ticket,
                            "expired",
                            error=DeadlineExceededError(
                                f"job {ticket.id} cannot retry within its deadline"
                            ),
                        )
                    return
                self.metrics.counter(f"service.job_retries.{ticket.tenant}").inc()
                if delay > 0:
                    time.sleep(delay)
            else:
                with self._cond:
                    self._finalize_locked(ticket, "done", result=result)
                return

    def _abs_deadline(self, ticket: JobTicket) -> float | None:
        """Ticket deadline rebased onto ``time.monotonic`` for the scope."""
        if ticket.deadline_s is None:
            return None
        return self._epoch + ticket.deadline_s


# --------------------------------------------------------------------------
# Fluid-model validation
# --------------------------------------------------------------------------


def fluid_prediction(
    tickets, num_slots: int, policy: str
) -> dict[str, float]:
    """Replay finished tickets through the fluid scheduler model.

    Each ticket becomes a :class:`~repro.mapreduce.scheduler.WorkloadJob`
    with ``arrival`` = its submission offset and ``work`` = its
    *measured* run seconds (``max_parallelism=1``: one driver slot per
    job).  Returns ``{ticket_id: predicted_latency_seconds}`` — compare
    against ``ticket.latency`` to validate the service's scheduler
    against theory.  Only ``done``/``failed`` tickets (the ones that
    actually consumed a slot) participate.
    """
    finished = [t for t in tickets if t.run_seconds is not None]
    if not finished:
        return {}
    t0 = min(t.submit_s for t in finished)
    jobs = [
        WorkloadJob(
            name=t.id,
            arrival=t.submit_s - t0,
            work=max(t.run_seconds, 1e-9),
            max_parallelism=1.0,
        )
        for t in sorted(finished, key=lambda t: t.seq)
    ]
    outcomes = simulate_schedule(jobs, capacity=float(num_slots), policy=policy)
    return {o.name: o.latency for o in outcomes}
