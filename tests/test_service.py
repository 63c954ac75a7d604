"""Tests for the multi-tenant job service (repro.mapreduce.service)."""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    JobCancelledError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from repro.mapreduce import (
    CancelScope,
    JobConf,
    MapReduceJob,
    RetryPolicy,
    check_cancelled,
    identity_reducer,
)
from repro.mapreduce.service import (
    CircuitBreaker,
    ClusterJobSpec,
    JobService,
    MapReduceSpec,
    failing_spec,
    fluid_prediction,
    sleep_spec,
)


class _FlakyMapper:
    """Fails the first ``failures`` executions, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self, key, value):
        self.calls += 1
        if self.calls <= self.failures:
            raise ValueError(f"flaky failure {self.calls}")
        yield key, value


def flaky_spec(failures: int) -> MapReduceSpec:
    job = MapReduceJob(
        name="flaky", mapper=_FlakyMapper(failures), reducer=identity_reducer
    )
    return MapReduceSpec(
        job=job,
        inputs=(("k", "v"),),
        conf=JobConf(num_map_tasks=1, num_reduce_tasks=1),
    )


# ---------------------------------------------------------------------------
# Cancellation scopes
# ---------------------------------------------------------------------------


class TestCancelScope:
    def test_no_scope_is_noop(self):
        check_cancelled("anywhere")  # must not raise

    def test_explicit_cancel(self):
        scope = CancelScope()
        with scope.activate():
            check_cancelled()
            scope.cancel("test")
            with pytest.raises(JobCancelledError, match="test"):
                check_cancelled("map barrier")

    def test_deadline(self):
        clock = [0.0]
        scope = CancelScope(deadline_s=1.0, clock=lambda: clock[0])
        with scope.activate():
            check_cancelled()
            assert scope.remaining() == 1.0
            clock[0] = 2.0
            with pytest.raises(DeadlineExceededError):
                check_cancelled()

    def test_scope_restored_on_exit(self):
        scope = CancelScope()
        scope.cancel()
        with scope.activate():
            pass
        check_cancelled()  # scope deactivated: no raise

    def test_runner_aborts_at_task_boundary(self):
        """A tripped scope stops the serial runner between tasks."""
        from repro.mapreduce.runner import SerialRunner

        scope = CancelScope()
        scope.cancel("stop now")
        spec = sleep_spec(0.0)
        with scope.activate():
            with pytest.raises(JobCancelledError):
                SerialRunner(trace=False).run(spec.job, list(spec.inputs), spec.conf)


# ---------------------------------------------------------------------------
# Backoff jitter (satellite: seeded full jitter in RetryPolicy)
# ---------------------------------------------------------------------------


class TestBackoffJitter:
    def test_default_is_byte_identical_deterministic(self):
        policy = RetryPolicy(max_attempts=5, backoff=0.1, backoff_cap=1.0)
        assert [policy.backoff_delay(a) for a in (1, 2, 3, 4)] == [
            0.1,
            0.2,
            0.4,
            0.8,
        ]

    def test_jitter_is_seed_deterministic(self):
        a = RetryPolicy(max_attempts=5, backoff=0.1, jitter=1.0, seed=42)
        b = RetryPolicy(max_attempts=5, backoff=0.1, jitter=1.0, seed=42)
        assert [a.backoff_delay(i) for i in range(1, 5)] == [
            b.backoff_delay(i) for i in range(1, 5)
        ]

    def test_different_seeds_decorrelate(self):
        a = RetryPolicy(max_attempts=5, backoff=0.1, jitter=1.0, seed=1)
        b = RetryPolicy(max_attempts=5, backoff=0.1, jitter=1.0, seed=2)
        assert [a.backoff_delay(i) for i in range(1, 5)] != [
            b.backoff_delay(i) for i in range(1, 5)
        ]

    def test_jitter_bounds(self):
        base = RetryPolicy(max_attempts=8, backoff=0.1, backoff_cap=10.0)
        for jitter in (0.25, 0.5, 1.0):
            for seed in range(5):
                policy = RetryPolicy(
                    max_attempts=8,
                    backoff=0.1,
                    backoff_cap=10.0,
                    jitter=jitter,
                    seed=seed,
                )
                for attempt in range(1, 6):
                    delay = policy.backoff_delay(attempt)
                    ceiling = base.backoff_delay(attempt)
                    assert (1.0 - jitter) * ceiling <= delay < ceiling + 1e-12

    def test_jitter_validation(self):
        from repro.errors import MapReduceError

        with pytest.raises(MapReduceError, match="jitter"):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=2, cooldown=10.0, clock=lambda: clock[0])
        br.admit("t")
        br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open"
        with pytest.raises(CircuitOpenError) as exc_info:
            br.admit("t")
        assert exc_info.value.retry_after == pytest.approx(10.0)

    def test_half_open_probe_closes_on_success(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=1, cooldown=5.0, clock=lambda: clock[0])
        br.record_failure()
        clock[0] = 6.0
        br.admit("t")  # the probe
        assert br.state == "half_open"
        with pytest.raises(CircuitOpenError):
            br.admit("t")  # only one probe at a time
        br.record_success()
        assert br.state == "closed"
        br.admit("t")  # normal admission again

    def test_half_open_probe_failure_reopens(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=3, cooldown=5.0, clock=lambda: clock[0])
        for _ in range(3):
            br.record_failure()
        clock[0] = 6.0
        br.admit("t")
        br.record_failure()  # probe failed
        assert br.state == "open"
        with pytest.raises(CircuitOpenError):
            br.admit("t")  # cooldown restarted

    def test_release_probe_unwedges(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=1, cooldown=1.0, clock=lambda: clock[0])
        br.record_failure()
        clock[0] = 2.0
        br.admit("t")
        br.release_probe()
        br.admit("t")  # a new probe may enter


# ---------------------------------------------------------------------------
# Admission, backpressure, scheduling
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_validation(self):
        with pytest.raises(ServiceError):
            JobService(num_slots=0)
        with pytest.raises(ServiceError):
            JobService(queue_depth=0)
        with pytest.raises(ServiceError):
            JobService(policy="srpt")
        with pytest.raises(ServiceError):
            JobService(degrade_at=0.0)
        svc = JobService()
        with pytest.raises(ServiceError):
            svc.submit("", sleep_spec(0.0))
        with pytest.raises(ServiceError):
            svc.submit("t", sleep_spec(0.0), deadline=-1.0)

    def test_queue_full_sheds_with_retry_after(self):
        """Submitting before start makes the shed set purely structural."""
        svc = JobService(num_slots=1, queue_depth=2)
        accepted = [svc.submit("a", sleep_spec(0.001)) for _ in range(2)]
        with pytest.raises(ServiceOverloadedError) as exc_info:
            svc.submit("a", sleep_spec(0.001))
        assert exc_info.value.retry_after > 0
        health = svc.health()
        assert health["tenants"]["a"]["shed"] == 1
        assert health["tenants"]["a"]["queued"] == 2
        svc.start()
        for t in accepted:
            t.result(timeout=10)
        svc.shutdown()

    def test_queues_are_per_tenant(self):
        svc = JobService(num_slots=1, queue_depth=1)
        svc.submit("a", sleep_spec(0.001))
        with pytest.raises(ServiceOverloadedError):
            svc.submit("a", sleep_spec(0.001))
        svc.submit("b", sleep_spec(0.001))  # b's queue is independent
        svc.start()
        svc.drain(timeout=10)
        svc.shutdown()

    def test_submit_after_drain_rejected(self):
        svc = JobService(num_slots=1).start()
        svc.drain(timeout=10)
        with pytest.raises(ServiceStoppedError):
            svc.submit("a", sleep_spec(0.0))
        svc.shutdown()

    def test_fifo_pops_globally_oldest(self):
        svc = JobService(num_slots=1, queue_depth=8, policy="fifo")
        order = []
        for i, tenant in enumerate(["a", "a", "a", "b"]):
            t = svc.submit(tenant, sleep_spec(0.001, name=f"j{i}"))
            t.event  # touch
            order.append(t)
        svc.start()
        svc.drain(timeout=10)
        starts = [t.start_s for t in order]
        assert starts == sorted(starts)  # submission order == dispatch order
        svc.shutdown()

    def test_fair_interleaves_tenants(self):
        svc = JobService(num_slots=1, queue_depth=8, policy="fair")
        a = [svc.submit("a", sleep_spec(0.001)) for _ in range(3)]
        b = [svc.submit("b", sleep_spec(0.001)) for _ in range(3)]
        svc.start()
        svc.drain(timeout=10)
        svc.shutdown()
        # Under fair sharing b's first job runs before a's last: the
        # dispatch order alternates tenants instead of draining a first.
        assert b[0].start_s < a[-1].start_s

    def test_completed_ticket_result_and_counters(self):
        with JobService(num_slots=2) as svc:
            t = svc.submit("a", sleep_spec(0.001))
            result = t.result(timeout=10)
        assert t.status == "done"
        assert t.latency is not None and t.latency >= 0
        assert result.counters is not None


# ---------------------------------------------------------------------------
# Deadlines, retries, degradation
# ---------------------------------------------------------------------------


class TestDeadlinesRetries:
    def test_deadline_expires_queued_job(self):
        svc = JobService(num_slots=1, queue_depth=4)
        blocker = svc.submit("a", sleep_spec(0.3))
        doomed = svc.submit("a", sleep_spec(0.1), deadline=0.01)
        svc.start()
        assert doomed.event.wait(10)
        assert doomed.status == "expired"
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=1)
        blocker.result(timeout=10)
        svc.shutdown()

    def test_deadline_expires_running_job(self):
        with JobService(num_slots=1) as svc:
            t = svc.submit("a", sleep_spec(0.2), deadline=0.02)
            assert t.event.wait(10)
            assert t.status == "expired"

    def test_job_level_retry_succeeds(self):
        retry = RetryPolicy(max_attempts=3, backoff=0.001, jitter=1.0, seed=7)
        with JobService(num_slots=1, retry=retry) as svc:
            t = svc.submit("a", flaky_spec(failures=2))
            t.result(timeout=10)
        assert t.status == "done"
        assert t.attempts == 3

    def test_retry_exhaustion_fails(self):
        retry = RetryPolicy(max_attempts=2, backoff=0.001)
        with JobService(num_slots=1, retry=retry) as svc:
            t = svc.submit("a", failing_spec())
            assert t.event.wait(10)
        assert t.status == "failed"
        assert t.attempts == 2
        with pytest.raises(Exception):
            t.result(timeout=1)

    def test_degradable_job_degrades_under_pressure(self):
        # degrade_at small: any backlog counts as pressure.
        svc = JobService(num_slots=1, queue_depth=4, degrade_at=0.25)
        tickets = [
            svc.submit("a", sleep_spec(0.005), degradable=True) for _ in range(4)
        ]
        svc.start()
        svc.drain(timeout=10)
        svc.shutdown()
        assert any(t.degraded for t in tickets)
        assert svc.health()["tenants"]["a"]["degraded_runs"] >= 1

    def test_non_degradable_never_degrades(self):
        svc = JobService(num_slots=1, queue_depth=4, degrade_at=0.25)
        tickets = [svc.submit("a", sleep_spec(0.005)) for _ in range(4)]
        svc.start()
        svc.drain(timeout=10)
        svc.shutdown()
        assert not any(t.degraded for t in tickets)


class TestDegradedClusterSpec:
    def test_degraded_execution_is_cheaper_config(self, two_family_records):
        """Degraded greedy run: b-bit wire + sparse, still a valid run."""
        from repro.mapreduce.runner import SerialRunner

        spec = ClusterJobSpec(
            records=tuple(two_family_records),
            kmer_size=5,
            num_hashes=32,
            threshold=0.5,
            method="greedy",
            seed=0,
            num_map_tasks=2,
        )
        runner = SerialRunner(trace=False)
        full = spec.execute(runner, degraded=False)
        degraded = spec.execute(runner, degraded=True)
        assert full.assignment.num_clusters >= 1
        assert degraded.assignment.num_clusters >= 1
        # Both cluster the same reads; the degraded run is approximate
        # but must still assign every read.
        assert len(degraded.assignment) == len(full.assignment)

    def test_degraded_greedy_runs_the_engine_chain(self, two_family_records):
        """Degraded greedy moves to the engine chain: the same bytes as a
        direct b-bit positional engine fit, with no second collision join."""
        from repro.cluster.pipeline import MrMCMinH
        from repro.mapreduce.runner import SerialRunner

        spec = ClusterJobSpec(
            records=tuple(two_family_records),
            kmer_size=5,
            num_hashes=32,
            threshold=0.5,
            method="greedy",
            seed=0,
            num_map_tasks=2,
        )
        degraded = spec.execute(SerialRunner(), degraded=True)
        direct = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.5, method="greedy",
            estimator="positional", wire_bits=8, sparse="engine", seed=0,
            num_map_tasks=2,
        ).fit(two_family_records)
        assert degraded.mode == direct.mode == "engine"
        assert degraded.assignment.to_tsv() == direct.assignment.to_tsv()
        assert [t.job_name for t in degraded.traces] == [
            t.job_name for t in direct.traces
        ]

    def test_degraded_hierarchical_average_keeps_dense_path(
        self, two_family_records
    ):
        """average linkage cannot go sparse; the ladder stops at b-bit."""
        from repro.mapreduce.runner import SerialRunner

        spec = ClusterJobSpec(
            records=tuple(two_family_records),
            num_hashes=32,
            threshold=0.5,
            method="hierarchical",
            linkage="average",
            num_map_tasks=2,
        )
        run = spec.execute(SerialRunner(trace=False), degraded=True)
        assert run.similarity is not None  # dense matrix retained

    def test_service_runs_cluster_specs(self, two_family_records):
        spec = ClusterJobSpec(
            records=tuple(two_family_records),
            num_hashes=32,
            threshold=0.5,
            method="greedy",
            num_map_tasks=2,
        )
        with JobService(num_slots=2) as svc:
            t = svc.submit("metagenomics", spec)
            run = t.result(timeout=60)
        assert run.assignment.num_clusters >= 1

    def test_service_engine_spec_leaves_shuffle_bytes_unmeasured(
        self, two_family_records
    ):
        """The default runner traces nothing: the chain's rounds are still
        counted, its shuffle volume is reported unmeasured, not 0."""
        spec = ClusterJobSpec(
            records=tuple(two_family_records),
            num_hashes=32,
            threshold=0.6,
            method="hierarchical",
            linkage="single",
            num_map_tasks=2,
            sparse="engine",
        )
        with JobService(num_slots=1) as svc:
            run = svc.submit("metagenomics", spec).result(timeout=60)
        assert run.mode == "engine"
        assert run.sparse_stats["rounds"] == 2
        assert run.sparse_stats["candidate_pairs"] > 0
        assert run.sparse_stats["shuffle_bytes"] is None


# ---------------------------------------------------------------------------
# Breaker integration, drain, shutdown
# ---------------------------------------------------------------------------


class TestServiceResilience:
    def test_breaker_trips_and_recovers(self):
        svc = JobService(
            num_slots=1, queue_depth=8, breaker_threshold=2, breaker_cooldown=0.1
        ).start()
        for _ in range(2):
            t = svc.submit("bad", failing_spec())
            assert t.event.wait(10)
            assert t.status == "failed"
        with pytest.raises(CircuitOpenError):
            svc.submit("bad", sleep_spec(0.001))
        assert svc.health()["tenants"]["bad"]["breaker"] == "open"
        time.sleep(0.15)
        probe = svc.submit("bad", sleep_spec(0.001))  # half-open probe
        probe.result(timeout=10)
        assert svc.health()["tenants"]["bad"]["breaker"] == "closed"
        svc.shutdown()

    def test_breaker_isolates_tenants(self):
        svc = JobService(
            num_slots=1, queue_depth=8, breaker_threshold=1, breaker_cooldown=60.0
        ).start()
        t = svc.submit("bad", failing_spec())
        assert t.event.wait(10)
        with pytest.raises(CircuitOpenError):
            svc.submit("bad", sleep_spec(0.001))
        good = svc.submit("good", sleep_spec(0.001))  # unaffected
        good.result(timeout=10)
        svc.shutdown()

    def test_drain_terminates_and_is_one_way(self):
        svc = JobService(num_slots=2, queue_depth=4).start()
        tickets = [svc.submit("a", sleep_spec(0.01)) for _ in range(4)]
        assert svc.drain(timeout=10) is True
        assert all(t.status == "done" for t in tickets)
        with pytest.raises(ServiceStoppedError):
            svc.submit("a", sleep_spec(0.0))
        svc.shutdown()

    def test_shutdown_nowait_cancels_queued(self):
        svc = JobService(num_slots=1, queue_depth=8)
        tickets = [svc.submit("a", sleep_spec(0.05)) for _ in range(4)]
        svc.start()
        time.sleep(0.02)  # let the first job start
        svc.shutdown(wait=False)
        statuses = {t.status for t in tickets}
        assert "cancelled" in statuses  # queued tail was cancelled
        for t in tickets:
            assert t.done()

    def test_context_manager_drains(self):
        with JobService(num_slots=1) as svc:
            t = svc.submit("a", sleep_spec(0.01))
        assert t.status == "done"

    def test_health_snapshot_is_deterministically_ordered(self):
        svc = JobService(num_slots=1)
        svc.submit("zeta", sleep_spec(0.001))
        svc.submit("alpha", sleep_spec(0.001))
        svc.start()
        svc.drain(timeout=10)
        health = svc.health()
        assert list(health["tenants"]) == ["alpha", "zeta"]
        assert health["totals"]["completed"] == 2
        svc.shutdown()

    def test_service_spans_and_metrics(self):
        from repro.obs import Tracer

        tracer = Tracer()
        svc = JobService(num_slots=1, tracer=tracer)
        svc.submit("a", sleep_spec(0.001))
        svc.start()
        svc.drain(timeout=10)
        svc.shutdown()
        service_spans = [s for s in tracer.spans if s.kind == "service_job"]
        assert len(service_spans) == 1
        assert service_spans[0].status == "ok"
        assert service_spans[0].end_s is not None
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["service.jobs_accepted.a"] == 1
        assert snap["counters"]["service.jobs_done.a"] == 1


# ---------------------------------------------------------------------------
# Fluid-model validation (measured vs scheduler.py prediction)
# ---------------------------------------------------------------------------


class TestFluidValidation:
    TOLERANCE = 0.35  # relative; absolute floor below

    def _run(self, policy: str):
        svc = JobService(num_slots=2, queue_depth=8, policy=policy)
        tickets = []
        for _ in range(3):
            for tenant in ("a", "b"):
                tickets.append(svc.submit(tenant, sleep_spec(0.02)))
        svc.start()
        for t in tickets:
            t.result(timeout=30)
        svc.shutdown()
        return tickets

    @pytest.mark.parametrize("policy", ["fifo", "fair"])
    def test_measured_latency_matches_fluid_model(self, policy):
        tickets = self._run(policy)
        predicted = fluid_prediction(tickets, 2, policy)
        assert set(predicted) == {t.id for t in tickets}
        for t in tickets:
            tolerance = max(self.TOLERANCE * predicted[t.id], 0.25)
            assert abs(t.latency - predicted[t.id]) <= tolerance, (
                f"{policy}: job {t.id} measured {t.latency:.3f}s vs "
                f"fluid {predicted[t.id]:.3f}s"
            )
        # Aggregate check is tighter than per-job: mean measured latency
        # must track the fluid mean within the relative tolerance.
        mean_measured = sum(t.latency for t in tickets) / len(tickets)
        mean_predicted = sum(predicted.values()) / len(predicted)
        assert mean_measured == pytest.approx(
            mean_predicted, rel=0.6, abs=0.15
        )

    def test_empty_prediction(self):
        assert fluid_prediction([], 2, "fifo") == {}
