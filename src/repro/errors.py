"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything produced by this package with a single ``except`` clause
while still letting programming errors (``TypeError`` and friends)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SequenceError(ReproError):
    """Invalid sequence data (bad alphabet, empty sequence, bad FASTA)."""


class FastaParseError(SequenceError):
    """Malformed FASTA/FASTQ input."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class KmerError(SequenceError):
    """Invalid k-mer parameters (k out of range, sequence shorter than k)."""


class SketchError(ReproError):
    """Invalid min-hash sketch operation (mismatched families, bad params)."""


class ClusteringError(ReproError):
    """Invalid clustering input or parameters."""


class ClusterConfigError(ClusteringError):
    """Invalid pipeline configuration (unknown method/linkage, bad ranges).

    Raised at construction time so misconfigured pipelines fail before any
    job is launched, not mid-run.
    """


class SparseCompatibilityError(ClusterConfigError):
    """Sparse mode requested for a shape it cannot compute exactly.

    The collision-candidate join is exact only for single-linkage
    hierarchical clustering and positional-estimator greedy clustering at
    θ > 0; other combinations must either run dense or accept an
    approximation the caller has not asked for, so they are rejected.
    Carries the offending configuration for programmatic handling.
    """

    def __init__(
        self,
        message: str,
        *,
        method: str | None = None,
        linkage: str | None = None,
        estimator: str | None = None,
    ):
        self.method = method
        self.linkage = linkage
        self.estimator = estimator
        super().__init__(message)


class WireCompatibilityError(ClusterConfigError):
    """``wire_bits`` requested with a configuration the b-bit collision
    correction cannot serve (currently: any non-positional estimator)."""


class MapReduceError(ReproError):
    """Errors raised by the Map-Reduce engine."""


class HdfsError(MapReduceError):
    """Errors raised by the simulated HDFS layer."""


class FaultError(MapReduceError):
    """An injected or detected task fault (crash, hang, corrupt output).

    Raised *inside* a task attempt by the fault-injection layer and by the
    runner's integrity checks; the runner catches it, records the attempt
    failure, and retries up to the runner's ``RetryPolicy.max_attempts``.
    """

    def __init__(self, message: str, *, task_id: str | None = None, attempt: int | None = None):
        self.task_id = task_id
        self.attempt = attempt
        if task_id is not None:
            prefix = f"{task_id}" + (f" attempt {attempt}" if attempt is not None else "")
            message = f"{prefix}: {message}"
        super().__init__(message)


class TaskFailedError(MapReduceError):
    """A task exhausted all its attempts; carries the failure history."""

    def __init__(self, task_id: str, failures: list[str]):
        self.task_id = task_id
        self.failures = list(failures)
        super().__init__(
            f"task {task_id} failed after {len(failures)} attempt(s): "
            + "; ".join(failures)
        )


class JobKilledError(MapReduceError):
    """The whole job was killed mid-run (injected driver death).

    Completed task outputs survive in the job's
    :class:`~repro.mapreduce.faults.JobCheckpoint`; re-running the job with
    the same checkpoint resumes from the last barrier.
    """


class ServiceError(ReproError):
    """Errors raised by the multi-tenant job service layer."""


class ServiceOverloadedError(ServiceError):
    """Admission rejected: the tenant's queue is full (backpressure).

    ``retry_after`` is the service's estimate, in seconds, of when a
    resubmission is likely to be admitted (queue backlog divided by the
    observed drain rate).  Clients should treat it as a hint, not a
    guarantee — the canonical load-shedding contract.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        self.retry_after = retry_after
        super().__init__(f"{message} (retry after ~{retry_after:.2f}s)")


class CircuitOpenError(ServiceError):
    """Admission rejected: the tenant's circuit breaker is open.

    The breaker trips after repeated consecutive job failures and
    half-opens after ``retry_after`` seconds, at which point one probe
    job is admitted; its outcome closes or re-opens the circuit.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        self.retry_after = retry_after
        super().__init__(f"{message} (retry after ~{retry_after:.2f}s)")


class ServiceStoppedError(ServiceError):
    """Submission rejected: the service is draining or shut down."""


class DeadlineExceededError(ServiceError):
    """A job overran its deadline and was cancelled.

    Raised at the next cooperative cancellation point (task boundaries in
    the runners) once the deadline passes, or immediately at dispatch for
    jobs whose deadline expired while queued.
    """


class JobCancelledError(ServiceError):
    """A job was cancelled by the client or by service shutdown."""


class PigError(ReproError):
    """Errors raised by the Pig dataflow layer."""


class PigParseError(PigError):
    """Syntax error in a Pig script."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class DatasetError(ReproError):
    """Invalid dataset-generation parameters."""


class EvaluationError(ReproError):
    """Invalid evaluation input (empty clustering, label mismatch)."""


class SimulationError(MapReduceError):
    """Errors raised by the discrete-event cluster simulator."""
