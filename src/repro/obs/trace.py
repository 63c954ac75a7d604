"""Span-based tracer for the Map-Reduce engine and cluster pipeline.

A :class:`Span` is one named, timed interval of work — a pipeline phase, a
job, a task, a task *attempt* — carrying free-form attributes and an
ok/error status.  Spans form a tree: the currently open span is tracked in
a :mod:`contextvars` context variable, so nested ``with tracer.span(...)``
blocks parent correctly through any call depth, across threads, and across
the serial runner's inline attempt loop.

The tracer is **opt-in and dependency-free**.  Nothing is recorded unless
a :class:`Tracer` has been activated::

    tracer = Tracer()
    with tracer.activate():
        run = MrMCMinH(...).fit(records)
    tracer.write_jsonl("run.jsonl")

Instrumented code always goes through :func:`current_tracer`, which
returns a shared no-op :class:`NullTracer` when nothing is active; the
disabled path is a single context-variable read plus a reused null context
manager, so leaving telemetry off costs effectively nothing (<2% on the
pinned perf-trajectory workload, which is the gate).

Child processes cannot append to the driver's span list.  The
multiprocess runner therefore gives each worker attempt its own
throw-away tracer, ships the finished spans back with the attempt result
(:meth:`Tracer.export_payload`), and the driver merges them at the task
barrier with :meth:`Tracer.merge_payload` — span ids are remapped, times
are rebased onto the driver's clock via the wall-clock epoch carried in
the payload, and the worker's root spans are re-parented under the
driver-side task span.  Worker spans keep their real OS pid, so a Chrome
trace of a multiprocess run shows per-process tracks.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

_CURRENT_TRACER: contextvars.ContextVar["Tracer | None"] = contextvars.ContextVar(
    "repro_obs_tracer", default=None
)
_CURRENT_SPAN: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_span", default=None
)


@dataclass
class Span:
    """One named, timed interval with attributes and a status.

    Times are seconds on the owning tracer's monotonic clock (zero at
    tracer creation); ``epoch_wall`` on the tracer anchors them to wall
    time.  ``end_s`` is ``None`` while the span is open.
    """

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float | None = None
    kind: str = "span"  # "pipeline" | "phase" | "job" | "task" | "attempt" | ...
    status: str = "ok"  # "ok" | "error"
    pid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span length in seconds (0 for a still-open span)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "kind": self.kind,
            "status": self.status,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_s=data["start_s"],
            end_s=data.get("end_s"),
            kind=data.get("kind", "span"),
            status=data.get("status", "ok"),
            pid=data.get("pid", 0),
            attrs=dict(data.get("attrs", {})),
        )


class Tracer:
    """Collects spans and metrics for one run.

    ``enabled`` is True; the :class:`NullTracer` twin is the disabled
    implementation behind the same interface.
    """

    enabled = True

    def __init__(self) -> None:
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        # itertools.count is atomic under the GIL, so span ids stay unique
        # when service worker threads share one tracer.
        self._ids = itertools.count(1)

    # ---- clock -----------------------------------------------------------

    def now(self) -> float:
        """Seconds since tracer creation on the monotonic clock."""
        return time.perf_counter() - self._epoch_perf

    # ---- span creation ---------------------------------------------------

    def _new_id(self) -> int:
        return next(self._ids)

    @contextmanager
    def span(self, name: str, *, kind: str = "span", **attrs) -> Iterator[Span]:
        """Open a span as the current context; close it on exit.

        The span parents under whatever span is current when it opens.  An
        exception escaping the block marks the span ``status="error"`` and
        records the exception text before re-raising.
        """
        parent = _CURRENT_SPAN.get()
        span = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_s=self.now(),
            kind=kind,
            pid=self.pid,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        token = _CURRENT_SPAN.set(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            _CURRENT_SPAN.reset(token)
            span.end_s = self.now()

    def start(
        self,
        name: str,
        *,
        kind: str = "span",
        parent: Span | None = None,
        start_s: float | None = None,
        **attrs,
    ) -> Span:
        """Manual span open (does not touch the context variable).

        For code that interleaves many concurrent spans from one thread —
        the multiprocess driver's polling loop — where ``with`` blocks
        cannot express the overlap.
        """
        span = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_s=self.now() if start_s is None else start_s,
            kind=kind,
            pid=self.pid,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def finish(
        self, span: Span, *, end_s: float | None = None, status: str | None = None
    ) -> Span:
        """Close a manually opened span."""
        span.end_s = self.now() if end_s is None else end_s
        if status is not None:
            span.status = status
        return span

    def current_span(self) -> Span | None:
        """The innermost open context-managed span, if any."""
        return _CURRENT_SPAN.get()

    # ---- activation ------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer the one :func:`current_tracer` returns."""
        token = _CURRENT_TRACER.set(self)
        try:
            yield self
        finally:
            _CURRENT_TRACER.reset(token)

    # ---- cross-process merge ---------------------------------------------

    def export_payload(self) -> dict:
        """Package finished spans for shipping across a process boundary.

        Span times stay on this tracer's clock; ``epoch_wall`` lets the
        receiver rebase them (both clocks tick real seconds, so only the
        origin differs).
        """
        return {
            "epoch_wall": self.epoch_wall,
            "pid": self.pid,
            "spans": [s.to_dict() for s in self.spans],
        }

    def merge_payload(self, payload: dict, *, parent: Span | None = None) -> list[Span]:
        """Merge spans recorded by another tracer (typically in a worker).

        Ids are remapped into this tracer's id space, times are rebased
        using the wall-clock epoch difference, and spans with no parent in
        the payload are re-parented under ``parent``.  Returns the merged
        spans (appended to :attr:`spans`).
        """
        offset = payload["epoch_wall"] - self.epoch_wall
        remap: dict[int, int] = {}
        merged: list[Span] = []
        for data in payload["spans"]:
            span = Span.from_dict(data)
            remap[span.span_id] = self._new_id()
            span.span_id = remap[span.span_id]
            if span.parent_id is not None and span.parent_id in remap:
                span.parent_id = remap[span.parent_id]
            elif parent is not None:
                span.parent_id = parent.span_id
            else:
                span.parent_id = None
            span.start_s += offset
            if span.end_s is not None:
                span.end_s += offset
            self.spans.append(span)
            merged.append(span)
        return merged

    # ---- convenience -----------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Write the JSONL event log (see :mod:`repro.obs.export`)."""
        from repro.obs.export import write_jsonl

        write_jsonl(self, path)


class _NullSpan:
    """Inert span: accepts attribute writes, records nothing."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    start_s = 0.0
    end_s = 0.0
    kind = "null"
    pid = 0
    duration_s = 0.0

    # ``span.status = "error"`` and ``span.attrs["k"] = v`` must both be
    # no-ops without allocating.
    @property
    def status(self) -> str:
        return "ok"

    @status.setter
    def status(self, value) -> None:
        pass

    @property
    def attrs(self) -> "_DiscardDict":
        return _DISCARD

    def to_dict(self) -> dict:  # pragma: no cover - debugging aid
        return {}


class _DiscardDict(dict):
    """Dict that silently drops writes (shared by every null span)."""

    def __setitem__(self, key, value) -> None:
        pass

    def setdefault(self, key, default=None):
        return default

    def update(self, *args, **kwargs) -> None:
        pass


_DISCARD = _DiscardDict()
_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CTX = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every operation is a constant-time no-op."""

    enabled = False
    epoch_wall = 0.0
    pid = 0
    spans: list = []
    metrics = NULL_METRICS

    def now(self) -> float:
        return 0.0

    def span(self, name: str, *, kind: str = "span", **attrs) -> _NullSpanContext:
        return _NULL_CTX

    def start(self, name: str, **kwargs) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, span, **kwargs) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def export_payload(self) -> dict:
        return {"epoch_wall": 0.0, "pid": 0, "spans": []}

    def merge_payload(self, payload: dict, *, parent=None) -> list:
        return []

    def write_jsonl(self, path) -> None:  # pragma: no cover - nothing to write
        raise RuntimeError("cannot export from a NullTracer; activate a Tracer first")


NULL_TRACER = NullTracer()


def current_tracer() -> Tracer | NullTracer:
    """The active tracer, or the shared no-op tracer when none is active."""
    return _CURRENT_TRACER.get() or NULL_TRACER
