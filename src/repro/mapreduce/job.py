"""Map-Reduce job definitions.

A job is mapper + optional combiner + reducer.  Signatures follow the
classic Hadoop streaming contract:

* ``mapper(key, value) -> iterable of (k2, v2)``
* ``combiner(k2, values) -> iterable of (k2, v2)`` (same key domain)
* ``reducer(k2, values) -> iterable of (k3, v3)``

Every ``k2`` goes to reduce partition ``stable_hash(k2) % R``.

Mappers/reducers may optionally accept a keyword-only ``context`` (a
:class:`~repro.mapreduce.counters.Counters` object) to emit counters; the
runner detects this by signature inspection once per job.

Two optional fast-path hooks extend the contract:

* ``batch_mapper(split) -> iterable of (k2, v2)`` — maps a whole task
  split in one call instead of record-by-record, letting vectorised
  kernels (e.g. the min-hash batch sketcher) amortise work across the
  split.  When present it replaces ``mapper`` inside map tasks; the
  per-record ``mapper`` must still be supplied and produce identical
  output, since it remains the reference path (and the unit the fault
  injector replays).
* ``wire`` — a codec with ``encode_records(records)`` /
  ``decode_records(frame)`` applied at the map/shuffle boundary: each map
  task's output is packed into a compressed frame (with a producer-side
  checksum), the shuffle accounts frame bytes, and frames are decoded
  before reduce.  See :class:`~repro.minhash.wire.SketchWireCodec`.
"""

from __future__ import annotations

import inspect
import pickle
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import MapReduceError

Mapper = Callable[..., Iterable[tuple]]
Reducer = Callable[..., Iterable[tuple]]


def identity_mapper(key, value):
    """Pass records through unchanged."""
    yield key, value


def identity_reducer(key, values):
    """Emit each grouped value under its key."""
    for value in values:
        yield key, value


def _takes_context(fn: Callable) -> bool:
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    return "context" in sig.parameters


@dataclass(frozen=True)
class MapReduceJob:
    """Immutable description of one Map-Reduce computation."""

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Reducer | None = None
    batch_mapper: Callable | None = None
    wire: object | None = None
    _mapper_ctx: bool = field(init=False, repr=False, compare=False, default=False)
    _reducer_ctx: bool = field(init=False, repr=False, compare=False, default=False)
    _batch_ctx: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise MapReduceError("job name must be non-empty")
        if not callable(self.mapper):
            raise MapReduceError(f"mapper for job {self.name!r} is not callable")
        if not callable(self.reducer):
            raise MapReduceError(f"reducer for job {self.name!r} is not callable")
        if self.combiner is not None and not callable(self.combiner):
            raise MapReduceError(f"combiner for job {self.name!r} is not callable")
        if self.batch_mapper is not None and not callable(self.batch_mapper):
            raise MapReduceError(
                f"batch_mapper for job {self.name!r} is not callable"
            )
        if self.wire is not None and not (
            callable(getattr(self.wire, "encode_records", None))
            and callable(getattr(self.wire, "decode_records", None))
        ):
            raise MapReduceError(
                f"wire codec for job {self.name!r} must provide "
                "encode_records/decode_records"
            )
        object.__setattr__(self, "_mapper_ctx", _takes_context(self.mapper))
        object.__setattr__(self, "_reducer_ctx", _takes_context(self.reducer))
        if self.batch_mapper is not None:
            object.__setattr__(self, "_batch_ctx", _takes_context(self.batch_mapper))

    def run_mapper(self, key, value, counters) -> Iterable[tuple]:
        """Invoke the mapper on one record, passing counters if accepted."""
        if self._mapper_ctx:
            return self.mapper(key, value, context=counters)
        return self.mapper(key, value)

    def run_batch_mapper(self, split, counters) -> Iterable[tuple]:
        """Invoke the batch mapper on one whole split.

        Only valid when ``batch_mapper`` is configured; the runners fall
        back to the per-record :meth:`run_mapper` loop otherwise.
        """
        if self.batch_mapper is None:
            raise MapReduceError(
                f"job {self.name!r} has no batch_mapper configured"
            )
        if self._batch_ctx:
            return self.batch_mapper(split, context=counters)
        return self.batch_mapper(split)

    def run_reducer(self, key, values, counters) -> Iterable[tuple]:
        """Invoke the reducer on one grouped key, passing counters if
        accepted."""
        if self._reducer_ctx:
            return self.reducer(key, values, context=counters)
        return self.reducer(key, values)

    def run_combiner(self, key, values) -> Iterable[tuple]:
        """Invoke the combiner (identity when none is configured)."""
        if self.combiner is None:
            return [(key, v) for v in values]
        return self.combiner(key, values)

    def ensure_picklable(self) -> None:
        """Reject jobs that cannot cross a process boundary.

        The multiprocess runner ships the whole job to its workers;
        lambdas and other unpicklable callables fail deep inside the pool
        with an opaque ``PicklingError``.  Checking up front turns that
        into a clear :class:`~repro.errors.MapReduceError` — the same
        contract real Hadoop streaming imposes (module-level functions
        only).
        """
        try:
            pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise MapReduceError(
                f"job {self.name!r} is not picklable and cannot run on the "
                f"multiprocess runner (use module-level functions, not "
                f"lambdas or closures): {exc}"
            ) from exc
