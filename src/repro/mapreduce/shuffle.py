"""The shuffle: partitioning, sorting and grouping of map output.

This reproduces the Hadoop contract: every intermediate ``(k2, v2)`` pair
is routed to partition ``stable_hash(k2) % R`` (Hadoop's default
``HashPartitioner``; ``stable_hash`` is looked up as this module's global
on every record, so a wrapper installed here sees each routed key);
within each partition keys arrive at the reducer in sorted order with all
their values grouped.  Keys must therefore be orderable within a job;
mixed-type keys fall back to a ``(type-name, repr)`` ordering so the
engine never crashes on heterogenous keys (matching Hadoop's
byte-comparator behaviour of "some total order").

Two implementations share that contract:

* :func:`shuffle` — the in-memory reference: one dict bucket per
  partition, grouped and sorted at the end.  Memory is linear in the
  shuffle volume, which is the wall the engine hits near ~1M reads.
* :class:`SpillingShuffle` — the external-memory sort-spill-merge path
  (Hadoop's MapOutputBuffer/IFile model): map output is buffered per
  partition up to ``spill_threshold_bytes``, each overflow is sorted and
  written to a CRC32-guarded temp segment file, and
  :class:`SpilledPartition` merge-iterates the sorted runs so reducers
  consume ``(key, values)`` groups lazily.  Output is byte-identical to
  :func:`shuffle` by construction: runs are sorted with the same
  natural-order fast path / ``_sort_key`` fallback, the k-way merge
  tie-breaks on run index (runs are created in arrival order, so group
  keys and value order reproduce dict insertion order exactly).
"""

from __future__ import annotations

import heapq
import io
import operator
import os
import pickle
import shutil
import struct
import tempfile
import zlib
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import FaultError, MapReduceError
from repro.mapreduce.types import stable_hash
from repro.obs.trace import current_tracer


def _sort_key(key: object):
    return (type(key).__name__, repr(key))


def sort_grouped_keys(keys: Iterable[object]) -> list[object]:
    """Sort keys with a homogeneous fast path and a stable fallback."""
    keys = list(keys)
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=_sort_key)


_first = operator.itemgetter(0)


def sort_run(records: Iterable[tuple]) -> tuple[list[tuple], bool]:
    """Stable-sort ``(key, value)`` records by key.

    Returns ``(sorted_records, natural)``: the same homogeneous fast path
    as :func:`sort_grouped_keys`, falling back to ``_sort_key`` when the
    keys are not mutually comparable (``natural=False``).  ``sorted`` is
    used (not in-place sort) so a mid-sort ``TypeError`` never leaves the
    caller's list half-permuted.
    """
    records = list(records)
    try:
        return sorted(records, key=_first), True
    except TypeError:
        return sorted(records, key=lambda kv: _sort_key(kv[0])), False


def sort_records(records: Iterable[tuple]) -> list[tuple]:
    """Sort ``(key, value)`` records by key, sharing the exact ordering
    rule of :func:`sort_grouped_keys` (natural order, ``_sort_key``
    fallback on mixed types).  The driver sorts collected job output
    through here so the two orderings cannot drift."""
    return sort_run(records)[0]


def shuffle(
    map_outputs: Iterable[Iterable[tuple]], num_partitions: int
) -> tuple[list[list[tuple[object, list]]], int]:
    """Route map outputs into grouped, sorted reduce partitions.

    Parameters
    ----------
    map_outputs:
        One iterable of ``(k2, v2)`` pairs per map task.
    num_partitions:
        Number of reduce partitions ``R``.

    Returns
    -------
    ``(partitions, shuffle_records)`` where ``partitions[r]`` is a list of
    ``(key, [values...])`` groups in sorted key order, and
    ``shuffle_records`` counts the intermediate pairs moved (the
    simulator converts this into network cost).
    """
    if num_partitions < 1:
        raise MapReduceError(f"num_partitions must be >= 1, got {num_partitions}")
    buckets: list[dict[object, list]] = [defaultdict(list) for _ in range(num_partitions)]
    moved = 0
    for task_output in map_outputs:
        for pair in task_output:
            try:
                key, value = pair
            except (TypeError, ValueError):
                raise MapReduceError(
                    f"map output record {pair!r} is not a (key, value) pair"
                ) from None
            buckets[stable_hash(key) % num_partitions][key].append(value)
            moved += 1
    partitions: list[list[tuple[object, list]]] = []
    for bucket in buckets:
        ordered = sort_grouped_keys(bucket.keys())
        partitions.append([(k, bucket[k]) for k in ordered])
    return partitions, moved


def partition_num_records(partition) -> int:
    """Records held by one reduce partition, without materializing groups
    (works for both in-memory group lists and :class:`SpilledPartition`)."""
    if isinstance(partition, SpilledPartition):
        return partition.num_records
    return sum(len(values) for _, values in partition)


# ------------------------------------------------------------ spill format

# Segment file: fixed header + back-to-back pickled records.  The CRC32
# covers the record payload and is computed producer-side before any
# injected bit-rot strikes — the spill analogue of the wire frames'
# IFile-checksum model (repro.minhash.wire.SketchFrame).
SPILL_MAGIC = b"RSPL"
_SPILL_HEADER = struct.Struct("<4sIIQ")  # magic, crc32, num_records, payload_len


@dataclass
class SpillSegment:
    """One sorted run of one partition, spilled to disk."""

    path: str
    partition: int
    index: int  # spill sequence number within the partition
    num_records: int
    nbytes: int  # payload + header bytes on disk
    start_seq: int  # arrival-sequence offset of the run's first record
    natural: bool  # run sorted on the natural fast path


def _write_segment(path: str, payload: bytes, num_records: int, crc: int) -> int:
    header = _SPILL_HEADER.pack(SPILL_MAGIC, crc, num_records, len(payload))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    os.replace(tmp, path)
    return len(header) + len(payload)


def _read_segment_header(fh) -> tuple[int, int, int]:
    header = fh.read(_SPILL_HEADER.size)
    if len(header) != _SPILL_HEADER.size:
        raise FaultError("spill segment truncated (short header)")
    magic, crc, num_records, payload_len = _SPILL_HEADER.unpack(header)
    if magic != SPILL_MAGIC:
        raise FaultError(f"bad spill segment magic {magic!r}")
    return crc, num_records, payload_len


def verify_segment(path: str) -> bool:
    """CRC-check one spill segment (streamed, constant memory)."""
    try:
        with open(path, "rb") as fh:
            crc, _num_records, payload_len = _read_segment_header(fh)
            seen = 0
            running = 0
            while True:
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                seen += len(chunk)
                running = zlib.crc32(chunk, running)
            return seen == payload_len and running == crc
    except (OSError, FaultError):
        return False


def _iter_segment_records(seg: SpillSegment):
    """Stream one segment's records (constant memory via Unpickler).

    Integrity was established by the driver-side verification pass in
    :meth:`SpillingShuffle.finish` — the reducer-side fetch moment — so a
    failure here means the file changed after verification and is
    surfaced as a :class:`FaultError` (the task attempt retries).
    """
    with open(seg.path, "rb") as fh:
        _crc, num_records, _payload_len = _read_segment_header(fh)
        for _ in range(num_records):
            try:
                # One Unpickler per record: each record was dumps()-ed
                # independently, so its memo indices start at zero — but a
                # reused Unpickler's memo persists across load() calls,
                # which skews GET resolution for any record whose pickle
                # holds an internal back-reference (e.g. the same interned
                # string appearing twice in one record).
                yield pickle.Unpickler(fh).load()
            except Exception as exc:  # truncated/bit-rotted after verify
                raise FaultError(
                    f"spill segment {seg.path} unreadable: {exc}"
                ) from exc


def _load_segment_records(seg: SpillSegment) -> list[tuple]:
    return list(_iter_segment_records(seg))


_END = object()


class SpilledPartition:
    """Lazy, re-iterable merged view of one reduce partition.

    Iterating yields ``(key, [values...])`` groups in the same order and
    with the same value order as the in-memory :func:`shuffle` — see the
    module docstring for why the merge reproduces dict insertion order.
    Re-iteration re-streams the segment files, so task attempt retries
    and speculative re-execution see identical input.  The object is
    picklable (paths + the in-memory tail), so the multiprocess runner
    can ship it to pool workers that share the filesystem.

    ``fallback=True`` switches the merge to ``_sort_key`` ordering — the
    mixed-type path.  Fallback runs are re-sorted in memory (bounded by
    the partition: correctness-first; real jobs have homogeneous keys and
    stay on the streaming natural merge).  One documented divergence from
    the dict-based path: keys of *different* types that compare equal
    (``1 == 1.0 == True``) collapse into one dict group in-memory but
    sort apart under ``_sort_key``; such keys also make partition hashes
    collide only by accident, and no engine job produces them.
    """

    def __init__(
        self,
        partition: int,
        segments: list[SpillSegment],
        tail: list[tuple],
        fallback: bool,
        num_records: int,
    ):
        self.partition = partition
        self.segments = segments
        self.tail = tail  # final in-memory run (arrival order = last)
        self.fallback = fallback
        self.num_records = num_records

    def _runs(self):
        if self.fallback:
            fallback_key = lambda kv: _sort_key(kv[0])  # noqa: E731
            runs = [
                sorted(_load_segment_records(seg), key=fallback_key)
                for seg in self.segments
            ]
            runs.append(sorted(self.tail, key=fallback_key))
            return runs, lambda key: _sort_key(key)
        runs = [_iter_segment_records(seg) for seg in self.segments]
        runs.append(iter(self.tail))
        return runs, lambda key: key

    def __iter__(self):
        runs, keyfn = self._runs()
        heap: list[tuple] = []
        iters = [iter(run) for run in runs]
        for ridx, it in enumerate(iters):
            rec = next(it, _END)
            if rec is not _END:
                heapq.heappush(heap, (keyfn(rec[0]), ridx, rec))
        group_key = _END
        values: list = []
        while heap:
            _hk, ridx, (key, value) = heapq.heappop(heap)
            rec = next(iters[ridx], _END)
            if rec is not _END:
                heapq.heappush(heap, (keyfn(rec[0]), ridx, rec))
            if group_key is _END:
                group_key, values = key, [value]
            elif key == group_key:
                values.append(value)
            else:
                yield group_key, values
                group_key, values = key, [value]
        if group_key is not _END:
            yield group_key, values


# --------------------------------------------------------- spilling shuffle

# Write attempts per spill segment before unrepairable bit-rot fails the job.
MAX_SPILL_ATTEMPTS = 4


class SpillingShuffle:
    """External-memory shuffle: buffer, sort, spill, merge.

    Feed each map task's output through :meth:`add_task_output`; whenever
    a partition's buffer estimate reaches ``spill_threshold_bytes`` it is
    sorted and spilled to a CRC-guarded segment file
    (``spill_threshold_bytes=0`` spills every non-empty buffer — the
    spill-everything mode the equivalence tests lean on).  :meth:`finish`
    CRC-verifies every segment (re-spilling bit-rotted ones from the
    retained map output, mirroring the corrupted-partition retry) and
    returns lazily-merged :class:`SpilledPartition` views plus the moved
    record count — the same ``(partitions, shuffle_records)`` contract as
    :func:`shuffle`.  Segments live in a fresh directory under
    ``tempfile``'s temp dir (``TMPDIR``); call :meth:`close` (or use as a
    context manager) after the reduce phase to remove it.

    With a ``fault_plan`` whose ``spill_corrupt_rate`` is positive,
    segment writes suffer deterministic bit-rot (payload byte flipped
    after the clean CRC is computed); the verification pass in
    :meth:`finish` catches the mismatch, counts it under
    ``fault:spill_segments_corrupted`` and re-spills with an incremented
    write attempt, up to :data:`MAX_SPILL_ATTEMPTS` writes per segment.
    """

    def __init__(
        self,
        num_partitions: int,
        *,
        spill_threshold_bytes: int = 0,
        job_name: str = "job",
        fault_plan=None,
        counters=None,
    ):
        if num_partitions < 1:
            raise MapReduceError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        if spill_threshold_bytes < 0:
            raise MapReduceError(
                f"spill_threshold_bytes must be >= 0, got {spill_threshold_bytes}"
            )
        self.num_partitions = num_partitions
        self.spill_threshold_bytes = spill_threshold_bytes
        self.job_name = job_name
        self.fault_plan = fault_plan
        self.counters = counters
        self._dir: str | None = None
        self._buffers: list[list[tuple]] = [[] for _ in range(num_partitions)]
        self._buffer_start = [0] * num_partitions  # arrival seq of buffer head
        self._seq = [0] * num_partitions  # records routed per partition
        self._segments: list[list[SpillSegment]] = [
            [] for _ in range(num_partitions)
        ]
        self._run_fallback = [False] * num_partitions  # a run needed _sort_key
        self._bounds: list[list[tuple]] = [[] for _ in range(num_partitions)]
        self._task_outputs: list = []  # retained for re-spill on bit-rot
        self._finished = False
        self._closed = False
        self.spill_segments = 0
        self.spill_bytes = 0
        self.spill_records = 0

    # ---- feeding ----------------------------------------------------------

    def add_task_output(self, records) -> None:
        """Route one map task's output; spill partitions over threshold."""
        if self._finished:
            raise MapReduceError("cannot add map output after finish()")
        self._task_outputs.append(records)
        touched = set()
        for pair in records:
            try:
                key, value = pair
            except (TypeError, ValueError):
                raise MapReduceError(
                    f"map output record {pair!r} is not a (key, value) pair"
                ) from None
            part = stable_hash(key) % self.num_partitions
            self._buffers[part].append((key, value))
            self._seq[part] += 1
            touched.add(part)
        for part in sorted(touched):
            buffer = self._buffers[part]
            if buffer and approx_records_bytes(buffer) >= self.spill_threshold_bytes:
                self._spill(part)

    # ---- spilling ---------------------------------------------------------

    def _spill_path(self, part: int, index: int) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix=f"repro-spill-{self.job_name}-")
        return os.path.join(self._dir, f"p{part:04d}-s{index:06d}.seg")

    def _spill(self, part: int) -> None:
        buffer = self._buffers[part]
        records, natural = sort_run(buffer)
        if not natural:
            self._run_fallback[part] = True
        index = len(self._segments[part])
        start_seq = self._buffer_start[part]
        path = self._spill_path(part, index)
        with current_tracer().span(
            f"spill:p{part:04d}-s{index:06d}",
            kind="spill",
            partition=part,
            segment=index,
            records=len(records),
        ):
            nbytes = self._write_run(path, records, part, index, attempt=1)
        seg = SpillSegment(
            path=path,
            partition=part,
            index=index,
            num_records=len(records),
            nbytes=nbytes,
            start_seq=start_seq,
            natural=natural,
        )
        self._segments[part].append(seg)
        # First/last keys of the run feed the merge-order probe in finish().
        self._bounds[part].append((records[0][0], records[-1][0]))
        self._buffer_start[part] += len(records)
        self._buffers[part] = []
        self.spill_segments += 1
        self.spill_bytes += nbytes
        self.spill_records += len(records)
        if self.counters is not None:
            self.counters.increment("shuffle", "spill_segments")
            self.counters.increment("shuffle", "spill_bytes", nbytes)
            self.counters.increment("shuffle", "spill_records", len(records))

    def _write_run(
        self, path: str, records: list[tuple], part: int, index: int, attempt: int
    ) -> int:
        buf = io.BytesIO()
        for rec in records:
            try:
                buf.write(pickle.dumps(rec, protocol=pickle.HIGHEST_PROTOCOL))
            except Exception as exc:
                raise MapReduceError(
                    f"map output record {rec!r} is not picklable: {exc}"
                ) from exc
        payload = buf.getvalue()
        crc = zlib.crc32(payload)  # producer-side: computed on clean bytes
        if (
            self.fault_plan is not None
            and payload
            and getattr(self.fault_plan, "spill_corrupt_rate", 0.0) > 0.0
            and self.fault_plan.spill_fault_for(self.job_name, part, index, attempt)
        ):
            rotted = bytearray(payload)
            rotted[len(rotted) // 2] ^= 0xFF
            payload = bytes(rotted)
            if self.counters is not None:
                self.counters.increment("fault", "spill_segments_bitrotted")
        return _write_segment(path, payload, len(records), crc)

    # ---- finishing --------------------------------------------------------

    def finish(self) -> tuple[list[SpilledPartition], int]:
        """Verify all segments, then return the merged partition views.

        This is the reducer-side fetch barrier: every segment's CRC is
        checked here (streamed, constant memory) and bit-rotted segments
        are re-generated from the retained map output — so the lazy merge
        that follows only ever reads verified files.
        """
        if self._finished:
            raise MapReduceError("finish() already called")
        self._finished = True
        for part in range(self.num_partitions):
            for seg in self._segments[part]:
                self._verify_or_respill(seg)
        partitions = []
        for part in range(self.num_partitions):
            tail, natural = sort_run(self._buffers[part])
            self._buffers[part] = []
            fallback = self._run_fallback[part] or not natural
            if not fallback:
                # Natural runs can still be mutually incomparable (e.g.
                # one run all ints, another all strs): probe the run
                # boundary keys the way the in-memory path probes the
                # full key set, and fall back together with it.
                probe = [key for lo_hi in self._bounds[part] for key in lo_hi]
                if tail:
                    probe.extend((tail[0][0], tail[-1][0]))
                try:
                    sorted(probe)
                except TypeError:
                    fallback = True
            partitions.append(
                SpilledPartition(
                    partition=part,
                    segments=list(self._segments[part]),
                    tail=tail,
                    fallback=fallback,
                    num_records=self._seq[part],
                )
            )
        return partitions, sum(self._seq)

    def _verify_or_respill(self, seg: SpillSegment) -> None:
        attempt = 1
        while not verify_segment(seg.path):
            if self.counters is not None:
                self.counters.increment("fault", "spill_segments_corrupted")
                self.counters.increment("shuffle", "spill_respills")
            attempt += 1
            if attempt > MAX_SPILL_ATTEMPTS:
                raise FaultError(
                    f"spill segment {seg.path} still corrupt after "
                    f"{MAX_SPILL_ATTEMPTS} write attempts"
                )
            self._respill(seg, attempt)

    def _respill(self, seg: SpillSegment, attempt: int) -> None:
        """Regenerate one segment's run from the retained map output.

        The segment's ``start_seq`` names the contiguous arrival-sequence
        range it covered within its partition, so one replay pass over
        the task outputs recovers exactly those records in order — O(1)
        extra memory, like the corrupted-partition retry re-running one
        task rather than the job.
        """
        lo = seg.start_seq
        hi = seg.start_seq + seg.num_records
        records: list[tuple] = []
        seen = 0
        for task_output in self._task_outputs:
            for key, value in task_output:
                if stable_hash(key) % self.num_partitions != seg.partition:
                    continue
                if lo <= seen < hi:
                    records.append((key, value))
                seen += 1
                if seen >= hi:
                    break
            if seen >= hi:
                break
        if len(records) != seg.num_records:  # pragma: no cover - invariant
            raise FaultError(
                f"re-spill of {seg.path} recovered {len(records)} records, "
                f"expected {seg.num_records}"
            )
        ordered, natural = sort_run(records)
        self._write_run(seg.path, ordered, seg.partition, seg.index, attempt)
        seg.natural = natural

    # ---- cleanup ----------------------------------------------------------

    def close(self) -> None:
        """Remove the spill directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "SpillingShuffle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def approx_records_bytes(records) -> int:
    """Approximate serialized size of records (sampled for large inputs).

    The sampling stride is exact (at most 64 evenly spaced records), so
    equal inputs always produce equal byte estimates and spill decisions
    stay deterministic.  Only serialization failures are treated as "size
    unknown"; anything else propagates.
    """
    n = len(records)
    if n == 0:
        return 0
    stride = -(-n // 64)  # ceil(n / 64): at most 64 samples
    sample = list(records[::stride]) if stride > 1 else list(records)
    try:
        per = sum(
            len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in sample
        )
    except (pickle.PicklingError, TypeError, AttributeError):
        return 0
    return int(per / len(sample) * n)
