"""Equivalence net for the external spill-to-disk shuffle.

The contract under test: for ANY map output, partition count and spill
threshold, :class:`SpillingShuffle` produces byte-identical partitions to
the in-memory :func:`shuffle` — same groups, same key order, same value
order, same moved-record count — because the spilled sorted runs are
merged with the exact natural-order / ``_sort_key`` fallback rule of
:func:`sort_grouped_keys` and the run-index tie-break reproduces dict
insertion order.  Unit tests pin the mechanics (segments, counters,
re-iteration, cleanup, bit-rot repair); the hypothesis net sweeps random
key/value distributions, partition counts and thresholds including
``threshold=0`` (spill-everything) and mixed-type key pools that force
the fallback merge.
"""

import glob
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError, MapReduceError
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.shuffle import (
    SpilledPartition,
    SpillingShuffle,
    shuffle,
    sort_grouped_keys,
    sort_records,
    verify_segment,
)


def materialize(partitions):
    return [[(k, list(v)) for k, v in part] for part in partitions]


def spill_equivalent(map_outputs, num_partitions, threshold, **kwargs):
    """Assert SpillingShuffle == shuffle for one input; return the spill."""
    expected, expected_moved = shuffle(map_outputs, num_partitions)
    sp = SpillingShuffle(
        num_partitions, spill_threshold_bytes=threshold, **kwargs
    )
    for out in map_outputs:
        sp.add_task_output(out)
    partitions, moved = sp.finish()
    assert moved == expected_moved
    assert materialize(partitions) == materialize(expected)
    return sp, partitions


class TestSpillingShuffleUnit:
    def test_threshold_zero_spills_every_nonempty_buffer(self):
        mo = [[(i % 3, i) for i in range(30)] for _ in range(4)]
        sp, _ = spill_equivalent(mo, 2, 0)
        # 4 tasks x 2 touched partitions = 8 segments, all records on disk.
        assert sp.spill_segments == 8
        assert sp.spill_records == 120
        assert sp.spill_bytes > 0
        sp.close()

    def test_large_threshold_never_spills(self):
        mo = [[(i, i) for i in range(20)]]
        sp, parts = spill_equivalent(mo, 2, 1 << 30)
        assert sp.spill_segments == 0
        assert all(not p.segments for p in parts)  # in-memory tails only
        sp.close()

    def test_partitions_are_reiterable(self):
        mo = [[(i % 5, i) for i in range(40)]]
        sp, parts = spill_equivalent(mo, 3, 0)
        assert materialize(parts) == materialize(parts)
        sp.close()

    def test_empty_input_and_empty_partitions(self):
        sp = SpillingShuffle(3, spill_threshold_bytes=0)
        parts, moved = sp.finish()
        assert moved == 0
        assert materialize(parts) == [[], [], []]
        sp.close()

    def test_counters_surface_spill_accounting(self):
        counters = Counters()
        mo = [[(i % 2, i) for i in range(20)]]
        sp, _ = spill_equivalent(mo, 2, 0, counters=counters)
        assert counters.get("shuffle", "spill_segments") == sp.spill_segments
        assert counters.get("shuffle", "spill_bytes") == sp.spill_bytes
        assert counters.get("shuffle", "spill_records") == sp.spill_records
        sp.close()

    def test_close_removes_spill_dir_and_is_idempotent(self):
        sp = SpillingShuffle(1, spill_threshold_bytes=0)
        sp.add_task_output([(1, "a"), (2, "b")])
        spill_dir = sp._dir
        assert spill_dir is not None and os.path.isdir(spill_dir)
        sp.close()
        assert not os.path.exists(spill_dir)
        sp.close()  # idempotent

    def test_add_after_finish_rejected(self):
        sp = SpillingShuffle(1)
        sp.finish()
        with pytest.raises(MapReduceError):
            sp.add_task_output([(1, 1)])
        sp.close()

    def test_invalid_records_rejected_like_in_memory_shuffle(self):
        sp = SpillingShuffle(1, spill_threshold_bytes=0)
        with pytest.raises(MapReduceError, match="not a .key, value. pair"):
            sp.add_task_output([(1, 2, 3)])
        sp.close()

    def test_mixed_type_keys_use_fallback_merge(self):
        # Ints and strs are mutually incomparable: the in-memory path
        # falls back to (type name, repr) ordering; the merge must too —
        # including when each run alone is homogeneous (sortable), so the
        # incomparability only appears *across* runs.
        mo = [[(1, "a"), (3, "b")], [("x", "c"), ("m", "d")], [(1, "e")]]
        sp, parts = spill_equivalent(mo, 1, 0)
        assert parts[0].fallback
        sp.close()

    def test_bitrot_detected_and_respilled(self):
        plan = FaultPlan(seed=0, spill_corrupt_rate=1.0, max_faulted_attempts=1)
        counters = Counters()
        mo = [[(i % 3, i) for i in range(30)] for _ in range(2)]
        sp, _ = spill_equivalent(
            mo, 2, 0, fault_plan=plan, counters=counters, job_name="j"
        )
        # Every first write rots (rate 1.0); every repair draw is attempt 2
        # > max_faulted_attempts, so exactly one re-spill per segment.
        assert counters.get("fault", "spill_segments_bitrotted") == sp.spill_segments
        assert counters.get("fault", "spill_segments_corrupted") == sp.spill_segments
        assert counters.get("shuffle", "spill_respills") == sp.spill_segments
        sp.close()

    def test_unrepairable_bitrot_raises_fault_error(self):
        plan = FaultPlan(seed=0, spill_corrupt_rate=1.0)  # rots every attempt
        sp = SpillingShuffle(1, spill_threshold_bytes=0, fault_plan=plan)
        sp.add_task_output([(1, "a"), (2, "b")])
        with pytest.raises(FaultError, match="still corrupt after 4"):
            sp.finish()
        sp.close()

    def test_verify_segment_detects_truncation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        sp = SpillingShuffle(1, spill_threshold_bytes=0)
        sp.add_task_output([(i, i) for i in range(10)])
        (seg_path,) = glob.glob(str(tmp_path) + "/*/*.seg")
        assert verify_segment(seg_path)
        data = open(seg_path, "rb").read()
        with open(seg_path, "wb") as fh:
            fh.write(data[:-3])
        assert not verify_segment(seg_path)
        sp.close()

    def test_records_with_internal_back_references_round_trip(self):
        # Regression (found by the hypothesis net): each record is
        # dumps()-ed independently, so its pickle memo starts at zero; a
        # segment reader that reused one Unpickler across records kept a
        # growing memo, and any record whose pickle contains an internal
        # back-reference (the same object twice — interned '' here, or a
        # shared list) resolved its GET against an earlier record.
        shared = [1, 2]
        mo = [[(0, None), ("", ""), (1, (shared, shared)), ("", "")]]
        sp, _ = spill_equivalent(mo, 1, 0)
        sp.close()

    def test_spilled_partition_survives_pickle_round_trip(self):
        # The multiprocess runner ships partitions to pool workers.
        import pickle

        mo = [[(i % 4, i) for i in range(32)]]
        sp, parts = spill_equivalent(mo, 2, 0)
        cloned = pickle.loads(pickle.dumps(parts))
        assert all(isinstance(p, SpilledPartition) for p in cloned)
        assert materialize(cloned) == materialize(parts)
        sp.close()


class TestSharedOrdering:
    """The driver's output sort routes through the shared shuffle helpers
    so mixed-type orderings cannot drift."""

    def test_sort_records_matches_sort_grouped_keys_on_mixed_types(self):
        keys = [3, "b", 1, (2,), "a", 7.5, b"x", None]
        records = [(k, i) for i, k in enumerate(keys)]
        assert [k for k, _ in sort_records(records)] == sort_grouped_keys(keys)

    def test_sort_records_natural_path_and_stability(self):
        records = [(2, "x"), (1, "y"), (2, "z"), (1, "w")]
        assert sort_records(records) == [(1, "y"), (1, "w"), (2, "x"), (2, "z")]

    def test_runner_sort_output_uses_shared_ordering(self):
        from repro.mapreduce.job import MapReduceJob
        from repro.mapreduce.runner import SerialRunner
        from repro.mapreduce.types import JobConf

        def mapper(key, value):
            yield value, key  # mixed-type output keys

        def reducer(key, values):
            yield key, sorted(values)

        job = MapReduceJob(name="mixed", mapper=mapper, reducer=reducer)
        inputs = list(enumerate([3, "b", 1, (2,), "a"]))
        result = SerialRunner().run(job, inputs, JobConf(num_reduce_tasks=2))
        assert [k for k, _ in result.output] == sort_grouped_keys(
            [v for _, v in inputs]
        )


# ---- hypothesis property net ----------------------------------------------

# Key pools: homogeneous fast-path types, plus a mixed pool whose members
# are never mutually comparable (no int/float/bool aliasing: 1 == 1.0 ==
# True would group differently in a dict than under _sort_key ordering).
int_keys = st.integers(min_value=-50, max_value=50)
str_keys = st.text(
    alphabet="abcdefgh", min_size=0, max_size=4
)
tuple_keys = st.tuples(st.integers(min_value=0, max_value=5))
bytes_keys = st.binary(min_size=0, max_size=3)
mixed_keys = st.one_of(int_keys, str_keys, tuple_keys, bytes_keys)

values = st.one_of(st.integers(), st.text(max_size=3), st.none())


def outputs_from(keys):
    return st.lists(  # map tasks
        st.lists(st.tuples(keys, values), max_size=40),  # records per task
        max_size=5,
    )


thresholds = st.sampled_from([0, 1, 64, 1 << 20])
partition_counts = st.integers(min_value=1, max_value=4)


@settings(max_examples=60, deadline=None)
@given(mo=outputs_from(int_keys), parts=partition_counts, threshold=thresholds)
def test_spill_equivalence_int_keys(mo, parts, threshold):
    sp, _ = spill_equivalent(mo, parts, threshold)
    sp.close()


@settings(max_examples=40, deadline=None)
@given(mo=outputs_from(str_keys), parts=partition_counts, threshold=thresholds)
def test_spill_equivalence_str_keys(mo, parts, threshold):
    sp, _ = spill_equivalent(mo, parts, threshold)
    sp.close()


@settings(max_examples=60, deadline=None)
@given(mo=outputs_from(mixed_keys), parts=partition_counts, threshold=thresholds)
def test_spill_equivalence_mixed_type_keys(mo, parts, threshold):
    """Mixed pools exercise the ``_sort_key`` fallback in the merge path."""
    sp, _ = spill_equivalent(mo, parts, threshold)
    sp.close()


@settings(max_examples=25, deadline=None)
@given(mo=outputs_from(int_keys), parts=partition_counts)
def test_spill_equivalence_under_bitrot_repair(mo, parts):
    """Bit-rot on first writes + deterministic repair never changes output."""
    plan = FaultPlan(seed=1, spill_corrupt_rate=0.5, max_faulted_attempts=1)
    sp, _ = spill_equivalent(mo, parts, 0, fault_plan=plan, job_name="prop")
    sp.close()
