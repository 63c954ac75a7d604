"""Tests for Map-Reduce core pieces: counters, shuffle, job definitions."""

import types

import pytest

from repro.errors import MapReduceError
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob, identity_mapper, identity_reducer
from repro.mapreduce.shuffle import SpillingShuffle, shuffle, sort_grouped_keys
from repro.mapreduce.types import JobConf, stable_hash


def default_partitioner(key, num_partitions):
    """The one routing rule both shuffles apply."""
    return stable_hash(key) % num_partitions


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(("k", 1)) == stable_hash(("k", 1))

    def test_non_negative(self):
        for key in ("x", 0, -5, (1, "a"), None, 3.14):
            assert stable_hash(key) >= 0

    def test_spread(self):
        values = {stable_hash(f"key{i}") % 8 for i in range(100)}
        assert len(values) >= 6  # uses most partitions

    def test_unpicklable_rejected(self):
        with pytest.raises(MapReduceError, match="not picklable"):
            stable_hash(lambda: None)


class TestJobConf:
    def test_defaults(self):
        conf = JobConf()
        assert conf.num_map_tasks == 1
        assert conf.num_reduce_tasks == 1

    def test_validation(self):
        with pytest.raises(MapReduceError):
            JobConf(num_map_tasks=0)
        with pytest.raises(MapReduceError):
            JobConf(num_reduce_tasks=0)


class TestCounters:
    def test_increment_and_get(self):
        c = Counters()
        c.increment("g", "n")
        c.increment("g", "n", 4)
        assert c.get("g", "n") == 5

    def test_missing_is_zero(self):
        assert Counters().get("g", "missing") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "x", 2)
        b.increment("g", "x", 3)
        b.increment("h", "y")
        a.merge(b)
        assert a.get("g", "x") == 5
        assert a.get("h", "y") == 1

    def test_as_dict_and_groups(self):
        c = Counters()
        c.increment("g2", "b")
        c.increment("g1", "a", 7)
        assert c.groups() == ["g1", "g2"]
        assert c.as_dict() == {"g1": {"a": 7}, "g2": {"b": 1}}

    def test_iter_sorted(self):
        c = Counters()
        c.increment("b", "x")
        c.increment("a", "y")
        assert list(c) == [("a", "y", 1), ("b", "x", 1)]

    def test_len(self):
        c = Counters()
        assert len(c) == 0
        c.increment("g", "n")
        assert len(c) == 1


class TestShuffle:
    def test_groups_and_sorts(self):
        outputs = [[("b", 1), ("a", 2)], [("a", 3)]]
        partitions, moved = shuffle(outputs, 1)
        assert moved == 3
        assert partitions[0] == [("a", [2, 3]), ("b", [1])]

    def test_partition_routing_consistent(self):
        outputs = [[(f"k{i}", i) for i in range(50)]]
        partitions, _ = shuffle(outputs, 4)
        for p, groups in enumerate(partitions):
            for key, _values in groups:
                assert default_partitioner(key, 4) == p

    def test_both_shuffles_route_through_module_stable_hash(self, monkeypatch):
        # Looked up as a repro.mapreduce.shuffle global on every record,
        # so a wrapper installed there sees each routed key exactly once.
        calls = []

        def counting_hash(key):
            calls.append(key)
            return 1

        import repro.mapreduce

        # The package attribute names the submodule, so a dotted path
        # reaches the module's globals.
        assert isinstance(repro.mapreduce.shuffle, types.ModuleType)
        monkeypatch.setattr("repro.mapreduce.shuffle.stable_hash", counting_hash)
        outputs = [[(f"k{i}", i) for i in range(10)], [("k0", 10), ("k3", 11)]]
        records = [pair for out in outputs for pair in out]

        partitions, moved = shuffle(outputs, 4)
        assert moved == len(records) == len(calls)
        assert [bool(p) for p in partitions] == [False, True, False, False]
        assert sum(len(v) for _, v in partitions[1]) == len(records)

        calls.clear()
        with SpillingShuffle(4, spill_threshold_bytes=0) as spill:
            for out in outputs:
                spill.add_task_output(out)
            spilled, moved = spill.finish()
            assert moved == len(records) == len(calls)
            assert [p.num_records for p in spilled] == [0, len(records), 0, 0]
            assert [list(p) for p in spilled] == partitions

    def test_bad_record_rejected(self):
        with pytest.raises(MapReduceError, match="not a \\(key, value\\) pair"):
            shuffle([[("k", 1, 2)]], 1)

    def test_zero_partitions_rejected(self):
        with pytest.raises(MapReduceError):
            shuffle([[]], 0)

    def test_mixed_key_types_sort(self):
        keys = sort_grouped_keys(["b", 1, "a", 2])
        assert len(keys) == 4  # must not raise

    def test_all_values_preserved(self):
        outputs = [[(i % 5, i) for i in range(100)]]
        partitions, moved = shuffle(outputs, 3)
        values = [v for groups in partitions for _k, vals in groups for v in vals]
        assert sorted(values) == list(range(100))
        assert moved == 100


class TestJobDefinition:
    def test_validation(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(name="", mapper=identity_mapper, reducer=identity_reducer)
        with pytest.raises(MapReduceError):
            MapReduceJob(name="j", mapper=None, reducer=identity_reducer)
        with pytest.raises(MapReduceError):
            MapReduceJob(name="j", mapper=identity_mapper, reducer=None)
        with pytest.raises(MapReduceError):
            MapReduceJob(
                name="j", mapper=identity_mapper, reducer=identity_reducer, combiner=5
            )

    def test_context_detection(self):
        def mapper_with_ctx(key, value, *, context):
            context.increment("test", "calls")
            yield key, value

        job = MapReduceJob(name="j", mapper=mapper_with_ctx, reducer=identity_reducer)
        counters = Counters()
        list(job.run_mapper("k", "v", counters))
        assert counters.get("test", "calls") == 1

    def test_identity_helpers(self):
        assert list(identity_mapper("k", "v")) == [("k", "v")]
        assert list(identity_reducer("k", [1, 2])) == [("k", 1), ("k", 2)]

    def test_default_combiner_is_identity(self):
        job = MapReduceJob(name="j", mapper=identity_mapper, reducer=identity_reducer)
        assert list(job.run_combiner("k", [1, 2])) == [("k", 1), ("k", 2)]
