"""Tests for the serial runner and the multiprocess runner, including a
wordcount end-to-end and serial/parallel equivalence."""

import pytest

from repro.errors import MapReduceError
from repro.mapreduce.job import MapReduceJob, identity_mapper, identity_reducer
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf


def tokenize_mapper(key, value):
    for word in value.split():
        yield word, 1


def sum_reducer(key, values):
    yield key, sum(values)


WORDCOUNT = MapReduceJob(
    name="wordcount",
    mapper=tokenize_mapper,
    reducer=sum_reducer,
    combiner=sum_reducer,
)

DOCS = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the quick dog jumps"),
    (3, "brown dog brown fox"),
]

EXPECTED = {
    "the": 3, "quick": 2, "brown": 3, "fox": 2, "lazy": 1, "dog": 3, "jumps": 1,
}


class TestSerialRunner:
    def test_wordcount(self):
        result = SerialRunner().run(WORDCOUNT, DOCS, JobConf(num_map_tasks=2, num_reduce_tasks=3))
        assert dict(result.output) == EXPECTED

    def test_output_sorted(self):
        result = SerialRunner().run(WORDCOUNT, DOCS)
        keys = [k for k, _ in result.output]
        assert keys == sorted(keys)

    def test_counters(self):
        result = SerialRunner().run(WORDCOUNT, DOCS, JobConf(num_map_tasks=2))
        assert result.counters.get("job", "map_input_records") == 4
        assert result.counters.get("job", "reduce_output_records") == len(EXPECTED)

    def test_combiner_reduces_shuffle(self):
        with_comb = SerialRunner().run(
            WORDCOUNT, DOCS, JobConf(num_map_tasks=1, use_combiner=True)
        )
        without = SerialRunner().run(
            WORDCOUNT, DOCS, JobConf(num_map_tasks=1, use_combiner=False)
        )
        assert dict(with_comb.output) == dict(without.output)
        assert (
            with_comb.counters.get("job", "shuffle_records")
            < without.counters.get("job", "shuffle_records")
        )

    def test_trace_recorded(self):
        result = SerialRunner().run(WORDCOUNT, DOCS, JobConf(num_map_tasks=2, num_reduce_tasks=2))
        trace = result.trace
        assert trace is not None
        assert len(trace.map_tasks) == 2
        assert len(trace.reduce_tasks) == 2
        assert trace.total_map_records == 4
        assert all(t.cpu_seconds >= 0 for t in trace.map_tasks)

    def test_trace_disabled(self):
        result = SerialRunner(trace=False).run(WORDCOUNT, DOCS)
        assert result.trace is None

    def test_empty_input(self):
        result = SerialRunner().run(WORDCOUNT, [], JobConf(num_map_tasks=3))
        assert result.output == []

    def test_more_tasks_than_records(self):
        result = SerialRunner().run(WORDCOUNT, DOCS[:1], JobConf(num_map_tasks=8))
        assert dict(result.output) == {"the": 1, "quick": 1, "brown": 1, "fox": 1}

    def test_bad_mapper_output_rejected(self):
        job = MapReduceJob(
            name="bad", mapper=lambda k, v: ["not-a-pair"], reducer=identity_reducer
        )
        with pytest.raises(MapReduceError, match="expected \\(key, value\\)"):
            SerialRunner().run(job, [(0, "x")])

    def test_bad_reducer_output_rejected(self):
        job = MapReduceJob(
            name="bad", mapper=identity_mapper, reducer=lambda k, vs: [("a", 1, 2)]
        )
        with pytest.raises(MapReduceError):
            SerialRunner().run(job, [(0, "x")])


class TestMultiprocessRunner:
    def test_matches_serial(self):
        serial = SerialRunner().run(WORDCOUNT, DOCS, JobConf(num_map_tasks=3, num_reduce_tasks=2))
        parallel = MultiprocessRunner(num_workers=2).run(
            WORDCOUNT, DOCS, JobConf(num_map_tasks=3, num_reduce_tasks=2)
        )
        assert dict(serial.output) == dict(parallel.output)

    def test_single_worker(self):
        result = MultiprocessRunner(num_workers=1).run(WORDCOUNT, DOCS)
        assert dict(result.output) == EXPECTED

    def test_counters_merged(self):
        result = MultiprocessRunner(num_workers=2).run(
            WORDCOUNT, DOCS, JobConf(num_map_tasks=2)
        )
        assert result.counters.get("job", "map_input_records") == 4

    def test_combiner_flag_respected(self):
        result = MultiprocessRunner(num_workers=1).run(
            WORDCOUNT, DOCS, JobConf(use_combiner=False)
        )
        assert dict(result.output) == EXPECTED

    def test_invalid_workers(self):
        with pytest.raises(MapReduceError):
            MultiprocessRunner(num_workers=0)
