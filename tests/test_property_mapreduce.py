"""Property-based tests of the Map-Reduce engine: results must be
independent of task counts, combiner usage, and runner choice, and match
straightforward reference computations."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf, stable_hash


def default_partitioner(key, num_partitions):
    """The one routing rule both shuffles apply."""
    return stable_hash(key) % num_partitions


def tokenize(key, value):
    for word in value.split():
        yield word, 1


def total(key, values):
    yield key, sum(values)


WORDCOUNT = MapReduceJob(name="wc", mapper=tokenize, reducer=total, combiner=total)

docs = st.lists(
    st.text(alphabet="ab c", min_size=0, max_size=30), min_size=0, max_size=20
)
confs = st.builds(
    JobConf,
    num_map_tasks=st.integers(1, 7),
    num_reduce_tasks=st.integers(1, 5),
    use_combiner=st.booleans(),
)


class TestEngineProperties:
    @given(docs, confs)
    @settings(max_examples=80, deadline=None)
    def test_wordcount_matches_reference(self, texts, conf):
        inputs = list(enumerate(texts))
        result = SerialRunner(trace=False).run(WORDCOUNT, inputs, conf)
        reference = Counter(w for t in texts for w in t.split())
        assert dict(result.output) == dict(reference)

    @given(docs)
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_task_counts(self, texts):
        inputs = list(enumerate(texts))
        runner = SerialRunner(trace=False)
        baseline = dict(runner.run(WORDCOUNT, inputs, JobConf()).output)
        for m, r in ((3, 1), (1, 4), (5, 3)):
            out = dict(
                runner.run(
                    WORDCOUNT, inputs, JobConf(num_map_tasks=m, num_reduce_tasks=r)
                ).output
            )
            assert out == baseline

    @given(docs)
    @settings(max_examples=40, deadline=None)
    def test_combiner_neutrality(self, texts):
        """A correct (associative/commutative) combiner never changes the
        job's result."""
        inputs = list(enumerate(texts))
        runner = SerialRunner(trace=False)
        with_comb = runner.run(
            WORDCOUNT, inputs, JobConf(num_map_tasks=3, use_combiner=True)
        )
        without = runner.run(
            WORDCOUNT, inputs, JobConf(num_map_tasks=3, use_combiner=False)
        )
        assert dict(with_comb.output) == dict(without.output)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_identity_job_preserves_multiset(self, pairs):
        job = MapReduceJob(
            name="id",
            mapper=lambda k, v: [(k, v)],
            reducer=lambda k, vs: [(k, v) for v in vs],
        )
        result = SerialRunner(trace=False).run(
            job, pairs, JobConf(num_map_tasks=3, num_reduce_tasks=3)
        )
        assert Counter(result.output) == Counter(pairs)

    @given(st.lists(st.text(max_size=10), min_size=1, max_size=50), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_partitioner_is_total_and_stable(self, keys, parts):
        for key in keys:
            p1 = default_partitioner(key, parts)
            p2 = default_partitioner(key, parts)
            assert p1 == p2
            assert 0 <= p1 < parts

    @given(st.text(max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_stable_hash_deterministic(self, key):
        assert stable_hash(key) == stable_hash(key)
