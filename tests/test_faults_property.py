"""Property-based chaos tests: shuffle grouping/sorting invariants and
final outputs must survive ANY single-task failure schedule, any seeded
fault rates, and the serial/multiprocess runner choice."""

import dataclasses
import functools
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.pipeline import MrMCMinH
from repro.mapreduce.faults import Fault, FaultPlan, RetryPolicy
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf

pytestmark = pytest.mark.chaos


def tokenize(key, value):
    for word in value.split():
        yield word, 1


def total(key, values):
    yield key, sum(values)


WORDCOUNT = MapReduceJob(name="wc", mapper=tokenize, reducer=total, combiner=total)

docs = st.lists(
    st.text(alphabet="ab c", min_size=0, max_size=30), min_size=1, max_size=12
)

# One injected failure somewhere in a 3-map/2-reduce job, on attempt 1 or 2
# (max_attempts=3 always leaves a clean attempt to win).
single_faults = st.builds(
    lambda kind, phase, index, attempt: {
        ("wc", phase, index, attempt): Fault(kind=kind)
    },
    kind=st.sampled_from(["crash", "corrupt"]),
    phase=st.sampled_from(["map", "reduce"]),
    index=st.integers(0, 2),
    attempt=st.integers(1, 2),
)

CONF = JobConf(num_map_tasks=3, num_reduce_tasks=2)
POLICY = RetryPolicy(max_attempts=3)

# The serial runner, the multiprocess runner's inline executor and its pool.
IDENTITY_RUNNERS = (
    SerialRunner,
    functools.partial(MultiprocessRunner, 1, trace=True),
    functools.partial(MultiprocessRunner, 2, trace=True),
)


def _task_fields(trace):
    """Every TaskTrace field except the measured ``cpu_seconds``."""
    rows = [dataclasses.asdict(task) for task in trace.all_tasks]
    for row in rows:
        del row["cpu_seconds"]
    return rows


class TestFaultProperties:
    @given(docs, single_faults)
    @settings(max_examples=60, deadline=None)
    def test_any_single_task_failure_is_invisible(self, texts, schedule):
        """Output (values AND order) equals the fault-free run no matter
        which task attempt crashes or gets corrupted."""
        inputs = list(enumerate(texts))
        clean = SerialRunner(trace=False).run(WORDCOUNT, inputs, CONF)
        chaotic = SerialRunner(
            trace=False, fault_plan=FaultPlan(schedule=schedule), retry=POLICY
        ).run(WORDCOUNT, inputs, CONF)
        assert chaotic.output == clean.output

    @given(docs, single_faults)
    @settings(max_examples=40, deadline=None)
    def test_shuffle_invariants_survive_failures(self, texts, schedule):
        """Grouping and sorting invariants hold under failure: output keys
        are unique, sorted, and totals match the reference count."""
        inputs = list(enumerate(texts))
        result = SerialRunner(
            trace=False, fault_plan=FaultPlan(schedule=schedule), retry=POLICY
        ).run(WORDCOUNT, inputs, CONF)
        keys = [k for k, _ in result.output]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        assert dict(result.output) == dict(
            Counter(w for t in texts for w in t.split())
        )

    @given(docs, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_seeded_rate_chaos_is_invisible(self, texts, seed):
        """Rate-driven chaos (capped so retries always converge) never
        changes the answer, for any seed."""
        inputs = list(enumerate(texts))
        clean = SerialRunner(trace=False).run(WORDCOUNT, inputs, CONF)
        plan = FaultPlan(
            seed=seed,
            mapper_crash_rate=0.4,
            reducer_crash_rate=0.3,
            corrupt_rate=0.3,
            max_faulted_attempts=2,
        )
        chaotic = SerialRunner(trace=False, fault_plan=plan, retry=POLICY).run(
            WORDCOUNT, inputs, CONF
        )
        assert chaotic.output == clean.output

    @given(docs, st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_chaos_is_deterministic(self, texts, seed):
        """The same plan replayed injects the same faults: two chaotic runs
        agree on output AND attempt accounting."""
        inputs = list(enumerate(texts))

        def chaotic_run():
            plan = FaultPlan(seed=seed, mapper_crash_rate=0.5, max_faulted_attempts=2)
            return SerialRunner(fault_plan=plan, retry=POLICY).run(
                WORDCOUNT, inputs, CONF
            )

        a, b = chaotic_run(), chaotic_run()
        assert a.output == b.output
        assert a.counters.get("fault", "task_retries") == b.counters.get(
            "fault", "task_retries"
        )
        assert [t.attempts for t in a.trace.map_tasks] == [
            t.attempts for t in b.trace.map_tasks
        ]

    @given(
        texts=docs,
        seed=st.integers(0, 100),
        use_combiner=st.booleans(),
        spill=st.sampled_from([None, 0]),
        sink=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_serial_and_multiprocess_equivalent_under_chaos(
        self, texts, seed, use_combiner, spill, sink
    ):
        """Every backend recovers to the same bytes, counters and task
        traces under the same plan.  Hangs stay out: the pool races them
        by design."""
        inputs = list(enumerate(texts))
        conf = JobConf(
            num_map_tasks=3,
            num_reduce_tasks=2,
            use_combiner=use_combiner,
            spill_threshold_bytes=spill,
        )

        def observe(make):
            plan = FaultPlan(
                seed=seed,
                mapper_crash_rate=0.3,
                reducer_crash_rate=0.2,
                corrupt_rate=0.2,
                slow_node_rate=0.3,
                slow_node_delay=0.001,
                max_faulted_attempts=2,
            )
            sunk = []
            result = make(fault_plan=plan, retry=POLICY).run(
                WORDCOUNT, inputs, conf, output_sink=sunk.append if sink else None
            )
            counters = {
                group: names
                for group, names in result.counters.as_dict().items()
                if group in ("job", "fault", "shuffle", "wire")
            }
            output = pickle.dumps(sunk if sink else result.output)
            return output, counters, _task_fields(result.trace)

        serial, *others = [observe(make) for make in IDENTITY_RUNNERS]
        for other in others:
            assert other == serial

    def test_wire_pipeline_identical_across_runners(self, two_family_records):
        """A b-bit wire fit under seeded chaos writes the same TSV and
        wire counters on every backend."""

        def fit(runner):
            fs = SimulatedHDFS(num_datanodes=2, block_size=256, seed=0)
            model = MrMCMinH(
                kmer_size=5, num_hashes=48, threshold=0.78, method="greedy",
                estimator="positional", wire_bits=8, seed=0, runner=runner,
            )
            MrMCMinH.stage_records(fs, "/in.fasta", two_family_records)
            run = model.fit_hdfs(fs, "/in.fasta", "/out.tsv")
            return fs.get_text("/out.tsv"), run.counters.as_dict()["wire"]

        plan = FaultPlan(
            seed=3, mapper_crash_rate=0.3, corrupt_rate=0.3, max_faulted_attempts=2
        )
        serial, *others = [
            fit(make(fault_plan=plan, retry=POLICY)) for make in IDENTITY_RUNNERS
        ]
        assert serial[1]["frames"] > 1
        for other in others:
            assert other == serial
