"""Exporter tests: JSONL round-trip and Chrome trace-event well-formedness.

The Chrome trace checks run on a real nested multi-job chain (serial and
multiprocess) and validate the invariants the trace-event format needs:
every ``B`` pairs with a matching ``E`` on its (pid, tid) track, and
timestamps never go backwards within a track.
"""

import json

import pytest

from repro.mapreduce.job import MapReduceJob, identity_reducer
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf
from repro.obs import (
    Tracer,
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import Span


def mapper(key, value):
    yield key % 4, value + 1


def make_chain_tracer():
    """Trace a two-job chain, each job fed the previous one's output, under
    one ``chain`` span."""
    jobs = [
        MapReduceJob(name="first", mapper=mapper, reducer=identity_reducer),
        MapReduceJob(name="second", mapper=mapper, reducer=identity_reducer),
    ]
    records = [(i, i) for i in range(24)]
    conf = JobConf(num_map_tasks=3, num_reduce_tasks=2)
    runner = SerialRunner()
    tracer = Tracer()
    with tracer.activate(), tracer.span("chain"):
        for job in jobs:
            records = runner.run(job, records, conf).output
    return tracer


def assert_chrome_invariants(events):
    """B/E pairing and ts monotonicity per (pid, tid) track."""
    assert events, "no events emitted"
    stacks: dict[tuple, list] = {}
    last_ts: dict[tuple, float] = {}
    for event in events:
        key = (event["pid"], event["tid"])
        assert event["ph"] in ("B", "E")
        assert event["ts"] >= last_ts.get(key, float("-inf")), (
            f"ts went backwards on track {key}"
        )
        last_ts[key] = event["ts"]
        if event["ph"] == "B":
            stacks.setdefault(key, []).append(event["name"])
        else:
            assert stacks.get(key), f"E without open B on track {key}"
            assert stacks[key].pop() == event["name"], "mispaired B/E"
    assert all(not stack for stack in stacks.values()), "unclosed B events"


class TestJsonlRoundTrip:
    def test_round_trip_preserves_spans_metrics_meta(self, tmp_path):
        tracer = make_chain_tracer()
        tracer.metrics.gauge("pipeline.clusters").set(7)
        path = tmp_path / "run.jsonl"
        write_jsonl(tracer, path)

        spans, metrics, meta = read_jsonl(path)
        assert len(spans) == len(tracer.spans)
        assert [s.to_dict() for s in spans] == [s.to_dict() for s in tracer.spans]
        assert metrics == tracer.metrics.snapshot()
        assert meta["num_spans"] == len(tracer.spans)
        assert meta["pid"] == tracer.pid

    def test_every_line_is_valid_json(self, tmp_path):
        tracer = make_chain_tracer()
        path = tmp_path / "run.jsonl"
        write_jsonl(tracer, path)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "metrics"
        assert all(r["type"] == "span" for r in records[1:-1])


class TestChromeTrace:
    def test_nested_chain_emits_wellformed_trace(self):
        tracer = make_chain_tracer()
        events = chrome_trace_events(tracer.spans)
        # Two events (B + E) per span.
        assert len(events) == 2 * len(tracer.spans)
        assert_chrome_invariants(events)
        names = {e["name"] for e in events}
        assert {"chain", "job:first", "job:second", "map", "shuffle", "reduce"} <= names

    def test_multiprocess_run_has_per_worker_pids(self):
        job = MapReduceJob(name="mp", mapper=mapper, reducer=identity_reducer)
        tracer = Tracer()
        with tracer.activate():
            MultiprocessRunner(num_workers=2).run(
                job,
                [(i, i) for i in range(16)],
                JobConf(num_map_tasks=4, num_reduce_tasks=2),
            )
        events = chrome_trace_events(tracer.spans)
        assert_chrome_invariants(events)
        assert len({e["pid"] for e in events}) > 1, "worker pids not preserved"

    def test_overlapping_spans_spread_across_tracks(self):
        # Two overlapping-but-not-nested spans cannot share a track.
        spans = [
            Span(name="a", span_id=1, parent_id=None, start_s=0.0, end_s=2.0),
            Span(name="b", span_id=2, parent_id=None, start_s=1.0, end_s=3.0),
        ]
        events = chrome_trace_events(spans)
        assert_chrome_invariants(events)
        tid_of = {e["name"]: e["tid"] for e in events if e["ph"] == "B"}
        assert tid_of["a"] != tid_of["b"]

    def test_begin_events_carry_status_and_attrs(self):
        tracer = Tracer()
        with tracer.span("x", kind="task", task_id="t0"):
            pass
        (begin, _end) = chrome_trace_events(tracer.spans)
        assert begin["cat"] == "task"
        assert begin["args"] == {"status": "ok", "task_id": "t0"}
        assert begin["ts"] == pytest.approx(tracer.spans[0].start_s * 1e6, abs=1.0)

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        tracer = make_chain_tracer()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer.spans, path)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert_chrome_invariants(document["traceEvents"])
