"""Run-report tests: a traced pipeline run must explain its wall-clock.

The headline acceptance check lives here: running the MrMC-MinH pipeline
with tracing enabled yields per-phase durations that sum to within 5% of
the traced wall-clock, and a non-empty critical path from the pipeline
root down to a task attempt.
"""

import gc
import random

import pytest

from repro.cluster.pipeline import MrMCMinH
from repro.mapreduce.simulator import ClusterSimulator, ClusterSpec
from repro.obs import Tracer, build_report, report_from_jsonl
from repro.seq.records import SequenceRecord


@pytest.fixture(scope="module")
def traced_pipeline_run():
    rng = random.Random(0)
    records = [
        SequenceRecord(
            read_id=f"r{i}",
            sequence="".join(rng.choice("ACGT") for _ in range(120)),
        )
        for i in range(40)
    ]
    model = MrMCMinH(
        kmer_size=5,
        num_hashes=32,
        threshold=0.8,
        method="hierarchical",
        linkage="average",
    )
    tracer = Tracer()
    # A collector pause scales with the heap that earlier tests leave
    # behind (a full collection of a whole suite's heap outlasts this
    # few-millisecond fit many times over) and lands wherever an
    # allocation crosses the threshold, so keep it out of the timed run,
    # as ``timeit`` does.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with tracer.activate():
            run = model.fit(records)
    finally:
        if gc_was_enabled:
            gc.enable()
    return tracer, run


class TestPipelineReport:
    def test_phase_durations_sum_within_5pct_of_wall_clock(self, traced_pipeline_run):
        tracer, _run = traced_pipeline_run
        report = build_report(tracer.spans, tracer.metrics.snapshot())
        names = {p.name for p in report.phases}
        assert names == {"phase:sketch", "phase:similarity", "phase:cluster"}
        assert report.wall_seconds > 0
        assert 0.95 <= report.phase_coverage <= 1.05

    def test_critical_path_runs_root_to_attempt(self, traced_pipeline_run):
        tracer, _run = traced_pipeline_run
        report = build_report(tracer.spans)
        assert report.critical_path
        assert report.critical_path[0][0] == "pipeline:mrmcminh"
        # Each hop's duration fits inside its parent's.
        durations = [seconds for _name, seconds in report.critical_path]
        assert durations == sorted(durations, reverse=True)
        assert report.critical_path[-1][0].startswith("attempt:")

    def test_pipeline_gauges_recorded(self, traced_pipeline_run):
        tracer, run = traced_pipeline_run
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["pipeline.sequences"] == len(run.sketches)
        assert gauges["pipeline.clusters"] == run.assignment.num_clusters
        assert gauges["pipeline.sketch_reads_per_sec"] > 0
        for phase in ("sketch", "similarity", "cluster"):
            assert gauges[f"pipeline.phase_seconds.{phase}"] == pytest.approx(
                run.timings[phase], rel=0.05
            )

    def test_shuffle_volume_surfaces_in_report(self, traced_pipeline_run):
        tracer, _run = traced_pipeline_run
        report = build_report(tracer.spans, tracer.metrics.snapshot())
        assert report.shuffle_bytes > 0
        assert report.shuffle_records > 0
        assert report.jobs, "job summaries missing"

    def test_report_round_trips_through_jsonl(self, traced_pipeline_run, tmp_path):
        tracer, _run = traced_pipeline_run
        path = tmp_path / "run.jsonl"
        tracer.write_jsonl(path)
        report = report_from_jsonl(path)
        direct = build_report(tracer.spans, tracer.metrics.snapshot())
        assert report.wall_seconds == pytest.approx(direct.wall_seconds)
        assert report.critical_path == direct.critical_path
        rendered = report.render()
        assert "== run report ==" in rendered
        assert "critical path: pipeline:mrmcminh" in rendered


class TestSimulatedSpans:
    def test_sim_report_to_spans_feeds_the_same_report(self, traced_pipeline_run):
        _tracer, run = traced_pipeline_run
        sim = ClusterSimulator(ClusterSpec(num_nodes=4))
        sim_report = sim.simulate_pipeline(run.traces)
        spans = sim_report.to_spans()

        # Well-formed tree with the modeled total as the root duration.
        root = next(s for s in spans if s.parent_id is None)
        assert root.name == "pipeline:simulated"
        assert root.duration_s == pytest.approx(sim_report.total_s)

        report = build_report(spans)
        assert report.wall_seconds == pytest.approx(sim_report.total_s)
        # Modeled jobs are back-to-back, so job spans explain everything.
        assert report.phase_coverage == pytest.approx(1.0)
        assert report.critical_path[0][0] == "pipeline:simulated"
        job_names = {j.name for j in report.jobs}
        assert {f"job:{j.job_name}" for j in sim_report.jobs} == job_names

    def test_modeled_stages_tile_each_job(self, traced_pipeline_run):
        _tracer, run = traced_pipeline_run
        sim = ClusterSimulator(ClusterSpec(num_nodes=2))
        spans = sim.simulate_pipeline(run.traces).to_spans()
        for job_span in (s for s in spans if s.kind == "job"):
            stages = [s for s in spans if s.parent_id == job_span.span_id]
            assert [s.name for s in stages] == ["startup", "map", "shuffle", "reduce"]
            assert stages[0].start_s == pytest.approx(job_span.start_s)
            assert stages[-1].end_s == pytest.approx(job_span.end_s)
            for prev, nxt in zip(stages, stages[1:]):
                assert nxt.start_s == pytest.approx(prev.end_s)
