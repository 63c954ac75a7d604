"""Regression-comparator logic of the perf-trajectory gate.

Exercises the pure comparison rules (direction, tolerance, floors,
ceilings, exact metrics, workload pinning); one smoke test checks the
committed snapshot is well-formed and self-consistent with the
comparator, and one runs the measurement pass once and checks every
exact gate against that snapshot.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_trajectory", REPO_ROOT / "benchmarks" / "bench_trajectory.py"
)
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)

compare = bench_trajectory.compare
find_baseline = bench_trajectory.find_baseline


def snapshot(**overrides):
    doc = {
        "schema": 1,
        "workload": {"num_reads": 200, "kmer_size": 5},
        "metrics": {
            "batch_ms": {
                "value": 20.0,
                "unit": "ms",
                "direction": "lower",
                "tolerance": 0.5,
            },
            "speedup": {
                "value": 8.0,
                "unit": "x",
                "direction": "higher",
                "tolerance": 0.25,
                "floor": 5.0,
            },
            "clusters": {
                "value": 44,
                "unit": "clusters",
                "direction": "lower",
                "tolerance": 0.0,
                "exact": True,
            },
        },
    }
    doc.update(overrides)
    return doc


def test_identical_snapshots_pass():
    assert compare(snapshot(), snapshot()) == []


def test_improvement_passes():
    cur = snapshot()
    cur["metrics"]["batch_ms"]["value"] = 10.0
    cur["metrics"]["speedup"]["value"] = 16.0
    assert compare(snapshot(), cur) == []


def test_lower_metric_regression_fails():
    cur = snapshot()
    cur["metrics"]["batch_ms"]["value"] = 31.0  # > 20 * 1.5
    problems = compare(snapshot(), cur)
    assert len(problems) == 1 and "batch_ms" in problems[0]


def test_lower_metric_within_tolerance_passes():
    cur = snapshot()
    cur["metrics"]["batch_ms"]["value"] = 29.0  # <= 20 * 1.5
    assert compare(snapshot(), cur) == []


def test_higher_metric_regression_fails():
    cur = snapshot()
    cur["metrics"]["speedup"]["value"] = 5.5  # < 8 * 0.75
    problems = compare(snapshot(), cur)
    assert len(problems) == 1 and "speedup" in problems[0]


def test_hard_floor_beats_tolerance():
    # Within tolerance of a low baseline but under the absolute floor.
    base = snapshot()
    base["metrics"]["speedup"]["value"] = 5.2
    cur = copy.deepcopy(base)
    cur["metrics"]["speedup"]["value"] = 4.5
    problems = compare(base, cur)
    assert any("hard floor" in p for p in problems)


def test_hard_ceiling_enforced():
    base = snapshot()
    cur = copy.deepcopy(base)
    cur["metrics"]["batch_ms"]["ceiling"] = 25.0
    cur["metrics"]["batch_ms"]["value"] = 26.0
    problems = compare(base, cur)
    assert any("hard ceiling" in p for p in problems)


def test_exact_metric_must_match():
    cur = snapshot()
    cur["metrics"]["clusters"]["value"] = 45
    problems = compare(snapshot(), cur)
    assert len(problems) == 1 and "clusters" in problems[0]


def test_missing_metric_flagged():
    cur = snapshot()
    del cur["metrics"]["speedup"]
    problems = compare(snapshot(), cur)
    assert any("missing" in p for p in problems)


def test_workload_mismatch_refuses_comparison():
    cur = snapshot()
    cur["workload"] = {"num_reads": 400, "kmer_size": 5}
    problems = compare(snapshot(), cur)
    assert problems and "workload" in problems[0]


def test_schema_mismatch_refuses_comparison():
    cur = snapshot(schema=2)
    problems = compare(snapshot(), cur)
    assert problems and "schema" in problems[0]


def test_find_baseline_picks_newest(tmp_path):
    (tmp_path / "BENCH_2026-01-01.json").write_text("{}")
    (tmp_path / "BENCH_2026-03-05.json").write_text("{}")
    (tmp_path / "BENCH_2026-02-28.json").write_text("{}")
    assert find_baseline(tmp_path).name == "BENCH_2026-03-05.json"
    assert find_baseline(tmp_path / "empty-subdir") is None


def test_committed_snapshot_is_wellformed():
    baseline_path = find_baseline(REPO_ROOT)
    assert baseline_path is not None, "a BENCH_*.json snapshot must be committed"
    doc = json.loads(baseline_path.read_text())
    assert doc["schema"] == bench_trajectory.SCHEMA_VERSION
    assert doc["workload"]["kmer_size"] == 5
    assert doc["workload"]["num_hashes"] == 100
    assert doc["workload"]["num_reads"] == 200
    metrics = doc["metrics"]
    # The headline acceptance gates, as committed.
    assert metrics["sketch_batch_speedup"]["value"] >= 5.0
    assert metrics["sketch_batch_speedup"]["floor"] == 5.0
    assert (
        metrics["shuffle_bytes_wire"]["value"]
        < metrics["shuffle_bytes_raw"]["value"]
    )
    # Pigeonhole banding (schema 6) verifies fewer candidates than the
    # collision join; both are exact gates.
    assert metrics["sparse_cluster_candidate_pairs"]["exact"] is True
    assert (
        metrics["sparse_cluster_candidate_pairs"]["value"]
        < metrics["sparse_candidate_pairs"]["value"]
    )
    # The dense Algorithm-2 path (schema 7) is gated exactly on its
    # cluster count and timed separately from the greedy pipeline.
    assert metrics["hier_pipeline_clusters"]["exact"] is True
    assert metrics["hier_pipeline_ms"]["direction"] == "lower"
    # Service section (schema 3): structural shed rate gates exactly —
    # 2 tenants x 6 jobs into depth-2 queues sheds 8 of 12.
    assert metrics["service_shed_rate"]["exact"] is True
    assert metrics["service_shed_rate"]["value"] == pytest.approx(8 / 12, abs=1e-4)
    assert metrics["service_p99_latency_ms"]["value"] >= metrics[
        "service_p50_latency_ms"
    ]["value"]
    assert doc["service"]["accepted"] == 4
    assert doc["service"]["shed"] == 8
    assert doc["service"]["health"]["totals"]["completed"] == 4
    # A snapshot always passes the gate against itself.
    assert compare(doc, doc) == []


def test_collect_reproduces_every_exact_gate():
    # Exact gates do not depend on the machine, so every supported Python
    # checks them here; timing and tolerance gates stay in the perf job.
    doc = json.loads(find_baseline(REPO_ROOT).read_text())
    exact = {
        name: spec["value"]
        for name, spec in doc["metrics"].items()
        if spec.get("exact")
    }
    current = bench_trajectory.collect()
    assert current["workload"] == doc["workload"]
    assert exact
    assert {name: current["metrics"][name]["value"] for name in exact} == exact


def test_cli_compare_exit_codes(tmp_path, capsys):
    good = tmp_path / "BENCH_a.json"
    bad = tmp_path / "BENCH_b.json"
    good.write_text(json.dumps(snapshot()))
    regressed = snapshot()
    regressed["metrics"]["speedup"]["value"] = 2.0
    bad.write_text(json.dumps(regressed))
    assert bench_trajectory.main(["compare", str(good), str(good)]) == 0
    assert bench_trajectory.main(["compare", str(good), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PASS" in out and "REGRESSION" in out


@pytest.mark.parametrize("direction", ["higher", "lower"])
def test_zero_tolerance_is_strict(direction):
    base = snapshot()
    base["metrics"] = {
        "m": {"value": 100.0, "unit": "u", "direction": direction, "tolerance": 0.0}
    }
    cur = copy.deepcopy(base)
    cur["metrics"]["m"]["value"] = 99.0 if direction == "higher" else 101.0
    assert compare(base, cur)
    cur["metrics"]["m"]["value"] = 100.0
    assert compare(base, cur) == []
