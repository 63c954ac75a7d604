"""Tests of the end-to-end benchmark itself (tiny sizes, one round).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fit_child
import layers
import run
from workloads import WORKLOADS

BENCH = run.load_benchmark()
SCRIPT = Path(run.__file__)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_smoke():
    run.WORK.mkdir(exist_ok=True)
    try:
        yield {
            name: run.measure(name, seed=0, seconds=0, traced=True, smoke=True)
            for name in WORKLOADS
        }
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


@pytest.fixture(scope="module")
def run_smoke(tmp_path_factory):
    output = tmp_path_factory.mktemp("run") / "run.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "run", "--smoke", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(output.read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for spec in BENCH["per_layer"]:
        assert layers.UNITS[spec["name"]] == spec["unit"], spec


def test_run_smoke_prints_every_end_to_end_metric(run_smoke):
    (only_run,) = run_smoke["runs"]
    assert set(only_run["workloads"]) == set(WORKLOADS)
    for name, result in only_run["workloads"].items():
        assert result["correct"], (name, result["problems"])
        for spec in BENCH["end_to_end"]:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert metric["value"] > 0, (name, spec["name"])
        assert result["metrics"]["error_rate"]["value"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_workload_form_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "16s-engine-spill", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in declared
    }


def test_trace_reports_declared_per_layer_metrics(traced_smoke):
    for name, result in traced_smoke.items():
        line = run.result_line(result, BENCH, traced=True)
        assert list(line["metrics"]) == [spec["name"] for spec in BENCH["per_layer"]]
        for spec in BENCH["per_layer"]:
            # Every declared time is on every workload's path; only
            # path-specific counts may be absent (and then read 0).
            if spec["unit"] == "s":
                assert spec["name"] in result["metrics"], (name, spec["name"])
        assert result["metrics"]["trace.accounted_share"]["value"] >= 0.9
        assert not result["missing_hooks"]


def test_traced_digest_equals_untraced_and_reference(traced_smoke):
    for name, result in traced_smoke.items():
        reference = result["reference"][str(result["sizes"][-1])]["sha256"]
        digests = {(f["traced"], f["sha256"]) for f in result["fits"]}
        assert digests == {(False, reference), (True, reference)}, name


def test_seed0_pin_mismatch_fails_every_fit_at_that_size(tmp_path, monkeypatch):
    name = "16s-engine-mem"
    top = str(WORKLOADS[name].ladder(smoke=True)[-1])
    pins = json.loads(run.PINNED.read_text())
    pins["workloads"][name][top]["sha256"] = "0" * 64
    doctored = tmp_path / "reference.json"
    doctored.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINNED", doctored)
    run.WORK.mkdir(exist_ok=True)
    try:
        result = run.measure(name, seed=0, seconds=0, smoke=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    at_top = [f for f in result["fits"] if str(f["size"]) == top]
    assert at_top and not any(f["correct"] for f in at_top)
    assert all(f["correct"] for f in result["fits"] if str(f["size"]) != top)
    assert result["failed"] == len(at_top)
    assert result["metrics"]["error_rate"]["value"] == len(at_top) / result["attempted"]
    assert not result["correct"]


def test_missing_hook_target_is_reported_absent():
    broken = tuple(
        layers.Hook(h.name, h.layer, h.style, (("repro.cluster.sparse_jobs", "Gone.__call__"),))
        if h.name == "lsh.pair_reduce"
        else h
        for h in layers.HOOKS
    )
    workload = WORKLOADS["16s-engine-mem"]
    request = {"mode": "fit", "workload": workload.name, "size": 60, "seed": 0, "traced": True}
    out = fit_child.fit(request, hooks=broken)
    assert out["missing_hooks"] == ["lsh.pair_reduce"]
    assert "lsh.pair_reduce_s" not in out["layer_metrics"]
    assert "lsh.band_map_s" in out["layer_metrics"]
    reference = fit_child.references({**request, "sizes": [60]})["60"]["sha256"]
    assert out["sha256"] == reference


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "16s-engine-mem",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98], [1.0, 0.99, 1.01, 1.02, 1.0, 0.98], "unchanged"),
        ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98], [1.2, 1.21, 1.19, 1.2, 1.22, 1.18], "worse"),
        ([1.0, 1.01, 0.99, 1.0, 1.02] * 2, [0.8, 0.81, 0.79, 0.8, 0.82] * 2, "better"),
        # the same gain over fewer than ten pairs is not claimed
        ([1.0, 1.01, 0.99, 1.0, 1.02], [0.8, 0.81, 0.79, 0.8, 0.82], "unchanged"),
        # spread far wider than the 10% bound, medians close: no verdict
        ([1.0, 1.3, 0.7, 1.0, 1.4, 0.6], [1.05, 0.7, 1.35, 0.65, 1.0, 1.3], "unresolved"),
        # medians 5% apart with a 30% spread: within the bound, not a gain
        ([1.0, 1.3, 0.7, 1.0, 1.3, 0.7], [0.95, 1.25, 0.65, 0.95, 1.25, 0.65], "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert run.verdict(parent, change, better="lower", bound=0.1) == expected


def test_compare_higher_is_better_and_exact_metrics():
    assert run.verdict([10] * 10, [12] * 10, better="higher", bound=0.1) == "better"
    assert run.verdict([10, 10, 10], [8, 8, 8], better="higher", bound=0.1) == "worse"
    assert run.verdict([0, 0, 0], [0, 0.25, 0], better="lower", bound=None) == "worse"
    assert run.verdict([0, 0, 0], [0, 0, 0], better="lower", bound=None) == "unchanged"


def _doc(fit_values, error_rates):
    return {
        "runs": [
            {
                "workloads": {
                    "16s-engine-mem": {
                        "metrics": {
                            "fit_s": {"value": v},
                            "scaling_exp": {"value": 1.8},
                            "peak_rss_mib": {"value": 140.0},
                            "setup_s": {"value": 0.3},
                            "error_rate": {"value": e},
                        }
                    }
                }
            }
            for v, e in zip(fit_values, error_rates)
        ]
    }


def test_compare_command_exit_code(tmp_path):
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps(_doc([1.0, 1.01, 0.99], [0, 0, 0])))
    same = tmp_path / "same.json"
    same.write_text(json.dumps(_doc([1.0, 0.99, 1.01], [0, 0, 0])))
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(_doc([1.0, 0.99, 1.01], [0, 0.1, 0])))
    assert run.main(["compare", str(parent), str(same)]) == 0
    assert run.main(["compare", str(parent), str(failing)]) == 1
    rows = run.compare(json.loads(parent.read_text()), json.loads(failing.read_text()), BENCH)
    assert {(r["metric"], r["verdict"]) for r in rows} == {
        ("fit_s", "unchanged"),
        ("scaling_exp", "unchanged"),
        ("peak_rss_mib", "unchanged"),
        ("setup_s", "unchanged"),
        ("error_rate", "worse"),
    }
