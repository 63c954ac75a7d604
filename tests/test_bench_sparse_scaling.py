"""The sparse scaling benchmark's report, rendered from a smoke-shaped
result (no chain run)."""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_sparse_scaling", REPO_ROOT / "benchmarks" / "bench_sparse_scaling.py"
)
bench_sparse_scaling = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_sparse_scaling)


def smoke_result(dense_seconds: float, engine_seconds: float) -> dict:
    """What ``measure`` returns for a ``--smoke`` run (N=2000, uncapped)."""
    return {
        "num_reads": 2000,
        "num_sketches": 2000,
        "params": dict(bench_sparse_scaling.DEFAULTS),
        "gen_seconds": 0.04,
        "sketch_seconds": 0.11,
        "engine_seconds": round(engine_seconds, 2),
        "candidate_pairs": 27700,
        "edges": 10962,
        "clusters": 1095,
        "rounds": 2,
        "shuffle_bytes": 1_169_114,
        "edges_match_positional": True,
        "assignment_match_positional": True,
        "dense_probes": [
            {"n": 250, "seconds": 0.008},
            {"n": 500, "seconds": 0.014},
            {"n": 1000, "seconds": 0.037},
        ],
        "dense_projected_seconds": round(dense_seconds, 1),
        "dense_vs_engine_ratio": dense_seconds / engine_seconds,
        "dense_matrix_gib": 0.03,
    }


@pytest.mark.parametrize(
    "dense_seconds, engine_seconds, shown",
    [
        # Dense projected 0.1 s against a 0.49 s chain: the rounded fields
        # divide to 0.2, which a whole-number format printed as "~0x".
        (0.0998, 0.4913, "0.20"),
        (0.0248, 0.5, "0.050"),
        (3.02, 0.5, "6.0"),
        (241.4, 5.0, "48"),
        (4830.0, 10.0, "480"),
    ],
)
def test_ratio_printed_to_two_significant_figures(
    dense_seconds, engine_seconds, shown
):
    text = bench_sparse_scaling.render(smoke_result(dense_seconds, engine_seconds))
    assert f"(~{shown}x the engine chain)" in text
