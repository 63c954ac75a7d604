"""Perf-trajectory harness: measure the hot paths, record them, gate them.

Every perf-sensitive quantity the paper's scaling story depends on is
measured here on one pinned workload (Table-III settings: k=5, n=100
hashes, 200 whole-metagenome reads) and recorded as a ``BENCH_<date>.json``
snapshot at the repo root.  Each metric carries its own regression policy
(direction, relative tolerance, optional hard floor/ceiling, or exact
match), so the snapshot *is* the gate: the comparator re-measures and
fails when the trajectory goes backwards.

Usage::

    python benchmarks/bench_trajectory.py run             # write BENCH_<date>.json
    python benchmarks/bench_trajectory.py check           # measure, compare vs newest committed snapshot
    python benchmarks/bench_trajectory.py compare OLD NEW # compare two recorded snapshots

``check`` exits non-zero on any regression; CI runs it against the
checked-in baseline on every push (see .github/workflows/ci.yml).

Timing tolerances are deliberately generous (CI machines are noisy and
heterogeneous); the load-bearing gates are the machine-independent ones —
the batch-vs-loop speedup floor, the wire-compression ceiling, the
deterministic byte counts, and the exact cluster count.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Pinned workload: Table III whole-metagenome settings, scaled per
# DESIGN.md substitution #4.  Changing any of these invalidates every
# committed snapshot — bump them only together with a fresh baseline.
WORKLOAD = {
    "sample": "S1",
    "num_reads": 200,
    "genome_length": 5000,
    "kmer_size": 5,
    "num_hashes": 100,
    "threshold": 0.9,
    "linkage": "average",
    "wire_bits": 8,
    "seed": 0,
    "timing_rounds": 3,
    # Fixed-overload scenario for the job-service metrics: 2 tenants
    # each submit 6 jobs into depth-2 queues served by 2 slots.  The
    # burst is admitted before the slots start, so the shed set is
    # purely structural (4 accepted, 8 shed) and gates exactly.
    "service_tenants": 2,
    "service_jobs_per_tenant": 6,
    "service_queue_depth": 2,
    "service_slots": 2,
    "service_job_seconds": 0.02,
}

# Schema history:
#   1 — initial trajectory metrics.
#   2 — adds the telemetry-sourced ``fault_retry_count`` gate and the
#       informational ``obs`` section (span count, phase coverage, full
#       metrics snapshot) recorded from a traced pipeline run.
#   3 — adds the job-service section: deterministic shed rate under a
#       fixed overload (exact gate), admission-to-finish latency
#       percentiles (tolerance gates), and the informational ``service``
#       block with the full health snapshot and fluid-model error.
#   4 — adds the engine-sparse chain (repro.cluster.sparse_jobs):
#       deterministic candidate-pair count (exact gate, cross-checked
#       against the in-process join before recording), chain shuffle
#       bytes (tolerance gate — _approx_bytes sampling is deterministic
#       but pickle sizes can shift across python versions), round count
#       (exact), and the chain's wall time.
#   5 — adds the external spill-to-disk shuffle: ``spill_parity`` (exact
#       gate — a spilled+streamed run of the engine chain must produce
#       byte-identical candidate pairs and assignments to the in-memory
#       run), ``spill_segments`` (exact — the spill-everything segment
#       count is a pure function of the workload), and
#       ``shuffle_spill_bytes`` (tolerance — pickle sizes may shift
#       across python versions).
#   6 — the engine chain's clustering runs derive pigeonhole bands from θ
#       (11 bands at n=100, θ=0.9) instead of one band per position.
#       Adds ``sparse_cluster_candidate_pairs`` (exact gate: 13,423
#       verified candidates vs the collision join's 19,900, asserted to
#       yield exactly the 874 positional edges and the band_size=1 TSV).
#       ``sparse_candidate_pairs`` keeps gating the band_size=1 join.
#       ``shuffle_spill_bytes`` drops (1,757,012 -> 1,265,074 at the
#       schema-5 baseline) because the spilled clustering run now shuffles
#       the smaller candidate set; ``spill_segments`` stays 64.
#   7 — puts the dense Algorithm-2 path (MrMC-MinH^h: similarity job plus
#       average-linkage agglomeration, the workload's ``linkage``) under
#       the gate: ``hier_pipeline_ms`` (untraced best-of-rounds fit,
#       tolerance) and ``hier_pipeline_clusters`` (exact).  Before this,
#       ``pipeline_ms`` timed only greedy positional with ``wire_bits``.
#   8 — the engine chain has one banding rule (pigeonhole bands from θ;
#       its threshold-less one-band-per-position mode is gone), so every
#       chain metric measures the thresholded run the pipeline makes.
#       Re-based (schema-7 baseline -> schema-8 baseline):
#       ``sparse_engine_ms`` 4,797.3 -> 96.9 ms, ``sparse_shuffle_bytes``
#       877,866 -> 385,952 and ``shuffle_spill_bytes`` 1,265,074 ->
#       773,136 (both spilled runs are now at θ).  The exact gates keep
#       their values: ``sparse_candidate_pairs`` 19,900 (now counted from
#       ``candidate_pair_arrays``, the join the chain's candidates are
#       checked to be a subset of), ``sparse_cluster_candidate_pairs``
#       13,423, ``sparse_engine_rounds`` 2, ``spill_parity`` 1 and
#       ``spill_segments`` 64 (32 + 32).
SCHEMA_VERSION = 8


def _best_of(rounds: int, fn) -> float:
    """Best-of-N wall time for ``fn()``, in milliseconds."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _collect_service(w: dict) -> tuple[dict, dict]:
    """Run the fixed-overload service scenario.

    Returns ``(metrics, info)``: the gated metrics (shed rate exact,
    latency percentiles with generous tolerance) and the informational
    ``service`` block (health snapshot, fluid-model mean error).
    """
    from repro.errors import ServiceOverloadedError
    from repro.mapreduce.service import JobService, fluid_prediction, sleep_spec

    svc = JobService(
        num_slots=int(w["service_slots"]),
        queue_depth=int(w["service_queue_depth"]),
        policy="fair",
    )
    submitted = 0
    shed = 0
    tickets = []
    for j in range(int(w["service_jobs_per_tenant"])):
        for tenant_index in range(int(w["service_tenants"])):
            submitted += 1
            try:
                tickets.append(
                    svc.submit(
                        f"t{tenant_index}",
                        sleep_spec(float(w["service_job_seconds"]), name=f"j{j}"),
                    )
                )
            except ServiceOverloadedError:
                shed += 1
    svc.start()
    for ticket in tickets:
        ticket.result(timeout=60)
    svc.drain(timeout=60)
    health = svc.health()
    svc.shutdown()

    latencies_ms = sorted(1000.0 * t.latency for t in tickets)

    def pct(fraction: float) -> float:
        rank = min(len(latencies_ms) - 1, int(round(fraction * (len(latencies_ms) - 1))))
        return latencies_ms[rank]

    predicted = fluid_prediction(tickets, int(w["service_slots"]), "fair")
    fluid_mae_ms = 1000.0 * sum(
        abs(t.latency - predicted[t.id]) for t in tickets
    ) / len(tickets)

    metrics = {
        "service_shed_rate": {
            # Structural: burst admitted before the slots start, so this
            # is a pure function of queue depth and gates exactly.
            "value": round(shed / submitted, 4),
            "unit": "shed/submitted",
            "direction": "lower",
            "tolerance": 0.0,
            "exact": True,
        },
        "service_p50_latency_ms": {
            "value": round(pct(0.50), 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 3.0,
        },
        "service_p99_latency_ms": {
            "value": round(pct(0.99), 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 3.0,
        },
    }
    info = {
        "accepted": len(tickets),
        "shed": shed,
        "fluid_mean_abs_error_ms": round(fluid_mae_ms, 3),
        "health": health,
    }
    return metrics, info


def collect(
    workload: dict | None = None,
    *,
    obs_log: pathlib.Path | None = None,
    chrome_trace: pathlib.Path | None = None,
) -> dict:
    """Measure every trajectory metric on the pinned workload.

    Returns the full snapshot document (schema, workload, metrics with
    their regression policies attached, and an ``obs`` section holding
    the telemetry of one traced pipeline run).  ``obs_log`` /
    ``chrome_trace`` additionally export that run's JSONL event log and
    Chrome trace (the CI perf job uploads both as artifacts).
    """
    import numpy as np

    from repro.cluster.pipeline import MrMCMinH
    from repro.obs import Tracer, build_report, write_chrome_trace
    from repro.cluster.sparse import candidate_pair_arrays
    from repro.datasets import generate_whole_metagenome_sample
    from repro.minhash.sketch import (
        SketchingConfig,
        compute_sketch,
        compute_sketches_batch,
        sketch_matrix,
    )

    w = dict(WORKLOAD)
    if workload:
        w.update(workload)
    rounds = int(w["timing_rounds"])
    reads = generate_whole_metagenome_sample(
        w["sample"], num_reads=w["num_reads"], genome_length=w["genome_length"]
    )
    config = SketchingConfig(
        kmer_size=w["kmer_size"], num_hashes=w["num_hashes"], seed=w["seed"]
    )
    family = config.make_family()

    # -- sketching: per-record reference loop vs the batch kernel --------
    def _loop():
        return [compute_sketch(r, config, family) for r in reads]

    def _batch():
        return compute_sketches_batch(reads, config, family)

    loop_ms = _best_of(rounds, _loop)
    batch_ms = _best_of(rounds, _batch)
    sketches = _batch()
    if [s.values.tobytes() for s in sketches] != [
        s.values.tobytes() for s in _loop()
    ]:
        raise AssertionError("batch kernel diverged from the reference loop")
    speedup = loop_ms / batch_ms
    reads_per_sec = len(reads) / (batch_ms / 1000.0)

    # -- candidate generation (the sparse similarity join) ---------------
    candidates_ms = _best_of(rounds, lambda: candidate_pair_arrays(sketches))
    ii, jj, _ = candidate_pair_arrays(sketches)

    # -- the engine chain at the pipeline's threshold (sparse_jobs) -------
    # Pigeonhole bands verify fewer candidates than the join and must
    # yield exactly its positional edges.
    from repro.cluster.sparse import sparse_single_linkage
    from repro.cluster.sparse_jobs import run_sparse_jobs

    theta = w["threshold"]
    engine_ms = _best_of(rounds, lambda: run_sparse_jobs(sketches, theta))
    engine_run = run_sparse_jobs(sketches, theta)
    matrix = sketch_matrix(sketches)
    hits = (
        np.count_nonzero(matrix[ii] == matrix[jj], axis=1) / matrix.shape[1]
        >= theta
    )
    positional_edges = set(zip(ii[hits].tolist(), jj[hits].tolist()))
    if (
        set(engine_run.edges) != positional_edges
        or not set(engine_run.matches) <= set(zip(ii.tolist(), jj.tolist()))
        or engine_run.assignment.to_tsv()
        != sparse_single_linkage(sketches, theta).to_tsv()
    ):
        raise AssertionError(
            "pigeonhole-banded chain diverged from the exact positional edges"
        )

    # -- spilled (collected and streamed) vs in-memory parity -------------
    spill_run = run_sparse_jobs(sketches, theta, spill_threshold_bytes=0)
    spill_stream = run_sparse_jobs(
        sketches, theta, stream=True, spill_threshold_bytes=0
    )
    spill_parity = int(
        spill_run.matches == engine_run.matches
        and spill_run.edges == engine_run.edges
        and spill_stream.assignment.to_tsv() == engine_run.assignment.to_tsv()
        and spill_stream.candidate_pair_count == len(engine_run.matches)
    )
    if not spill_parity:
        raise AssertionError(
            "spilled/streamed engine chain diverged from the in-memory run"
        )
    spill_segments = spill_run.counters.get(
        "shuffle", "spill_segments"
    ) + spill_stream.counters.get("shuffle", "spill_segments")
    spill_bytes = spill_run.counters.get(
        "shuffle", "spill_bytes"
    ) + spill_stream.counters.get("shuffle", "spill_bytes")

    # -- shuffle bytes with the b-bit wire codec --------------------------
    model = MrMCMinH(
        kmer_size=w["kmer_size"],
        num_hashes=w["num_hashes"],
        threshold=w["threshold"],
        method="greedy",
        estimator="positional",
        wire_bits=w["wire_bits"],
    )
    pipeline_ms = _best_of(rounds, lambda: model.fit(reads))
    # One final traced run records the telemetry snapshot.  The timing
    # rounds above stay untraced, so pipeline_ms keeps measuring the
    # default (telemetry-off) path the <2%-overhead contract is about.
    tracer = Tracer()
    with tracer.activate():
        run = model.fit(reads)
    obs_report = build_report(tracer.spans, tracer.metrics.snapshot())
    if obs_log is not None:
        tracer.write_jsonl(obs_log)
    if chrome_trace is not None:
        write_chrome_trace(tracer.spans, chrome_trace)
    retry_count = int(tracer.metrics.value("mr.fault.task_retries", 0))

    # -- the dense Algorithm-2 path: similarity job + agglomeration -------
    hier_model = MrMCMinH(
        kmer_size=w["kmer_size"],
        num_hashes=w["num_hashes"],
        threshold=w["threshold"],
        method="hierarchical",
        linkage=w["linkage"],
        sparse=False,
    )
    hier_ms = _best_of(rounds, lambda: hier_model.fit(reads))
    hier_run = hier_model.fit(reads)

    wire = run.counters.as_dict()["wire"]
    bytes_raw = wire["bytes_raw"]
    bytes_wire = wire["bytes_wire"]

    metrics = {
        "sketch_loop_ms": {
            "value": round(loop_ms, 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 3.0,
        },
        "sketch_batch_ms": {
            "value": round(batch_ms, 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 3.0,
        },
        "sketch_batch_speedup": {
            "value": round(speedup, 2),
            "unit": "x",
            "direction": "higher",
            "tolerance": 0.4,
            "floor": 5.0,
        },
        "sketch_reads_per_sec": {
            "value": round(reads_per_sec, 1),
            "unit": "reads/s",
            "direction": "higher",
            "tolerance": 0.75,
        },
        "candidate_pairs_ms": {
            "value": round(candidates_ms, 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 3.0,
        },
        "sparse_engine_ms": {
            "value": round(engine_ms, 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 3.0,
        },
        "sparse_candidate_pairs": {
            # The in-process join's pairs: a deterministic function of the
            # pinned workload's sketches, and the superset the chain's
            # candidates are checked against above.
            "value": len(ii),
            "unit": "pairs",
            "direction": "lower",
            "tolerance": 0.0,
            "exact": True,
        },
        "sparse_cluster_candidate_pairs": {
            # Candidates the clustering run verifies under pigeonhole
            # banding; asserted above to yield exactly the positional
            # edges, so a drift means the band derivation moved.
            "value": engine_run.candidate_pair_count,
            "unit": "pairs",
            "direction": "lower",
            "tolerance": 0.0,
            "exact": True,
        },
        "sparse_engine_rounds": {
            "value": engine_run.rounds,
            "unit": "rounds",
            "direction": "lower",
            "tolerance": 0.0,
            "exact": True,
        },
        "sparse_shuffle_bytes": {
            "value": engine_run.shuffle_bytes,
            "unit": "bytes",
            "direction": "lower",
            "tolerance": 0.1,
        },
        "spill_parity": {
            # 1 iff the spill-everything runs of the engine chain, collected
            # and streamed, reproduced the in-memory candidates, edges and
            # assignment byte for byte; asserted above, gated here so a
            # baseline diff also shows it.
            "value": spill_parity,
            "unit": "bool",
            "direction": "higher",
            "tolerance": 0.0,
            "exact": True,
        },
        "spill_segments": {
            "value": spill_segments,
            "unit": "segments",
            "direction": "lower",
            "tolerance": 0.0,
            "exact": True,
        },
        "shuffle_spill_bytes": {
            "value": spill_bytes,
            "unit": "bytes",
            "direction": "lower",
            "tolerance": 0.1,
        },
        "shuffle_bytes_raw": {
            "value": bytes_raw,
            "unit": "bytes",
            "direction": "lower",
            "tolerance": 0.1,
        },
        "shuffle_bytes_wire": {
            "value": bytes_wire,
            "unit": "bytes",
            "direction": "lower",
            "tolerance": 0.1,
        },
        "wire_compression_ratio": {
            "value": round(bytes_wire / bytes_raw, 4),
            "unit": "wire/raw",
            "direction": "lower",
            "tolerance": 0.1,
            # b=8 of 64-bit values: anything near b/64 plus pickle
            # overhead removal; leave headroom but keep it honest.
            "ceiling": 0.25,
        },
        "pipeline_ms": {
            "value": round(pipeline_ms, 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 3.0,
        },
        "pipeline_clusters": {
            "value": run.assignment.num_clusters,
            "unit": "clusters",
            "direction": "lower",
            "tolerance": 0.0,
            "exact": True,
        },
        "hier_pipeline_ms": {
            "value": round(hier_ms, 3),
            "unit": "ms",
            "direction": "lower",
            "tolerance": 3.0,
        },
        "hier_pipeline_clusters": {
            # The dense matrix path's cluster count; any drift means the
            # similarity kernel or the merge order changed.
            "value": hier_run.assignment.num_clusters,
            "unit": "clusters",
            "direction": "lower",
            "tolerance": 0.0,
            "exact": True,
        },
        "fault_retry_count": {
            # Sourced from the telemetry registry (mr.fault.task_retries):
            # the pinned workload injects no faults, so any retry is a
            # real engine regression and gates exactly.
            "value": retry_count,
            "unit": "retries",
            "direction": "lower",
            "tolerance": 0.0,
            "exact": True,
        },
    }
    service_metrics, service_info = _collect_service(w)
    metrics.update(service_metrics)
    obs = {
        "spans": len(tracer.spans),
        "phase_coverage": round(obs_report.phase_coverage, 4),
        "critical_path": [name for name, _ in obs_report.critical_path],
        "metrics": tracer.metrics.snapshot(),
    }
    return {
        "schema": SCHEMA_VERSION,
        "workload": w,
        "metrics": metrics,
        "obs": obs,
        "service": service_info,
    }


# --------------------------------------------------------------- compare


def compare(baseline: dict, current: dict) -> list[str]:
    """Regression check of ``current`` against ``baseline``.

    Returns a list of human-readable problems (empty means the gate
    passes).  The baseline's per-metric policy defines the contract;
    hard floors/ceilings are also enforced on the current values.
    """
    problems: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        problems.append(
            f"schema mismatch: baseline {baseline.get('schema')} "
            f"vs current {current.get('schema')}"
        )
        return problems
    if baseline.get("workload") != current.get("workload"):
        problems.append(
            "workload mismatch: snapshots measure different pinned "
            "workloads and cannot be compared"
        )
        return problems
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name, spec in base_metrics.items():
        if name not in cur_metrics:
            problems.append(f"{name}: missing from current run")
            continue
        base = float(spec["value"])
        cur = float(cur_metrics[name]["value"])
        tol = float(spec.get("tolerance", 0.0))
        direction = spec.get("direction", "lower")
        if spec.get("exact"):
            if cur != base:
                problems.append(
                    f"{name}: expected exactly {base:g}, got {cur:g}"
                )
            continue
        if direction == "higher":
            limit = base * (1.0 - tol)
            if cur < limit:
                problems.append(
                    f"{name}: {cur:g} < {limit:g} "
                    f"(baseline {base:g}, tolerance {tol:.0%})"
                )
        else:
            limit = base * (1.0 + tol)
            if cur > limit:
                problems.append(
                    f"{name}: {cur:g} > {limit:g} "
                    f"(baseline {base:g}, tolerance {tol:.0%})"
                )
    # Hard bounds always apply to the fresh measurement.
    for name, spec in cur_metrics.items():
        cur = float(spec["value"])
        floor = spec.get("floor")
        ceiling = spec.get("ceiling")
        if floor is not None and cur < float(floor):
            problems.append(f"{name}: {cur:g} below hard floor {floor:g}")
        if ceiling is not None and cur > float(ceiling):
            problems.append(f"{name}: {cur:g} above hard ceiling {ceiling:g}")
    return problems


def find_baseline(root: pathlib.Path = REPO_ROOT) -> pathlib.Path | None:
    """Newest committed ``BENCH_<date>.json`` (dates sort lexically).

    Only date-shaped names count — scratch snapshots (e.g. the CI
    artifact ``check --output`` writes) must never shadow the committed
    baseline.
    """
    snapshots = sorted(root.glob("BENCH_[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9].json"))
    return snapshots[-1] if snapshots else None


def _render(snapshot: dict) -> str:
    lines = ["metric                        value        unit"]
    for name, spec in snapshot["metrics"].items():
        lines.append(f"{name:<28}  {spec['value']:>10}   {spec['unit']}")
    return "\n".join(lines)


# ------------------------------------------------------------------- CLI


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="measure and write BENCH_<date>.json")
    p_run.add_argument("--output", type=pathlib.Path, default=None)
    p_run.add_argument(
        "--date", default=None, help="override the snapshot date (YYYY-MM-DD)"
    )

    p_check = sub.add_parser(
        "check", help="measure and compare against the newest committed snapshot"
    )
    p_check.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="snapshot to compare against (default: newest BENCH_*.json)",
    )
    p_check.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="also record the fresh measurement here (CI artifact)",
    )
    for p_obs in (p_run, p_check):
        p_obs.add_argument(
            "--obs-log", type=pathlib.Path, default=None,
            help="write the traced run's JSONL telemetry log here",
        )
        p_obs.add_argument(
            "--chrome-trace", type=pathlib.Path, default=None,
            help="write the traced run's Chrome/Perfetto trace here",
        )

    p_cmp = sub.add_parser("compare", help="compare two recorded snapshots")
    p_cmp.add_argument("baseline", type=pathlib.Path)
    p_cmp.add_argument("current", type=pathlib.Path)

    args = parser.parse_args(argv)
    command = args.command or "run"

    if command == "compare":
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
    else:
        print(f"measuring pinned workload ({WORKLOAD['num_reads']} reads, "
              f"k={WORKLOAD['kmer_size']}, n={WORKLOAD['num_hashes']})...")
        current = collect(
            obs_log=getattr(args, "obs_log", None),
            chrome_trace=getattr(args, "chrome_trace", None),
        )
        print(_render(current))
        if command == "run":
            date = args.date or datetime.date.today().isoformat()
            output = args.output or REPO_ROOT / f"BENCH_{date}.json"
            output.write_text(json.dumps(current, indent=2) + "\n")
            print(f"\nwrote {output}")
            return 0
        # check
        if args.output is not None:
            args.output.write_text(json.dumps(current, indent=2) + "\n")
        baseline_path = args.baseline or find_baseline()
        if baseline_path is None:
            print("no committed BENCH_*.json baseline found; nothing to gate")
            return 0
        print(f"\ncomparing against {baseline_path}")
        baseline = json.loads(baseline_path.read_text())

    problems = compare(baseline, current)
    if problems:
        print("\nPERF REGRESSION:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\ntrajectory gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
