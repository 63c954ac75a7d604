"""Million-read demonstration: the external shuffle + streamed edges.

Clusters a ~1M-read synthetic environmental sample through the engine
chain of :mod:`repro.cluster.sparse_jobs` with ``stream=True`` and a
bounded ``spill_threshold_bytes`` — map output past the threshold is
sorted and spilled to CRC-guarded segment files and merge-iterated back,
and the verified edges feed the clusterer incrementally, so the driver
never holds the scored candidate-pair list (``run.matches`` stays empty;
only counts come back).  The run is cross-checked against an exact
positional reference (brute force over all pairs, see
``bench_sparse_scaling.positional_edges``): same edge count,
byte-identical assignment TSV.

Usage::

    python benchmarks/bench_spill_scaling.py                  # full: 1M reads
    python benchmarks/bench_spill_scaling.py --smoke          # CI: 2k reads
    python benchmarks/bench_spill_scaling.py --json OUT.json  # artifact

``--smoke`` additionally runs the unspilled, collected chain on the same
sketches and requires the spilled+streamed run to be byte-identical to
it (threshold 0 = spill every buffer), which is the same exact parity
gate bench_trajectory pins at its own workload.  The script exits
non-zero if any parity check fails or if spilling/streaming did not
actually engage.  Full-size runs cap collision groups at
``bench_sparse_scaling.FULL_SIZE_MAX_GROUP``: at 1M reads the exact edge
set is out of reach.  A capped run is not exact, so it skips the
reference, which only ``--smoke`` (uncapped) checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

# Same paper-flavoured 16S parameterization as bench_sparse_scaling, so
# the two artifacts compose: this one pushes N another order of
# magnitude and bounds driver memory instead of measuring dense decay.
from bench_sparse_scaling import DEFAULTS, FULL_SIZE_MAX_GROUP, positional_edges


def _max_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    num_reads: int,
    *,
    spill_threshold_bytes: int,
    smoke: bool = False,
    params: dict | None = None,
) -> dict:
    from repro.cluster.sparse import single_linkage_from_edges
    from repro.cluster.sparse_jobs import run_sparse_jobs
    from repro.datasets.environmental import generate_environmental_sample
    from repro.minhash.sketch import (
        SketchingConfig,
        compute_sketches_batch,
        sketch_matrix,
    )

    p = dict(DEFAULTS)
    if params:
        p.update(params)

    t0 = time.perf_counter()
    reads = generate_environmental_sample(
        p["sample"], num_reads=num_reads, seed=p["seed"]
    )
    gen_seconds = time.perf_counter() - t0

    config = SketchingConfig(
        kmer_size=p["kmer_size"], num_hashes=p["num_hashes"], seed=p["seed"]
    )
    t0 = time.perf_counter()
    sketches = compute_sketches_batch(reads, config, config.make_family())
    sketch_seconds = time.perf_counter() - t0
    del reads

    # ---- the spilled + streamed engine chain ----------------------------
    t0 = time.perf_counter()
    run = run_sparse_jobs(
        sketches,
        p["threshold"],
        method="hierarchical",
        max_group=p["max_group"],
        num_tasks=8,
        stream=True,
        spill_threshold_bytes=spill_threshold_bytes,
    )
    engine_seconds = time.perf_counter() - t0
    rss_after_engine = _max_rss_mib()

    # Stream mode must actually stream: the scored pair list never lands
    # in the driver, only counts do.
    streamed_ok = run.matches == {} and run.edges == []
    spill_segments = run.counters.get("shuffle", "spill_segments")
    spill_bytes = run.counters.get("shuffle", "spill_bytes")
    spill_records = run.counters.get("shuffle", "spill_records")
    spilled_ok = spill_segments > 0

    # ---- exactness cross-check vs the positional reference -------------
    edges_ok = assignment_ok = None
    if p["max_group"] is None:
        reference = positional_edges(sketch_matrix(sketches), p["threshold"])
        edges_ok = run.edge_count == len(reference)
        assignment_ok = (
            single_linkage_from_edges([s.read_id for s in sketches], reference)
            .to_tsv()
            == run.assignment.to_tsv()
        )

    result = {
        "num_reads": num_reads,
        "num_sketches": len(sketches),
        "params": p,
        "spill_threshold_bytes": spill_threshold_bytes,
        "gen_seconds": round(gen_seconds, 2),
        "sketch_seconds": round(sketch_seconds, 2),
        "engine_seconds": round(engine_seconds, 2),
        "candidate_pairs": run.candidate_pair_count,
        "edges": run.edge_count,
        "clusters": run.assignment.num_clusters,
        "rounds": run.rounds,
        "shuffle_bytes": run.shuffle_bytes,
        "spill_segments": spill_segments,
        "spill_bytes": spill_bytes,
        "spill_records": spill_records,
        "max_rss_mib_after_engine": round(rss_after_engine, 1),
        "streamed": streamed_ok,
        "spilled": spilled_ok,
        "edges_match_positional": edges_ok,
        "assignment_match_positional": assignment_ok,
    }

    # ---- smoke extra: byte parity vs the unspilled, collected chain -----
    if smoke:
        base = run_sparse_jobs(
            sketches,
            p["threshold"],
            method="hierarchical",
            max_group=p["max_group"],
            num_tasks=8,
        )
        result["spilled_matches_unspilled"] = (
            run.assignment.to_tsv() == base.assignment.to_tsv()
            and run.candidate_pair_count == len(base.matches)
            and run.edge_count == len(base.edges)
        )

    return result


def render(result: dict) -> str:
    threshold = result["spill_threshold_bytes"]
    lines = [
        f"external-shuffle scaling @ N={result['num_reads']}",
        f"  params: k={result['params']['kmer_size']} "
        f"n={result['params']['num_hashes']} "
        f"theta={result['params']['threshold']} "
        f"max_group={result['params']['max_group']} "
        f"spill_threshold={threshold} B",
        f"  generate reads        {result['gen_seconds']:>12.2f} s",
        f"  batch sketching       {result['sketch_seconds']:>12.2f} s",
        f"  engine chain          {result['engine_seconds']:>12.2f} s "
        f"({result['rounds']} rounds, streamed={result['streamed']})",
        f"  candidate pairs       {result['candidate_pairs']:>12d} "
        "(counted, never collected)",
        f"  above-theta edges     {result['edges']:>12d}",
        f"  clusters              {result['clusters']:>12d}",
        f"  shuffle bytes         {result['shuffle_bytes']:>12d}",
        f"  spill segments        {result['spill_segments']:>12d}",
        f"  spill bytes           {result['spill_bytes']:>12d}",
        f"  spill records         {result['spill_records']:>12d}",
        f"  driver max RSS        {result['max_rss_mib_after_engine']:>12.1f}"
        " MiB",
        f"  edges == positional   {str(result['edges_match_positional']):>12s}",
        f"  tsv   == positional   "
        f"{str(result['assignment_match_positional']):>12s}",
    ]
    if "spilled_matches_unspilled" in result:
        lines.append(
            f"  spilled == unspilled  "
            f"{str(result['spilled_matches_unspilled']):>12s}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reads", type=int, default=1_000_000)
    parser.add_argument(
        "--spill-threshold", type=int, default=64 << 20, metavar="BYTES",
        help="per-partition spill threshold for the full run "
        "(default 64 MiB; --smoke always uses 0 = spill everything)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 2k reads, threshold 0, plus byte parity against "
        "the unspilled collected chain",
    )
    parser.add_argument("--json", default=None, help="write the artifact here")
    args = parser.parse_args(argv)

    if args.smoke:
        num_reads, threshold, max_group = 2000, 0, None
    else:
        num_reads, threshold = args.reads, args.spill_threshold
        max_group = FULL_SIZE_MAX_GROUP

    result = measure(
        num_reads,
        spill_threshold_bytes=threshold,
        smoke=args.smoke,
        params={"max_group": max_group},
    )
    result["smoke"] = bool(args.smoke)
    print(render(result))
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    checks = [
        ("streamed", "driver collected records despite stream=True"),
        ("spilled", "no spill segments were written"),
    ]
    if max_group is None:
        checks += [
            ("edges_match_positional", "edge count diverged"),
            ("assignment_match_positional", "assignment TSV diverged"),
        ]
    if args.smoke:
        checks.append(
            ("spilled_matches_unspilled", "spilled run != unspilled run")
        )
    failed = [msg for key, msg in checks if not result.get(key)]
    for msg in failed:
        print(f"FAIL: {msg}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
