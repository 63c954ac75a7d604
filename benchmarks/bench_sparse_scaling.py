"""Large-N demonstration: engine-sparse clustering where dense cannot go.

Clusters a >=100k-read synthetic environmental sample (rare-biosphere
OTU structure, 16S settings k=15) through the MapReduce LSH chain of
:mod:`repro.cluster.sparse_jobs` (pigeonhole bands derived from θ),
cross-checks its edges and final assignment against an exact positional
reference — brute force over all pairs, independent of any banding —
then measures the dense all-pairs job at small probe sizes and
extrapolates its quadratic cost to the target N, showing the dense path
cannot complete in the same budget (time *or* memory: the similarity
matrix alone is ``8 N^2`` bytes, ~80 GiB at N=100k).

Usage::

    python benchmarks/bench_sparse_scaling.py                  # full: 100k reads
    python benchmarks/bench_sparse_scaling.py --smoke          # CI: 2k reads
    python benchmarks/bench_sparse_scaling.py --json OUT.json  # artifact

The JSON artifact carries the candidate-pair and edge counts, rounds,
shuffle bytes and the dense projection, and the script exits non-zero if
the chain's edges or assignment ever differ from the positional
reference.  Full-size runs cap collision groups at
:data:`FULL_SIZE_MAX_GROUP`; a capped run is not exact, so it skips the
reference, which only ``--smoke`` (uncapped) checks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

# Paper-flavoured 16S parameterization.  Uncapped by default: the chain
# is exact only at max_group=None.
DEFAULTS = {
    "sample": "53R",
    "kmer_size": 15,
    "num_hashes": 32,
    "threshold": 0.9,
    "max_group": None,
    "seed": 0,
}

# One abundant OTU puts thousands of near-identical reads into one band
# group, and the exact edge set grows as C(s, 2) in it: at 8k reads the
# uncapped chain verifies 296k candidates for 125k edges, the cap-64 run
# 45k.  Beyond ~10k reads only a capped run (and no brute-force
# reference) stays tractable.
FULL_SIZE_MAX_GROUP = 64


def positional_edges(matrix, threshold: float, block: int = 256) -> set:
    """Every pair ``i < j`` whose positional match fraction is at least
    ``threshold``, by brute force over blocks of rows (quadratic)."""
    import numpy as np

    n, num_hashes = matrix.shape
    edges = set()
    for start in range(0, n, block):
        matches = (matrix[start : start + block, None, :] == matrix[None]).sum(axis=2)
        ii, jj = np.nonzero(matches / num_hashes >= threshold)
        ii += start
        upper = ii < jj
        edges.update(zip(ii[upper].tolist(), jj[upper].tolist()))
    return edges


def measure(
    num_reads: int,
    *,
    dense_probes: tuple[int, ...],
    params: dict | None = None,
) -> dict:
    from repro.cluster.matrix import compute_similarity_matrix
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

    # ---- the engine chain, end to end -----------------------------------
    t0 = time.perf_counter()
    run = run_sparse_jobs(
        sketches,
        p["threshold"],
        method="hierarchical",
        max_group=p["max_group"],
        num_tasks=8,
    )
    engine_seconds = time.perf_counter() - t0

    # ---- exactness cross-check vs the positional reference -------------
    edges_ok = assignment_ok = None
    if p["max_group"] is None:
        reference = positional_edges(sketch_matrix(sketches), p["threshold"])
        edges_ok = set(run.edges) == reference
        assignment_ok = (
            single_linkage_from_edges([s.read_id for s in sketches], reference)
            .to_tsv()
            == run.assignment.to_tsv()
        )

    # ---- dense probes + quadratic projection ----------------------------
    probe_rows = []
    coeffs = []
    for n in dense_probes:
        t0 = time.perf_counter()
        compute_similarity_matrix(
            sketches[:n], estimator="positional", num_tasks=8
        )
        seconds = time.perf_counter() - t0
        probe_rows.append({"n": n, "seconds": round(seconds, 3)})
        coeffs.append(seconds / (n * n))
    # The largest probe dominates the fit — smaller ones mostly measure
    # fixed overhead, so a plain mean would *under*-project.
    dense_coeff = coeffs[-1]
    dense_projection = dense_coeff * num_reads * num_reads
    dense_matrix_gib = 8.0 * num_reads * num_reads / 2**30

    return {
        "num_reads": num_reads,
        "num_sketches": len(sketches),
        "params": p,
        "gen_seconds": round(gen_seconds, 2),
        "sketch_seconds": round(sketch_seconds, 2),
        "engine_seconds": round(engine_seconds, 2),
        "candidate_pairs": len(run.matches),
        "edges": len(run.edges),
        "clusters": run.assignment.num_clusters,
        "rounds": run.rounds,
        "shuffle_bytes": run.shuffle_bytes,
        "edges_match_positional": edges_ok,
        "assignment_match_positional": assignment_ok,
        "dense_probes": probe_rows,
        "dense_projected_seconds": round(dense_projection, 1),
        # From the unrounded seconds: at smoke sizes both rounded fields
        # are a few tenths of a second, too coarse to divide.
        "dense_vs_engine_ratio": dense_projection / max(engine_seconds, 1e-9),
        "dense_matrix_gib": round(dense_matrix_gib, 2),
    }


def two_significant(x: float) -> str:
    """``x`` to two significant figures, trailing zeros kept (``0.20``)."""
    if x <= 0:
        return "0"
    x = float(f"{x:.1e}")
    return f"{x:.{max(0, 1 - math.floor(math.log10(x)))}f}"


def render(result: dict) -> str:
    pairs_per_read = result["candidate_pairs"] / result["num_reads"]
    ratio = two_significant(result["dense_vs_engine_ratio"])
    lines = [
        f"engine-sparse scaling @ N={result['num_reads']}",
        f"  params: k={result['params']['kmer_size']} "
        f"n={result['params']['num_hashes']} "
        f"theta={result['params']['threshold']} "
        f"max_group={result['params']['max_group']}",
        f"  generate reads        {result['gen_seconds']:>10.2f} s",
        f"  batch sketching       {result['sketch_seconds']:>10.2f} s",
        f"  engine chain          {result['engine_seconds']:>10.2f} s "
        f"({result['rounds']} rounds, {result['shuffle_bytes']} shuffle bytes)",
        f"  candidate pairs       {result['candidate_pairs']:>10d} "
        f"({pairs_per_read:.1f}/read vs {result['num_reads'] - 1} dense)",
        f"  above-theta edges     {result['edges']:>10d}",
        f"  clusters              {result['clusters']:>10d}",
        f"  edges == positional   {str(result['edges_match_positional']):>10s}",
        f"  tsv   == positional   "
        f"{str(result['assignment_match_positional']):>10s}",
        "  dense all-pairs probes:",
    ]
    for row in result["dense_probes"]:
        lines.append(f"    N={row['n']:<7d} {row['seconds']:>10.3f} s")
    lines += [
        f"  dense projected       {result['dense_projected_seconds']:>10.1f} s "
        f"at N={result['num_reads']} (~{ratio}x the engine chain)",
        f"  dense matrix memory   {result['dense_matrix_gib']:>10.2f} GiB "
        f"(similarity matrix alone)",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reads", type=int, default=100_000)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 2k reads, small dense probes, same assertions",
    )
    parser.add_argument("--json", default=None, help="write the artifact here")
    args = parser.parse_args(argv)

    if args.smoke:
        num_reads, probes, max_group = 2000, (250, 500, 1000), None
    else:
        num_reads, probes = args.reads, (1000, 2000, 4000)
        max_group = FULL_SIZE_MAX_GROUP

    result = measure(
        num_reads, dense_probes=probes, params={"max_group": max_group}
    )
    result["smoke"] = bool(args.smoke)
    print(render(result))
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    if max_group is None and not (
        result["edges_match_positional"]
        and result["assignment_match_positional"]
    ):
        print("FAIL: engine chain diverged from the positional reference")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
