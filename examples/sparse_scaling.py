"""Sparse collision-join clustering: the path that scales.

Run:  python examples/sparse_scaling.py

Compares the dense all-pairs pipeline against the engine LSH chain
(`sparse="engine"`) on growing 16S samples, printing wall time, the
candidate fraction of the collision join, and verifying the two TSVs are
byte-identical — the optimization that makes Figure 2's 10-million-read
points plausible (see EXPERIMENTS.md).

Two candidate filters are contrasted:

* the exact OR-filter (>=1 of n component collisions) — guarantees the
  same partition as the dense run, but 16S reads share conserved primer
  flanks, so even dissimilar reads collide *somewhere* among 50 hashes
  (the LSH OR-amplification curve: J=0.07 -> 97 % candidate rate);
* the banded AND/OR filter (``LshIndex``, bands of 5) — candidates drop
  to the truly-similar tail, which is what MC-LSH and production LSH
  systems use at the price of a (quantifiably tiny) miss probability.

On a single machine the dense NumPy matrix stays fastest at these sizes;
the sparse path's value is its Map-Reduce shape (grouping, not an N^2
scan), which is what the Figure 2 model schedules at 10 M reads.
"""

import time

from repro import MrMCMinH
from repro.cluster.sparse import candidate_pairs
from repro.datasets import generate_environmental_sample
from repro.eval.report import Table
from repro.minhash.lsh import all_candidate_pairs
from repro.minhash.sketch import SketchingConfig, compute_sketches


def main() -> None:
    table = Table(
        title="Dense vs sparse single-linkage MrMC-MinH^h (16S, k=15, n=50)",
        columns=["Reads", "Dense (s)", "Engine (s)", "OR-cand %", "Band-cand %",
                 "Clusters", "Same TSV"],
    )
    for num_reads in (200, 500, 1000):
        reads = generate_environmental_sample("53R", num_reads=num_reads, seed=2)
        common = dict(
            kmer_size=15, num_hashes=50, threshold=0.95,
            method="hierarchical", linkage="single", seed=2,
        )
        sketches = compute_sketches(
            reads, SketchingConfig(kmer_size=15, num_hashes=50, seed=2)
        )
        n = len(sketches)
        all_pairs = n * (n - 1) / 2
        cand_pct = 100 * len(candidate_pairs(sketches)) / all_pairs
        band_pct = 100 * len(all_candidate_pairs(sketches, band_size=5)) / all_pairs
        t0 = time.perf_counter()
        dense = MrMCMinH(**common).fit(reads)
        dense_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        engine = MrMCMinH(**common, sparse="engine").fit(reads)
        engine_s = time.perf_counter() - t0

        same = dense.assignment.to_tsv() == engine.assignment.to_tsv()
        table.add_row(
            num_reads, dense_s, engine_s, round(cand_pct, 1), round(band_pct, 2),
            engine.assignment.num_clusters, "yes" if same else "NO",
        )
    print(table.render())


if __name__ == "__main__":
    main()
