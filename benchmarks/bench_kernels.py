"""Microbenchmarks of the pipeline kernels.

These are the quantities the Figure 2 calibration measures: per-read
sketching cost, per-pair similarity cost, the Map-Reduce engine's
per-record overhead, and the agglomerative clustering step.
"""

from __future__ import annotations

import resource

from repro.cluster.hierarchical import build_dendrogram
from repro.datasets import (
    generate_environmental_sample,
    generate_whole_metagenome_sample,
)
from repro.mapreduce.job import MapReduceJob, identity_mapper, identity_reducer
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.types import JobConf
from repro.minhash.sketch import (
    SketchingConfig,
    compute_sketch,
    compute_sketches,
)
from repro.minhash.similarity import (
    MatchCounts,
    pairwise_match_counts,
    pairwise_similarity_matrix,
)


def _reads(n=200):
    return generate_whole_metagenome_sample("S1", num_reads=n, genome_length=5000)


def test_bench_sketching(benchmark):
    """Production path: the vectorised batch kernel."""
    reads = _reads()
    config = SketchingConfig(kmer_size=5, num_hashes=100)
    sketches = benchmark(lambda: compute_sketches(reads, config))
    assert len(sketches) == len(reads)


def test_bench_sketching_probe_blocks(benchmark):
    """The head-rank probe at the end-to-end block shape: 2,000 one-kb
    Table III reads at k=5 make two probe blocks of 1,024 reads at the
    default ``chunk_kmers`` (the 200 reads above make one).  The minor
    page faults of one untimed call go to ``extra_info["minor_faults"]``,
    so a kernel change that moves the allocation shape shows up next to
    its time."""
    reads = _reads(2000)
    config = SketchingConfig(kmer_size=5, num_hashes=100)
    compute_sketches(reads[:10], config)  # fill the family caches
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    compute_sketches(reads, config)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    benchmark.extra_info["minor_faults"] = after - before
    sketches = benchmark(lambda: compute_sketches(reads, config))
    assert len(sketches) == len(reads)
    family = config.make_family()
    for i in range(0, len(reads), 10):  # every 10th read spans both blocks
        expected = compute_sketch(reads[i], config, family)
        assert sketches[i].read_id == expected.read_id
        assert sketches[i].values.tobytes() == expected.values.tobytes()


def test_bench_sketching_short_16s_reads(benchmark):
    """The scan side of the small-universe kernel: ~60-bp 16S amplicon
    reads hold ~56 5-mers, far below the 512 valid windows at which the
    head-rank probe takes over, so every read is scanned."""
    reads = generate_environmental_sample("53R", num_reads=5000, seed=0)
    config = SketchingConfig(kmer_size=5, num_hashes=100)
    sketches = benchmark(lambda: compute_sketches(reads, config))
    family = config.make_family()
    expected = [compute_sketch(r, config, family) for r in reads]
    assert [s.read_id for s in sketches] == [s.read_id for s in expected]
    assert all(
        s.values.tobytes() == e.values.tobytes() for s, e in zip(sketches, expected)
    )


def test_bench_sketching_reference_loop(benchmark):
    """Per-record reference path — the baseline the batch kernel's >=5x
    speedup gate (BENCH_*.json trajectory) is measured against."""
    reads = _reads()
    config = SketchingConfig(kmer_size=5, num_hashes=100)
    family = config.make_family()
    sketches = benchmark(
        lambda: [compute_sketch(r, config, family) for r in reads]
    )
    assert len(sketches) == len(reads)


def test_bench_similarity_matrix(benchmark):
    reads = _reads()
    sketches = compute_sketches(reads, SketchingConfig(kmer_size=5, num_hashes=100))
    matrix = benchmark(lambda: pairwise_similarity_matrix(sketches))
    assert matrix.shape == (len(sketches), len(sketches))


def test_bench_agglomeration(benchmark):
    """Algorithm 2's agglomeration on the matrix it meets in practice: the
    positional similarities of 1,000 Table-III reads (k=5, n=100 hashes,
    so at most 101 distinct values and heavy ties), average linkage, cut
    during construction at θ=0.9 as ``agglomerative_cluster`` does.  Most
    reads merge above θ, so nearly N merges are appended.  The pipeline
    hands the merge loop match counts instead of floats; agglomerating
    those must give the same steps."""
    reads = _reads(1000)
    sketches = compute_sketches(reads, SketchingConfig(kmer_size=5, num_hashes=100))
    sim = pairwise_similarity_matrix(sketches)
    dendrogram = benchmark(
        lambda: build_dendrogram(sim, linkage="average", stop_threshold=0.9)
    )
    assert len(dendrogram) > 0.9 * len(reads)
    assert all(step.similarity >= 0.9 for step in dendrogram.steps)
    counts = MatchCounts(pairwise_match_counts(sketches), 100)
    from_counts = build_dendrogram(counts, linkage="average", stop_threshold=0.9)
    assert from_counts.steps == dendrogram.steps


def test_bench_mapreduce_overhead(benchmark):
    """Engine overhead on a pass-through job over 10k records."""
    job = MapReduceJob(name="noop", mapper=identity_mapper, reducer=identity_reducer)
    inputs = [(i, i) for i in range(10_000)]
    runner = SerialRunner(trace=False)
    result = benchmark(
        lambda: runner.run(job, inputs, JobConf(num_map_tasks=4, num_reduce_tasks=2))
    )
    assert result.output == inputs
