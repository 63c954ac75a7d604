"""The four end-to-end workloads: inputs, pipeline settings and references.

Each workload pins one paper-shaped configuration of ``MrMCMinH`` — the
``sparse`` mode included, so a later change to ``"auto"`` cannot move the
path a workload takes — plus the input generator its ``--seed`` drives and
an independent reference clustering its outputs are checked against.

The sizes are chosen so one ladder round (N/4, N, N/2, N/4, N) takes
~6 s on a 2-core host: the whole measurement of a workload then fits the benchmark's
per-run time budget with three rounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

WGS_SAMPLE = "S1"
WGS_GENOME_LENGTH = 5000
SIXTEEN_S_SAMPLE = "53R"
#: The 16S gene pool is fixed; ``--seed`` draws reads from it.  Seeding the
#: pool too makes the shared conserved flanks dominate a seed-dependent
#: share of the min-hash positions, which swings the candidate-pair count
#: (and so the fit time) between seeds: 59.7k to 104.7k pairs at 500 reads.
SIXTEEN_S_POOL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    sample: str  # "wgs" or "16s"
    size: int  # N, the top of the ladder
    smoke_size: int
    model: dict  # MrMCMinH keyword arguments

    def ladder(self, smoke: bool = False) -> list[int]:
        top = self.smoke_size if smoke else self.size
        return [top // 4, top // 2, top]

    @property
    def engine(self) -> bool:
        return self.model["sparse"] == "engine"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Table III MrMC-MinH^h: dense similarity job + average linkage.
        Workload(
            name="wgs-hier-dense",
            sample="wgs",
            size=2000,
            smoke_size=400,
            model=dict(
                kmer_size=5,
                num_hashes=100,
                threshold=0.9,
                method="hierarchical",
                linkage="average",
                sparse=False,
            ),
        ),
        # Table III MrMC-MinH^g: the sketch job is nearly all of the fit.
        # Its ladder grows linearly; sketching turns superlinear only above
        # ~16k reads, which the time budget of a run cannot reach.
        Workload(
            name="wgs-greedy-sketch",
            sample="wgs",
            size=8000,
            smoke_size=2000,
            model=dict(
                kmer_size=5,
                num_hashes=100,
                threshold=0.9,
                method="greedy",
                estimator="set",
                sparse=False,
            ),
        ),
        # Table V 16S shape on the engine LSH chain, in-memory shuffle.
        Workload(
            name="16s-engine-mem",
            sample="16s",
            size=500,
            smoke_size=120,
            model=dict(
                kmer_size=15,
                num_hashes=50,
                threshold=0.95,
                method="hierarchical",
                linkage="single",
                sparse="engine",
            ),
        ),
        # The same chain through the disk shuffle and the greedy edge stream.
        Workload(
            name="16s-engine-spill",
            sample="16s",
            size=500,
            smoke_size=120,
            model=dict(
                kmer_size=15,
                num_hashes=50,
                threshold=0.95,
                method="greedy",
                sparse="engine",
                spill_threshold_bytes=262144,
            ),
        ),
    )
}


def make_reads(workload: Workload, size: int, seed: int):
    """The workload's input: ``size`` reads drawn with ``seed``."""
    if workload.sample == "wgs":
        from repro.datasets import generate_whole_metagenome_sample

        return generate_whole_metagenome_sample(
            WGS_SAMPLE, num_reads=size, genome_length=WGS_GENOME_LENGTH, seed=seed
        )
    return sixteen_s_reads(size, seed)


def sixteen_s_reads(size: int, seed: int):
    """A 53R-shaped 16S amplicon sample with expected abundances.

    Same model as ``repro.datasets.generate_environmental_sample`` (Zipf
    rare-biosphere OTUs at 0.12 OTUs per read, 22% divergence, ~60 bp
    pyrosequencing reads over variable region 3), but the OTU counts are
    the expected Zipf counts rather than a multinomial draw and the gene
    pool is fixed, so the work per fit does not swing with the seed.
    """
    from repro.datasets import SixteenSModel, amplicon_reads
    from repro.seq.error_models import PyrosequencingErrorModel
    from repro.utils.rng import derive_seed, ensure_rng

    num_otus = max(3, round(size * 0.12))
    weights = 1.0 / np.arange(1, num_otus + 1)
    weights /= weights.sum()
    counts = np.floor(weights * size).astype(int)
    counts[0] += size - counts.sum()
    pool = SixteenSModel(divergence=0.22, seed=SIXTEEN_S_POOL_SEED)
    rng = ensure_rng(derive_seed(seed, "e2e-16s", SIXTEEN_S_SAMPLE))
    errors = PyrosequencingErrorModel()
    reads = []
    for o, count in enumerate(counts):
        otu = f"{SIXTEEN_S_SAMPLE}_OTU{o:05d}"
        window = pool.variable_window(pool.gene_for_taxon(otu), region=3)
        reads.extend(
            amplicon_reads(
                window,
                int(count),
                label=otu,
                id_prefix=f"{SIXTEEN_S_SAMPLE}_{o:05d}",
                mean_length=60,
                error_model=errors,
                rng=rng,
            )
        )
    order = rng.permutation(len(reads))
    return [reads[int(i)] for i in order]


def reference_assignment(workload: Workload, records):
    """Cluster ``records`` without the engine, as the correctness oracle.

    Engine workloads: every min-hash collision pair, verified by exact
    positional match on the sketch matrix, fed to the same edge clusterer
    the chain streams into.  Dense workloads: the in-process all-pairs
    matrix plus agglomeration, or the greedy sweep over batch sketches.
    """
    from repro.cluster.greedy import greedy_cluster
    from repro.cluster.hierarchical import agglomerative_cluster
    from repro.cluster.sparse import (
        candidate_pair_arrays,
        greedy_from_edges,
        single_linkage_from_edges,
    )
    from repro.minhash.similarity import pairwise_similarity_matrix
    from repro.minhash.sketch import (
        SketchingConfig,
        compute_sketches_batch,
        sketch_matrix,
    )

    m = workload.model
    config = SketchingConfig(kmer_size=m["kmer_size"], num_hashes=m["num_hashes"])
    sketches = compute_sketches_batch(records, config)
    read_ids = [s.read_id for s in sketches]
    theta = m["threshold"]
    if workload.engine:
        ii, jj, _ = candidate_pair_arrays(sketches)
        matrix = sketch_matrix(sketches)
        match = np.count_nonzero(matrix[ii] == matrix[jj], axis=1) / m["num_hashes"]
        hits = match >= theta
        edges = zip(ii[hits].tolist(), jj[hits].tolist())
        if m["method"] == "hierarchical":
            return single_linkage_from_edges(read_ids, edges)
        return greedy_from_edges(read_ids, edges)
    if m["method"] == "hierarchical":
        similarity = pairwise_similarity_matrix(sketches, estimator="positional")
        return agglomerative_cluster(similarity, read_ids, theta, linkage=m["linkage"])
    return greedy_cluster(sketches, theta, estimator=m["estimator"])


def digest(assignment) -> str:
    """sha256 of the assignment's ``read_id<TAB>label`` TSV."""
    return hashlib.sha256(assignment.to_tsv().encode()).hexdigest()
