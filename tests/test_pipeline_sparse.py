"""Tests for the pipeline's two similarity paths and the cutoff net.

``MrMCMinH`` runs either the dense path or the engine LSH chain.
``sparse="auto"`` may only pick the chain for shapes where both give the
same bytes, so no configuration's output depends on
``SPARSE_AUTO_CUTOFF``: the net below fits every accepted configuration
with the cutoff at 1 (every exact ``"auto"`` shape on the chain) and at
10^9 (everything dense) and compares the TSVs.
"""

import itertools

import pytest

from repro.cluster import pipeline
from repro.cluster.hierarchical import LINKAGES
from repro.cluster.pipeline import METHODS, MrMCMinH
from repro.datasets import (
    generate_environmental_sample,
    generate_whole_metagenome_sample,
)
from repro.errors import ClusterConfigError, ClusteringError


@pytest.fixture(scope="module")
def sample():
    return generate_whole_metagenome_sample("S8", num_reads=60, genome_length=4000)


class TestSparsePipeline:
    def test_sparse_greedy_equals_dense(self, sample):
        dense = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78, method="greedy",
            estimator="positional", seed=0,
        ).fit(sample)
        engine = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78, method="greedy",
            seed=0, sparse="engine",
        ).fit(sample)
        assert (dense.mode, engine.mode) == ("dense", "engine")
        assert dense.assignment.to_tsv() == engine.assignment.to_tsv()

    def test_sparse_single_linkage_equals_dense(self, sample):
        dense = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78,
            method="hierarchical", linkage="single", seed=0,
        ).fit(sample)
        engine = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78,
            method="hierarchical", linkage="single", seed=0, sparse="engine",
        ).fit(sample)
        assert (dense.mode, engine.mode) == ("dense", "engine")
        assert dense.assignment.to_tsv() == engine.assignment.to_tsv()

    def test_sparse_traces_present(self, sample):
        run = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78,
            method="greedy", seed=0, sparse="engine",
        ).fit(sample)
        names = [t.job_name for t in run.traces]
        assert "lsh-candidates" in names
        assert "verify-candidates" in names
        assert run.similarity is None  # no dense matrix materialised

    def test_invalid_combinations(self):
        with pytest.raises(ClusteringError, match="single"):
            MrMCMinH(method="hierarchical", linkage="average", sparse="engine")
        with pytest.raises(ClusteringError, match="positional"):
            MrMCMinH(method="greedy", estimator="set", sparse="engine")
        with pytest.raises(ClusteringError, match="positional"):
            MrMCMinH(
                method="hierarchical", linkage="single", estimator="set",
                sparse="engine",
            )
        with pytest.raises(ClusteringError, match="threshold"):
            MrMCMinH(method="greedy", threshold=0.0, sparse="engine")

    def test_sparse_greedy_default_estimator(self):
        assert MrMCMinH(method="greedy", sparse="engine").estimator == "positional"
        # Algorithm 1's set estimator is the default everywhere else.
        assert MrMCMinH(method="greedy").estimator == "set"
        assert MrMCMinH(method="greedy", sparse=False).estimator == "set"


# ------------------------------------------------------- b-bit engine path

BBIT_SAMPLES = {
    "16s": dict(kmer_size=15, num_hashes=50),
    "wgs": dict(kmer_size=5, num_hashes=100),
}

EXACT_SHAPES = {
    "greedy": dict(method="greedy", estimator="positional"),
    "single": dict(method="hierarchical", linkage="single"),
}


@pytest.fixture(scope="module")
def bbit_reads():
    return {
        "16s": generate_environmental_sample("53R", num_reads=200, seed=0),
        "wgs": generate_whole_metagenome_sample("S1", num_reads=150),
    }


@pytest.mark.parametrize("sample_name", BBIT_SAMPLES)
@pytest.mark.parametrize("shape", EXACT_SHAPES)
@pytest.mark.parametrize("bits", [1, 2, 4])
def test_bbit_engine_path_equals_dense(bbit_reads, sample_name, shape, bits):
    # MrMCMinH(wire_bits=b) is the one b-bit route into the chain: it
    # hands the chain low-bit sketches at effective_threshold(θ, b).
    kwargs = dict(
        BBIT_SAMPLES[sample_name], **EXACT_SHAPES[shape],
        threshold=0.9, wire_bits=bits, seed=0,
    )
    reads = bbit_reads[sample_name]
    dense = MrMCMinH(**kwargs, sparse=False).fit(reads)
    engine = MrMCMinH(**kwargs, sparse="engine").fit(reads)
    assert (dense.mode, engine.mode) == ("dense", "engine")
    assert engine.assignment.to_tsv() == dense.assignment.to_tsv()
    for run in (dense, engine):
        assert all(int(s.values.max()) < 1 << bits for s in run.sketches)


# ---------------------------------------------------------------- cutoff net

NET_SAMPLES = {
    "wgs": dict(kmer_size=5, num_hashes=48, threshold=0.78),
    "16s": dict(kmer_size=15, num_hashes=32, threshold=0.9),
}

NET_CONFIGS = [
    pytest.param(
        sample_name, method, linkage, estimator, wire_bits, sparse,
        id=f"{sample_name}-{method}-{linkage}-{estimator}-{wire_bits}-{sparse}",
    )
    for sample_name, method, linkage, estimator, wire_bits, sparse in (
        itertools.product(
            NET_SAMPLES, METHODS, LINKAGES, (None, "set", "positional"),
            (None, 8), (False, "auto", "engine"),
        )
    )
]


@pytest.fixture(scope="module")
def net_reads():
    return {
        "wgs": generate_whole_metagenome_sample(
            "S1", num_reads=80, genome_length=4000
        ),
        "16s": generate_environmental_sample("53R", num_reads=80, seed=0),
    }


def _build(monkeypatch, cutoff, kwargs):
    monkeypatch.setattr(pipeline, "SPARSE_AUTO_CUTOFF", cutoff)
    try:
        return MrMCMinH(**kwargs)
    except ClusterConfigError as exc:
        return exc


@pytest.mark.parametrize(
    "sample_name, method, linkage, estimator, wire_bits, sparse", NET_CONFIGS
)
def test_output_never_depends_on_the_cutoff(
    monkeypatch, net_reads, sample_name, method, linkage, estimator,
    wire_bits, sparse,
):
    kwargs = dict(
        NET_SAMPLES[sample_name], method=method, linkage=linkage,
        estimator=estimator, wire_bits=wire_bits, sparse=sparse, seed=0,
    )
    low = _build(monkeypatch, 1, kwargs)
    high = _build(monkeypatch, 10**9, kwargs)
    if isinstance(high, ClusterConfigError):
        # Rejected at construction, whatever the cutoff.
        assert type(low) is type(high) and str(low) == str(high)
        return
    assert not isinstance(low, ClusterConfigError)
    reads = net_reads[sample_name]
    monkeypatch.setattr(pipeline, "SPARSE_AUTO_CUTOFF", 1)
    low_run = low.fit(reads)
    monkeypatch.setattr(pipeline, "SPARSE_AUTO_CUTOFF", 10**9)
    high_run = high.fit(reads)
    assert low_run.assignment.to_tsv() == high_run.assignment.to_tsv()

    # "auto" takes the chain, given the cutoff, exactly for the shapes a
    # forced "engine" with the same estimator accepts.
    forced = _build(
        monkeypatch, 10**9,
        dict(kwargs, estimator=high.estimator, sparse="engine"),
    )
    engine_exact = not isinstance(forced, ClusterConfigError)
    chain_at_low = sparse == "engine" or (sparse == "auto" and engine_exact)
    assert low_run.mode == ("engine" if chain_at_low else "dense")
    assert high_run.mode == ("engine" if sparse == "engine" else "dense")
