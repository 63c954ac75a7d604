"""Property-test net over the dense <-> sparse <-> engine-sparse boundary.

On random sketch sets (hypothesis-generated matrices), the engine-sparse
job chain at θ = 1/n (one band per position) must produce exactly the
in-process candidate pairs, and the
three similarity paths must agree on the final clustering wherever
exactness is guaranteed: byte-identical TSV for sparse vs engine-sparse
(single linkage and greedy) and for dense vs sparse single linkage (the
dendrogram cut and the union-find sweep both number clusters in
first-seen leaf order), and dict-equal labels for dense-positional vs
sparse greedy.  ``MrMCMinH(sparse="auto")`` relies on these identities
to move exact shapes between the dense path and the chain without
changing a byte.

The pigeonhole net plants near-duplicate rows (a copy with a few
positions redrawn) so that many pairs sit just above and just below θ,
and checks the threshold-derived banding finds exactly the brute-force
positional edges — across both methods, full-precision sketches and the
low-bit ones ``MrMCMinH(wire_bits=8)`` hands the chain, in-memory and
spill-everything shuffles, and the serial and pooled runners.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.greedy import greedy_cluster
from repro.cluster.hierarchical import agglomerative_cluster
from repro.cluster.matrix import compute_similarity_matrix
from repro.cluster.sparse import (
    candidate_pairs,
    sparse_greedy_cluster,
    sparse_single_linkage,
)
from repro.cluster.sparse_jobs import ENGINE_METHODS, run_sparse_jobs
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.runner import SerialRunner
from repro.minhash.sketch import sketches_from_matrix
from repro.minhash.wire import effective_threshold

# Small universes force plenty of collisions; n in [4, 24] keeps the
# num_hashes/threshold grid interesting without slowing the suite.
matrices = st.integers(min_value=0, max_value=2**32 - 1).flatmap(
    lambda seed: st.tuples(
        st.integers(min_value=2, max_value=24),   # records
        st.integers(min_value=4, max_value=24),   # hashes
        st.integers(min_value=2, max_value=12),   # universe
    ).map(
        lambda dims: np.random.default_rng(seed).integers(
            0, dims[2], size=(dims[0], dims[1])
        ).astype(np.int64)
    )
)

thresholds = st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.75, 0.9, 1.0])


def _planted(seed, records, num_hashes, universe, copies):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, universe, size=(records, num_hashes))
    rows = [base]
    for _ in range(copies):
        row = base[rng.integers(records)].copy()
        redraw = rng.choice(num_hashes, size=rng.integers(0, num_hashes // 3 + 1),
                            replace=False)
        # Half the edits only touch bits above the low byte: the copy then
        # matches its source in 8-bit space but not at full precision.
        high_only = rng.integers(0, 2, size=redraw.size).astype(bool)
        row[redraw] = np.where(
            high_only,
            row[redraw] + 256 * rng.integers(1, 4, size=redraw.size),
            rng.integers(0, universe, size=redraw.size),
        )
        rows.append(row[None, :])
    return np.concatenate(rows).astype(np.int64)


# Random rows plus near-duplicate copies of them; the wide universe makes
# full values rarely collide while their low 8 bits still can.
planted_matrices = st.builds(
    _planted,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=12),        # base records
    st.integers(min_value=4, max_value=40),        # hashes
    st.sampled_from([3, 1 << 20]),                 # universe
    st.integers(min_value=1, max_value=12),        # planted copies
)


def make_sketches(values):
    n, num_hashes = values.shape
    return sketches_from_matrix(
        values, [f"r{i}" for i in range(n)], (num_hashes, 1 << 30, 0)
    )


@settings(max_examples=40, deadline=None)
@given(values=matrices)
def test_engine_pairs_exactly_equal_in_process_pairs(values):
    sketches = make_sketches(values)
    n = values.shape[1]
    run = run_sparse_jobs(sketches, 1 / n)
    assert run.matches == {
        pair: c / n for pair, c in candidate_pairs(sketches).items()
    }
    assert set(run.edges) == set(run.matches)
    assert run.rounds == 2


@settings(max_examples=30, deadline=None)
@given(values=matrices, threshold=thresholds)
def test_single_linkage_sparse_vs_engine_byte_identical(values, threshold):
    sketches = make_sketches(values)
    in_process = sparse_single_linkage(sketches, threshold)
    engine = run_sparse_jobs(sketches, threshold, method="hierarchical")
    assert in_process.to_tsv() == engine.assignment.to_tsv()


@settings(max_examples=30, deadline=None)
@given(values=matrices, threshold=thresholds)
def test_greedy_sparse_vs_engine_byte_identical(values, threshold):
    sketches = make_sketches(values)
    in_process = sparse_greedy_cluster(sketches, threshold)
    engine = run_sparse_jobs(sketches, threshold, method="greedy")
    assert in_process.to_tsv() == engine.assignment.to_tsv()


@settings(max_examples=25, deadline=None)
@given(values=matrices, threshold=thresholds)
def test_greedy_dense_positional_vs_sparse_identical(values, threshold):
    sketches = make_sketches(values)
    dense = greedy_cluster(sketches, threshold, estimator="positional")
    sparse = sparse_greedy_cluster(sketches, threshold)
    assert dict(dense.items()) == dict(sparse.items())


@settings(max_examples=25, deadline=None)
@given(values=matrices, threshold=thresholds)
def test_single_linkage_dense_vs_sparse_same_partition(values, threshold):
    sketches = make_sketches(values)
    similarity, _ = compute_similarity_matrix(sketches, estimator="positional")
    dense = agglomerative_cluster(
        similarity,
        [s.read_id for s in sketches],
        threshold,
        linkage="single",
    )
    sparse = sparse_single_linkage(sketches, threshold)
    assert dense.to_tsv() == sparse.to_tsv()


def positional_edges(values, theta):
    """Brute force: every pair whose match fraction is at least ``theta``."""
    n, num_hashes = values.shape
    matches = (values[:, None, :] == values[None, :, :]).sum(axis=2)
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if int(matches[i, j]) / num_hashes >= theta
    }


@settings(max_examples=40, deadline=None)
@given(
    values=planted_matrices,
    threshold=thresholds,
    method=st.sampled_from(ENGINE_METHODS),
    wire_bits=st.sampled_from([None, 8]),
    spill_threshold_bytes=st.sampled_from([None, 0]),
    pooled=st.booleans(),
)
def test_pigeonhole_edges_equal_brute_force_and_band1_tsv(
    values, threshold, method, wire_bits, spill_threshold_bytes, pooled
):
    if wire_bits is None:
        compared, theta = values, threshold
    else:
        # What MrMCMinH(wire_bits=b) hands the chain.
        compared = values & ((1 << wire_bits) - 1)
        theta = effective_threshold(threshold, wire_bits)
    sketches = make_sketches(compared)
    run = run_sparse_jobs(
        sketches,
        theta,
        method=method,
        runner=MultiprocessRunner(2) if pooled else SerialRunner(),
        spill_threshold_bytes=spill_threshold_bytes,
    )
    assert set(run.edges) == positional_edges(compared, theta)
    # The in-process references group on every position, like width-1 bands.
    assert set(run.matches) <= set(candidate_pairs(sketches))
    reference = (
        sparse_single_linkage if method == "hierarchical" else sparse_greedy_cluster
    )
    assert run.assignment.to_tsv() == reference(sketches, theta).to_tsv()
