"""Batch sketching kernel vs the per-record reference path.

The contract is byte-identity: :func:`compute_sketches_batch` must
reproduce :func:`compute_sketch` exactly — same values, same dtype, same
record order, same drops — across every universe size (the small
universe's head-rank probe and exact scan, the large universe's
sort-dedup path), chunking boundary, ambiguous-base density, and
strict-mode error.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KmerError, SequenceError, SketchError
from repro.minhash import sketch as sketch_module
from repro.minhash.sketch import (
    DEFAULT_CHUNK_KMERS,
    SketchingConfig,
    compute_sketch,
    compute_sketches,
    compute_sketches_batch,
    sketch_values_batch,
)
from repro.minhash.universal import UniversalHashFamily
from repro.seq.records import SequenceRecord


def reference_sketches(records, config, family=None):
    """The per-record loop the batch kernel must match byte for byte."""
    if family is None:
        family = config.make_family()
    out = []
    for record in records:
        try:
            out.append(compute_sketch(record, config, family))
        except SketchError:
            continue
    return out


def assert_identical(records, config, family=None, **kwargs):
    expected = reference_sketches(records, config, family)
    got = compute_sketches_batch(records, config, family, **kwargs)
    assert [s.read_id for s in got] == [s.read_id for s in expected]
    assert [s.family_key for s in got] == [s.family_key for s in expected]
    for g, e in zip(got, expected):
        assert g.values.dtype == e.values.dtype
        assert g.values.tobytes() == e.values.tobytes()


sequences = st.lists(
    st.text(alphabet="ACGTN", min_size=1, max_size=40), min_size=1, max_size=25
)


@settings(max_examples=60, deadline=None)
@given(
    seqs=sequences,
    kmer_size=st.integers(min_value=1, max_value=15),
    num_hashes=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=5),
)
def test_batch_matches_loop_property(seqs, kmer_size, num_hashes, seed):
    records = [
        SequenceRecord(read_id=f"r{i}", sequence=s) for i, s in enumerate(seqs)
    ]
    config = SketchingConfig(
        kmer_size=kmer_size, num_hashes=num_hashes, seed=seed
    )
    assert_identical(records, config)


@pytest.mark.parametrize(
    "kmer_size,num_hashes,seed",
    [(5, 100, 0), (3, 7, 1), (1, 2, 3), (8, 33, 5), (9, 10, 4), (15, 50, 2)],
)
def test_batch_matches_loop_paper_settings(kmer_size, num_hashes, seed):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(40):
        length = int(rng.integers(1, 120))
        letters = rng.choice(list("ACGT"), size=length)
        if rng.random() < 0.5 and length > 2:
            letters[rng.integers(0, length)] = "N"
        records.append(
            SequenceRecord(read_id=f"r{i}", sequence="".join(letters))
        )
    config = SketchingConfig(
        kmer_size=kmer_size, num_hashes=num_hashes, seed=seed
    )
    assert_identical(records, config)


@pytest.mark.parametrize("chunk_kmers", [1, 17, 257])
def test_batch_chunking_is_invisible(chunk_kmers):
    rng = np.random.default_rng(7)
    records = [
        SequenceRecord(
            read_id=f"r{i}",
            sequence="".join(rng.choice(list("ACGT"), size=60)),
        )
        for i in range(20)
    ]
    config = SketchingConfig(kmer_size=9, num_hashes=8, seed=1)
    family = config.make_family()
    full, kept_full = sketch_values_batch(
        [r.sequence for r in records], config, family
    )
    chunked, kept_chunked = sketch_values_batch(
        [r.sequence for r in records], config, family, chunk_kmers=chunk_kmers
    )
    assert np.array_equal(kept_full, kept_chunked)
    assert full.tobytes() == chunked.tobytes()


def test_batch_drops_short_reads_like_loop():
    records = [
        SequenceRecord(read_id="long", sequence="ACGTACGTACGT"),
        SequenceRecord(read_id="short", sequence="ACG"),
        SequenceRecord(read_id="allN", sequence="NNNNNNNN"),
    ]
    config = SketchingConfig(kmer_size=5, num_hashes=4, seed=0)
    assert_identical(records, config)
    got = compute_sketches_batch(records, config)
    assert [s.read_id for s in got] == ["long"]


def test_batch_empty_input():
    config = SketchingConfig(kmer_size=5, num_hashes=4, seed=0)
    assert compute_sketches_batch([], config) == []


def test_batch_strict_rejects_ambiguous():
    records = [
        SequenceRecord(read_id="ok", sequence="ACGTACGT"),
        SequenceRecord(read_id="bad", sequence="ACNTACGT"),
    ]
    config = SketchingConfig(kmer_size=4, num_hashes=4, seed=0, strict=True)
    with pytest.raises(SequenceError, match="invalid DNA character"):
        compute_sketches_batch(records, config)


def test_batch_strict_rejects_short():
    records = [SequenceRecord(read_id="tiny", sequence="ACT")]
    config = SketchingConfig(kmer_size=4, num_hashes=4, seed=0, strict=True)
    with pytest.raises(KmerError, match="shorter than k"):
        compute_sketches_batch(records, config)


def test_compute_sketches_routes_through_batch():
    """The public plural API and the reference loop stay in lockstep."""
    rng = np.random.default_rng(3)
    records = [
        SequenceRecord(
            read_id=f"r{i}",
            sequence="".join(rng.choice(list("ACGT"), size=80)),
        )
        for i in range(15)
    ]
    config = SketchingConfig(kmer_size=5, num_hashes=16, seed=2)
    got = compute_sketches(records, config)
    expected = reference_sketches(records, config)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.read_id == e.read_id
        assert g.family_key == e.family_key
        assert np.array_equal(g.values, e.values)


# --- head-rank probe and exact scan (small universes) ----------------------
#
# Records with at least universe / 2 valid windows go through the probe;
# the rest, and every record the probe cannot settle, through the scan.
# At the paper's k=5 the probe needs >= 512 valid windows, far longer than
# the reads the property test above draws.


def random_read(rng, length, n_rate=0.0):
    letters = rng.choice(list("ACGT"), size=length)
    if n_rate:
        letters[rng.random(length) < n_rate] = "N"
    return "".join(letters)


def as_records(sequences):
    return [
        SequenceRecord(read_id=f"r{i}", sequence=s) for i, s in enumerate(sequences)
    ]


@pytest.fixture
def probe_calls(monkeypatch):
    """The record indices each probe call and scan call received."""
    calls = {"probe": [], "scan": []}
    probe, scan = sketch_module._probe_minima, sketch_module._scan_minima

    def spy_probe(family, codes, offsets, records, *rest):
        calls["probe"].extend(records.tolist())
        return probe(family, codes, offsets, records, *rest)

    def spy_scan(table, codes, offsets, records, *rest):
        calls["scan"].extend(records.tolist())
        return scan(table, codes, offsets, records, *rest)

    monkeypatch.setattr(sketch_module, "_probe_minima", spy_probe)
    monkeypatch.setattr(sketch_module, "_scan_minima", spy_scan)
    return calls


@pytest.mark.parametrize("kmer_size", [4, 5])
def test_probe_routing_edge(kmer_size, probe_calls):
    """Reads at universe/2 - 1 valid windows are scanned; at universe/2
    they are probed.  Both match the loop."""
    rng = np.random.default_rng(kmer_size)
    half = 4**kmer_size // 2
    sequences = []
    for i in range(12):
        windows = half - 1 if i % 2 else half
        sequences.append(random_read(rng, windows + kmer_size - 1))
    # An N inside a read removes k windows: half + k - 1 windows -> half - 1.
    at_edge = random_read(rng, half + 2 * kmer_size - 2)
    sequences.append(at_edge[:half] + "N" + at_edge[half + 1 :])
    config = SketchingConfig(kmer_size=kmer_size, num_hashes=100, seed=3)
    family = UniversalHashFamily(100, 4**kmer_size, seed=3)
    assert_identical(as_records(sequences), config, family)
    assert probe_calls["probe"] == list(range(0, 12, 2))
    assert set(range(1, 13, 2)) <= set(probe_calls["scan"])
    assert 12 in probe_calls["scan"]


@pytest.mark.parametrize("num_hashes", [3, 100])
@pytest.mark.parametrize("chunk_kmers", [1, 17, DEFAULT_CHUNK_KMERS])
def test_forced_probe_misses_fall_back_to_scan(
    num_hashes, chunk_kmers, monkeypatch, probe_calls
):
    """With one head rank most dense reads miss some hash: every miss must
    be rescanned exactly.  With 3 hashes some reads still settle."""
    monkeypatch.setattr(sketch_module, "_HEAD_RANKS", 1)
    rng = np.random.default_rng(num_hashes)
    sequences = [random_read(rng, 1000, n_rate=0.01) for _ in range(30)]
    config = SketchingConfig(kmer_size=5, num_hashes=num_hashes, seed=1)
    # A fresh family: the head ranks are cached on the family they serve.
    family = UniversalHashFamily(num_hashes, 4**5, seed=1)
    assert_identical(as_records(sequences), config, family, chunk_kmers=chunk_kmers)
    assert family._head_ranks[0].shape == (num_hashes, 1)
    assert sorted(probe_calls["probe"]) == list(range(30))
    rescanned = set(probe_calls["scan"])
    assert rescanned
    if num_hashes == 3:
        assert len(rescanned) < 30  # the probe settled the rest


@pytest.mark.parametrize(
    "kmer_size,dense_length,num_hashes",
    [(4, 400, 100), (5, 1000, 100), (8, 33_000, 16), (9, 400, 50)],
)
@pytest.mark.parametrize("chunk_kmers", [1, 17, DEFAULT_CHUNK_KMERS])
def test_dense_reads_among_unsketchable_reads(
    kmer_size, dense_length, num_hashes, chunk_kmers
):
    """Dense reads interleaved with all-N reads, reads shorter than k and
    N-peppered reads, at the code-dtype and universe edges (k = 4: uint8
    codes; 5 and 8: uint16; 9: uint32 and the sort-dedup path)."""
    rng = np.random.default_rng(kmer_size)
    sequences = []
    for i in range(6):
        sequences.append(random_read(rng, dense_length))
        sequences.append("N" * (kmer_size + i))
        sequences.append(random_read(rng, kmer_size - 1))
        sequences.append(random_read(rng, dense_length, n_rate=0.002 * i))
        sequences.append(random_read(rng, 3 * kmer_size))
    config = SketchingConfig(kmer_size=kmer_size, num_hashes=num_hashes, seed=2)
    assert_identical(as_records(sequences), config, chunk_kmers=chunk_kmers)


def test_peak_memory_per_valid_window():
    """tracemalloc peak of the kernel on 2,000 one-kb Table III reads at
    k=5, n=100 stays at most 48 bytes per valid window: no per-window
    int64 copies and no gathered ``(reads, windows, hashes)`` tensor."""
    from repro.datasets import generate_whole_metagenome_sample
    from repro.seq.kmers import kmer_codes

    sequences = [
        r.sequence
        for r in generate_whole_metagenome_sample(
            "S1", num_reads=2000, genome_length=5000
        )
    ]
    config = SketchingConfig(kmer_size=5, num_hashes=100, seed=0)
    family = config.make_family()
    sketch_values_batch(sequences[:10], config, family)  # fill the family caches
    windows = sum(kmer_codes(s, 5, strict=False).size for s in sequences)
    assert windows > 1_900_000
    tracemalloc.start()
    try:
        values, kept = sketch_values_batch(sequences, config, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept.size == 2000
    assert peak <= 48 * windows, peak / windows
