"""Sketch computation for sequences (Equation 4/6 of the paper).

The end-to-end transform mirrors Figure 1: DNA string -> integer encoding
-> k-mer feature set -> per-hash minimum.  Two execution paths produce
byte-identical sketches:

* :func:`compute_sketch` — the per-record reference path (one sequence at
  a time, exactly the paper's per-row UDF chain);
* :func:`compute_sketches_batch` — the vectorised fast path: every
  sequence of the batch is 2-bit-encoded in a single NumPy pass (the
  sequences are joined with an ambiguous separator so windows can never
  straddle two records) and rolled into k-mer codes in the narrowest
  unsigned dtype.  For small universes (k <= 8) each hash function's
  minimum is the value of the first code, in that function's value
  order, that the read contains: dense reads read it off a presence
  bitmap probed at the first few ranks, and the rest scan a cached hash
  table.  Large universes dedupe ``(read, code)`` pairs by sorting and
  hash the distinct codes.  No Python loop runs per record.

:func:`compute_sketches` (the whole-sample API) routes through the batch
kernel; :func:`sketch_matrix` stacks results into an ``(N, n)`` matrix
ready for the row-partitioned pairwise similarity job.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import KmerError, SketchError
from repro.minhash.universal import UniversalHashFamily, cached_family
from repro.seq.alphabet import encode_dna
from repro.seq.kmers import kmer_set, max_kmer_code
from repro.seq.records import SequenceRecord

#: Working-set budget of one step of the batch kernel: k-mers per hashed
#: chunk on the large-universe path (a ``(num_hashes, chunk)`` matrix);
#: bitmap cells per probe block and gathered table entries per scan block
#: on the small-universe path.  Bounds peak memory, not correctness.
DEFAULT_CHUNK_KMERS = 1 << 20


@dataclass(frozen=True)
class SketchingConfig:
    """Parameters of the sketching stage.

    Matches the paper's input parameters: k-mer size ``k``, number of hash
    functions ``n`` (``$NUMHASH``), and the hash-family seed.  The paper's
    experiments use ``k=5, n=100`` for whole-metagenome reads (Table III)
    and ``k=15, n=50`` for 16S reads (Table V).
    """

    kmer_size: int
    num_hashes: int
    seed: int = 0
    strict: bool = False  # skip (rather than reject) ambiguous bases

    def __post_init__(self) -> None:
        if self.num_hashes < 1:
            raise SketchError(f"num_hashes must be >= 1, got {self.num_hashes}")
        # kmer_size validity is checked by max_kmer_code below.
        max_kmer_code(self.kmer_size)

    def make_family(self) -> UniversalHashFamily:
        """The (shared, cached) hash family implied by this configuration."""
        return cached_family(
            self.num_hashes, max_kmer_code(self.kmer_size), self.seed
        )


@dataclass(frozen=True)
class MinHashSketch:
    """A fixed-size sketch (Equation 4) for one sequence.

    ``values[i] = min over k-mers x of h_i(x)``.  Sketches are only
    comparable when produced by the same hash family; ``family_key``
    guards against accidental cross-family comparison.
    """

    read_id: str
    values: np.ndarray
    family_key: tuple[int, int, int] = (0, 0, 0)  # (num_hashes, universe, seed)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 1 or values.size == 0:
            raise SketchError(
                f"sketch values must be a non-empty 1-D array, got shape "
                f"{values.shape}"
            )
        object.__setattr__(self, "values", values)

    @property
    def value_set(self) -> frozenset:
        """The sketch values as a set (for the set-based estimator of
        Algorithm 1 line 9).

        Built lazily on first access: most pipelines (positional
        estimator, sparse collision join, the batch kernels) never touch
        the set form, and eagerly materialising a frozenset per sketch
        paid O(n) time and memory for nothing.
        """
        cached = self.__dict__.get("_value_set")
        if cached is None:
            cached = frozenset(self.values.tolist())
            object.__setattr__(self, "_value_set", cached)
        return cached

    def __len__(self) -> int:
        return int(self.values.size)

    def compatible_with(self, other: "MinHashSketch") -> bool:
        """True when both sketches come from the same hash family."""
        return self.family_key == other.family_key


def compute_sketch(
    record: SequenceRecord,
    config: SketchingConfig,
    family: UniversalHashFamily | None = None,
) -> MinHashSketch:
    """Sketch one sequence record.

    Sequences shorter than ``k`` (or whose valid windows are all ambiguous)
    raise :class:`~repro.errors.SketchError`, since they have an empty
    feature set.
    """
    if family is None:
        family = config.make_family()
    features = kmer_set(record.sequence, config.kmer_size, strict=config.strict)
    if features.size == 0:
        raise SketchError(
            f"sequence {record.read_id!r} yields no {config.kmer_size}-mers"
        )
    values = family.min_hash(features)
    key = (family.num_hashes, family.universe_size, config.seed)
    return MinHashSketch(read_id=record.read_id, values=values, family_key=key)


#: Universe sizes up to this get a precomputed per-family hash table
#: (``universe x num_hashes``, narrow dtype) instead of re-hashing codes.
SMALL_UNIVERSE_MAX = 1 << 16

#: Leading ranks of each hash function's value order the probe checks
#: before it falls back to the exact scan.
_HEAD_RANKS = 16


def _narrow_dtype(universe: int) -> np.dtype:
    """Smallest unsigned dtype that holds values in ``[0, universe)``."""
    if universe <= 1 << 8:
        return np.dtype(np.uint8)
    if universe <= 1 << 16:
        return np.dtype(np.uint16)
    if universe <= 1 << 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)  # k-mer codes for k > 16


def _segmented_min(
    table: np.ndarray, inverse: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """Per-segment minima of ``table[:, inverse]`` without materialising it.

    ``table`` is ``(num_hashes, d)``; ``inverse`` indexes its columns;
    ``segments`` are segment start offsets into ``inverse``.  Returns
    ``(num_segments, num_hashes)`` in the table's dtype.  The loop runs per
    hash function (fixed, 50–100), never per record: 1-D ``take`` +
    ``reduceat`` on contiguous buffers is an order of magnitude faster
    than the equivalent 2-D fancy-index + axis reduceat.
    """
    num_hashes = table.shape[0]
    out = np.empty((num_hashes, segments.size), dtype=table.dtype)
    buf = np.empty(inverse.size, dtype=table.dtype)
    for i in range(num_hashes):
        np.take(table[i], inverse, out=buf)
        np.minimum.reduceat(buf, segments, out=out[i])
    return out.T


def sketch_values_batch(
    sequences: Sequence[str],
    config: SketchingConfig,
    family: UniversalHashFamily | None = None,
    *,
    chunk_kmers: int = DEFAULT_CHUNK_KMERS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised sketch kernel over a batch of sequences.

    Returns ``(values, kept)``: ``values`` is an ``(M, num_hashes)`` int64
    matrix of sketches, ``kept`` the indices of the ``M`` input sequences
    that produced at least one k-mer (the rest are dropped, mirroring
    :func:`compute_sketches`).  Output rows are byte-identical to
    :func:`compute_sketch` on the corresponding record.

    The batch is 2-bit-encoded once (records joined with an ``N``
    separator, so no valid window spans two records) and every valid
    window's code is built by a rolling ``code << 2 | base`` in the
    narrowest unsigned dtype; the valid codes stay in record order, and
    per-record counts come from where the valid windows start.  Small
    universes (``4**k <= 2**16``) then take each record with at least
    ``4**k / 2`` valid windows through a head-rank probe and every other
    record, and every record the probe cannot settle, through an exact
    scan of a cached hash table; large universes dedupe ``(record,
    code)`` pairs by sorting and hash each distinct code per chunk.
    ``chunk_kmers`` bounds the working set of one step (see
    :data:`DEFAULT_CHUNK_KMERS`).  No Python loop runs per record.
    """
    k = config.kmer_size
    if family is None:
        family = config.make_family()
    num_records = len(sequences)
    if chunk_kmers < 1:
        raise SketchError(f"chunk_kmers must be >= 1, got {chunk_kmers}")
    if num_records == 0:
        return np.empty((0, family.num_hashes), dtype=np.int64), np.empty(
            0, dtype=np.intp
        )

    bases = encode_dna("N".join(sequences), strict=False)
    lengths = np.fromiter(
        (len(s) for s in sequences), dtype=np.int64, count=num_records
    )
    starts = np.zeros(num_records + 1, dtype=np.int64)
    np.cumsum(lengths + 1, out=starts[1:])  # +1 for the separator

    if config.strict:
        _raise_first_strict_error(sequences, bases, starts, lengths, k)

    codes, counts = _window_codes(bases, k, starts)
    del bases
    kept = np.flatnonzero(counts)
    offsets = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(counts[kept], out=offsets[1:])
    if family.universe_size <= SMALL_UNIVERSE_MAX:
        values = _small_universe_minima(family, codes, offsets, chunk_kmers)
    else:
        values = _large_universe_minima(family, codes, offsets, chunk_kmers)
    return values, kept


def _window_codes(
    bases: np.ndarray, k: int, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the valid k-mer windows, record-major, and per-record counts.

    ``bases`` is the joined batch's 2-bit encoding (-1 where a base is
    ambiguous or a separator) and ``starts`` each record's offset into
    it.  A window is valid when all k of its bases are; its code is built
    by k passes of ``code << 2 | base`` in the narrowest unsigned dtype
    that holds ``4**k`` codes.  Invalid bases read as 3 there, which only
    touches windows the validity mask drops.
    """
    num_windows = bases.size - k + 1
    if num_windows <= 0:
        return np.empty(0, dtype=np.uint8), np.zeros(starts.size - 1, dtype=np.int64)
    ok = bases >= 0
    two_bit = (bases.view(np.uint8) & 3).astype(_narrow_dtype(4**k), copy=False)
    code = two_bit[:num_windows].copy()
    valid = ok[:num_windows].copy()
    for j in range(1, k):
        code <<= 2
        code |= two_bit[j : j + num_windows]
        valid &= ok[j : j + num_windows]
    # A valid window covers no separator, so it belongs to the record
    # whose span holds its first base: count valid starts between the
    # record offsets.
    counts = np.diff(np.searchsorted(np.flatnonzero(valid), starts))
    return code[valid], counts


def _small_universe_minima(
    family: UniversalHashFamily,
    codes: np.ndarray,
    offsets: np.ndarray,
    budget: int,
) -> np.ndarray:
    """Small-universe minima: head-rank probe, then an exact scan.

    Record ``r`` owns ``codes[offsets[r]:offsets[r + 1]]``.  Records with
    at least ``universe / 2`` valid windows go to the probe; at that
    density a record almost never lacks all of a hash's head codes.
    The sparser ones, for which building a bitmap costs more than the
    scan it saves, and every record the probe cannot settle go to the
    scan.
    """
    table = _hash_table_t(family)
    universe = table.shape[0]
    minima = np.empty((offsets.size - 1, family.num_hashes), dtype=np.int64)
    to_scan = np.diff(offsets) < universe // 2
    probed = np.flatnonzero(~to_scan)
    if probed.size:
        to_scan[_probe_minima(family, codes, offsets, probed, budget, minima)] = True
    _scan_minima(table, codes, offsets, np.flatnonzero(to_scan), budget, minima)
    return minima


def _probe_minima(
    family: UniversalHashFamily,
    codes: np.ndarray,
    offsets: np.ndarray,
    records: np.ndarray,
    budget: int,
    minima: np.ndarray,
) -> np.ndarray:
    """Head-rank probe: fill ``minima`` for ``records``; return the misses.

    Hash function i's minimum over a record's codes is the value of the
    lowest-ranked code, in i's value order, that the record contains —
    so when one of the first :data:`_HEAD_RANKS` codes is present, the
    first present one gives the exact minimum (ties in value do not
    matter: the first present code's value is at most every other present
    code's).  Per block of records, a ``(block, universe)`` presence
    bitmap is gathered at the ``(num_hashes, depth)`` head codes and each
    hash takes its first hit.  A record where any hash finds no hit is
    returned for the exact scan.  The bitmap is fresh and C-contiguous,
    so its cells are set through the 1-D ``reshape(-1)`` view: a plain
    fancy-index scatter, ~5x cheaper than the same write through the
    element-wise ``flat`` iterator.
    """
    head_codes, head_values = _head_ranks(family)
    universe = family.universe_size
    hash_index = np.arange(family.num_hashes)
    per_block = max(1, budget // universe)
    missed = []
    for lo in range(0, records.size, per_block):
        block = records[lo : lo + per_block]
        window_codes, counts = _windows_of(codes, offsets, block)
        cells = np.repeat(np.arange(0, block.size * universe, universe), counts)
        cells += window_codes
        present = np.zeros((block.size, universe), dtype=bool)
        present.reshape(-1)[cells] = True
        hits = present[:, head_codes]  # (block, num_hashes, depth)
        first = hits.argmax(axis=2)
        settled = hits.any(axis=2).all(axis=1)
        minima[block[settled]] = head_values[hash_index, first[settled]]
        missed.append(block[~settled])
    return np.concatenate(missed)


def _scan_minima(
    table: np.ndarray,
    codes: np.ndarray,
    offsets: np.ndarray,
    records: np.ndarray,
    budget: int,
    minima: np.ndarray,
) -> None:
    """Exact minima of ``records``: gather the table row of every window
    and take each hash's minimum over the record's windows.

    Records are grouped by window count, so a group's windows form a
    ``(records, width)`` index rectangle with no padding, and one
    ``min(axis=1)`` over the gathered ``(records, width, num_hashes)``
    block reduces it (2-3x faster than a segmented ``minimum.reduceat``
    over the same rows).  Blocks hold whole records and at most
    ``budget`` gathered entries, one record at least.  Duplicate codes
    need no dedup: a minimum over a multiset is the minimum over its set.
    """
    num_hashes = table.shape[1]
    counts = offsets[records + 1] - offsets[records]
    order = np.argsort(counts, kind="stable")
    widths = counts[order]
    edges = np.flatnonzero(np.diff(widths, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = int(widths[lo])
        per_block = max(1, budget // (width * num_hashes))
        for first in range(lo, hi, per_block):
            block = records[order[first : min(hi, first + per_block)]]
            windows = codes[offsets[block, None] + np.arange(width)]
            minima[block] = table[windows].min(axis=1)


def _windows_of(
    codes: np.ndarray, offsets: np.ndarray, records: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Window codes of ``records`` (ascending), concatenated, and their
    per-record counts.  A run of consecutive records is one slice."""
    lo, hi = offsets[records], offsets[records + 1]
    counts = hi - lo
    if records[-1] - records[0] + 1 == records.size:
        return codes[lo[0] : hi[-1]], counts
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return codes[shift + np.arange(shift.size)], counts


def _large_universe_minima(
    family: UniversalHashFamily,
    codes: np.ndarray,
    offsets: np.ndarray,
    chunk_kmers: int,
) -> np.ndarray:
    """Large-universe path: sort-based dedup, hash distinct codes per chunk.

    ``(record, code)`` pairs are deduped with one ``np.unique`` over the
    fused key ``record * universe + code`` (record-major, codes ascending
    within a record — the same order as the per-record feature sets); each
    chunk hashes only its distinct codes and gathers.
    """
    universe = family.universe_size
    num_records = offsets.size - 1
    owners = np.repeat(np.arange(num_records, dtype=np.int64), np.diff(offsets))
    combined = np.unique(owners * universe + codes)
    owners_u = combined // universe
    codes_u = combined % universe
    dtype = _narrow_dtype(universe)
    minima = np.full(
        (num_records, family.num_hashes), np.iinfo(np.int64).max, dtype=np.int64
    )
    for lo in range(0, combined.size, chunk_kmers):
        chunk_owners = owners_u[lo : lo + chunk_kmers]
        chunk_codes = codes_u[lo : lo + chunk_kmers]
        segments = np.concatenate(([0], np.flatnonzero(np.diff(chunk_owners)) + 1))
        segment_owner = chunk_owners[segments]
        distinct, inverse = np.unique(chunk_codes, return_inverse=True)
        table = family.hash_values(distinct).astype(dtype)
        segment_min = _segmented_min(table, inverse, segments)
        # A record's segment can straddle a chunk boundary, so fold with
        # minimum instead of assigning (segment owners are unique within
        # one chunk, so the fancy-indexed read/modify/write is safe).
        minima[segment_owner] = np.minimum(minima[segment_owner], segment_min)
    return minima


def _hash_table_t(family: UniversalHashFamily) -> np.ndarray:
    """Transposed ``(universe, num_hashes)`` hash table for small universes.

    ``table[x, i] == family.hash_values([x])[i]`` in the smallest unsigned
    dtype that fits.  Computed once and cached on the (immutable) family —
    after that, hashing a window is a contiguous-row gather instead of
    modular arithmetic.
    """
    if family.universe_size > SMALL_UNIVERSE_MAX:
        raise SketchError(
            f"hash table for universe {family.universe_size} would exceed the "
            f"small-universe cap {SMALL_UNIVERSE_MAX}"
        )
    cached = getattr(family, "_hash_table_t", None)
    if cached is None:
        codes = np.arange(family.universe_size, dtype=np.int64)
        cached = np.ascontiguousarray(
            family.hash_values(codes).T, dtype=_narrow_dtype(family.universe_size)
        )
        object.__setattr__(family, "_hash_table_t", cached)
    return cached


def _head_ranks(family: UniversalHashFamily) -> tuple[np.ndarray, np.ndarray]:
    """The first :data:`_HEAD_RANKS` codes of each hash function's value
    order and their values, both ``(num_hashes, depth)``.

    ``codes[i]`` holds codes whose values under hash i are the smallest in
    the universe, in ascending value order, so ``values[i]`` is sorted.
    Which of several equal-valued codes make the cut does not matter to
    the probe.  Cached on the family next to its hash table.
    """
    cached = getattr(family, "_head_ranks", None)
    if cached is None:
        by_hash = _hash_table_t(family).T
        depth = min(_HEAD_RANKS, by_hash.shape[1])
        head = np.argpartition(by_hash, depth - 1, axis=1)[:, :depth]
        values = np.take_along_axis(by_hash, head, axis=1)
        order = np.argsort(values, axis=1, kind="stable")
        cached = (
            np.take_along_axis(head, order, axis=1),
            np.take_along_axis(values, order, axis=1),
        )
        object.__setattr__(family, "_head_ranks", cached)
    return cached


def _raise_first_strict_error(
    sequences: Sequence[str],
    codes: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    k: int,
) -> None:
    """Reproduce per-record strict-mode errors for the batch kernel.

    The per-record path raises ``SequenceError`` on the first ambiguous
    base (from ``encode_dna``) or ``KmerError`` for too-short sequences,
    in record order with ambiguity taking precedence within a record.
    Scan vectorised, then delegate to the per-record code so messages
    stay identical.
    """
    invalid = codes < 0
    invalid[starts[1:-1] - 1] = False  # separators are expected to be invalid
    bad_positions = np.flatnonzero(invalid)
    bad_record = (
        int(np.searchsorted(starts[1:], bad_positions[0], side="right"))
        if bad_positions.size
        else len(sequences)
    )
    short = np.flatnonzero(lengths < k)
    short_record = int(short[0]) if short.size else len(sequences)
    if min(bad_record, short_record) >= len(sequences):
        return
    if bad_record <= short_record:
        encode_dna(sequences[bad_record], strict=True)  # raises SequenceError
    raise KmerError(
        f"sequence of length {lengths[short_record]} is shorter than k={k}"
    )


def compute_sketches_batch(
    records: Sequence[SequenceRecord] | Iterable[SequenceRecord],
    config: SketchingConfig,
    family: UniversalHashFamily | None = None,
    *,
    chunk_kmers: int = DEFAULT_CHUNK_KMERS,
) -> list[MinHashSketch]:
    """Sketch a whole sample through the vectorised batch kernel.

    Byte-identical to running :func:`compute_sketch` per record with a
    shared family; records too short to produce any k-mer are skipped
    (mirrors real pipelines, which drop ultra-short reads).
    """
    records = list(records)
    if family is None:
        family = config.make_family()
    values, kept = sketch_values_batch(
        [rec.sequence for rec in records],
        config,
        family,
        chunk_kmers=chunk_kmers,
    )
    key = (family.num_hashes, family.universe_size, config.seed)
    return [
        MinHashSketch(read_id=records[i].read_id, values=values[row], family_key=key)
        for row, i in enumerate(kept)
    ]


def compute_sketches(
    records: Sequence[SequenceRecord] | Iterable[SequenceRecord],
    config: SketchingConfig,
) -> list[MinHashSketch]:
    """Sketch a whole sample with a single shared hash family.

    Delegates to :func:`compute_sketches_batch` — the vectorised kernel is
    the production path; the per-record loop survives as the reference
    implementation the equivalence tests compare against.
    """
    return compute_sketches_batch(records, config)


def sketches_from_matrix(
    values: np.ndarray,
    read_ids: Sequence[str],
    family_key: tuple[int, int, int],
) -> list[MinHashSketch]:
    """Wrap the rows of an ``(N, num_hashes)`` matrix as sketches."""
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 2 or values.shape[0] != len(read_ids):
        raise SketchError(
            f"matrix of shape {values.shape} does not match {len(read_ids)} ids"
        )
    return [
        MinHashSketch(read_id=str(read_ids[i]), values=values[i], family_key=family_key)
        for i in range(values.shape[0])
    ]


def sketch_matrix(sketches: Sequence[MinHashSketch]) -> np.ndarray:
    """Stack sketches into an ``(N, num_hashes)`` int64 matrix.

    All sketches must share a family and length.
    """
    if not sketches:
        return np.empty((0, 0), dtype=np.int64)
    first = sketches[0]
    for s in sketches[1:]:
        if not s.compatible_with(first):
            raise SketchError(
                f"sketch {s.read_id!r} comes from a different hash family than "
                f"{first.read_id!r}"
            )
    return np.vstack([s.values for s in sketches])


def padded_value_sets(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise sorted unique values, left-aligned and padded with -1.

    Returns ``(padded, counts)`` where ``padded[i, :counts[i]]`` holds the
    sorted distinct values of row ``i`` (the sketch's *value set*) and the
    remainder is -1 (never a legal hash value).  This is the vectorised
    substrate for the set-based estimator: intersections become
    ``np.isin`` over contiguous blocks instead of per-pair frozenset
    algebra.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2:
        raise SketchError(f"expected a 2-D sketch matrix, got shape {matrix.shape}")
    if matrix.size == 0:
        return matrix.copy(), np.zeros(matrix.shape[0], dtype=np.int64)
    ordered = np.sort(matrix, axis=1)
    first = np.ones_like(ordered, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    counts = first.sum(axis=1)
    slots = np.cumsum(first, axis=1) - 1
    padded = np.full_like(ordered, -1)
    # Duplicates land on the slot of their first occurrence, writing the
    # same value again — harmless, and it keeps the scatter fully vector.
    padded[np.arange(matrix.shape[0])[:, None], slots] = ordered
    return padded, counts
