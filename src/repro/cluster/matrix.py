"""Row-partitioned all-pairs similarity as a Map-Reduce job.

Section III-C: "the calculation of all pairwise similarity is performed in
parallel by performing a row-wise partition".  Each map task owns a band
of matrix rows and scores them against *all* sketches (the Pig script's
``GROUP ALL`` broadcast of the sketch set, Algorithm 3 steps 6–7); the
reduce side reassembles the bands in row order.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ClusteringError
from repro.mapreduce.job import MapReduceJob, identity_reducer
from repro.mapreduce.runner import JobResult, SerialRunner
from repro.mapreduce.types import JobConf
from repro.minhash.sketch import MinHashSketch
from repro.minhash.similarity import (
    MatchCounts,
    pairwise_match_counts,
    pairwise_similarity_matrix,
)
from repro.utils.chunking import chunk_indices


class _BandMapper:
    """Picklable mapper holding the broadcast sketch set.

    This is where a band's format is decided: the positional estimator's
    band is its integer match counts (:func:`pairwise_match_counts`,
    ``np.min_scalar_type(n)``, one byte per pair up to n = 255), which the
    driver assembles into one :class:`MatchCounts` matrix and the merge
    loop divides by n once; the set estimator's band is float64.
    """

    def __init__(self, sketches: Sequence[MinHashSketch], estimator: str):
        self.sketches = list(sketches)
        self.estimator = estimator

    def __call__(self, key, value):
        start, stop = value
        if self.estimator == "positional":
            band = pairwise_match_counts(self.sketches, row_range=(start, stop))
        else:
            band = pairwise_similarity_matrix(
                self.sketches, estimator=self.estimator, row_range=(start, stop)
            )
        yield start, band


def similarity_band_job(
    sketches: Sequence[MinHashSketch], *, estimator: str = "positional"
) -> MapReduceJob:
    """Build the similarity Map-Reduce job over a fixed sketch set.

    Each map task emits ``(start, band)`` for its row band: integer match
    counts for the positional estimator, float64 similarities for the set
    estimator.  :func:`compute_similarity_matrix` assembles the bands into
    one matrix of the same kind.
    """
    if not sketches:
        raise ClusteringError("cannot build a similarity job over no sketches")
    return MapReduceJob(
        name="similarity",
        mapper=_BandMapper(sketches, estimator),
        reducer=identity_reducer,
    )


def compute_similarity_matrix(
    sketches: Sequence[MinHashSketch],
    *,
    estimator: str = "positional",
    runner=None,
    num_tasks: int = 4,
) -> tuple[MatchCounts | np.ndarray, JobResult]:
    """All-pairs similarity via the Map-Reduce band job.

    Parameters
    ----------
    runner:
        Any object with ``run(job, inputs, conf)`` — defaults to a traced
        :class:`~repro.mapreduce.runner.SerialRunner`.
    num_tasks:
        Number of row bands (map tasks).

    Returns
    -------
    ``(matrix, job_result)`` — the assembled ``(N, N)`` matrix and the
    engine result (counters + trace for the cluster simulator).  The
    positional matrix stays match counts, a
    :class:`~repro.minhash.similarity.MatchCounts` whose ``similarity()``
    is the bytes of
    :func:`~repro.minhash.similarity.pairwise_similarity_matrix`; the set
    estimator's is that float64 matrix.
    """
    n = len(sketches)
    if n == 0:
        raise ClusteringError("cannot compute a similarity matrix over no sketches")
    if num_tasks < 1:
        raise ClusteringError(f"num_tasks must be >= 1, got {num_tasks}")
    runner = runner or SerialRunner()
    bands = [
        (b, (start, stop))
        for b, (start, stop) in enumerate(chunk_indices(n, min(num_tasks, n)))
        if stop > start
    ]
    job = similarity_band_job(sketches, estimator=estimator)
    result = runner.run(
        job,
        [(band_id, rng) for band_id, rng in bands],
        JobConf(num_map_tasks=len(bands), num_reduce_tasks=1),
    )
    num_hashes = len(sketches[0])
    positional = estimator == "positional"
    matrix = np.empty(
        (n, n), dtype=np.min_scalar_type(num_hashes) if positional else np.float64
    )
    filled = 0
    for start, band in result.output:
        matrix[start : start + band.shape[0]] = band
        filled += band.shape[0]
    if filled != n:
        raise ClusteringError(
            f"similarity job returned {filled} rows for an {n}-sequence input"
        )
    if positional:
        return MatchCounts(matrix, num_hashes), result
    return matrix, result
