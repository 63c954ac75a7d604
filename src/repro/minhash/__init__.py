"""Min-wise hashing (Section III-A/B of the paper).

A sequence's k-mer feature set is sketched by ``n`` universal hash
functions ``h_i(x) = ((a_i * x + b_i) mod p) mod m`` (Equation 5); the
i-th sketch component is ``min_{x in I} h_i(x)`` (Equation 6).  The
probability two sets share a minimum under a random permutation equals
their Jaccard similarity (Equation 3), so comparing sketches estimates
Jaccard without any alignment.

Two sketching paths produce byte-identical output: the per-record
reference (:func:`compute_sketch`) and the vectorised batch kernel
(:func:`compute_sketches_batch` / :func:`sketch_values_batch`), which is
what every production caller routes through.  :mod:`repro.minhash.wire`
adds the b-bit compressed wire format for shuffle traffic.
"""

from repro.minhash.universal import (
    UniversalHashFamily,
    cached_family,
    next_prime,
    is_prime,
)
from repro.minhash.sketch import (
    MinHashSketch,
    SketchingConfig,
    compute_sketch,
    compute_sketches,
    compute_sketches_batch,
    padded_value_sets,
    sketch_matrix,
    sketch_values_batch,
    sketches_from_matrix,
)
from repro.minhash.similarity import (
    MatchCounts,
    estimate_jaccard,
    exact_jaccard,
    positional_similarity,
    set_similarity,
    pairwise_match_counts,
    pairwise_similarity_matrix,
    condensed_to_square,
)
from repro.minhash.wire import (
    SketchFrame,
    SketchWireCodec,
    collision_floor,
    corrected_jaccard,
    effective_threshold,
    pack_values,
    unpack_values,
)

__all__ = [
    "UniversalHashFamily",
    "cached_family",
    "next_prime",
    "is_prime",
    "MinHashSketch",
    "SketchingConfig",
    "compute_sketch",
    "compute_sketches",
    "compute_sketches_batch",
    "padded_value_sets",
    "sketch_matrix",
    "sketch_values_batch",
    "sketches_from_matrix",
    "estimate_jaccard",
    "exact_jaccard",
    "positional_similarity",
    "set_similarity",
    "MatchCounts",
    "pairwise_match_counts",
    "pairwise_similarity_matrix",
    "condensed_to_square",
    "SketchFrame",
    "SketchWireCodec",
    "collision_floor",
    "corrected_jaccard",
    "effective_threshold",
    "pack_values",
    "unpack_values",
]
