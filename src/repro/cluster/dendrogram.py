"""Dendrogram representation for agglomerative clustering.

The paper describes the dendrogram as "a series of merge steps for the
rows of the similarity matrix" cut at the similarity threshold θ.  We
store exactly that: ordered :class:`MergeStep` records in scipy-linkage
style (new cluster ids continue after the leaf ids), convertible to a
scipy linkage matrix for cross-validation in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.errors import ClusteringError


@dataclass(frozen=True)
class MergeStep:
    """One agglomeration: clusters ``left`` and ``right`` joined at
    ``similarity`` into a new cluster of ``size`` leaves."""

    left: int
    right: int
    similarity: float
    size: int


class Dendrogram:
    """Full merge history over ``num_leaves`` initial singleton clusters.

    Alongside the steps it keeps the set of cluster ids already merged
    away and every id's leaf count, so :meth:`append` checks one step in
    O(1) instead of re-walking the history.
    """

    def __init__(self, num_leaves: int, steps: Sequence[MergeStep] = ()):
        if num_leaves < 1:
            raise ClusteringError(f"num_leaves must be >= 1, got {num_leaves}")
        self.num_leaves = num_leaves
        self.steps: list[MergeStep] = []
        self._merged: set[int] = set()
        self._sizes: list[int] = [1] * num_leaves
        steps = list(steps)
        self._check_count(len(steps))
        for step in steps:
            self._record(step)

    def _check_count(self, count: int) -> None:
        if count > self.num_leaves - 1:
            raise ClusteringError(
                f"{count} merges exceed maximum "
                f"{self.num_leaves - 1} for {self.num_leaves} leaves"
            )

    def _record(self, step: MergeStep) -> None:
        """Check ``step`` against the merges so far, then record it."""
        i = len(self.steps)
        new_id = self.num_leaves + i
        for side in (step.left, step.right):
            if not 0 <= side < new_id:
                raise ClusteringError(
                    f"merge {i} references invalid cluster id {side}"
                )
            if side in self._merged:
                raise ClusteringError(
                    f"merge {i} reuses already-merged cluster {side}"
                )
        if step.left == step.right:
            # The right side reuses the cluster the left side just consumed.
            raise ClusteringError(
                f"merge {i} reuses already-merged cluster {step.right}"
            )
        joined = self._sizes[step.left] + self._sizes[step.right]
        if step.size != joined:
            raise ClusteringError(
                f"merge {i} has size {step.size} but clusters {step.left} "
                f"and {step.right} hold {joined} leaves"
            )
        self._merged.update((step.left, step.right))
        self._sizes.append(joined)
        self.steps.append(step)

    def append(self, step: MergeStep) -> None:
        """Record one more merge; a rejected step leaves the dendrogram
        unchanged."""
        self._check_count(len(self.steps) + 1)
        self._record(step)

    @property
    def is_complete(self) -> bool:
        """True when everything has merged into a single cluster."""
        return len(self.steps) == self.num_leaves - 1

    def cut(self, threshold: float) -> list[int]:
        """Cluster labels after applying merges with
        ``similarity >= threshold`` only.

        Returns dense 0-based labels for the leaves, in leaf order.  A
        threshold of 1.0 keeps only perfect merges; 0.0 applies every
        recorded merge.
        """
        from repro.cluster.unionfind import UnionFind

        uf = UnionFind(self.num_leaves + len(self.steps))
        for i, step in enumerate(self.steps):
            if step.similarity >= threshold:
                new_id = self.num_leaves + i
                uf.union(step.left, new_id)
                uf.union(step.right, new_id)
        roots: dict[int, int] = {}
        labels = []
        for leaf in range(self.num_leaves):
            root = uf.find(leaf)
            if root not in roots:
                roots[root] = len(roots)
            labels.append(roots[root])
        return labels

    def to_scipy_linkage(self) -> np.ndarray:
        """Export as a scipy ``linkage`` matrix (distance = 1 - similarity).

        Only defined for complete dendrograms (scipy requires n-1 rows).
        """
        if not self.is_complete:
            raise ClusteringError(
                "scipy linkage export requires a complete dendrogram "
                f"({len(self.steps)}/{self.num_leaves - 1} merges recorded)"
            )
        out = np.zeros((len(self.steps), 4))
        for i, step in enumerate(self.steps):
            out[i] = (step.left, step.right, 1.0 - step.similarity, step.size)
        return out

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"Dendrogram({self.num_leaves} leaves, {len(self.steps)} merges)"
