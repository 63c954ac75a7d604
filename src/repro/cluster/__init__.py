"""Core clustering algorithms of the paper.

* :mod:`repro.cluster.greedy` — Algorithm 1 (MrMC-MinH^g): incremental
  representative-based clustering over min-hash sketches.
* :mod:`repro.cluster.hierarchical` — Algorithm 2 (MrMC-MinH^h):
  agglomerative hierarchical clustering over the all-pairs estimated
  Jaccard matrix, with single/average/complete linkage and a similarity
  threshold cutoff.
* :mod:`repro.cluster.matrix` — the row-partitioned parallel pairwise
  similarity computation (Section III-C).
* :mod:`repro.cluster.pipeline` — the end-to-end MrMC-MinH Map-Reduce
  pipeline (Figure 1).
"""

from repro.cluster.assignments import ClusterAssignment
from repro.cluster.unionfind import UnionFind
from repro.cluster.dendrogram import Dendrogram, MergeStep
from repro.cluster.greedy import greedy_cluster
from repro.cluster.hierarchical import (
    LINKAGES,
    agglomerative_cluster,
    build_dendrogram,
    cut_dendrogram,
    multi_threshold_cut,
)
from repro.cluster.matrix import compute_similarity_matrix, similarity_band_job
from repro.cluster.pipeline import ClusteringRun, MrMCMinH
from repro.cluster.representatives import (
    representative_records,
    select_representatives,
)
from repro.cluster.sparse import (
    candidate_pairs,
    greedy_from_edges,
    single_linkage_from_edges,
    sparse_greedy_cluster,
    sparse_single_linkage,
)
from repro.cluster.sparse_jobs import SparseEngineRun, run_sparse_jobs
from repro.cluster.denoise import rescue_small_clusters
from repro.cluster.classify import (
    Classification,
    ReferenceDb,
    classification_summary,
    classify_clusters,
)
from repro.cluster.consensus import cluster_consensus, consensus_sequence

__all__ = [
    "ClusterAssignment",
    "UnionFind",
    "Dendrogram",
    "MergeStep",
    "greedy_cluster",
    "LINKAGES",
    "agglomerative_cluster",
    "build_dendrogram",
    "cut_dendrogram",
    "multi_threshold_cut",
    "compute_similarity_matrix",
    "similarity_band_job",
    "ClusteringRun",
    "MrMCMinH",
    "select_representatives",
    "representative_records",
    "candidate_pairs",
    "greedy_from_edges",
    "single_linkage_from_edges",
    "sparse_single_linkage",
    "sparse_greedy_cluster",
    "SparseEngineRun",
    "run_sparse_jobs",
    "rescue_small_clusters",
    "Classification",
    "ReferenceDb",
    "classification_summary",
    "classify_clusters",
    "cluster_consensus",
    "consensus_sequence",
]
