"""Disk-backed keyword search over graph-modeled relational data."""

from .clustering import (CLUSTER_ALGORITHMS, Clustering, ClusteringError,
                         WeightConfig, build_cluster_graph,
                         identity_clustering)
from .engine import (EngineConfig, PrecisionReport, QueryResult, build_store,
                     compare_precision, ingest_to_store, single_phase_query,
                     two_phase_query)
from .graph import (DataGraph, GraphBuilder, GraphError, IngestError,
                    IngestSpec, NodeMeta, build_graph, estimate_memory,
                    ingest, parse_schema, prune_transitive)
from .keywords import KeywordIndex, build_index, tokenize
from .scoring import AnswerTree, ScoreConfig, ScoredAnswer, score_tree
from .search import (KeywordSets, NoMatchError, SearchConfig, SearchStats,
                     backward_search, bidirectional_search)
from .storage import (ClusterStore, ExpandedGraph, StorageError,
                      StorageFormatError, expand_clusters, write_store)
from .synth import SynthSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AnswerTree", "ClusterStore", "Clustering", "ClusteringError",
    "CLUSTER_ALGORITHMS", "DataGraph", "EngineConfig", "ExpandedGraph",
    "GraphBuilder", "GraphError", "IngestError", "IngestSpec", "KeywordIndex",
    "KeywordSets", "NoMatchError", "NodeMeta", "PrecisionReport",
    "QueryResult", "ScoreConfig", "ScoredAnswer", "SearchConfig",
    "SearchStats", "StorageError", "StorageFormatError", "SynthSpec",
    "WeightConfig", "backward_search", "bidirectional_search",
    "build_cluster_graph", "build_graph", "build_index", "build_store",
    "compare_precision", "estimate_memory", "expand_clusters",
    "generate_synthetic", "identity_clustering", "ingest", "ingest_to_store",
    "parse_schema", "prune_transitive", "score_tree", "single_phase_query",
    "tokenize", "two_phase_query", "write_store",
]
