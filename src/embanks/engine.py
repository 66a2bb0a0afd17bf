"""Two-phase keyword queries over a disk-backed cluster store.

Phase one runs a ranked search on the small cluster-level graph to learn
which clusters can participate in good answers.  Those clusters are read
from disk (plus optional extras under a byte budget), stitched into a
node-level subgraph, and phase two runs the real search there.  If the
ranked scores collapse too quickly the engine fetches more clusters and
repeats phase two.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# compute_cluster_metadata is unused here; bench/spans.py wraps it by this name.
from .clustering import (CLUSTER_ALGORITHMS, ClusteringError, WeightConfig,
                         build_cluster_graph, compute_cluster_metadata)  # noqa: F401
from .graph import DataGraph, NodeMeta, build_graph, parse_schema
from .keywords import KeywordIndex, build_index
from .scoring import AnswerTree, ScoreConfig, ScoredAnswer, is_acceptable
from .search import (COMBOS_ALL, KeywordSets, SearchConfig, SearchStats,
                     backward_search, bidirectional_search)
from .storage import (CLUSTERS_FILE, GRAPH_FILE, INDEX_FILE, TUPLES_FILE,
                      ClusterStore, ExpandedGraph, expand_clusters,
                      read_tuple_graph, write_keyword_index, write_store,
                      write_tuple_graph)

ALGORITHMS = {
    "backward": backward_search,
    "bidi": bidirectional_search,
}

EXTRA_NONE = "none"
EXTRA_KEYWORD = "keyword"
EXTRA_KEYWORD_FILL = "keyword-fill"
EXTRA_POLICIES = (EXTRA_NONE, EXTRA_KEYWORD, EXTRA_KEYWORD_FILL)


@dataclass
class EngineConfig:
    k: int = 10
    phase1_limit: int = 100
    phase1_algorithm: str = "backward"
    phase2_algorithm: str = "backward"
    gamma: float = 0.5
    budget: int = 1_000_000
    extra_policy: str = EXTRA_KEYWORD
    max_refetch: int = 3
    score: ScoreConfig = field(default_factory=ScoreConfig)
    attenuation: float = 0.5
    combos: str = COMBOS_ALL
    seed: int = 0

    def phase1_search(self) -> SearchConfig:
        base = SearchConfig(k=self.k, score=self.score,
                            attenuation=self.attenuation, combos=self.combos)
        return base.for_phase1(self.phase1_limit)

    def phase2_search(self) -> SearchConfig:
        return SearchConfig(k=self.k, score=self.score, steiner_filter=True,
                            attenuation=self.attenuation, combos=self.combos)


@dataclass
class QueryResult:
    answers: list[ScoredAnswer]        # trees over original node ids
    stats: SearchStats                 # both phases plus disk traffic
    phase1_stats: SearchStats
    phase2_stats: SearchStats
    core_clusters: tuple[int, ...]
    expanded_clusters: tuple[int, ...]
    refetch_events: int


# --- store construction -----------------------------------------------------

def ingest_to_store(schema_path: str | Path, data_dir: str | Path,
                    store_dir: str | Path,
                    prune: bool = True) -> tuple[DataGraph, NodeMeta, list[str]]:
    """Write the tuple graph and keyword index, deleting any older cluster store."""
    spec = parse_schema(schema_path)
    g, meta, warnings = build_graph(spec, data_dir, prune=prune)
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    for name in (GRAPH_FILE, CLUSTERS_FILE):
        (store_dir / name).unlink(missing_ok=True)
    write_tuple_graph(store_dir / TUPLES_FILE, g, meta)
    write_keyword_index(store_dir / INDEX_FILE, build_index(meta))
    return g, meta, warnings


def run_clustering(g: DataGraph, algorithm: str, max_size: int, seed: int = 0):
    if algorithm not in CLUSTER_ALGORITHMS:
        raise ClusteringError(f"unknown clustering algorithm {algorithm!r}")
    fn = CLUSTER_ALGORITHMS[algorithm]
    if algorithm in ("greedymin", "connection"):
        return fn(g, max_size, random.Random(seed))
    return fn(g, max_size)


def build_store(store_dir: str | Path, algorithm: str = "close1",
                max_size: int = 100, wcfg: WeightConfig | None = None,
                seed: int = 0) -> dict:
    """Cluster the stored tuple graph and write the full cluster store."""
    store_dir = Path(store_dir)
    g, _ = read_tuple_graph(store_dir / TUPLES_FILE)
    clustering = run_clustering(g, algorithm, max_size, seed)
    cluster_graph = build_cluster_graph(g, clustering, wcfg)
    write_store(store_dir, g, clustering, cluster_graph)
    return {
        "nodes": g.node_count,
        "links": g.slot_count // 2,
        "clusters": clustering.cluster_count,
        "superedges": cluster_graph.graph.slot_count // 2,
        "algorithm": algorithm,
    }


# --- cluster selection --------------------------------------------------------

def gamma_trigger(scores: list[float], gamma: float) -> bool:
    """True when some consecutive ranked score drops to gamma times the last."""
    for a, b in zip(scores, scores[1:]):
        if a > 0 and b <= gamma * a:
            return True
    return False


def _budget_fill(store: ClusterStore, candidates: list[int], budget: int) -> list[int]:
    chosen = []
    left = budget
    for c in candidates:
        cost = store.cluster_cost(c)
        if cost <= left:
            chosen.append(c)
            left -= cost
    return chosen


def select_extra_clusters(store: ClusterStore, core: set[int],
                          keyword_clusters: list[int], policy: str,
                          budget: int, rng: random.Random) -> list[int]:
    """Clusters fetched beyond the phase-1 core, kept inside the budget."""
    if policy == EXTRA_NONE:
        return []
    if policy not in EXTRA_POLICIES:
        raise ValueError(f"unknown extra-cluster policy {policy!r}")
    want = [c for c in keyword_clusters if c not in core]
    if policy == EXTRA_KEYWORD_FILL:
        total = sum(store.cluster_cost(c) for c in want)
        if total > budget:
            rng.shuffle(want)
    return _budget_fill(store, want, budget)


def _adjacent_clusters(store: ClusterStore, have: set[int]) -> list[int]:
    g = store.cluster_graph.graph
    out = set()
    for c in have:
        for j in g.slots(c):
            out.add(int(g.adjacent_nodes[j]))
    return sorted(out - have)


def refetch_candidates(store: ClusterStore, have: set[int],
                       keyword_clusters: list[int], budget: int) -> list[int]:
    """Growth set for one refetch event: keyword clusters, then neighbors."""
    ordered = [c for c in keyword_clusters if c not in have]
    skip = set(ordered)
    ordered += [c for c in _adjacent_clusters(store, have) if c not in skip]
    return _budget_fill(store, ordered, budget)


# --- the two phases -----------------------------------------------------------

def _remap_answer(a: ScoredAnswer, global_ids) -> ScoredAnswer:
    t = a.tree
    tree = AnswerTree(
        root=int(global_ids[t.root]),
        edges=tuple(sorted((int(global_ids[u]), int(global_ids[v]), w)
                           for u, v, w in t.edges)),
        keyword_nodes=tuple(int(global_ids[n]) for n in t.keyword_nodes),
    )
    return ScoredAnswer(tree, a.node_score, a.edge_score, a.score)


def _run_phase2(sub: ExpandedGraph, node_sets: KeywordSets, algorithm,
                cfg: SearchConfig) -> tuple[list[ScoredAnswer], SearchStats]:
    local_sets = node_sets.restrict(sub.global_to_local)
    return algorithm(sub.graph, local_sets, cfg)


def two_phase_query(store: ClusterStore, terms: list[str],
                    cfg: EngineConfig | None = None) -> QueryResult:
    cfg = cfg or EngineConfig()
    start = time.perf_counter()
    node_sets = KeywordSets.from_index(store.keyword_index(), terms)
    mapping = store.clustering.node_mapping
    cluster_sets = KeywordSets(
        list(terms),
        [frozenset(int(mapping[n]) for n in s) for s in node_sets.sets])
    keyword_clusters = sorted({c for s in cluster_sets.sets for c in s})

    algo1 = ALGORITHMS[cfg.phase1_algorithm]
    algo2 = ALGORITHMS[cfg.phase2_algorithm]
    p1_answers, p1_stats = algo1(store.cluster_graph.graph, cluster_sets,
                                 cfg.phase1_search())
    core = sorted({c for a in p1_answers for c in a.tree.nodes})
    if not core:
        core = list(keyword_clusters)

    read_clusters0 = store.clusters_read
    read_bytes0 = store.bytes_read
    rng = random.Random(cfg.seed)
    extras = select_extra_clusters(store, set(core), keyword_clusters,
                                   cfg.extra_policy, cfg.budget, rng)
    sub = expand_clusters(store, set(core) | set(extras))
    p2cfg = cfg.phase2_search()
    answers, p2_stats = _run_phase2(sub, node_sets, algo2, p2cfg)

    refetch_events = 0
    while refetch_events < cfg.max_refetch:
        if not gamma_trigger([a.score for a in answers], cfg.gamma):
            break
        new = refetch_candidates(store, set(sub.clusters), keyword_clusters,
                                 cfg.budget)
        if not new:
            break
        refetch_events += 1
        sub = expand_clusters(store, set(sub.clusters) | set(new))
        answers, more = _run_phase2(sub, node_sets, algo2, p2cfg)
        p2_stats = p2_stats + more

    final = [_remap_answer(a, sub.global_ids) for a in answers]
    final.sort(key=lambda a: a.sort_key())
    stats = p1_stats + p2_stats
    stats.clusters_read = store.clusters_read - read_clusters0
    stats.bytes_read = store.bytes_read - read_bytes0
    stats.elapsed = time.perf_counter() - start
    stats.answers_emitted = len(final)
    return QueryResult(final, stats, p1_stats, p2_stats, tuple(core),
                       sub.clusters, refetch_events)


def single_phase_query(g: DataGraph, index: KeywordIndex, terms: list[str],
                       algorithm: str = "backward",
                       cfg: SearchConfig | None = None
                       ) -> tuple[list[ScoredAnswer], SearchStats]:
    """Reference search over the whole node-level graph, no store involved."""
    ks = KeywordSets.from_index(index, terms)
    return ALGORITHMS[algorithm](g, ks, cfg or SearchConfig())


# --- result comparison ----------------------------------------------------------

@dataclass
class PrecisionReport:
    overlap: float     # fraction of reference answers reproduced exactly
    acceptable: int    # answers no worse than the reference top list
    answers: int

    def line(self) -> str:
        return (f"overlap={self.overlap:.3f} "
                f"acceptable={self.acceptable}/{self.answers}")


def compare_precision(answers: list[ScoredAnswer],
                      reference: list[ScoredAnswer]) -> PrecisionReport:
    if not reference:
        return PrecisionReport(1.0 if not answers else 0.0, len(answers),
                               len(answers))
    ref_shapes = {a.tree.shape_key() for a in reference}
    got_shapes = {a.tree.shape_key() for a in answers}
    overlap = len(ref_shapes & got_shapes) / len(ref_shapes)
    acceptable = sum(1 for a in answers if is_acceptable(a.tree, reference))
    return PrecisionReport(overlap, acceptable, len(answers))
