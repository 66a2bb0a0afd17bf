"""Span recording around embanks' public functions, installed from outside.

Nothing in the package knows about tracing.  ``install`` rebinds the
module-level names that ``engine`` looks up at call time (its imported
helpers, the ``ALGORITHMS`` table, ``search.score_tree`` and a few
``ClusterStore``/``KeywordSets`` methods) to wrappers that record one span
per call; ``uninstall`` puts the originals back.  Spans stay in memory
until the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from embanks import engine, search, storage
from embanks.search import KeywordSets
from embanks.storage import ClusterStore

# Build stages, by the engine-level name they are called through.
BUILD_STAGES = {
    "engine.build_graph": "graph.build_graph_s",
    "engine.build_index": "keywords.build_index_s",
    "engine.write_tuple_graph": "storage.write_tuple_graph_s",
    "engine.write_keyword_index": "storage.write_keyword_index_s",
    "engine.run_clustering": "clustering.partition_s",
    "engine.build_cluster_graph": "clustering.contract_s",
    "engine.compute_cluster_metadata": "clustering.metadata_s",
    "engine.write_store": "storage.write_store_s",
}

# Per-query layer metrics: (name, unit); times are medians over traced
# queries, counts and fractions are means.
QUERY_LAYERS = [
    ("storage.open_ms", "ms"),
    ("storage.index_load_ms", "ms"),
    ("keywords.lookup_ms", "ms"),
    ("keywords.keyword_nodes", "count"),
    ("search.phase1_ms", "ms"),
    ("search.phase1_explored", "count"),
    ("search.phase1_explored_frac", "frac"),
    ("engine.core_clusters", "count"),
    ("engine.extra_clusters", "count"),
    ("engine.select_extra_ms", "ms"),
    ("storage.read_cluster_ms", "ms"),
    ("storage.cluster_misses", "count"),
    ("storage.cluster_hits", "count"),
    ("storage.bytes_read", "bytes"),
    ("storage.expand_ms", "ms"),
    ("storage.expanded_nodes", "count"),
    ("search.phase2_ms", "ms"),
    ("search.phase2_explored", "count"),
    ("search.phase2_explored_frac", "frac"),
    ("engine.refetch_rounds", "count"),
    ("engine.refetch_candidates_ms", "ms"),
    ("scoring.trees_scored", "count"),
    ("engine.self_ms", "ms"),
]

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    [(name, "s") for name in BUILD_STAGES.values()]
    + [("storage.files", "count"), ("storage.file_bytes", "bytes"),
       ("storage.disk_bytes", "bytes"), ("clustering.clusters", "count"),
       ("clustering.singletons", "count"), ("clustering.size_p50", "count")]
    + QUERY_LAYERS
    + [("search.answers_per_tree", "ratio"), ("quality.answer_overlap", "frac"),
       ("trace.overhead_frac", "ratio"),
       ("reference.single_phase_ms", "ms"),
       ("reference.single_phase_explored", "count")]
)


class Tracer:
    """In-memory span log plus per-query call counters.

    A span is ``[name, start, end, parent_index, query_id, attrs]``; the
    parent is the span open on the stack when the call began.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple, int] = defaultdict(int)
        self.query = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` with a span; ``after(state, args, result)`` adds attrs."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.query, None]
            state = before(args) if before else None
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[5] = after(state, args, out)
            return out
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.query, name)] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _set_item(self, table: dict, key, value) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = value

    def install(self) -> None:
        if self._undo:
            return
        for attr in ("ingest_to_store", "build_store", "build_graph",
                     "build_index", "write_tuple_graph", "write_keyword_index",
                     "read_tuple_graph", "run_clustering",
                     "build_cluster_graph", "compute_cluster_metadata",
                     "write_store", "refetch_candidates", "_run_phase2"):
            self._set(engine, attr,
                      self.wrap(f"engine.{attr}", getattr(engine, attr)))
        self._set(engine, "two_phase_query", self.wrap(
            "engine.two_phase_query", engine.two_phase_query,
            after=lambda _s, _a, r: {"core": len(r.core_clusters),
                                     "refetch": r.refetch_events}))
        self._set(engine, "select_extra_clusters", self.wrap(
            "engine.select_extra_clusters", engine.select_extra_clusters,
            after=lambda _s, _a, r: {"extra": len(r)}))
        self._set(engine, "expand_clusters", self.wrap(
            "engine.expand_clusters", engine.expand_clusters,
            after=lambda _s, _a, r: {"nodes": r.graph.node_count}))
        for key, fn in list(engine.ALGORITHMS.items()):
            self._set_item(engine.ALGORITHMS, key, self.wrap(
                f"search.{key}", fn,
                after=lambda _s, a, r: {"explored": r[1].nodes_explored,
                                        "nodes": a[0].node_count,
                                        "answers": len(r[0])}))
        self._set(search, "score_tree",
                  self.counter("scoring.trees_scored", search.score_tree))
        self._set(storage, "read_keyword_index", self.wrap(
            "storage.read_keyword_index", storage.read_keyword_index))
        self._set(KeywordSets, "from_index", classmethod(self.wrap(
            "KeywordSets.from_index", KeywordSets.from_index.__func__,
            after=lambda _s, _a, r: {"nodes": sum(len(s) for s in r.sets)})))
        self._set(ClusterStore, "open", classmethod(self.wrap(
            "ClusterStore.open", ClusterStore.open.__func__)))
        self._set(ClusterStore, "read_cluster", self.wrap(
            "ClusterStore.read_cluster", ClusterStore.read_cluster,
            before=lambda a: (a[0].clusters_read, a[0].bytes_read),
            after=lambda s, a, _r: {"miss": a[0].clusters_read - s[0],
                                    "bytes": a[0].bytes_read - s[1]}))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- output ----------------------------------------------------------

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["spans"] = [{"name": n, "start": s, "end": e, "parent": p,
                         "query": q, "attrs": a}
                        for n, s, e, p, q, a in self.spans]
        doc["counts"] = [{"query": q, "name": n, "count": c}
                         for (q, n), c in self.counts.items()]
        path.write_text(json.dumps(doc), encoding="utf-8")


# --- aggregation ------------------------------------------------------------

def _duration(rec) -> float:
    return rec[2] - rec[1]


def build_stage_seconds(tracer: Tracer, query) -> dict[str, float]:
    """Seconds per build stage for the spans of one build."""
    out = {metric: 0.0 for metric in BUILD_STAGES.values()}
    for rec in tracer.spans:
        if rec[4] == query and rec[0] in BUILD_STAGES:
            out[BUILD_STAGES[rec[0]]] += _duration(rec)
    return out


def query_layers(tracer: Tracer, query) -> dict[str, float]:
    """Layer numbers for one traced two-phase query."""
    spans = tracer.spans
    mine = [i for i, rec in enumerate(spans) if rec[4] == query]
    child_time: dict[int, float] = defaultdict(float)
    for i in mine:
        parent = spans[i][3]
        if parent is not None:
            child_time[parent] += _duration(spans[i])
    v = {name: 0.0 for name, _ in QUERY_LAYERS}
    p2_explored = p2_nodes = 0
    answers = 0
    for i in mine:
        name, start, end, parent, _q, attrs = spans[i]
        attrs = attrs or {}
        ms = 1000.0 * (end - start)
        pname = spans[parent][0] if parent is not None else None
        if name == "ClusterStore.open":
            v["storage.open_ms"] += ms
        elif name == "storage.read_keyword_index":
            v["storage.index_load_ms"] += ms
        elif name == "KeywordSets.from_index" and pname == "engine.two_phase_query":
            v["keywords.lookup_ms"] += ms
            v["keywords.keyword_nodes"] += attrs.get("nodes", 0)
        elif name.startswith("search."):
            answers += attrs.get("answers", 0)
            if pname == "engine.two_phase_query":
                v["search.phase1_ms"] += ms
                v["search.phase1_explored"] += attrs.get("explored", 0)
                v["search.phase1_explored_frac"] = \
                    attrs.get("explored", 0) / max(attrs.get("nodes", 1), 1)
            elif pname == "engine._run_phase2":
                v["search.phase2_ms"] += ms
                p2_explored += attrs.get("explored", 0)
                p2_nodes += attrs.get("nodes", 0)
        elif name == "engine.select_extra_clusters":
            v["engine.select_extra_ms"] += ms
            v["engine.extra_clusters"] += attrs.get("extra", 0)
        elif name == "ClusterStore.read_cluster" and attrs:
            v["storage.read_cluster_ms"] += ms
            v["storage.cluster_misses"] += attrs["miss"]
            v["storage.cluster_hits"] += 1 - attrs["miss"]
            v["storage.bytes_read"] += attrs["bytes"]
        elif name == "engine.expand_clusters":
            v["storage.expand_ms"] += ms - 1000.0 * child_time[i]
            v["storage.expanded_nodes"] = attrs.get("nodes", 0)
        elif name == "engine.refetch_candidates":
            v["engine.refetch_candidates_ms"] += ms
        elif name == "engine.two_phase_query":
            v["engine.self_ms"] += ms - 1000.0 * child_time[i]
            v["engine.core_clusters"] = attrs.get("core", 0)
            v["engine.refetch_rounds"] = attrs.get("refetch", 0)
    v["search.phase2_explored"] = p2_explored
    v["search.phase2_explored_frac"] = p2_explored / p2_nodes if p2_nodes else 0.0
    v["scoring.trees_scored"] = tracer.counts.get((query, "scoring.trees_scored"), 0)
    v["_answers"] = answers
    return v


def summarize_queries(per_query: list[dict]) -> dict[str, float]:
    """Median of times, mean of counts, across traced queries."""
    out = {}
    for name, unit in QUERY_LAYERS:
        values = [q[name] for q in per_query]
        if not values:
            out[name] = 0.0
        elif unit == "ms":
            out[name] = statistics.median(values)
        else:
            out[name] = statistics.fmean(values)
    trees = sum(q["scoring.trees_scored"] for q in per_query)
    answers = sum(q["_answers"] for q in per_query)
    out["search.answers_per_tree"] = answers / trees if trees else 0.0
    return out
