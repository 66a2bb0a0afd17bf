"""Command-line interface.

Structured results go to stdout and are deterministic for a given store
and arguments; progress and statistics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .clustering import (CLUSTER_ALGORITHMS, EDGE_HARMONIC_MEAN,
                         EDGE_INVERSE_SUM, EDGE_MIN, PRESTIGE_AVG,
                         PRESTIGE_MAX, PRESTIGE_SUM, WeightConfig)
from .engine import (ALGORITHMS, EXTRA_POLICIES, EngineConfig, build_store,
                     compare_precision, ingest_to_store, single_phase_query,
                     two_phase_query)
from .graph import GraphError, build_graph, parse_schema
from .keywords import build_index, tokenize
from .scoring import ScoredAnswer
from .search import COMBOS, NoMatchError, SearchConfig, SearchStats
from .storage import (ClusterStore, StorageError, read_tuple_graph,
                      value_index_width)
from .synth import SynthSpec, generate_synthetic

_EDGE_COMBINERS = {
    "invsum": EDGE_INVERSE_SUM,
    "harmonic": EDGE_HARMONIC_MEAN,
    "min": EDGE_MIN,
}
_PRESTIGE_COMBINERS = {
    "sum": PRESTIGE_SUM,
    "max": PRESTIGE_MAX,
    "avg": PRESTIGE_AVG,
}


def _print_answers(answers: list[ScoredAnswer]) -> None:
    for rank, a in enumerate(answers, 1):
        edges = ",".join(f"{u}->{v}:{w:g}" for u, v, w in a.tree.edges) or "-"
        kw = ",".join(str(n) for n in a.tree.keyword_nodes)
        print(f"{rank}\t{a.score:.9f}\t{a.tree.root}\t{kw}\t{edges}")


def _print_stats(label: str, stats: SearchStats) -> None:
    print(f"{label}: touched={stats.nodes_touched} "
          f"explored={stats.nodes_explored} "
          f"answers={stats.answers_emitted} "
          f"clusters_read={stats.clusters_read} "
          f"bytes_read={stats.bytes_read} "
          f"stopped={stats.stopped} "
          f"elapsed={stats.elapsed:.3f}s", file=sys.stderr)


def _terms(text: str) -> list[str]:
    terms = tokenize(text)
    if not terms:
        raise NoMatchError(text)
    return terms


def cmd_ingest(args) -> int:
    g, _, warnings = ingest_to_store(args.schema, args.data, args.out,
                                     prune=not args.no_prune)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"nodes={g.node_count}\tlinks={g.slot_count // 2}\tstore={args.out}")
    return 0


def cmd_cluster(args) -> int:
    wcfg = WeightConfig(_EDGE_COMBINERS[args.edge_combiner],
                        _PRESTIGE_COMBINERS[args.prestige])
    info = build_store(args.store, args.algo, args.size, wcfg, args.seed)
    print(f"clusters={info['clusters']}\tsuperedges={info['superedges']}\t"
          f"algo={info['algorithm']}")
    return 0


def _engine_config(args) -> EngineConfig:
    return EngineConfig(
        k=args.k, phase1_limit=args.limit,
        phase1_algorithm=args.algo1, phase2_algorithm=args.algo2,
        gamma=args.gamma, budget=args.budget, extra_policy=args.extra,
        combos=args.combos)


def cmd_query(args) -> int:
    cfg = _engine_config(args)
    store = ClusterStore.open(args.store)
    result = two_phase_query(store, _terms(args.terms), cfg)
    _print_answers(result.answers)
    if args.stats:
        _print_stats("phase1", result.phase1_stats)
        _print_stats("phase2", result.phase2_stats)
        _print_stats("total", result.stats)
        print(f"clusters: core={len(result.core_clusters)} "
              f"expanded={len(result.expanded_clusters)} "
              f"refetches={result.refetch_events}", file=sys.stderr)
    return 0


def cmd_baseline(args) -> int:
    cfg = SearchConfig(k=args.k, combos=args.combos)
    schema = args.schema or str(Path(args.data) / "schema.txt")
    g, meta, warnings = build_graph(parse_schema(schema), args.data)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    answers, stats = single_phase_query(g, build_index(meta),
                                        _terms(args.terms), args.algo, cfg)
    _print_answers(answers)
    if args.stats:
        _print_stats("search", stats)
    return 0


def cmd_compare(args) -> int:
    cfg = _engine_config(args)
    store = ClusterStore.open(args.store)
    g = read_tuple_graph(store.dir)
    index = store.keyword_index()
    for line in Path(args.queries).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms = tokenize(line)
        try:
            result = two_phase_query(store, terms, cfg)
            reference, _ = single_phase_query(
                g, index, terms, args.algo2,
                SearchConfig(k=args.k, combos=args.combos))
        except NoMatchError as exc:
            print(f"{' '.join(terms)}\tno-match={exc.term}")
            continue
        report = compare_precision(result.answers, reference)
        print(f"{' '.join(terms)}\t{report.line()}")
    return 0


def cmd_inspect(args) -> int:
    """One JSON line: each file's bytes, the length of each value table,
    each integer column's stored width (per record columns, how many
    records store it in each width; a record's prestige and weight indexes
    share one width), and the clusters' count, singletons and size
    histogram."""
    store = ClusterStore.open(args.store)
    h, cg = store.header, store.cluster_graph
    index = store.keyword_index()
    records = [store.read_cluster(c) for c in range(store.cluster_count)]
    offset = store.clustering.cluster_offset.tolist()
    sizes = Counter(b - a for a, b in zip(offset, offset[1:]))

    def histogram(column: str) -> dict:
        return {str(w): n for w, n in sorted(Counter(
            getattr(r, column).dtype.itemsize for r in records).items())}

    print(json.dumps({
        "files": {p.name: p.stat().st_size
                  for p in sorted(store.dir.iterdir()) if p.is_file()},
        "values": {"prestige": len(h.prestige_values),
                   "weight": len(h.weight_values)},
        "widths": {
            "graph": {
                "prestige_index": value_index_width(h.prestige_values, cg.prestige),
                "edge_weight_index": value_index_width(h.weight_values,
                                                       cg.edge_weight),
                **{name: a.dtype.itemsize for name, a in (
                    ("adjacency_offset", cg.adjacency_offset),
                    ("adjacent_nodes", cg.adjacent_nodes),
                    ("pair_slot", cg.pair_slot),
                    ("node_order", store.clustering.node_order),
                    ("cluster_offset", store.clustering.cluster_offset),
                    ("intra_links", h.intra_links),
                    ("crossing_links", h.crossing_links),
                    ("record_offset", h.record_offset))}},
            "records": {"src": histogram("src"), "dst": histogram("dst"),
                        "pos": histogram("pos"),
                        "value_index": histogram("prestige_index")},
            "index": {"offsets": index.offsets.dtype.itemsize,
                      "ids": index.ids.dtype.itemsize}},
        "clusters": store.cluster_count,
        "singletons": sizes[1],
        "cluster_sizes": {str(n): c for n, c in sorted(sizes.items())},
    }))
    return 0


def cmd_synth(args) -> int:
    info = generate_synthetic(SynthSpec.from_json(args.spec), args.out)
    print(f"tuples={info['tuples']}\tpaper={info['paper']}\t"
          f"author={info['author']}\twrites={info['writes']}\t"
          f"cites={info['cites']}")
    return 0


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=10, help="answers to return")
    p.add_argument("--limit", type=int, default=100,
                   help="phase-1 answer limit")
    p.add_argument("--gamma", type=float, default=0.5,
                   help="score-drop refetch trigger")
    p.add_argument("--budget", type=int, default=1_000_000,
                   help="extra-cluster byte budget")
    p.add_argument("--algo1", choices=sorted(ALGORITHMS), default="backward",
                   help="phase-1 algorithm")
    p.add_argument("--algo2", choices=sorted(ALGORITHMS), default="backward",
                   help="phase-2 algorithm")
    p.add_argument("--extra", choices=EXTRA_POLICIES, default="keyword",
                   help="extra-cluster policy")
    _add_combos_flag(p)
    p.add_argument("--stats", action="store_true",
                   help="print search statistics to stderr")


def _add_combos_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--combos", choices=COMBOS, default=SearchConfig.combos,
                   help="answers per root of a backward search: 'best' "
                        "joins each term's nearest keyword node; 'all' tries "
                        "every combination (BANKS-I, far slower on frequent "
                        "words); bidi ignores it and runs as 'best'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embanks",
        description="Disk-backed keyword search over relational data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load tables into a store directory")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-prune", action="store_true",
                   help="keep key-only relation nodes")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="cluster a store's tuple graph")
    p.add_argument("--store", required=True)
    p.add_argument("--algo", choices=sorted(CLUSTER_ALGORITHMS),
                   default="close1")
    p.add_argument("--size", type=int, default=100,
                   help="max nodes per cluster")
    p.add_argument("--edge-combiner", choices=sorted(_EDGE_COMBINERS),
                   default="invsum")
    p.add_argument("--prestige", choices=sorted(_PRESTIGE_COMBINERS),
                   default="sum")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("query", help="two-phase search against a store")
    p.add_argument("--store", required=True)
    _add_query_flags(p)
    p.add_argument("terms", help="space-separated keywords")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("baseline", help="single-phase search over raw tables")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None,
                   help="defaults to <data>/schema.txt")
    p.add_argument("--algo", choices=sorted(ALGORITHMS), default="backward")
    p.add_argument("--k", type=int, default=10)
    _add_combos_flag(p)
    p.add_argument("--stats", action="store_true")
    p.add_argument("terms", help="space-separated keywords")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("compare",
                       help="two-phase vs single-phase answer quality")
    p.add_argument("--store", required=True)
    p.add_argument("--queries", required=True,
                   help="file with one query per line")
    _add_query_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect",
                       help="file bytes, column widths and cluster sizes of a store, as JSON")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True, help="JSON size spec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoMatchError as exc:
        print(f"error: no match for keyword {exc.term!r}", file=sys.stderr)
        return 1
    except (GraphError, StorageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
