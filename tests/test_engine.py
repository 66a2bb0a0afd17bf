"""Two-phase query orchestration over a cluster store."""

import hashlib
import mmap
import os
import random

import numpy as np
import pytest

import embanks
from embanks.engine import (EngineConfig, PrecisionReport, _budget_fill,
                            build_store, compare_precision, gamma_trigger,
                            ingest_to_store, refetch_candidates,
                            select_extra_clusters, single_phase_query,
                            two_phase_query)
from embanks.clustering import WeightConfig
from embanks.graph import GraphBuilder, NodeMeta, build_graph, parse_schema
from embanks.keywords import build_index
from embanks.scoring import AnswerTree, ScoredAnswer
from embanks.synth import (SynthSpec, generate_synthetic, high_pair,
                           low_pair)
from embanks.search import (COMBOS, COMBOS_BEST, KeywordSets, NoMatchError,
                            SearchConfig, backward_search)
from embanks.storage import (GRAPH_FILE, INDEX_FILE, ClusterStore,
                             expand_clusters, read_tuple_graph,
                             write_keyword_index, write_tuple_graph)

from conftest import WEIGHT_GRID, answers_digest, random_graph


TWO = ["graph.emb", "index.kwi"]


def make_store(rng, store_dir, n=40, algorithm="close1", max_size=4,
               planted=("alpha", "beta"), weights=WEIGHT_GRID, connected=True):
    """A store over a random graph whose node texts carry known terms."""
    g = random_graph(rng, n, extra_links=rng.randint(2, n // 2),
                     connected=connected, weights=weights)
    texts = [f"row{i} shared" for i in range(n)]
    marks = rng.sample(range(n), len(planted))
    for term, node in zip(planted, marks):
        texts[node] += f" {term}"
    meta = NodeMeta(["rel"], np.zeros(n, dtype=np.uint16), texts,
                    [str(i) for i in range(n)])
    store_dir.mkdir(parents=True, exist_ok=True)
    write_tuple_graph(store_dir, g)
    write_keyword_index(store_dir / INDEX_FILE, build_index(meta))
    summary = build_store(store_dir, algorithm, max_size, seed=3)
    return g, meta, summary, ClusterStore.open(store_dir)


def test_gamma_trigger_cases():
    assert gamma_trigger([10.0, 4.0], 0.5)
    assert not gamma_trigger([10.0, 6.0], 0.5)
    assert not gamma_trigger([], 0.5)
    assert not gamma_trigger([5.0], 0.5)
    assert not gamma_trigger([10.0, 0.001], 0.0)
    assert not gamma_trigger([5.0, 5.0], 1.0)       # a tie is no drop
    assert gamma_trigger([5.0, 5.0], 1.5)
    assert not gamma_trigger([0.0, 0.0], 1.0)
    assert gamma_trigger([9.0, 8.0, 1.0], 0.25)



def test_configs_reject_nonpositive_k_and_limit():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="k must be at least 1"):
            SearchConfig(k=bad)
        with pytest.raises(ValueError, match="k must be at least 1"):
            EngineConfig(k=bad)
        with pytest.raises(ValueError, match="limit must be at least 1"):
            EngineConfig(phase1_limit=bad)
        with pytest.raises(ValueError, match="k must be at least 1"):
            SearchConfig().for_phase1(bad)
    assert EngineConfig(k=1, phase1_limit=1).phase1_search().k == 1


def test_configs_reject_unknown_combos():
    for bad in ("bset", "", "ALL"):
        with pytest.raises(ValueError, match=f"unknown combos {bad!r}"):
            SearchConfig(combos=bad)
        with pytest.raises(ValueError, match=f"unknown combos {bad!r}"):
            EngineConfig(combos=bad)


@pytest.mark.parametrize("phase", [1, 2])
def test_engine_config_rejects_unknown_algorithm(phase):
    with pytest.raises(ValueError, match=f"unknown phase-{phase} algorithm 'dfs'"):
        EngineConfig(**{f"phase{phase}_algorithm": "dfs"})


@pytest.mark.parametrize("field", ["budget", "max_refetch"])
def test_engine_config_rejects_negative_budget_and_refetch(field):
    with pytest.raises(ValueError, match="must be nonnegative, got -1"):
        EngineConfig(**{field: -1})
    assert getattr(EngineConfig(**{field: 0}), field) == 0


def test_engine_config_rejects_unknown_extra_policy():
    with pytest.raises(ValueError, match="unknown extra-cluster policy 'all'"):
        EngineConfig(extra_policy="all")


def test_budget_fill_skips_too_expensive(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=30, max_size=3)
    costs = [store.cluster_cost(c) for c in range(store.cluster_count)]
    budget = costs[0] + costs[2]
    if costs[1] > costs[2]:
        chosen = _budget_fill(store, [0, 1, 2], budget)
        assert 0 in chosen and 2 in chosen and 1 not in chosen
    total = sum(costs)
    assert _budget_fill(store, list(range(store.cluster_count)), total) == \
        list(range(store.cluster_count))
    assert _budget_fill(store, list(range(store.cluster_count)), 0) == []


def test_select_extra_clusters_policies(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=36, max_size=3)
    keyword_clusters = [0, 2, 5]
    core = {2}
    assert select_extra_clusters(store, core, keyword_clusters, "none",
                                 10 ** 9) == []
    got = select_extra_clusters(store, core, keyword_clusters, "keyword",
                                10 ** 9)
    assert got == [0, 5]
    assert select_extra_clusters(store, core, keyword_clusters, "keyword",
                                 0) == []
    with pytest.raises(ValueError):
        select_extra_clusters(store, core, keyword_clusters, "everything",
                              10 ** 9)


def test_refetch_candidates_order_and_dedup(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=36, max_size=3)
    have = {0}
    g = store.cluster_graph
    adjacent = sorted({v for _, v, _ in g.out_edges(0)} - have)
    kw = [adjacent[0], 0] if adjacent else [0]
    got = refetch_candidates(store, have, kw, 10 ** 9)
    assert len(got) == len(set(got))
    expected = [c for c in kw if c not in have]
    expected += [c for c in adjacent if c not in expected]
    assert got == expected
    assert refetch_candidates(store, have, kw, 0) == []


def test_singleton_store_matches_single_phase(rng, tmp_path):
    g, meta, _, store = make_store(rng, tmp_path, n=25, max_size=1)
    cfg = EngineConfig(k=10, phase1_limit=10 ** 4, extra_policy="none",
                       gamma=0.0)
    result = two_phase_query(store, ["alpha", "beta"], cfg)
    ref, _ = single_phase_query(g, build_index(meta), ["alpha", "beta"],
                                "backward", SearchConfig(k=10))
    assert [a.score for a in result.answers] == [a.score for a in ref]
    assert [a.tree.shape_key() for a in result.answers] == \
        [a.tree.shape_key() for a in ref]


def test_extra_policy_none_expands_core_only(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=30, max_size=3)
    cfg = EngineConfig(extra_policy="none", gamma=0.0)
    result = two_phase_query(store, ["alpha", "beta"], cfg)
    assert result.expanded_clusters == tuple(sorted(result.core_clusters))
    assert result.refetch_events == 0


def test_keyword_policy_fetches_missing_keyword_clusters(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=30, max_size=3)
    cfg = EngineConfig(extra_policy="keyword", gamma=0.0, budget=10 ** 9)
    result = two_phase_query(store, ["alpha", "beta"], cfg)
    mapping = store.clustering.node_mapping
    index = store.keyword_index()
    for term in ("alpha", "beta"):
        for node in index.lookup(term):
            assert int(mapping[node]) in result.expanded_clusters


def test_budget_limits_extra_clusters(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=40, max_size=3)
    budget = min(store.cluster_cost(c) for c in range(store.cluster_count))
    cfg = EngineConfig(extra_policy="keyword", gamma=0.0, budget=budget)
    result = two_phase_query(store, ["alpha", "beta"], cfg)
    extra = set(result.expanded_clusters) - set(result.core_clusters)
    assert sum(store.cluster_cost(c) for c in extra) <= budget


def test_gamma_refetch_caps_and_converges(rng, tmp_path):
    """Gamma 2 refetches after any two ranked answers, ties included."""
    g, meta, _, store = make_store(rng, tmp_path, n=30, max_size=3)
    capped = EngineConfig(extra_policy="none", gamma=2.0, max_refetch=1,
                          budget=10 ** 9)
    result = two_phase_query(store, ["shared", "alpha"], capped)
    assert result.refetch_events <= 1
    if result.refetch_events:
        assert set(result.expanded_clusters) > set(result.core_clusters)

    exhaustive = EngineConfig(extra_policy="none", gamma=2.0,
                              max_refetch=10 ** 3, budget=10 ** 9)
    result = two_phase_query(store, ["alpha", "beta"], exhaustive)
    if len(result.expanded_clusters) == store.cluster_count:
        ref, _ = single_phase_query(g, build_index(meta), ["alpha", "beta"],
                                    "backward", SearchConfig(k=10))
        assert [a.score for a in result.answers] == [a.score for a in ref]
        assert {a.tree.shape_key() for a in result.answers} == \
            {a.tree.shape_key() for a in ref}


def test_refetch_rounds_count_the_last_search_answers(rng, tmp_path):
    """After refetch rounds, phase 2 reports the answers of its last search,
    which are the answers returned, not a sum over rounds."""
    refetched = 0
    for i in range(5):
        _, _, _, store = make_store(rng, tmp_path / str(i), n=30,
                                    max_size=3,
                                    planted=("alpha", "beta", "alpha", "beta"))
        cfg = EngineConfig(extra_policy="none", gamma=2.0, budget=10 ** 9)
        result = two_phase_query(store, ["alpha", "beta"], cfg)
        if result.refetch_events:
            refetched += 1
            assert result.phase2_stats.answers_emitted == len(result.answers)
    assert refetched


def test_answers_remap_to_original_nodes(rng, tmp_path):
    g, meta, _, store = make_store(rng, tmp_path, n=30, max_size=3)
    result = two_phase_query(store, ["alpha", "beta"], EngineConfig())
    index = build_index(meta)
    assert result.answers
    assert result.answers == sorted(result.answers,
                                    key=lambda a: a.sort_key())
    links = {}
    for u, v, wf, wb in g.links():
        links.setdefault((u, v), set()).add(wf)
        links.setdefault((v, u), set()).add(wb)
    for a in result.answers:
        assert all(0 <= x < g.node_count for x in a.tree.nodes)
        for u, v, w in a.tree.edges:
            assert w in links[(u, v)]
        for term, node in zip(["alpha", "beta"], a.tree.keyword_nodes):
            assert node in index.lookup(term)


# integer weights, as synth data has: distances, labels and roots tie often
TIED_WEIGHTS = ([2.0], [1.0, 2.0], [1.0, 2.0, 3.0])
TIED_TERMS = ("alpha", "beta", "alpha", "beta", "alpha", "beta")


def answer_rows(answers):
    return [(a.tree.identity_key(), a.tree.keyword_nodes, a.score)
            for a in answers]


def induced_search(g, ids, ks, cfg):
    """``backward_search`` on the subgraph of ``g`` induced by the ascending
    node ids ``ids``, renumbered in their order: its ``answer_rows`` over
    the ids of ``g``, and its stats."""
    local = {node: i for i, node in enumerate(ids)}
    b = GraphBuilder()
    b.add_nodes(g.prestige[ids])
    links = [(local[u], local[v], wf, wb) for u, v, wf, wb in g.links()
             if u in local and v in local]
    if links:
        b.add_links(*zip(*links))
    sets = [frozenset(local[n] for n in s if n in local) for s in ks.sets]
    answers, stats = backward_search(b.build(), KeywordSets(ks.terms, sets), cfg)
    rows = []
    for a in answers:
        t = a.tree
        edges = tuple(sorted((ids[u], ids[v], w) for u, v, w in t.edges))
        rows.append(((ids[t.root], edges), tuple(ids[n] for n in t.keyword_nodes),
                     a.score))
    return rows, stats


def test_backward_phase2_is_the_search_on_its_induced_subgraph(tmp_path):
    """With tied integer weights, backward phase 2 returns exactly what
    ``backward_search`` returns on the expanded clusters' induced subgraph
    numbered in ascending node id, settling as many nodes."""
    checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        g, meta, _, store = make_store(
            rng, tmp_path / str(seed), n=rng.randint(8, 30),
            max_size=rng.randint(2, 8), planted=TIED_TERMS,
            weights=rng.choice(TIED_WEIGHTS))
        ks = KeywordSets.from_index(build_index(meta), ["alpha", "beta"])
        for combos in COMBOS:
            for k in (1, 10):
                cfg = EngineConfig(k=k, combos=combos)
                r = two_phase_query(store, ["alpha", "beta"], cfg)
                ids = sorted(int(n) for c in r.expanded_clusters
                             for n in store.clustering.members(c))
                want, stats = induced_search(g, ids, ks, cfg.phase2_search())
                assert answer_rows(r.answers) == want, (seed, combos, k)
                if not r.refetch_events:
                    assert (r.phase2_stats.nodes_explored,
                            r.phase2_stats.stopped) == \
                        (stats.nodes_explored, stats.stopped)
                checked += 1
    assert checked == 400


def test_whole_component_clusters_give_single_phase_answers(tmp_path):
    """When every cluster is a whole connected component, two-phase
    backward search returns exactly the single-phase answers."""
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(8, 30)
        g, meta, _, store = make_store(
            rng, tmp_path / str(seed), n=n, max_size=n, planted=TIED_TERMS,
            weights=rng.choice(TIED_WEIGHTS), connected=False)
        mapping = store.clustering.node_mapping
        assert all(mapping[u] == mapping[v] for u, v, _, _ in g.links())
        index = build_index(meta)
        for combos in COMBOS:
            for k in (1, 10):
                r = two_phase_query(store, ["alpha", "beta"],
                                    EngineConfig(k=k, combos=combos))
                ref, _ = single_phase_query(g, index, ["alpha", "beta"],
                                            "backward",
                                            SearchConfig(k=k, combos=combos))
                assert answer_rows(r.answers) == answer_rows(ref), (seed, combos, k)


def test_bidi_whole_component_clusters_give_single_phase_answers(tmp_path):
    """When every cluster is a whole connected component, two-phase
    ``bidi`` search returns exactly the single-phase ``bidi`` answers:
    phase 2 lays out every node's slots in the tuple graph's order, which
    bidirectional search follows."""
    cfg = dict(phase1_algorithm="bidi", phase2_algorithm="bidi")
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(8, 30)
        g, meta, _, store = make_store(
            rng, tmp_path / str(seed), n=n, max_size=n, planted=TIED_TERMS,
            weights=rng.choice(TIED_WEIGHTS), connected=False)
        index = build_index(meta)
        for k in (1, 10):
            r = two_phase_query(store, ["alpha", "beta"], EngineConfig(k=k, **cfg))
            ref, _ = single_phase_query(g, index, ["alpha", "beta"], "bidi",
                                        SearchConfig(k=k))
            assert answer_rows(r.answers) == answer_rows(ref), (seed, k)


def test_ingested_store_answers_as_single_phase(tmp_path):
    """A store straight after ingest is one cluster: phase 1 stops at it
    and backward phase 2 returns exactly the single-phase answers, under
    both ``combos`` values."""
    spec = SynthSpec(papers=120, authors=40, writes=180, cites=60,
                     rare_pairs=3, seed=4)
    generate_synthetic(spec, tmp_path / "data")
    g, meta, _ = ingest_to_store(tmp_path / "data" / "schema.txt",
                                 tmp_path / "data", tmp_path / "store")
    store = ClusterStore.open(tmp_path / "store")
    assert store.cluster_count == 1
    index = build_index(meta)
    for terms in (high_pair(0), high_pair(1), low_pair(0), low_pair(1)):
        for combos in COMBOS:
            r = two_phase_query(store, list(terms), EngineConfig(combos=combos))
            ref, _ = single_phase_query(g, index, list(terms), "backward",
                                        SearchConfig(combos=combos))
            assert r.phase1_stats.stopped == "one-source"
            assert r.expanded_clusters == (0,)
            assert answer_rows(r.answers) == answer_rows(ref), (terms, combos)


def test_read_tuple_graph_is_the_ingested_graph(tmp_path):
    """Decoding every cluster of a store gives the graph ``build_graph``
    makes, array for array, pruned or not, as ingested and after the
    store is clustered and clustered again another way."""
    spec = SynthSpec(papers=60, authors=20, writes=90, cites=30,
                     rare_pairs=2, seed=5)
    data = tmp_path / "data"
    generate_synthetic(spec, data)
    names = ("prestige", "adjacency_offset", "adjacent_nodes", "edge_weight",
             "edge_direction", "pair_slot")
    for prune in (True, False):
        store_dir = tmp_path / f"store{prune}"
        ingest_to_store(data / "schema.txt", data, store_dir, prune=prune)
        want, _, _ = build_graph(parse_schema(data / "schema.txt"), data,
                                 prune=prune)
        for algorithm, size in ((None, None), ("close1", 5), ("greedymin", 9),
                                ("adjacency", 3)):
            if algorithm:
                build_store(store_dir, algorithm, size)
            got = read_tuple_graph(store_dir)
            assert got.node_count == want.node_count
            for name in names:
                assert np.array_equal(getattr(got, name), getattr(want, name)), \
                    (prune, algorithm, name)


def test_empty_graph_store(tmp_path):
    """Tables of a header only give a graph of no nodes: ingest writes a
    graph.emb of no clusters, the store opens and clusters, and a query
    finds no match instead of crashing."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "schema.txt").write_text("table paper text=title\n"
                                     "table writes\n"
                                     "fk writes.paper -> paper.id\n")
    (data / "paper.tsv").write_text("id\ttitle\n")
    (data / "writes.tsv").write_text("id\tpaper\n")
    store_dir = tmp_path / "store"
    g, _, _ = ingest_to_store(data / "schema.txt", data, store_dir)
    assert g.node_count == 0
    assert sorted(p.name for p in store_dir.iterdir()) == TWO
    assert ClusterStore.open(store_dir).cluster_count == 0
    assert build_store(store_dir, "close1", 5)["clusters"] == 0
    store = ClusterStore.open(store_dir)
    assert store.cluster_count == 0
    with pytest.raises(NoMatchError):
        two_phase_query(store, ["graph"])


def test_stats_track_disk_traffic(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=30, max_size=3)
    result = two_phase_query(store, ["alpha", "beta"], EngineConfig())
    assert result.stats.clusters_read == len(result.expanded_clusters)
    assert result.stats.bytes_read > 0
    assert result.stats.elapsed > 0
    assert result.stats.answers_emitted == len(result.answers)
    again = two_phase_query(store, ["alpha", "beta"], EngineConfig())
    assert again.stats.clusters_read == 0


def test_no_match_propagates(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=12, max_size=3)
    with pytest.raises(NoMatchError):
        two_phase_query(store, ["zzzmissing"], EngineConfig())


def test_single_cluster_store(rng, tmp_path):
    _, _, summary, store = make_store(rng, tmp_path, n=6, max_size=6)
    if summary["clusters"] == 1:
        result = two_phase_query(store, ["alpha", "beta"], EngineConfig())
        assert result.expanded_clusters == (0,)
        assert result.answers


def test_build_store_summary(rng, tmp_path):
    g, _, summary, store = make_store(rng, tmp_path, n=30, max_size=5)
    assert summary["nodes"] == g.node_count
    assert summary["links"] == g.slot_count // 2
    assert summary["clusters"] == store.cluster_count
    assert summary["algorithm"] == "close1"
    assert sorted(p.name for p in tmp_path.iterdir()) == TWO
    # re-clustering into fewer clusters leaves no stale cluster data
    fewer = build_store(tmp_path, "close1", 15)
    assert fewer["clusters"] < summary["clusters"]
    assert sorted(p.name for p in tmp_path.iterdir()) == TWO
    store = ClusterStore.open(tmp_path)
    assert len(store.records) == store.header.record_offset[-1]
    sub = expand_clusters(store, range(store.cluster_count))
    assert sub.graph.node_count == g.node_count
    assert sub.graph.slot_count == g.slot_count


def test_store_opened_before_a_rebuild_keeps_its_build(rng, tmp_path):
    """``cluster`` replaces graph.emb by rename, so a store opened before
    the rebuild keeps its arrays and answers, a new open reads the new
    build, and no temporary file is left behind."""
    _, _, summary, first = make_store(rng, tmp_path, n=400, max_size=4)
    # mapped, not read whole
    assert (tmp_path / GRAPH_FILE).stat().st_size >= mmap.PAGESIZE
    want = answers_digest(two_phase_query(first, ["alpha", "beta"]).answers)
    old = ClusterStore.open(tmp_path)

    def arrays(store):
        return (store.clustering.node_order, store.clustering.cluster_offset,
                store.header.record_offset, store.cluster_graph.adjacent_nodes)

    copies = [a.copy() for a in arrays(old)]
    rebuilt = build_store(tmp_path, "close1", 9, seed=3)
    assert rebuilt["clusters"] != summary["clusters"]
    assert all(map(np.array_equal, copies, arrays(old)))
    assert answers_digest(two_phase_query(old, ["alpha", "beta"]).answers) == want
    assert old.cluster_count == summary["clusters"]
    assert ClusterStore.open(tmp_path).cluster_count == rebuilt["clusters"]
    assert sorted(p.name for p in tmp_path.iterdir()) == TWO


def test_cluster_build_replaces_one_file(rng, tmp_path, monkeypatch):
    """A build renames one file over the store.  When that rename fails,
    the previous build still opens and answers alike, and no temporary
    file is left behind."""
    make_store(rng, tmp_path, n=60, max_size=4)
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: replaced.append(dst) or real_replace(src, dst))
    previous = build_store(tmp_path, "close1", 6, seed=3)
    assert replaced == [tmp_path / GRAPH_FILE]
    want = answers_digest(two_phase_query(ClusterStore.open(tmp_path),
                                          ["alpha", "beta"]).answers)

    def fail(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="cannot rename"):
        build_store(tmp_path, "close1", 4, seed=3)
    store = ClusterStore.open(tmp_path)
    assert store.cluster_count == previous["clusters"]
    assert answers_digest(two_phase_query(store, ["alpha", "beta"]).answers) == want
    assert sorted(p.name for p in tmp_path.iterdir()) == TWO


def test_package_exports_resolve():
    assert len(set(embanks.__all__)) == len(embanks.__all__)
    assert [name for name in embanks.__all__ if not hasattr(embanks, name)] == []


def test_compare_precision_report():
    def scored(root, edges, score):
        tree = AnswerTree(root, edges, (root,))
        return ScoredAnswer(tree, 1.0, 1.0, score)

    a = scored(0, ((0, 1, 1.0),), 3.0)
    b = scored(2, ((2, 3, 1.0),), 2.0)
    c = scored(4, ((4, 5, 1.0), (5, 6, 1.0)), 1.0)
    report = compare_precision([a, c], [a, b])
    assert report.overlap == 0.5
    assert report.answers == 2
    assert report.acceptable == 1
    assert "overlap=0.500" in report.line()
    empty = compare_precision([], [])
    assert empty.overlap == 1.0
    assert compare_precision([a], []).overlap == 0.0


def test_ingest_to_store_end_to_end(rng, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "schema.txt").write_text(
        "table person text=name\n"
        "table city text=name\n"
        "fk person.city -> city.id\n")
    (data / "person.tsv").write_text(
        "id\tname\tcity\n1\talice\tc1\n2\tbob\tc2\n3\tcarol\tc1\n")
    (data / "city.tsv").write_text("id\tname\nc1\tparis\nc2\tlyon\n")
    store_dir = tmp_path / "store"
    g, meta, warnings = ingest_to_store(data / "schema.txt", data, store_dir)
    assert warnings == []
    assert g.node_count == 5
    summary = build_store(store_dir, "close1", 2)
    assert summary["nodes"] == 5
    store = ClusterStore.open(store_dir)
    result = two_phase_query(store, ["alice", "paris"], EngineConfig())
    assert result.answers
    top = result.answers[0]
    names = [meta.node_text[n] for n in top.tree.nodes]
    assert any("alice" in t for t in names)
    assert any("paris" in t for t in names)
    # re-ingesting replaces the clustered build with one cluster of the
    # whole tuple graph, which answers alike
    ingest_to_store(data / "schema.txt", data, store_dir)
    assert sorted(p.name for p in store_dir.iterdir()) == TWO
    store = ClusterStore.open(store_dir)
    assert store.cluster_count == 1
    assert two_phase_query(store, ["alice", "paris"]).answers == result.answers


def test_reingest_removes_older_formats_files(tmp_path):
    """Re-ingesting over a store that still holds the separate tuple and
    cluster files of older formats leaves exactly graph.emb and index.kwi."""
    spec = SynthSpec(papers=20, authors=8, writes=30, cites=10,
                     rare_pairs=2, seed=3)
    generate_synthetic(spec, tmp_path / "data")
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    for name in ("graph.emb", "index.kwi", "tuples.emb", "clusters.emb"):
        (store_dir / name).write_bytes(b"an older build")
    ingest_to_store(tmp_path / "data" / "schema.txt", tmp_path / "data", store_dir)
    assert sorted(p.name for p in store_dir.iterdir()) == TWO
    assert ClusterStore.open(store_dir).cluster_count == 1


def test_bidi_two_phase_regression_pin(tmp_path):
    """Two-phase bidi/bidi with combos=best on a small synth store returns
    exactly the recorded answers, scores and per-phase counts."""
    spec = SynthSpec(papers=150, authors=50, writes=225, cites=75,
                     rare_pairs=3, seed=2)
    generate_synthetic(spec, tmp_path / "data")
    ingest_to_store(tmp_path / "data" / "schema.txt", tmp_path / "data",
                    tmp_path / "store")
    build_store(tmp_path / "store", "close1", 10)
    store = ClusterStore.open(tmp_path / "store")
    cfg = EngineConfig(phase1_algorithm="bidi", phase2_algorithm="bidi",
                       combos=COMBOS_BEST)

    def run(terms):
        r = two_phase_query(store, list(terms), cfg)
        counts = (r.phase1_stats.nodes_touched, r.phase1_stats.nodes_explored,
                  r.phase2_stats.nodes_touched, r.phase2_stats.nodes_explored,
                  r.refetch_events)
        return r.answers, counts

    answers, counts = run(high_pair(0))
    assert [(a.tree.root, a.score) for a in answers] == [
        (191, 4.085714285714286), (150, 3.64), (160, 3.146666666666667),
        (55, 3.138461538461539), (110, 3.127272727272728),
        (144, 2.9529411764705884), (194, 2.9272727272727277),
        (196, 2.8400000000000003), (188, 2.7466666666666666),
        (92, 2.7111111111111112)]
    assert answers_digest(answers) == "931c7eeee81a60fe"
    assert counts == (86, 86, 178, 178, 0)

    answers, counts = run(low_pair(0))
    assert [(a.tree.identity_key(), a.score) for a in answers] == [
        ((0, ((0, 150, 2.0),)), 3.1333333333333333),
        ((150, ((150, 0, 2.0),)), 3.1333333333333333)]
    # both words sit in one cluster, so phase 1 stops at it
    assert counts == (1, 1, 20, 20, 0)


def test_one_cluster_pairs_stop_phase1_at_their_cluster(tmp_path):
    """Every planted pair whose paper and author share a cluster gets the
    recorded default-config answers, and phase 1 settles that cluster only.

    The digest covers the answers of all 14 such pairs of this store, as
    a full phase-1 sweep of the cluster graph gives them.
    """
    spec = SynthSpec(papers=150, authors=50, writes=225, cites=75,
                     rare_pairs=20, seed=2)
    generate_synthetic(spec, tmp_path / "data")
    ingest_to_store(tmp_path / "data" / "schema.txt", tmp_path / "data",
                    tmp_path / "store")
    build_store(tmp_path / "store", "close1", 10)
    store = ClusterStore.open(tmp_path / "store")
    mapping = store.clustering.node_mapping
    digests = []
    for i in range(spec.rare_pairs):
        terms = list(low_pair(i))
        clusters = {int(mapping[n]) for t in terms
                    for n in store.keyword_index().lookup(t)}
        if len(clusters) != 1:
            continue
        r = two_phase_query(store, terms, EngineConfig())
        assert (r.phase1_stats.nodes_explored, r.phase1_stats.stopped) == \
            (1, "one-source")
        assert r.core_clusters == tuple(clusters)
        digests.append(answers_digest(r.answers))
    assert len(digests) == 14
    assert hashlib.sha256(repr(digests).encode()).hexdigest()[:16] == \
        "cfc40d56daac3e4a"


def test_store_builds_cluster_graph_lists_once(tmp_path):
    """An open store turns its cluster graph into adjacency lists on the
    first query that sweeps it and hands the same lists to every later
    search; a query whose keyword nodes share one cluster (phase 1 stops
    ``one-source``) never builds them.  Answers and stats are those of a
    freshly opened store."""
    spec = SynthSpec(papers=150, authors=50, writes=225, cites=75,
                     rare_pairs=20, seed=2)
    generate_synthetic(spec, tmp_path / "data")
    ingest_to_store(tmp_path / "data" / "schema.txt", tmp_path / "data",
                    tmp_path / "store")
    build_store(tmp_path / "store", "close1", 10)
    store = ClusterStore.open(tmp_path / "store")
    mapping = store.clustering.node_mapping

    def clusters(terms):
        return {int(mapping[n]) for t in terms
                for n in store.keyword_index().lookup(t)}

    pairs = [list(low_pair(i)) for i in range(spec.rare_pairs)]
    one = [t for t in pairs if len(clusters(t)) == 1]
    split = [t for t in pairs if len(clusters(t)) > 1]
    assert one and split
    graph = store.cluster_graph

    def check(terms, cfg):
        r = two_phase_query(store, terms, cfg)
        fresh = two_phase_query(ClusterStore.open(tmp_path / "store"), terms, cfg)
        assert answers_digest(r.answers) == answers_digest(fresh.answers)
        assert r.stats.nodes_explored == fresh.stats.nodes_explored
        return r

    for terms in one:
        assert check(terms, EngineConfig()).phase1_stats.stopped == "one-source"
    assert graph._lists is None
    check(split[0], EngineConfig())
    lists = graph._lists
    assert lists is not None
    for terms in split + [list(high_pair(0))]:
        for cfg in (EngineConfig(), EngineConfig(phase1_algorithm="bidi",
                                                 phase2_algorithm="bidi")):
            check(terms, cfg)
            assert graph._lists is lists
    # a built graph's arrays can change, so its lists are built every call
    built = read_tuple_graph(tmp_path / "store")
    assert built.adjacency_lists() is not built.adjacency_lists()
    assert built._lists is None


def test_two_phase_grid_regression_pin(tmp_path):
    """Answers, clusters, refetch rounds and per-phase counts over a grid
    of engine settings on 30 seeded random stores hash to the recorded
    digests: one under ``combos=all``, one under the default ``best``.

    Each phase's work counts are pinned; of the answer counts only the
    total's, the number of answers returned.  Each query opens the store
    afresh, so disk counts do not depend on grid order; bytes read follow
    the record layout, so a store format change moves both digests.
    """
    grid = [dict(extra_policy=extra, gamma=gamma, max_refetch=refetch,
                 budget=budget, phase1_algorithm=algo, phase2_algorithm=algo)
            for extra in ("none", "keyword")
            for gamma in (0.0, 1.0, 1e9)
            for refetch in (0, 1, 3)
            for budget in (0, 10 ** 9)
            for algo in ("backward", "bidi")]

    def counts(s):
        return (s.nodes_touched, s.nodes_explored, s.clusters_read,
                s.bytes_read, s.stopped)

    rows = {"all": [], "default": []}
    refetches = dict.fromkeys(rows, 0)
    for seed in range(30):
        rng = random.Random(seed)
        store_dir = tmp_path / str(seed)
        make_store(rng, store_dir, n=rng.randint(12, 30), max_size=3,
                   planted=("alpha", "beta", "alpha", "beta"))
        for name, combos in (("all", dict(combos="all")), ("default", {})):
            for settings in grid:
                r = two_phase_query(ClusterStore.open(store_dir),
                                    ["alpha", "beta"],
                                    EngineConfig(**settings, **combos))
                refetches[name] += r.refetch_events
                rows[name].append((
                    answers_digest(r.answers), r.core_clusters,
                    r.expanded_clusters, r.refetch_events,
                    counts(r.phase1_stats), counts(r.phase2_stats),
                    counts(r.stats), r.stats.answers_emitted))
    digests = {name: hashlib.sha256(repr(r).encode()).hexdigest()[:16]
               for name, r in rows.items()}
    assert refetches["all"] == 579
    assert digests["all"] == "d09064cf013d4de1"
    assert refetches["default"] == 588
    assert digests["default"] == "bc95c6932d369ce3"


@pytest.fixture(scope="module")
def synth_store(tmp_path_factory):
    """A pruned store over one small fixed synth corpus, and the digest of
    the one-cluster graph.emb that ingest wrote, before any clustering."""
    root = tmp_path_factory.mktemp("pinned")
    generate_synthetic(SynthSpec(papers=120, authors=40, writes=180, cites=60,
                                 rare_pairs=3, seed=1), root / "data")
    ingest_to_store(root / "data" / "schema.txt", root / "data", root / "store")
    return root / "store", file_digest(root / "store" / GRAPH_FILE)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


STORE_PINS = {
    # (algorithm, edge combiner, prestige combiner): graph.emb
    ("close1", "inverse-sum", "sum"): "d723e7fdc29fec5f",
    ("close1", "harmonic-mean", "max"): "ba0035501861e126",
    ("close1", "min", "avg"): "00680d0d1b76618e",
    ("greedymin", "inverse-sum", "sum"): "8bce3fef31eeed90",
    ("greedymin", "harmonic-mean", "max"): "d429052f52769e71",
    ("greedymin", "min", "avg"): "2b05d56c336eab1a",
    ("connection", "inverse-sum", "sum"): "d315dd8808b292b5",
    ("connection", "harmonic-mean", "max"): "f8d1037f671ad415",
    ("connection", "min", "avg"): "a39852fd133b1877",
    ("adjacency", "inverse-sum", "sum"): "dda673d044733f50",
    ("adjacency", "harmonic-mean", "max"): "a79b88158aaf3a61",
    ("adjacency", "min", "avg"): "2a78c885346c0635",
}


@pytest.mark.parametrize("algorithm,edge,prestige", sorted(STORE_PINS))
def test_store_bytes_pin(synth_store, algorithm, edge, prestige):
    """Every byte of the store, as ingest writes it and after clustering
    under each algorithm and three combiner pairs, as of store format 12.
    Each case clusters the build the case before it wrote, so each also
    checks that the tuple graph decodes from any build as ingested."""
    store, ingested = synth_store
    assert ingested == "afadcb0eb8cc4252"
    assert file_digest(store / INDEX_FILE) == "7dbcddc7a70f0949"
    build_store(store, algorithm, 8, WeightConfig(edge, prestige))
    assert file_digest(store / GRAPH_FILE) == \
        STORE_PINS[(algorithm, edge, prestige)]
