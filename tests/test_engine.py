"""Two-phase query orchestration over a cluster store."""

import random

import numpy as np
import pytest

import embanks
from embanks import engine
from embanks.engine import (EngineConfig, PrecisionReport, _budget_fill,
                            build_store, compare_precision, gamma_trigger,
                            ingest_to_store, refetch_candidates,
                            select_extra_clusters, single_phase_query,
                            two_phase_query)
from embanks.graph import NodeMeta
from embanks.keywords import build_index
from embanks.scoring import AnswerTree, ScoredAnswer
from embanks.search import NoMatchError, SearchConfig, backward_search
from embanks.storage import (INDEX_FILE, TUPLES_FILE, ClusterStore,
                             StorageError, expand_clusters,
                             write_keyword_index, write_tuple_graph)

from conftest import random_graph


def make_store(rng, store_dir, n=40, algorithm="close1", max_size=4,
               planted=("alpha", "beta")):
    """A store over a random graph whose node texts carry known terms."""
    g = random_graph(rng, n, extra_links=rng.randint(2, n // 2))
    texts = [f"row{i} shared" for i in range(n)]
    marks = rng.sample(range(n), len(planted))
    for term, node in zip(planted, marks):
        texts[node] += f" {term}"
    meta = NodeMeta(["rel"], np.zeros(n, dtype=np.uint16), texts,
                    [str(i) for i in range(n)])
    store_dir.mkdir(parents=True, exist_ok=True)
    write_tuple_graph(store_dir / TUPLES_FILE, g, meta)
    write_keyword_index(store_dir / INDEX_FILE, build_index(meta))
    summary = build_store(store_dir, algorithm, max_size, seed=3)
    return g, meta, summary, ClusterStore.open(store_dir)


def test_gamma_trigger_cases():
    assert gamma_trigger([10.0, 4.0], 0.5)
    assert not gamma_trigger([10.0, 6.0], 0.5)
    assert not gamma_trigger([], 0.5)
    assert not gamma_trigger([5.0], 0.5)
    assert not gamma_trigger([10.0, 0.001], 0.0)
    assert gamma_trigger([5.0, 5.0], 1.0)
    assert not gamma_trigger([0.0, 0.0], 1.0)
    assert gamma_trigger([9.0, 8.0, 1.0], 0.25)


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
    r = random.Random(1)
    assert select_extra_clusters(store, core, keyword_clusters, "none",
                                 10 ** 9, r) == []
    got = select_extra_clusters(store, core, keyword_clusters, "keyword",
                                10 ** 9, r)
    assert got == [0, 5]
    assert select_extra_clusters(store, core, keyword_clusters, "keyword",
                                 0, r) == []
    with pytest.raises(ValueError):
        select_extra_clusters(store, core, keyword_clusters, "everything",
                              10 ** 9, r)
    tight = store.cluster_cost(0) + store.cluster_cost(5) - 1
    for seed in (1, 2, 3):
        fill = select_extra_clusters(store, core, keyword_clusters,
                                     "keyword-fill", tight,
                                     random.Random(seed))
        assert sum(store.cluster_cost(c) for c in fill) <= tight
        repeat = select_extra_clusters(store, core, keyword_clusters,
                                       "keyword-fill", tight,
                                       random.Random(seed))
        assert fill == repeat


def test_refetch_candidates_order_and_dedup(rng, tmp_path):
    _, _, _, store = make_store(rng, tmp_path, n=36, max_size=3)
    have = {0}
    g = store.cluster_graph.graph
    adjacent = sorted({int(g.adjacent_nodes[j]) for j in g.slots(0)} - have)
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
    g, meta, _, store = make_store(rng, tmp_path, n=30, max_size=3)
    capped = EngineConfig(extra_policy="none", gamma=1.0, max_refetch=1,
                          budget=10 ** 9)
    result = two_phase_query(store, ["shared", "alpha"], capped)
    assert result.refetch_events <= 1
    if result.refetch_events:
        assert set(result.expanded_clusters) > set(result.core_clusters)

    exhaustive = EngineConfig(extra_policy="none", gamma=1.0,
                              max_refetch=10 ** 3, budget=10 ** 9)
    result = two_phase_query(store, ["alpha", "beta"], exhaustive)
    if len(result.expanded_clusters) == store.cluster_count:
        ref, _ = single_phase_query(g, build_index(meta), ["alpha", "beta"],
                                    "backward", SearchConfig(k=10))
        assert [a.score for a in result.answers] == [a.score for a in ref]
        assert {a.tree.shape_key() for a in result.answers} == \
            {a.tree.shape_key() for a in ref}


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


def test_build_store_summary(rng, tmp_path, monkeypatch):
    g, _, summary, store = make_store(rng, tmp_path, n=30, max_size=5)
    assert summary["nodes"] == g.node_count
    assert summary["links"] == g.slot_count // 2
    assert summary["clusters"] == store.cluster_count
    assert summary["algorithm"] == "close1"
    four = ["clusters.emb", "graph.emb", "index.kwi", "tuples.emb"]
    assert sorted(p.name for p in tmp_path.iterdir()) == four
    # the store holds no cost bounds, so the build never computes them
    def unexpected(*_):
        raise AssertionError("build_store computed cluster metadata")

    monkeypatch.setattr(engine, "compute_cluster_metadata", unexpected)
    # re-clustering into fewer clusters leaves no stale cluster data
    fewer = build_store(tmp_path, "close1", 15)
    assert fewer["clusters"] < summary["clusters"]
    assert sorted(p.name for p in tmp_path.iterdir()) == four
    store = ClusterStore.open(tmp_path)
    assert (tmp_path / "clusters.emb").stat().st_size == \
        store.header.record_offset[-1]
    sub = expand_clusters(store, range(store.cluster_count))
    assert sub.graph.node_count == g.node_count
    assert sub.graph.slot_count == g.slot_count


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
    # re-ingesting drops the cluster store built from the old tuples
    ingest_to_store(data / "schema.txt", data, store_dir)
    assert sorted(p.name for p in store_dir.iterdir()) == \
        ["index.kwi", "tuples.emb"]
    with pytest.raises(StorageError):
        ClusterStore.open(store_dir)
