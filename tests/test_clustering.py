"""Bounded clustering, the contracted cluster graph, and answer cost bounds."""

import math
import random

import numpy as np
import pytest

from embanks.clustering import (CLUSTER_ALGORITHMS, Clustering,
                                ClusteringError, ClusterMetadata,
                                WeightConfig, answer_cost_bounds,
                                build_cluster_graph, cluster_adjacency_naive,
                                cluster_close_to_1, cluster_connection_naive,
                                cluster_greedy_minimum, combine_edge_weights,
                                combine_prestige, compute_cluster_metadata,
                                identity_clustering, min_crossing_weights)
from embanks.graph import GraphBuilder
from embanks.scoring import AnswerTree
from embanks.search import KeywordSets, SearchConfig, backward_search

from conftest import WEIGHT_GRID, random_graph, random_keyword_sets
from oracles import dijkstra_oracle

GROWN = ["close1", "greedymin", "connection"]


def random_clustering(rng, n, max_size):
    """Arbitrary assignment; clusters may be internally disconnected."""
    order = list(range(n))
    rng.shuffle(order)
    chunks = []
    i = 0
    while i < n:
        take = rng.randint(1, max_size)
        chunks.append(order[i:i + take])
        i += take
    mapping = np.zeros(n, dtype=np.int64)
    node_order = np.zeros(n, dtype=np.int64)
    offset = np.zeros(len(chunks) + 1, dtype=np.int64)
    pos = 0
    for c, nodes in enumerate(chunks):
        for node in nodes:
            mapping[node] = c
            node_order[pos] = node
            pos += 1
        offset[c + 1] = pos
    return Clustering(mapping, node_order, offset, max_size)


def grown_clustering(rng, name, g, max_size):
    if name == "close1":
        return cluster_close_to_1(g, max_size)
    seeded = random.Random(rng.randrange(10 ** 9))
    if name == "greedymin":
        return cluster_greedy_minimum(g, max_size, seeded)
    return cluster_connection_naive(g, max_size, seeded)


def intra_adjacency(g, members):
    nodes = set(int(x) for x in members)
    return {u: [(v, w) for _, v, w in g.out_edges(u) if v in nodes]
            for u in nodes}


def test_algorithms_produce_valid_clusterings(rng):
    for _ in range(6):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        for max_size in (1, 3, 7):
            for name in sorted(CLUSTER_ALGORITHMS):
                cl = CLUSTER_ALGORITHMS[name](g, max_size)
                cl.validate()
                sizes = np.diff(cl.cluster_offset)
                assert sizes.max() <= max_size
                assert cl.cluster_count >= math.ceil(n / max_size)
                assert sizes.sum() == n


def test_grown_clusters_are_connected(rng):
    for _ in range(8):
        n = rng.randint(3, 35)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        for name in GROWN:
            cl = grown_clustering(rng, name, g, rng.randint(2, 6))
            for c in range(cl.cluster_count):
                members = set(int(x) for x in cl.members(c))
                adj = intra_adjacency(g, members)
                seen = {next(iter(members))}
                stack = list(seen)
                while stack:
                    u = stack.pop()
                    for v, _ in adj[u]:
                        if v not in seen:
                            seen.add(v)
                            stack.append(v)
                assert seen == members, (name, c)


def test_close_to_1_prefers_balanced_ratio():
    b = GraphBuilder()
    for _ in range(4):
        b.add_node(1.0)
    b.add_link(0, 1, 1.0, 4.0)
    b.add_link(0, 2, 2.0, 2.0)
    b.add_link(1, 3, 1.0, 1.0)
    g = b.build()
    cl = cluster_close_to_1(g, 2)
    assert int(cl.node_mapping[0]) == int(cl.node_mapping[2])
    assert int(cl.node_mapping[1]) == int(cl.node_mapping[3])


def test_adjacency_groups_identical_fingerprints():
    b = GraphBuilder()
    for _ in range(3):
        b.add_node(1.0)
    b.add_link(1, 0, 1.0, 1.0)
    b.add_link(2, 0, 1.0, 1.0)
    g = b.build()
    cl = cluster_adjacency_naive(g, 2)
    assert int(cl.node_mapping[1]) == int(cl.node_mapping[2])
    assert int(cl.node_mapping[0]) != int(cl.node_mapping[1])


def test_clustering_determinism(rng):
    def same(a, b):
        return (np.array_equal(a.node_mapping, b.node_mapping)
                and np.array_equal(a.node_order, b.node_order)
                and np.array_equal(a.cluster_offset, b.cluster_offset))

    for _ in range(4):
        g = random_graph(rng, rng.randint(5, 30))
        assert same(cluster_close_to_1(g, 4), cluster_close_to_1(g, 4))
        assert same(cluster_adjacency_naive(g, 4), cluster_adjacency_naive(g, 4))
        assert same(cluster_greedy_minimum(g, 4, random.Random(7)),
                    cluster_greedy_minimum(g, 4, random.Random(7)))
        assert same(cluster_connection_naive(g, 4, random.Random(7)),
                    cluster_connection_naive(g, 4, random.Random(7)))


def test_clustering_validate_rejects_bad_arrays():
    cl = identity_clustering(4)
    cl.validate()
    broken = Clustering(cl.node_mapping.copy(), cl.node_order.copy(),
                        cl.cluster_offset.copy(), 1)
    broken.node_mapping[2] = 0
    with pytest.raises(ClusteringError):
        broken.validate()
    too_big = Clustering(np.zeros(3, dtype=np.int64),
                         np.arange(3, dtype=np.int64),
                         np.array([0, 3], dtype=np.int64), 2)
    with pytest.raises(ClusteringError):
        too_big.validate()


def test_combine_edge_weight_values():
    assert combine_edge_weights([2.0, 2.0], "inverse-sum") == 1.0
    assert combine_edge_weights([2.0, 2.0], "harmonic-mean") == 2.0
    assert combine_edge_weights([2.0, 2.0], "min") == 2.0
    assert combine_edge_weights([1.0, 4.0], "inverse-sum") == 0.8
    assert combine_edge_weights([1.0, 4.0], "harmonic-mean") == 1.6
    assert combine_edge_weights([1.0, 4.0], "min") == 1.0
    assert combine_edge_weights([4.0], "inverse-sum") == 4.0
    assert combine_edge_weights([4.0], "harmonic-mean") == 4.0
    with pytest.raises(ClusteringError):
        combine_edge_weights([], "min")
    with pytest.raises(ClusteringError):
        combine_edge_weights([1.0], "median")


def test_combine_edge_weight_algebra(rng):
    for _ in range(300):
        s = rng.randint(1, 8)
        ws = [rng.choice(WEIGHT_GRID) for _ in range(s)]
        w_is = combine_edge_weights(ws, "inverse-sum")
        w_hm = combine_edge_weights(ws, "harmonic-mean")
        w_min = combine_edge_weights(ws, "min")
        assert math.isclose(w_hm, s * w_is, rel_tol=1e-12)
        assert w_is <= w_min * (1 + 1e-12)
        assert w_min <= w_hm * (1 + 1e-12)


def test_combine_prestige_values():
    assert combine_prestige([1.0, 2.0, 4.0], "sum") == 7.0
    assert combine_prestige([1.0, 2.0, 4.0], "max") == 4.0
    assert combine_prestige([1.0, 2.0, 4.0], "avg") == 7.0 / 3
    with pytest.raises(ClusteringError):
        combine_prestige([], "sum")
    with pytest.raises(ClusteringError):
        combine_prestige([1.0], "mode")


def test_cluster_graph_matches_bucket_oracle(rng):
    combiners = ["inverse-sum", "harmonic-mean", "min"]
    prestiges = ["sum", "max", "avg"]
    for trial in range(12):
        n = rng.randint(4, 28)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        if trial % 2 == 0:
            cl = random_clustering(rng, n, rng.randint(1, 5))
        else:
            cl = grown_clustering(rng, rng.choice(GROWN), g, rng.randint(2, 5))
        wcfg = WeightConfig(rng.choice(combiners), rng.choice(prestiges))
        cg = build_cluster_graph(g, cl, wcfg)
        cg.graph.validate()
        assert cg.graph.node_count == cl.cluster_count

        buckets = {}
        for u, v, wf, wb in g.links():
            cu, cv = int(cl.node_mapping[u]), int(cl.node_mapping[v])
            if cu == cv:
                continue
            buckets.setdefault((cu, cv), []).append(wf)
            buckets.setdefault((cv, cu), []).append(wb)

        got = {}
        for cu in range(cg.graph.node_count):
            for _, cv, w in cg.graph.out_edges(cu):
                assert (cu, cv) not in got, "duplicate superedge"
                got[(cu, cv)] = w
        assert set(got) == set(buckets)
        crossing = min_crossing_weights(g, cl)
        assert set(crossing) == set(buckets)
        for pair, ws in buckets.items():
            w = got[pair]
            expected = combine_edge_weights(ws, wcfg.edge_combiner)
            assert math.isclose(w, expected, rel_tol=1e-5), (pair, w, expected)
            assert crossing[pair] == np.float32(min(ws))
        for c in range(cl.cluster_count):
            expected = combine_prestige(
                [float(g.prestige[x]) for x in cl.members(c)],
                wcfg.prestige_combiner)
            assert cg.graph.prestige[c] == np.float32(expected)


def test_cluster_graph_direction_follows_representative(rng):
    for _ in range(6):
        n = rng.randint(4, 20)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        cl = random_clustering(rng, n, 3)
        cg = build_cluster_graph(g, cl)
        starts = np.repeat(np.arange(g.node_count, dtype=np.int64),
                           np.diff(g.adjacency_offset))
        rep = {}
        for j in range(g.slot_count):
            cu = int(cl.node_mapping[starts[j]])
            cv = int(cl.node_mapping[g.adjacent_nodes[j]])
            if cu < cv and (cu, cv) not in rep:
                rep[(cu, cv)] = j
        for cu in range(cg.graph.node_count):
            for j, cv, _ in cg.graph.out_edges(cu):
                if cu < cv:
                    r = rep[(cu, cv)]
                    assert bool(cg.graph.edge_direction[j]) == \
                        bool(g.edge_direction[r])
                    assert bool(cg.graph.edge_direction[cg.graph.pair_slot[j]]) \
                        != bool(cg.graph.edge_direction[j])


def test_identity_cluster_graph_reproduces_input(rng):
    """Singleton clusters keep the graph, except parallel links combine."""
    for _ in range(5):
        n = rng.randint(2, 20)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        cg = build_cluster_graph(g, identity_clustering(n))
        crossing = min_crossing_weights(g, identity_clustering(n))
        assert cg.graph.node_count == g.node_count
        buckets = {}
        for u, v, wf, wb in g.links():
            buckets.setdefault((u, v), []).append(wf)
            buckets.setdefault((v, u), []).append(wb)
        seen = set()
        for u in range(n):
            assert cg.graph.prestige[u] == g.prestige[u]
            for _, v, w in cg.graph.out_edges(u):
                assert (u, v) not in seen
                seen.add((u, v))
                ws = buckets[(u, v)]
                assert crossing[(u, v)] == np.float32(min(ws))
                if len(ws) == 1:
                    assert w == np.float32(ws[0])
                else:
                    assert math.isclose(
                        w, combine_edge_weights(ws, "inverse-sum"),
                        rel_tol=1e-5)
        assert seen == set(buckets)


def test_metadata_matches_apsp_oracle(rng):
    for trial in range(10):
        n = rng.randint(3, 25)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        if trial % 2 == 0:
            cl = random_clustering(rng, n, 4)
        else:
            cl = grown_clustering(rng, rng.choice(GROWN), g, 4)
        meta = compute_cluster_metadata(g, cl)
        assert meta.cluster_count == cl.cluster_count
        for c in range(cl.cluster_count):
            members = set(int(x) for x in cl.members(c))
            adj = intra_adjacency(g, members)
            boundary = {u for u in members
                        if any(v not in members for _, v, _ in g.out_edges(u))}
            diam = 0.0
            transit = math.inf
            for u in members:
                dist = dijkstra_oracle(adj, u)
                diam = max([diam] + [d for v, d in dist.items() if v != u])
                if u in boundary:
                    hits = [dist[b] for b in boundary if b in dist]
                    if hits:
                        transit = min(transit, min(hits))
            assert abs(meta.diameter[c] - diam) <= 1e-9
            assert meta.min_in_out[c] == (0.0 if math.isinf(transit)
                                          else transit)
            assert 0.0 <= meta.min_in_out[c] <= meta.diameter[c] + 1e-12


def test_metadata_singletons():
    b = GraphBuilder()
    for _ in range(3):
        b.add_node(1.0)
    b.add_link(0, 1, 2.0, 3.0)
    b.add_link(1, 2, 1.0, 1.0)
    g = b.build()
    meta = compute_cluster_metadata(g, identity_clustering(3))
    assert np.all(meta.diameter == 0.0)
    assert np.all(meta.min_in_out == 0.0)


def test_bounds_keyword_only_answer():
    meta = ClusterMetadata(np.array([0.5, 0.25]), np.array([0.0, 0.0]))
    tree = AnswerTree(0, ((0, 1, 2.0),), (0, 1))
    lower, upper = answer_cost_bounds(tree, meta, {0, 1})
    assert lower == 0.0
    assert upper == 2.75
    lower, upper = answer_cost_bounds(tree, meta, {0, 1}, {(0, 1): 1.5})
    assert lower == 0.0
    assert upper == 2.25


def test_bounds_charge_intermediate_clusters_only():
    meta = ClusterMetadata(np.array([0.0, 0.3, 0.0]),
                           np.array([0.0, 0.7, 0.0]))
    chain = AnswerTree(0, ((0, 1, 1.0), (1, 2, 2.0)), (0, 2))
    lower, upper = answer_cost_bounds(chain, meta, {0, 2})
    assert lower == 0.7
    assert upper == 3.0 + 0.3
    rooted_mid = AnswerTree(1, ((1, 0, 1.0), (1, 2, 2.0)), (0, 2))
    lower, _ = answer_cost_bounds(rooted_mid, meta, {0, 2})
    assert lower == 0.0


def test_bounds_singleton_clusters_are_exact():
    meta = ClusterMetadata(np.zeros(3), np.zeros(3))
    tree = AnswerTree(0, ((0, 1, 1.0), (1, 2, 2.0)), (0, 2))
    crossing = {(0, 1): 1.0, (1, 2): 2.0}
    lower, upper = answer_cost_bounds(tree, meta, {0, 2}, crossing)
    assert lower == 0.0
    assert upper == 3.0


def test_bounds_sandwich_brute_force(rng):
    """lower <= cheapest expanded answer cost <= upper, per cluster answer."""
    checked = 0
    for trial in range(30):
        n = rng.randint(8, 16)
        g = random_graph(rng, n, extra_links=rng.randint(1, n // 2))
        cl = grown_clustering(rng, GROWN[trial % 3], g, 3)
        cg = build_cluster_graph(g, cl)
        meta = compute_cluster_metadata(g, cl)
        ks = random_keyword_sets(rng, n, 2)
        cluster_sets = [frozenset(int(cl.node_mapping[x]) for x in s)
                        for s in ks.sets]
        ks_cl = KeywordSets(list(ks.terms), cluster_sets)
        answers, _ = backward_search(cg.graph, ks_cl,
                                     SearchConfig(k=5, steiner_filter=False))
        crossing = min_crossing_weights(g, cl)
        kw_clusters = set().union(*cluster_sets)
        for ans in answers:
            lower, upper = answer_cost_bounds(ans.tree, meta, kw_clusters,
                                              crossing)
            nodes = set()
            for c in ans.tree.nodes:
                nodes.update(int(x) for x in cl.members(c))
            adj = {u: [(v, w) for _, v, w in g.out_edges(u) if v in nodes]
                   for u in nodes}
            targets = [sorted(s & nodes) for s in ks.sets]
            best = math.inf
            for v in nodes:
                dist = dijkstra_oracle(adj, v)
                legs = [min((dist[t] for t in ts if t in dist),
                            default=math.inf) for ts in targets]
                best = min(best, sum(legs))
            assert not math.isinf(best)
            assert lower <= best + 1e-9, (lower, best)
            assert best <= upper + 1e-9, (best, upper)
            checked += 1
    assert checked >= 40
