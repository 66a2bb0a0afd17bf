"""Bounded clustering and the contracted cluster graph."""

import hashlib
import math
import random

import numpy as np
import pytest

from embanks.clustering import (CLUSTER_ALGORITHMS, Clustering,
                                ClusteringError, WeightConfig,
                                build_cluster_graph, cluster_adjacency_naive,
                                cluster_close_to_1, cluster_connection_naive,
                                cluster_greedy_minimum, combine_edge_weights,
                                combine_prestige, identity_clustering)
from embanks.graph import GraphBuilder

from conftest import WEIGHT_GRID, random_graph, with_self_loops
from oracles import (close_to_1_members_reference,
                     connection_members_reference)

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


def test_close_to_1_matches_per_offer_ratios(rng):
    """The precomputed slot ratios grow the clusters that ``max / min`` per
    offered edge grows, on grid weights, whose ratios tie, and on
    arbitrary float32 weights."""
    for trial in range(40):
        n = rng.randint(1, 40)
        weights = WEIGHT_GRID if trial % 2 else \
            [float(np.float32(rng.uniform(0.1, 9))) for _ in range(12)]
        g = random_graph(rng, n, extra_links=rng.randint(0, n),
                         connected=rng.random() < 0.8, weights=weights)
        size = rng.randint(1, 8)
        cl = cluster_close_to_1(g, size)
        members = [cl.members(c).tolist() for c in range(cl.cluster_count)]
        assert members == close_to_1_members_reference(g, size), trial


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


def test_connection_matches_frontier_rebuild(rng):
    """Keeping the frontier between growth steps draws the same clusters
    as rebuilding it from every member before each draw."""
    for trial in range(150):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, extra_links=rng.randint(0, 2 * n),
                         connected=rng.random() < 0.8)
        if trial % 4 == 0:
            g = with_self_loops(rng, g, 3)
        size = rng.randint(1, 12)
        seed = rng.randrange(10 ** 6)
        cl = cluster_connection_naive(g, size, random.Random(seed))
        want = connection_members_reference(g, size, random.Random(seed))
        assert [cl.members(c).tolist() for c in range(cl.cluster_count)] \
            == want, trial


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
        wcfg = WeightConfig(combiners[trial % 3], rng.choice(prestiges))
        cg = build_cluster_graph(g, cl, wcfg)
        cg.validate()
        assert cg.node_count == cl.cluster_count

        buckets = {}
        for u, v, wf, wb in g.links():
            cu, cv = int(cl.node_mapping[u]), int(cl.node_mapping[v])
            if cu == cv:
                continue
            buckets.setdefault((cu, cv), []).append(wf)
            buckets.setdefault((cv, cu), []).append(wb)

        got = {}
        for cu in range(cg.node_count):
            for _, cv, w in cg.out_edges(cu):
                assert (cu, cv) not in got, "duplicate superedge"
                got[(cu, cv)] = w
        assert set(got) == set(buckets)
        for pair, ws in buckets.items():
            w = got[pair]
            expected = combine_edge_weights(ws, wcfg.edge_combiner)
            assert math.isclose(w, expected, rel_tol=1e-5), (pair, w, expected)
            if wcfg.edge_combiner == "min":   # exactly the cheapest member edge
                assert w == np.float32(min(ws)), (pair, w, ws)
        for c in range(cl.cluster_count):
            expected = combine_prestige(
                [float(g.prestige[x]) for x in cl.members(c)],
                wcfg.prestige_combiner)
            assert cg.prestige[c] == np.float32(expected)


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
        for cu in range(cg.node_count):
            for j, cv, _ in cg.out_edges(cu):
                if cu < cv:
                    r = rep[(cu, cv)]
                    assert bool(cg.edge_direction[j]) == \
                        bool(g.edge_direction[r])
                    assert bool(cg.edge_direction[cg.pair_slot[j]]) \
                        != bool(cg.edge_direction[j])


def test_identity_cluster_graph_reproduces_input(rng):
    """Singleton clusters keep the graph, except parallel links combine."""
    for _ in range(5):
        n = rng.randint(2, 20)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        cg = build_cluster_graph(g, identity_clustering(n))
        cg_min = build_cluster_graph(g, identity_clustering(n),
                                     WeightConfig("min"))
        assert cg.node_count == g.node_count
        buckets = {}
        for u, v, wf, wb in g.links():
            buckets.setdefault((u, v), []).append(wf)
            buckets.setdefault((v, u), []).append(wb)
        seen = set()
        for u in range(n):
            assert cg.prestige[u] == g.prestige[u]
            for _, v, w in cg.out_edges(u):
                assert (u, v) not in seen
                seen.add((u, v))
                ws = buckets[(u, v)]
                if len(ws) == 1:
                    assert w == np.float32(ws[0])
                else:
                    assert math.isclose(
                        w, combine_edge_weights(ws, "inverse-sum"),
                        rel_tol=1e-5)
        assert seen == set(buckets)
        least = {(u, v): w for u in range(n) for _, v, w in cg_min.out_edges(u)}
        assert least == {pair: np.float32(min(ws))
                         for pair, ws in buckets.items()}


EDGE_COMBINERS = ["inverse-sum", "harmonic-mean", "min"]
PRESTIGE_COMBINERS = ["sum", "max", "avg"]

# sha256 of every cluster graph array and its dtype, per algorithm, over 40
# seeded graphs and all nine combiner pairs; slot order, dtype and every
# weight bit are pinned.
PINNED_CLUSTER_GRAPH_DIGESTS = {
    "close1":
        "522587bf6905800008b80b53982eb578b8de51b22979c207d15b71443237ebf9",
    "greedymin":
        "630d7872e47c5072cf31aba3accaf0d9b9b96659ef6e4756e0d1972af7047238",
    "connection":
        "e278ed1780e7c804c519c939d5a57be4a3bd986e8224260f6196b00640862308",
    "adjacency":
        "ab26046aaca23c8ed9e5e6afef9967de0710d3dbec93b8e6393edf6911bbe6b3",
}


def cluster_graph_digest(algorithm):
    h = hashlib.sha256()
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 30)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        max_size = rng.randint(2, 6)
        fn = CLUSTER_ALGORITHMS[algorithm]
        if algorithm in ("greedymin", "connection"):
            cl = fn(g, max_size, random.Random(seed))
        else:
            cl = fn(g, max_size)
        for edge in EDGE_COMBINERS:
            for prestige in PRESTIGE_COMBINERS:
                cg = build_cluster_graph(g, cl, WeightConfig(edge, prestige))
                for arr in (cg.prestige, cg.adjacency_offset, cg.adjacent_nodes,
                            cg.edge_weight, cg.edge_direction, cg.pair_slot):
                    h.update(arr.dtype.str.encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm", sorted(PINNED_CLUSTER_GRAPH_DIGESTS))
def test_cluster_graph_arrays_pinned(algorithm):
    assert cluster_graph_digest(algorithm) == \
        PINNED_CLUSTER_GRAPH_DIGESTS[algorithm]
