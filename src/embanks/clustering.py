"""Partitioning the tuple graph into bounded clusters and contracting it.

A clustering assigns every node to exactly one cluster of at most
``max_cluster_size`` members.  Contracting member edges between distinct
clusters yields a much smaller graph of the same array shape, which is
what the first search phase runs on.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .graph import DataGraph, GraphError
from .scoring import AnswerTree

EDGE_INVERSE_SUM = "inverse-sum"
EDGE_HARMONIC_MEAN = "harmonic-mean"
EDGE_MIN = "min"
PRESTIGE_SUM = "sum"
PRESTIGE_MAX = "max"
PRESTIGE_AVG = "avg"

DEFAULT_MAX_CLUSTER_SIZE = 100


class ClusteringError(GraphError):
    pass


@dataclass(frozen=True)
class WeightConfig:
    edge_combiner: str = EDGE_INVERSE_SUM
    prestige_combiner: str = PRESTIGE_SUM


def combine_edge_weights(weights, combiner: str) -> float:
    """Collapse parallel member edge weights into one superedge weight."""
    ws = list(weights)
    if not ws:
        raise ClusteringError("cannot combine an empty weight list")
    if combiner == EDGE_MIN:
        return float(min(ws))
    inv = sum(1.0 / w for w in ws)
    if combiner == EDGE_INVERSE_SUM:
        return 1.0 / inv
    if combiner == EDGE_HARMONIC_MEAN:
        return len(ws) / inv
    raise ClusteringError(f"unknown edge combiner {combiner!r}")


def combine_prestige(values, combiner: str) -> float:
    vs = list(values)
    if not vs:
        raise ClusteringError("cannot combine an empty prestige list")
    if combiner == PRESTIGE_SUM:
        return float(sum(vs))
    if combiner == PRESTIGE_MAX:
        return float(max(vs))
    if combiner == PRESTIGE_AVG:
        return float(sum(vs)) / len(vs)
    raise ClusteringError(f"unknown prestige combiner {combiner!r}")


@dataclass
class Clustering:
    """Node to cluster assignment in three mutually consistent arrays.

    ``node_mapping[n]`` is the cluster of node ``n``; ``node_order`` lists
    nodes grouped by cluster; ``cluster_offset`` delimits each cluster's
    segment of ``node_order``.
    """

    node_mapping: np.ndarray   # int64 [n]
    node_order: np.ndarray     # int64 [n]
    cluster_offset: np.ndarray  # int64 [k + 1]
    max_cluster_size: int

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_offset) - 1

    @property
    def node_count(self) -> int:
        return len(self.node_mapping)

    def members(self, cluster: int) -> np.ndarray:
        return self.node_order[self.cluster_offset[cluster]:
                               self.cluster_offset[cluster + 1]]

    def validate(self) -> None:
        n = self.node_count
        if len(self.node_order) != n:
            raise ClusteringError("node_order must list every node once")
        if sorted(self.node_order.tolist()) != list(range(n)):
            raise ClusteringError("node_order must be a permutation of the nodes")
        if int(self.cluster_offset[0]) != 0 or int(self.cluster_offset[-1]) != n:
            raise ClusteringError("cluster_offset must span all of node_order")
        sizes = np.diff(self.cluster_offset)
        if np.any(sizes <= 0):
            raise ClusteringError("clusters must be nonempty")
        if np.any(sizes > self.max_cluster_size):
            raise ClusteringError("cluster exceeds max_cluster_size")
        for c in range(self.cluster_count):
            for node in self.members(c):
                if int(self.node_mapping[node]) != c:
                    raise ClusteringError(
                        f"node {int(node)} listed under cluster {c} but mapped to "
                        f"{int(self.node_mapping[node])}")


def _from_member_lists(members: list[list[int]], n: int,
                       max_size: int) -> Clustering:
    mapping = np.full(n, -1, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    offset = np.zeros(len(members) + 1, dtype=np.int64)
    pos = 0
    for c, nodes in enumerate(members):
        for node in nodes:
            mapping[node] = c
            order[pos] = node
            pos += 1
        offset[c + 1] = pos
    if pos != n or np.any(mapping < 0):
        raise ClusteringError("clustering did not cover every node exactly once")
    return Clustering(mapping, order, offset, max_size)


def identity_clustering(n: int) -> Clustering:
    ids = np.arange(n, dtype=np.int64)
    return Clustering(ids.copy(), ids.copy(),
                      np.arange(n + 1, dtype=np.int64), 1)


def cluster_close_to_1(g: DataGraph,
                       max_size: int = DEFAULT_MAX_CLUSTER_SIZE) -> Clustering:
    """Grow clusters along edges whose two direction weights are most alike.

    Seeds at the lowest unused node id, then repeatedly pulls in the unused
    neighbor reachable from anywhere in the growing cluster over the edge
    whose forward/backward weight ratio is closest to 1, closing the
    cluster at ``max_size`` or when the frontier is exhausted.
    """
    used = np.zeros(g.node_count, dtype=bool)
    members: list[list[int]] = []
    for seed in range(g.node_count):
        if used[seed]:
            continue
        used[seed] = True
        cluster = [seed]
        heap: list[tuple[float, int, int]] = []
        seq = 0

        def offer(node: int) -> None:
            nonlocal seq
            for j in g.slots(node):
                v = int(g.adjacent_nodes[j])
                if used[v]:
                    continue
                w1 = float(g.edge_weight[j])
                w2 = float(g.edge_weight[g.pair_slot[j]])
                ratio = max(w1, w2) / min(w1, w2)
                heapq.heappush(heap, (ratio, seq, v))
                seq += 1

        offer(seed)
        while len(cluster) < max_size and heap:
            _, _, v = heapq.heappop(heap)
            if used[v]:
                continue
            used[v] = True
            cluster.append(v)
            offer(v)
        members.append(cluster)
    return _from_member_lists(members, g.node_count, max_size)


def cluster_greedy_minimum(g: DataGraph, max_size: int = DEFAULT_MAX_CLUSTER_SIZE,
                           rng: random.Random | None = None) -> Clustering:
    """Grow each cluster outward from a random seed, nearest member first.

    The seed's neighbors join first; afterwards the unprocessed member
    closest to the seed (by accumulated path cost along the growth tree)
    contributes its own unused neighbors, until the cluster is full.
    """
    rng = rng or random.Random(0)
    scan = list(range(g.node_count))
    rng.shuffle(scan)
    used = np.zeros(g.node_count, dtype=bool)
    members: list[list[int]] = []
    for seed in scan:
        if used[seed]:
            continue
        used[seed] = True
        cluster = [seed]
        pending: list[tuple[float, int, int]] = [(0.0, 0, seed)]
        seq = 1
        while pending and len(cluster) < max_size:
            dist, _, node = heapq.heappop(pending)
            for j in g.slots(node):
                v = int(g.adjacent_nodes[j])
                if used[v]:
                    continue
                used[v] = True
                cluster.append(v)
                heapq.heappush(pending, (dist + float(g.edge_weight[j]), seq, v))
                seq += 1
                if len(cluster) >= max_size:
                    break
        members.append(cluster)
    return _from_member_lists(members, g.node_count, max_size)


def cluster_connection_naive(g: DataGraph, max_size: int = DEFAULT_MAX_CLUSTER_SIZE,
                             rng: random.Random | None = None) -> Clustering:
    """Randomized growth that keeps every cluster internally connected."""
    rng = rng or random.Random(0)
    scan = list(range(g.node_count))
    rng.shuffle(scan)
    used = np.zeros(g.node_count, dtype=bool)
    members: list[list[int]] = []
    for seed in scan:
        if used[seed]:
            continue
        used[seed] = True
        cluster = [seed]
        while len(cluster) < max_size:
            frontier = []
            for node in cluster:
                for j in g.slots(node):
                    v = int(g.adjacent_nodes[j])
                    if not used[v]:
                        frontier.append(v)
            if not frontier:
                break
            v = rng.choice(frontier)
            used[v] = True
            cluster.append(v)
        members.append(cluster)
    return _from_member_lists(members, g.node_count, max_size)


def cluster_adjacency_naive(g: DataGraph,
                            max_size: int = DEFAULT_MAX_CLUSTER_SIZE) -> Clustering:
    """Group nodes by identical adjacency fingerprints, ignoring position.

    Nodes whose sorted (neighbor, direction) lists coincide land in the
    same group; groups are packed into clusters in fingerprint order.  The
    clusters have no connectivity guarantee at all, which is the point of
    keeping this one around as a baseline.
    """
    groups: dict[tuple, list[int]] = {}
    for n in range(g.node_count):
        fp = tuple(sorted((int(g.adjacent_nodes[j]), bool(g.edge_direction[j]))
                          for j in g.slots(n)))
        groups.setdefault(fp, []).append(n)
    members: list[list[int]] = []
    current: list[int] = []
    for fp in sorted(groups):
        group = groups[fp]
        while len(group) > max_size:
            if current:
                members.append(current)
                current = []
            members.append(group[:max_size])
            group = group[max_size:]
        if current and len(current) + len(group) > max_size:
            members.append(current)
            current = []
        current.extend(group)
    if current:
        members.append(current)
    return _from_member_lists(members, g.node_count, max_size)


CLUSTER_ALGORITHMS = {
    "close1": cluster_close_to_1,
    "greedymin": cluster_greedy_minimum,
    "connection": cluster_connection_naive,
    "adjacency": cluster_adjacency_naive,
}


@dataclass
class ClusterGraph:
    """Contracted graph plus the combiners that merged its weights."""

    graph: DataGraph
    wcfg: WeightConfig


def build_cluster_graph(g: DataGraph, clustering: Clustering,
                        wcfg: WeightConfig | None = None) -> ClusterGraph:
    """Contract member edges between distinct clusters into superedges.

    Parallel member edges collapse into a single superedge per ordered
    cluster pair with weights merged per ``wcfg``; edges inside one cluster
    disappear.  With every node in its own singleton cluster the result
    reproduces the input graph's links and weights.
    """
    wcfg = wcfg or WeightConfig()
    k = clustering.cluster_count
    mapping = clustering.node_mapping
    buckets: dict[tuple[int, int], list[int]] = {}
    starts = g.slot_source
    for j in range(g.slot_count):
        cu = int(mapping[starts[j]])
        cv = int(mapping[g.adjacent_nodes[j]])
        if cu != cv:
            buckets.setdefault((cu, cv), []).append(j)

    pairs = sorted(buckets)
    counts = np.zeros(k, dtype=np.int64)
    for cu, _ in pairs:
        counts[cu] += 1
    offset = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=offset[1:])
    m = len(pairs)
    adjacent = np.zeros(m, dtype=np.int64)
    weight = np.zeros(m, dtype=np.float32)
    direction = np.zeros(m, dtype=bool)
    pair_slot = np.zeros(m, dtype=np.int64)
    slot_of: dict[tuple[int, int], int] = {}
    fill = offset[:-1].copy()
    for cu, cv in pairs:
        j = int(fill[cu]); fill[cu] += 1
        slot_of[(cu, cv)] = j
        adjacent[j] = cv
        slots = buckets[(cu, cv)]
        weight[j] = np.float32(combine_edge_weights(
            [float(g.edge_weight[s]) for s in slots], wcfg.edge_combiner))
    for cu, cv in pairs:
        j = slot_of[(cu, cv)]
        pair_slot[j] = slot_of[(cv, cu)]
        if cu < cv:
            rep = min(buckets[(cu, cv)])
            direction[j] = bool(g.edge_direction[rep])
            direction[pair_slot[j]] = not direction[j]

    prestige = np.zeros(k, dtype=np.float32)
    for c in range(k):
        prestige[c] = np.float32(combine_prestige(
            [float(g.prestige[n]) for n in clustering.members(c)],
            wcfg.prestige_combiner))
    graph = DataGraph(
        node_count=k,
        prestige=prestige,
        node_type=np.zeros(k, dtype=np.uint16),
        adjacency_offset=offset,
        adjacent_nodes=adjacent,
        edge_weight=weight,
        edge_direction=direction,
        pair_slot=pair_slot,
    )
    return ClusterGraph(graph, wcfg)


def min_crossing_weights(g: DataGraph, clustering: Clustering
                         ) -> dict[tuple[int, int], float]:
    """Cheapest member edge behind each superedge, by ordered cluster pair.

    A combined superedge weight can sit below every member edge behind
    it, so ``answer_cost_bounds`` charges this minimum instead.
    """
    mapping = clustering.node_mapping
    out: dict[tuple[int, int], float] = {}
    for cu, cv, w in zip(mapping[g.slot_source].tolist(),
                         mapping[g.adjacent_nodes].tolist(),
                         g.edge_weight.tolist()):
        if cu != cv and w < out.get((cu, cv), math.inf):
            out[(cu, cv)] = w
    return out


@dataclass
class ClusterMetadata:
    """Per-cluster transit costs, computed from intra-cluster edges only.

    ``diameter`` is the largest finite shortest-path cost between two
    members; ``min_in_out`` is the cheapest intra-cluster cost from an
    entry node (one with an outside connection) to an exit node.  The
    same node may serve both roles, so this is zero for any cluster
    that touches an outside link.
    """

    diameter: np.ndarray    # float64 [k]
    min_in_out: np.ndarray  # float64 [k]

    @property
    def cluster_count(self) -> int:
        return len(self.diameter)


def _intra_dijkstra(adj: dict[int, list[tuple[int, float]]], source: int,
                    nodes: set[int]) -> dict[int, float]:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, ()):
            nd = d + w
            if v in nodes and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def compute_cluster_metadata(g: DataGraph,
                             clustering: Clustering) -> ClusterMetadata:
    k = clustering.cluster_count
    diameter = np.zeros(k, dtype=np.float64)
    min_in_out = np.zeros(k, dtype=np.float64)
    for c in range(k):
        nodes = set(int(n) for n in clustering.members(c))
        adj: dict[int, list[tuple[int, float]]] = {}
        boundary: set[int] = set()
        for u in nodes:
            for _, v, w in g.out_edges(u):
                if v in nodes:
                    adj.setdefault(u, []).append((v, w))
                else:
                    boundary.add(u)
        diam = 0.0
        transit = math.inf
        for u in sorted(nodes):
            dist = _intra_dijkstra(adj, u, nodes)
            for v, dv in dist.items():
                if v != u and dv > diam:
                    diam = dv
            if u in boundary:
                reachable = [dist[b] for b in boundary if b in dist]
                if reachable:
                    transit = min(transit, min(reachable))
        diameter[c] = diam
        min_in_out[c] = 0.0 if math.isinf(transit) else transit
    return ClusterMetadata(diameter, min_in_out)


def answer_cost_bounds(answer: AnswerTree, meta: ClusterMetadata,
                       keyword_clusters: set[int],
                       min_crossing: dict[tuple[int, int], float] | None = None,
                       ) -> tuple[float, float]:
    """Bracket the edge cost of the best node-level answer inside a
    cluster-level one.

    The lower bound charges every non-keyword, non-root cluster its
    cheapest pass-through cost; any expansion must enter and leave those.
    The upper bound pays the cheapest member edge for every superedge
    (``min_crossing``, from ``min_crossing_weights``; the superedge weight
    when omitted) plus each cluster's diameter for the internal stitching.
    """
    lower = 0.0
    for c in answer.nodes:
        if c != answer.root and c not in keyword_clusters:
            lower += float(meta.min_in_out[c])
    upper = 0.0
    for u, v, w in answer.edges:
        if min_crossing is not None:
            upper += float(min_crossing[(u, v)])
        else:
            upper += float(w)
    for c in answer.nodes:
        upper += float(meta.diameter[c])
    return lower, upper
