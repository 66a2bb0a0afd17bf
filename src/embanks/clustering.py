"""Partitioning the tuple graph into bounded clusters and contracting it.

A clustering assigns every node to exactly one cluster of at most
``max_cluster_size`` members.  Contracting member edges between distinct
clusters yields a much smaller graph of the same array shape, which is
what the first search phase runs on.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .graph import DataGraph, GraphBuilder, GraphError

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
    node_order: np.ndarray     # integer [n]; a read store keeps its stored width
    cluster_offset: np.ndarray  # integer [k + 1]; a read store keeps its stored width
    max_cluster_size: int

    @classmethod
    def from_order(cls, node_order: np.ndarray, cluster_offset: np.ndarray,
                   max_cluster_size: int) -> Clustering:
        """Derive ``node_mapping`` from the other two arrays, kept as given.

        Raises ClusteringError unless ``node_order`` is a permutation of the
        nodes and ``cluster_offset`` climbs from 0 to its length.  The
        checks compare rather than subtract, so unsigned arrays cannot wrap.
        """
        n = len(node_order)
        if cluster_offset[0] != 0 or cluster_offset[-1] != n \
                or np.any(cluster_offset[1:] < cluster_offset[:-1]) \
                or n and (node_order.min() < 0 or node_order.max() >= n):
            raise ClusteringError("cluster_offset must split node_order into clusters")
        mapping = np.full(n, -1, dtype=np.int64)
        k = len(cluster_offset) - 1
        mapping[node_order] = np.repeat(np.arange(k, dtype=np.int32),
                                        np.diff(cluster_offset))
        if n and mapping.min() < 0:
            raise ClusteringError("clustering did not cover every node exactly once")
        return cls(mapping, node_order, cluster_offset, max_cluster_size)

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
        derived = Clustering.from_order(self.node_order, self.cluster_offset,
                                        self.max_cluster_size)
        if not np.array_equal(derived.node_mapping, self.node_mapping):
            raise ClusteringError("node_mapping disagrees with node_order")
        sizes = np.diff(self.cluster_offset)
        if np.any(sizes <= 0):
            raise ClusteringError("clusters must be nonempty")
        if np.any(sizes > self.max_cluster_size):
            raise ClusteringError("cluster exceeds max_cluster_size")


def _from_member_lists(members: list[list[int]], n: int,
                       max_size: int) -> Clustering:
    order = np.asarray([node for nodes in members for node in nodes], dtype=np.int64)
    offset = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum([len(nodes) for nodes in members], out=offset[1:])
    if len(order) != n:
        raise ClusteringError("clustering did not cover every node exactly once")
    return Clustering.from_order(order, offset, max_size)


def identity_clustering(n: int) -> Clustering:
    return Clustering.from_order(np.arange(n, dtype=np.int64),
                                 np.arange(n + 1, dtype=np.int64), 1)


def cluster_close_to_1(g: DataGraph,
                       max_size: int = DEFAULT_MAX_CLUSTER_SIZE) -> Clustering:
    """Grow clusters along edges whose two direction weights are most alike.

    Seeds at the lowest unused node id, then repeatedly pulls in the unused
    neighbor reachable from anywhere in the growing cluster over the edge
    whose forward/backward weight ratio is closest to 1, closing the
    cluster at ``max_size`` or when the frontier is exhausted.  Each slot's
    ratio, ``max / min`` of its two float64 direction weights, is computed
    once for all slots.
    """
    offset, target, _, _ = g.adjacency_lists()
    w_out = g.edge_weight.astype(np.float64)
    w_in = w_out[g.pair_slot]
    ratios = (np.maximum(w_out, w_in) / np.minimum(w_out, w_in)).tolist()
    used = [False] * g.node_count
    members: list[list[int]] = []
    for seed in range(g.node_count):
        if used[seed]:
            continue
        used[seed] = True
        cluster = [seed]
        heap: list[tuple[float, int, int]] = []
        seq = itertools.count()

        def offer(node: int) -> None:
            for j in range(offset[node], offset[node + 1]):
                v = target[j]
                if not used[v]:
                    heapq.heappush(heap, (ratios[j], next(seq), v))

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
    offset, target, w_out, _ = g.adjacency_lists()
    used = [False] * g.node_count
    members: list[list[int]] = []
    for seed in scan:
        if used[seed]:
            continue
        used[seed] = True
        cluster = [seed]
        pending: list[tuple[float, int, int]] = [(0.0, 0, seed)]
        seq = itertools.count(1)
        while pending and len(cluster) < max_size:
            dist, _, node = heapq.heappop(pending)
            for j in range(offset[node], offset[node + 1]):
                v = target[j]
                if used[v]:
                    continue
                used[v] = True
                cluster.append(v)
                heapq.heappush(pending, (dist + w_out[j], next(seq), v))
                if len(cluster) >= max_size:
                    break
        members.append(cluster)
    return _from_member_lists(members, g.node_count, max_size)


def cluster_connection_naive(g: DataGraph, max_size: int = DEFAULT_MAX_CLUSTER_SIZE,
                             rng: random.Random | None = None) -> Clustering:
    """Randomized growth that keeps every cluster internally connected.

    Each step draws the next member uniformly from the frontier: every
    member's unused slot targets, member by member in join order, each
    member's in slot order, one entry per slot.  The frontier is kept
    between steps, dropping the drawn node and appending its own unused
    targets, which leaves it exactly as a rebuild from all members.
    """
    rng = rng or random.Random(0)
    scan = list(range(g.node_count))
    rng.shuffle(scan)
    offset, target, _, _ = g.adjacency_lists()
    used = [False] * g.node_count
    members: list[list[int]] = []
    for seed in scan:
        if used[seed]:
            continue
        used[seed] = True
        cluster = [seed]
        frontier = [v for v in target[offset[seed]:offset[seed + 1]] if not used[v]]
        while len(cluster) < max_size and frontier:
            v = rng.choice(frontier)
            used[v] = True
            cluster.append(v)
            frontier = [x for x in frontier if x != v]
            frontier += [x for x in target[offset[v]:offset[v + 1]] if not used[x]]
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
    offset, target, _, _ = g.adjacency_lists()
    forward = g.edge_direction.tolist()
    groups: dict[tuple, list[int]] = {}
    for n in range(g.node_count):
        a, b = offset[n], offset[n + 1]
        groups.setdefault(tuple(sorted(zip(target[a:b], forward[a:b]))), []).append(n)
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


def build_cluster_graph(g: DataGraph, clustering: Clustering,
                        wcfg: WeightConfig | None = None) -> DataGraph:
    """Contract member edges between distinct clusters into superedges.

    Parallel member edges collapse into one link per unordered cluster pair
    with each direction's weight merged per ``wcfg``; edges inside one
    cluster disappear.  A superedge runs forward from the cluster owning the
    lowest member slot behind it if that slot is forward, and from the other
    cluster otherwise.  Links go in by ascending pair, so every cluster lists
    its neighbours in ascending order.  With every node in its own singleton
    cluster the result reproduces the input graph's links and weights.
    """
    wcfg = wcfg or WeightConfig()
    mapping, k = clustering.node_mapping, clustering.cluster_count
    cu, cv = mapping[g.slot_source], mapping[g.adjacent_nodes]
    cross = np.flatnonzero(cu != cv)
    # group crossing slots by ordered cluster pair; first[i] is the lowest
    # slot of group i, and sums over a group run in slot order
    pairs, first, gid = np.unique(cu[cross] * k + cv[cross], return_index=True,
                                  return_inverse=True)
    w = g.edge_weight[cross].astype(np.float64)
    inv = np.bincount(gid, weights=1.0 / w, minlength=len(pairs))
    least = np.full(len(pairs), np.inf)
    np.minimum.at(least, gid, w)
    sizes = np.diff(clustering.cluster_offset)
    if np.any(sizes == 0):
        raise ClusteringError("cannot combine an empty prestige list")
    p = g.prestige[clustering.node_order].astype(np.float64)
    total = np.bincount(np.repeat(np.arange(k), sizes), weights=p, minlength=k)
    edge = {EDGE_INVERSE_SUM: 1.0 / inv, EDGE_MIN: least,
            EDGE_HARMONIC_MEAN: np.bincount(gid, minlength=len(pairs)) / inv}
    node = {PRESTIGE_SUM: total, PRESTIGE_AVG: total / sizes, PRESTIGE_MAX:
            np.maximum.reduceat(p, clustering.cluster_offset[:-1]) if k else p}
    for what, combiner, table in (("edge", wcfg.edge_combiner, edge),
                                  ("prestige", wcfg.prestige_combiner, node)):
        if combiner not in table:
            raise ClusteringError(f"unknown {what} combiner {combiner!r}")
    combined, prestige = edge[wcfg.edge_combiner], node[wcfg.prestige_combiner]

    builder = GraphBuilder()
    builder.add_nodes(prestige)
    up = pairs // k < pairs % k
    lo, hi = np.divmod(pairs[up], k)
    there, back = combined[up], combined[np.searchsorted(pairs, hi * k + lo)]
    fwd = g.edge_direction[cross[first[up]]]
    builder.add_links(np.where(fwd, lo, hi), np.where(fwd, hi, lo),
                      np.where(fwd, there, back), np.where(fwd, back, there))
    return builder.build()
