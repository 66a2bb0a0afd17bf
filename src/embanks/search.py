"""Keyword search over the tuple graph.

Two strategies share the same answer model.  Backward expanding search
walks edges in reverse from the keyword nodes; a node every term can reach
becomes the root of an answer tree assembled from shortest paths.  Under
``combos=best``, the default, it runs one shortest-path iterator per term,
seeded at all of the term's keyword nodes, and joins each root to every
term's nearest keyword node; under ``combos=all`` (BANKS-I) it runs one
iterator per keyword node and tries every combination of them.
Bidirectional search adds a forward iterator from candidate roots and
orders all expansion by spread activation, trading guaranteed answers for
a smaller search frontier.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import AdjacencyLists, DataGraph
from .keywords import KeywordIndex
from .scoring import (AnswerTree, ScoreConfig, ScoredAnswer,
                      EDGE_RECIPROCAL_SUM, score_tree, tree_score)

COMBOS_ALL = "all"
COMBOS_BEST = "best"
COMBOS = (COMBOS_ALL, COMBOS_BEST)

# Why a search stopped (``SearchStats.stopped``).
STOPPED_K = "k"                      # the answer pool released k answers
STOPPED_EXHAUSTED = "exhausted"      # the frontier ran empty
STOPPED_ONE_SOURCE = "one-source"    # one node is every term's only match


class NoMatchError(Exception):
    """A query term matched nothing searchable."""

    def __init__(self, term: str):
        super().__init__(f"no match for keyword {term!r}")
        self.term = term


@dataclass
class KeywordSets:
    """One node set per query term; every set is nonempty."""

    terms: list[str]
    sets: list[frozenset[int]]

    def __post_init__(self) -> None:
        for term, s in zip(self.terms, self.sets):
            if not s:
                raise NoMatchError(term)

    @classmethod
    def from_index(cls, index: KeywordIndex, terms: list[str]) -> KeywordSets:
        return cls(list(terms), [frozenset(index.lookup(t)) for t in terms])

    def restrict(self, ids: np.ndarray) -> KeywordSets:
        """Keep the nodes found in the ascending node ids ``ids``, each
        relabelled by its position there."""
        nodes = [np.fromiter(s, dtype=np.int64, count=len(s)) for s in self.sets]
        spans = [(np.searchsorted(ids, a), np.searchsorted(ids, a, side="right"))
                 for a in nodes]   # a node is in ids where its span is not empty
        return KeywordSets(list(self.terms),
                           [frozenset(lo[lo < hi].tolist()) for lo, hi in spans])


@dataclass
class SearchConfig:
    k: int = 10
    score: ScoreConfig = field(default_factory=ScoreConfig)
    steiner_filter: bool = True
    combos: str = COMBOS_BEST

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.combos not in COMBOS:
            raise ValueError(f"unknown combos {self.combos!r}, "
                             f"expected one of {sorted(COMBOS)}")

    def for_phase1(self, limit: int) -> SearchConfig:
        return replace(self, k=limit, steiner_filter=False)


@dataclass
class SearchStats:
    nodes_touched: int = 0
    nodes_explored: int = 0
    answers_emitted: int = 0
    clusters_read: int = 0
    bytes_read: int = 0
    elapsed: float = 0.0
    stopped: str = ""

    def __add__(self, other: SearchStats) -> SearchStats:
        """Work counts add up; ``answers_emitted`` and ``stopped`` are the
        later search's, whose answers replace the earlier ones."""
        return SearchStats(
            self.nodes_touched + other.nodes_touched,
            self.nodes_explored + other.nodes_explored,
            other.answers_emitted,
            self.clusters_read + other.clusters_read,
            self.bytes_read + other.bytes_read,
            self.elapsed + other.elapsed,
            other.stopped,
        )


# --- activation -----------------------------------------------------------

@dataclass
class ActivationState:
    """Per (node, term) activation, combined by maximum.

    ``a`` is flat: node ``x``'s activation for term ``i`` is
    ``a[x * terms + i]``.
    """

    a: list[float]
    terms: int
    mu: float = 0.5

    def row(self, node: int) -> list[float]:
        base = node * self.terms
        return self.a[base:base + self.terms]


@dataclass
class SpreadRecord:
    """Accounting for one spread step, per term component."""

    received: list[float]
    retained: list[float]
    offered: list[tuple[int, list[float]]]

    def distributed(self) -> list[float]:
        total = [0.0] * len(self.received)
        for _, offer in self.offered:
            for i, o in enumerate(offer):
                total[i] += o
        return total


def init_activation(ks: KeywordSets, prestige: np.ndarray,
                    mu: float = 0.5) -> ActivationState:
    """Each keyword node starts with its prestige split across its set."""
    w = len(ks.sets)
    a = [0.0] * (len(prestige) * w)
    for i, s in enumerate(ks.sets):
        size = len(s)
        for u in s:
            a[u * w + i] = float(prestige[u]) / size
    return ActivationState(a, w, mu)


def _spread(a: list[float], w: int, mu: float, source: int,
            target: list[int], weight: list[float], lo: int, hi: int,
            offered: list[tuple[int, list[float]]] | None = None) -> None:
    """Push a fraction mu of the source's activation along slots ``lo:hi``.

    Slot ``j`` leads to ``target[j]`` at weight ``weight[j]``; ``a`` is an
    ``ActivationState`` table of ``w`` terms.  The source's held activation
    stays put; of the mass it forwards, each slot's share is inversely
    proportional to its weight, and a receiving node keeps the maximum of
    old and offered activation.  With ``offered``, every slot's
    ``(node, offer)`` is appended to it.
    """
    if lo == hi:
        return
    # an offer is mu * r * share / total_inv, evaluated as
    # (mu * r) * (share / total_inv)
    forwarded = [mu * r for r in a[source * w:source * w + w]]
    inv = [1.0 / weight[j] for j in range(lo, hi)]
    total_inv = sum(inv)
    for j, share in zip(range(lo, hi), inv):
        f = share / total_inv
        node = target[j]
        if offered is not None:
            offered.append((node, [m * f for m in forwarded]))
        i = node * w
        for m in forwarded:
            o = m * f
            if o > a[i]:
                a[i] = o
            i += 1


def spread_activation(state: ActivationState, source: int,
                      neighbors: list[tuple[int, float]]) -> SpreadRecord:
    """``_spread`` over ``(node, weight)`` neighbors, with the conservation
    record for the step: retained plus distributed equals received."""
    received = state.row(source)
    offered: list[tuple[int, list[float]]] = []
    _spread(state.a, state.terms, state.mu, source,
            [node for node, _ in neighbors], [wt for _, wt in neighbors],
            0, len(neighbors), offered)
    if not neighbors:
        return SpreadRecord(received, list(received), [])
    return SpreadRecord(received, [(1.0 - state.mu) * r for r in received],
                        offered)


def _activation_total(a: list[float], base: int, w: int) -> float:
    """``np.sum(a[base:base + w])``, summed in numpy's order.

    numpy adds fewer than 8 terms one by one and more in 8 interleaved
    partial sums (pairwise summation, blocks of up to 128), so heap
    priorities, and with them the exploration order, match the ones an
    array row would give bit for bit.
    """
    if w < 8:
        t = 0.0
        for j in range(base, base + w):
            t += a[j]
        return t
    if w > 128:
        half = w // 2
        half -= half % 8
        return (_activation_total(a, base, half)
                + _activation_total(a, base + half, w - half))
    r = a[base:base + 8]
    full = w - w % 8
    for j in range(base + 8, base + full, 8):
        for m in range(8):
            r[m] += a[j + m]
    t = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(base + full, base + w):
        t += a[j]
    return t


# --- answer assembly ------------------------------------------------------

def _tight_successor(adj: AdjacencyLists, dist: dict[int, float],
                     x: int, label: dict[int, int] | None = None
                     ) -> tuple[int, float]:
    """The smallest-id out-neighbor ``v`` of settled ``x`` whose distance
    plus the edge weight ``w`` exactly reproduces ``dist[x]``, as ``(v, w)``.

    With ``label``, a map from every node in ``dist`` to a source, ``v``
    must also carry ``x``'s label.
    """
    offset, target, w_out, _ = adj
    dx = dist[x]
    lx = None if label is None else label[x]
    step = None
    for j in range(offset[x], offset[x + 1]):
        v = target[j]
        dv = dist.get(v)
        if dv is None or w_out[j] + dv != dx:
            continue
        if lx is not None and label[v] != lx:
            continue
        if step is None or v < step[0]:
            step = (v, w_out[j])
    if step is None:  # cannot happen for settled nodes
        raise RuntimeError(f"no tight successor at node {x}")
    return step


def _tight_path(adj: AdjacencyLists, dist: dict[int, float],
                succ: dict[int, tuple[int, float]],
                start: int, label: dict[int, int] | None = None
                ) -> list[tuple[int, int, float]]:
    """Walk from settled ``start`` to the distance-0 node along tight edges.

    At every step the successor is the one ``_tight_successor`` picks,
    which makes the extracted path the lexicographically smallest of the
    minimum-cost ones.  ``label``, when given, is passed on to it.

    ``succ`` is the iterator's tight-successor table: it maps a node to its
    ``(v, w)`` and is filled the first time a walk passes through the node,
    so each node's out-edges are scanned at most once per iterator and a
    path costs its length.  Reusing an entry is exact.  Every node on the
    walk is settled, so its distance is final.  A tight successor has
    ``dist[v] < dist[x]`` because ``w > 0``, so it was settled before
    ``x``; a node reached later has a final distance of at least
    ``dist[x]`` and can never become tight for ``x``.  The candidate set,
    and with it the smallest id, is therefore fixed once ``x`` is settled.
    Both this argument and the walk's termination need ``w + dist[v]`` to
    exceed ``dist[v]`` in floating point, i.e. weights that are not
    negligible against the distances.
    """
    edges: list[tuple[int, int, float]] = []
    x = start
    while dist[x] > 0.0:
        step = succ.get(x)
        if step is None:
            step = succ[x] = _tight_successor(adj, dist, x, label)
        edges.append((x, step[0], step[1]))
        x = step[0]
    return edges


def _leaves_by_one_edge(adj: AdjacencyLists, dist: list[dict[int, float]],
                        succ: list[dict[int, tuple[int, float]]],
                        labels: list[dict[int, int] | None],
                        iterators: set[int], x: int) -> bool:
    """True when every iterator's path from root ``x`` starts with one edge.

    That needs each iterator at a distance above 0 at ``x`` and the same
    tight successor ``(v, w)`` of ``x`` for all of them; the successor
    tables are filled as ``_tight_path`` would fill them, under each
    iterator's label restriction (None for none).
    """
    first = None
    for c in iterators:
        if dist[c][x] == 0.0:
            return False
        step = succ[c].get(x)
        if step is None:
            step = succ[c][x] = _tight_successor(adj, dist[c], x, labels[c])
        if first is None:
            first = step
        elif step != first:
            return False
    return True


def _union_tree(root: int, paths: list[list[tuple[int, int, float]]],
                keyword_nodes: tuple[int, ...]
                ) -> tuple[AnswerTree, dict[int, tuple[int, float]]] | None:
    """Merge root-to-keyword paths into a tree with sorted edges, returned
    with its parent map (child -> (parent, weight)); None when the paths
    disagree on a parent or re-enter the root.

    Every path starts at the root and each edge starts where the last one
    ended, so the map's keys are the tree's nodes other than the root.
    """
    parent: dict[int, tuple[int, float]] = {}
    for path in paths:
        for u, v, w in path:
            known = parent.get(v)
            if known is None:
                parent[v] = (u, w)
            elif known != (u, w):
                return None
    if root in parent:
        return None
    edges = tuple(sorted([(u, v, w) for v, (u, w) in parent.items()]))
    return AnswerTree(root, edges, keyword_nodes), parent


def _redundant_root(root: int, parent: dict[int, tuple[int, float]],
                    ks: KeywordSets) -> bool:
    """``root_is_redundant`` read off a ``_union_tree`` parent map."""
    kids = 0
    for u, _ in parent.values():
        if u == root:
            kids += 1
    return kids == 1 and not any(s.isdisjoint(parent) for s in ks.sets)


def root_is_redundant(tree: AnswerTree, ks: KeywordSets) -> bool:
    """True when dropping a single-child root still covers every term."""
    kids = tree.children().get(tree.root, [])
    if len(kids) != 1:
        return False
    rest = tree.nodes - {tree.root}
    return all(any(n in s for n in rest) for s in ks.sets)


def steiner_minimality_filter(answers: list[ScoredAnswer],
                              k: int | None = None) -> list[ScoredAnswer]:
    """Drop answers whose node set strictly contains another answer's.

    With ``k``, stop once ``k`` answers are kept.  Whether an answer is
    kept depends only on the whole input list, never on what was kept
    before it, so the result is the full filter's first ``k``.

    A node set is built only when a comparison reads it: an answer is
    compared only with answers of fewer nodes, and only with those whose
    root lies in its node set.
    """
    counts = [a.tree.node_count for a in answers]
    node_sets: list[frozenset[int] | None] = [None] * len(answers)

    def nodes(i: int) -> frozenset[int]:
        s = node_sets[i]
        if s is None:
            s = node_sets[i] = answers[i].tree.nodes
        return s

    by_size = sorted(range(len(answers)), key=counts.__getitem__)
    keep = []
    for i, a in enumerate(answers):
        if len(keep) == k:
            break
        dominated = False
        si = None
        for j in by_size:
            if counts[j] >= counts[i]:
                break
            if si is None:
                si = nodes(i)
            if answers[j].tree.root in si and nodes(j) < si:
                dominated = True
                break
        if not dominated:
            keep.append(a)
    return keep


def _ranked(answers) -> list[ScoredAnswer]:
    """``answers`` sorted by ``ScoredAnswer.sort_key``, building each shape
    key only to break a tie of score, node count and root."""
    answers = list(answers)
    heads = [(-a.score, a.tree.node_count, a.tree.root) for a in answers]
    order = sorted(range(len(answers)), key=heads.__getitem__)
    out: list[ScoredAnswer] = []
    for _, group in itertools.groupby(order, key=heads.__getitem__):
        tied = [answers[i] for i in group]
        if len(tied) > 1:
            tied.sort(key=lambda a: a.tree.shape_key()[1])
        out.extend(tied)
    return out


def _score_ceiling(g: DataGraph, ks: KeywordSets) -> float:
    """Largest node score any answer on this graph could reach."""
    best_root = float(np.max(g.prestige)) if g.node_count else 0.0
    per_set = sum(max(float(g.prestige[u]) for u in s) for s in ks.sets)
    return best_root + per_set


def _edge_ceiling(cfg: ScoreConfig, frontier: float) -> float:
    """Largest edge score a not-yet-found answer could reach."""
    if cfg.edge_variant == EDGE_RECIPROCAL_SUM and frontier > 0.0:
        return 1.0 / (1.0 + frontier)
    return 1.0


class _AnswerPool:
    """The candidate answers of one search, each kept and scored once.

    ``bound`` caps the score of every answer the search has not found yet
    and only falls.  A candidate whose score has reached it can no longer
    be overtaken, so it counts as released; the search may stop once
    ``released`` reaches k.  Released scores are only counted: the ranked
    answers come from the whole pool at the end (``top``).
    """

    def __init__(self, g: DataGraph, ks: KeywordSets, cfg: SearchConfig):
        self.prestige, self.ks, self.cfg = g.prestige, ks, cfg
        self.ceiling = _score_ceiling(g, ks)
        self.candidates: dict = {}
        self.pending: list[float] = []  # negated scores not yet released
        self.bound = float("inf")
        self.released = 0

    def add(self, root: int, paths: list[list[tuple[int, int, float]]],
            keyword_nodes: tuple[int, ...]) -> None:
        """Merge the paths into a tree and keep it unless the paths
        conflict, the tree is already pooled or its root is redundant.

        Whether a root is redundant depends on the tree alone, so a tree
        already pooled was not, and the identity check may come first.
        """
        merged = _union_tree(root, paths, keyword_nodes)
        if merged is None:
            return
        tree, parent = merged
        key = (root, tree.edges)  # the identity key: the edges are sorted
        if key in self.candidates or _redundant_root(root, parent, self.ks):
            return
        answer = score_tree(tree, self.prestige, self.cfg.score)
        self.candidates[key] = answer
        heapq.heappush(self.pending, -answer.score)
        self._release()

    def lower_bound(self, frontier: float) -> None:
        """Cap the bound by the best score of an answer found beyond
        distance ``frontier``."""
        score = self.cfg.score
        self.bound = min(self.bound, tree_score(
            self.ceiling, _edge_ceiling(score, frontier), score))
        self._release()

    def _release(self) -> None:
        pending = self.pending
        while pending and -pending[0] >= self.bound:
            heapq.heappop(pending)
            self.released += 1

    def full(self) -> bool:
        return self.released >= self.cfg.k

    def top(self, stats: SearchStats) -> list[ScoredAnswer]:
        """The best k answers, Steiner-filtered when configured."""
        answers = _ranked(self.candidates.values())
        if self.cfg.steiner_filter:
            answers = steiner_minimality_filter(answers, self.cfg.k)
        top = answers[:self.cfg.k]
        stats.answers_emitted = len(top)
        return top


def _one_source_answer(pool: _AnswerPool, sources: list[int],
                       stats: SearchStats) -> list[ScoredAnswer] | None:
    """The one-node answer at ``s`` when ``s`` is every term's only keyword
    node (``sources``, the union of the keyword sets, is ``[s]``), else
    None.  It touches and settles ``s`` alone and reads no edge.
    """
    if len(sources) != 1:
        return None
    (s,) = sources
    stats.nodes_touched = stats.nodes_explored = 1
    stats.stopped = STOPPED_ONE_SOURCE
    pool.add(s, [], (s,) * len(pool.ks.sets))
    return pool.top(stats)


# --- backward expanding search --------------------------------------------

def backward_search(g: DataGraph, ks: KeywordSets,
                    cfg: SearchConfig | None = None
                    ) -> tuple[list[ScoredAnswer], SearchStats]:
    """Reverse shortest-path iterators grown from the keyword nodes.

    Under ``combos=all`` (BANKS-I) there is one iterator per keyword node;
    under ``combos=best`` one per term, seeded at every keyword node of the
    term (BANKS-II).  Iterators advance globally by smallest tentative
    distance, with heap entries ordered ``(distance, source id, iterator,
    node)``.  Whenever a node has been settled by at least one iterator per
    term, each new combination of arrived iterators, one per term, yields
    an answer tree made of the lexicographically canonical shortest paths
    from that root, read from each iterator's tight-successor table (see
    ``_tight_path``).  A combination is new when it uses the iterator that
    just arrived, so each is assembled once and no combination is stored.
    Runs until the frontier is exhausted or the output bound releases
    ``cfg.k`` answers.

    Under ``combos=best`` a root has one combination: for each term, the
    keyword node nearest to it by ``(distance, id)``, its label for that
    term.  A term's iterator keeps each node's least ``(distance, source)``
    and pushes an entry whenever that pair falls, so the first entry popped
    for a node carries its term distance and its label.  The iterator's
    tight-successor table accepts a successor only if it carries the same
    label, and then reproduces the path a single-source iterator at the
    label would extract, which is exact:

    - Any node ``v`` on a shortest path from ``x`` to its label ``c`` has
      label ``c``, and its term distance equals its distance to ``c``.  Were
      ``v`` nearer to the term than to ``c``, or as near to a smaller source
      ``c'``, then ``x``, through ``v``, would be nearer to the term than to
      ``c``, or as near to ``c'``; either contradicts ``x``'s label.
    - So every successor that is tight towards ``c`` carries label ``c`` and
      is tight in term distance.  Conversely a successor with label ``c``
      that is tight in term distance is tight towards ``c``, since there
      the two distances agree at both ends.  The candidates, and the
      smallest id among them, are those of ``c``'s own iterator.

    Each node settles at most once per term, so this search settles at most
    terms times nodes.  Like ``_tight_path``, the argument needs sums of
    weights that are exact enough to order paths.

    A combination whose paths all leave the root by one edge is dropped
    before any path is walked (``_leaves_by_one_edge``), which is exact.
    No path revisits the root, because distances fall strictly along it,
    so the merged tree is either None or has the root's single child as
    its only root edge.  No iterator is at distance 0 at the root, so every
    chosen keyword node lies below the root, and the tree without its root
    still covers every term: ``root_is_redundant`` holds.  Both outcomes
    drop the combination, as building the tree would.

    When one node ``s`` is every term's only keyword node, the search
    returns the one-node answer at ``s`` without sweeping, which is exact.
    Every iterator is seeded at ``s`` alone, so all of them hold the same
    distances and paths.  At ``s`` these are 0 and empty: the one-node tree.
    At any other root every path leaves by the same edge, so the rule above
    drops the combination.  No other candidate ever enters the pool.
    """
    cfg = cfg or SearchConfig()
    stats = SearchStats()
    started = time.perf_counter()
    sources = sorted(set().union(*ks.sets))
    pool = _AnswerPool(g, ks, cfg)
    single = _one_source_answer(pool, sources, stats)
    if single is not None:
        stats.elapsed = time.perf_counter() - started
        return single, stats

    adj = g.adjacency_lists()
    offset, target, _, w_in = adj
    nsets = len(ks.sets)
    # per iterator: its seeds, the terms it covers and its label table,
    # None for an iterator with one seed, whose label is always that seed
    if cfg.combos == COMBOS_BEST:
        seeds = [sorted(s) for s in ks.sets]
        covers = [[i] for i in range(nsets)]
    else:
        seeds = [[n] for n in sources]
        covers = [[i for i, s in enumerate(ks.sets) if n in s] for n in sources]
    labels = [{n: n for n in s} if len(s) > 1 else None for s in seeds]
    dist = [dict.fromkeys(s, 0.0) for s in seeds]
    settled: list[set[int]] = [set() for _ in seeds]
    succ: list[dict[int, tuple[int, float]]] = [dict() for _ in seeds]
    heap = [(0.0, n, it, n) for it, s in enumerate(seeds) for n in s]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    arrivals: dict[int, list[list[int]]] = {}
    frontier = -1.0
    stats.stopped = STOPPED_EXHAUSTED
    while heap:
        d, src, it, x = heappop(heap)
        done = settled[it]
        if x in done:
            continue
        done.add(x)
        if d != frontier:
            # the bound depends on the frontier alone, and an answer added
            # at an unchanged frontier was checked against it then
            frontier = d
            pool.lower_bound(d)

        slots = arrivals.get(x)
        if slots is None:
            slots = arrivals[x] = [[] for _ in range(nsets)]
        cover = covers[it]
        for i in cover:
            slots[i].append(it)
        if all(slots):
            # the combinations that are new: those using ``it``, in
            # product order
            if len(cover) == 1:
                choice = slots.copy()
                choice[cover[0]] = [it]
                combos = itertools.product(*choice)
            else:
                combos = (c for c in itertools.product(*slots) if it in c)
            for combo in combos:
                iterators = set(combo)
                if _leaves_by_one_edge(adj, dist, succ, labels, iterators, x):
                    continue
                pool.add(x, [_tight_path(adj, dist[c], succ[c], x, labels[c])
                             for c in iterators],
                         tuple(seeds[c][0] if labels[c] is None else labels[c][x]
                               for c in combo))
        if pool.full():
            stats.stopped = STOPPED_K
            break

        dist_it, label_it = dist[it], labels[it]
        for j in range(offset[x], offset[x + 1]):
            y = target[j]
            nd = w_in[j] + d
            old = dist_it.get(y)
            if (old is None or nd < old
                    or (nd == old and label_it is not None and src < label_it[y])):
                dist_it[y] = nd
                if label_it is not None:
                    label_it[y] = src
                heappush(heap, (nd, src, it, y))

    stats.nodes_touched = sum(len(d) for d in dist)
    stats.nodes_explored = sum(len(s) for s in settled)
    answers = pool.top(stats)
    stats.elapsed = time.perf_counter() - started
    return answers, stats


# --- bidirectional search -------------------------------------------------

def bidirectional_search(g: DataGraph, ks: KeywordSets,
                         cfg: SearchConfig | None = None
                         ) -> tuple[list[ScoredAnswer], SearchStats]:
    """Activation-ordered search with one incoming and one outgoing iterator.

    It never reads ``cfg.combos``: a root joins one path per term, as under
    ``combos=best``; ``--combos`` applies to backward search only.

    The incoming iterator grows backward from the keyword nodes; every node
    it explores becomes a potential root and is handed to the outgoing
    iterator, which explores forward.  A single shortest-known-path table
    per term is shared by both iterators and repaired by propagating every
    distance improvement, so each node remembers only one way to each
    term: answers reachable exclusively through a second-best path are
    lost, which is the price of the smaller frontier.

    Exploring a node propagates only its distances of 0, which no
    improvement has propagated yet.  Every other finite distance was set
    by an improvement and propagated then, at its current value, so
    relaxing it again would lower nothing.

    A root whose every term has a distance above 0 and the same successor
    ``(succ, succ_w)`` is dropped without building its tree, which is
    exact.  Once propagation settles, each node's distance is its
    successor's plus the edge weight, so distances fall strictly along a
    path (for weights not negligible against the distances, as in
    ``_tight_path``) and no path revisits the root: the merged tree is either None or
    has the shared successor as the root's only child.  A distance is 0
    exactly on the term's keyword nodes, because weights are positive, so
    every path ends at a keyword node below the root and the tree without
    its root still covers every term: ``root_is_redundant`` holds.  Both
    outcomes drop the root, as building the tree would.

    When one node ``s`` is every term's only keyword node, the search
    returns the one-node answer at ``s`` without sweeping, which is exact.
    Every term's table is then seeded at ``s`` alone and updated by the same
    relaxations, so all terms hold the same distance and successor at every
    node.  At ``s`` the distances are 0 and the tree is the one node.  At
    any other root every term's path starts with the same edge, so the rule
    above drops it.  No other candidate ever enters the pool.
    """
    cfg = cfg or SearchConfig()
    stats = SearchStats()
    started = time.perf_counter()
    sources = sorted(set().union(*ks.sets))
    pool = _AnswerPool(g, ks, cfg)
    single = _one_source_answer(pool, sources, stats)
    if single is not None:
        stats.elapsed = time.perf_counter() - started
        return single, stats

    offset, target, w_out, w_in = g.adjacency_lists()
    n, w = g.node_count, len(ks.sets)
    INF = float("inf")
    # Per (node, term) tables are flat lists indexed x * w + i: plain
    # Python floats and ints are several times cheaper to read and write
    # one at a time than numpy scalars, and hold the same float64 values.
    d = [INF] * (n * w)
    succ = [-1] * (n * w)
    succ_w = [0.0] * (n * w)
    missing = [w] * n
    for i, s in enumerate(ks.sets):
        for u in s:
            if d[u * w + i] == INF:
                missing[u] -= 1
            d[u * w + i] = 0.0

    act = init_activation(ks, g.prestige)
    a, mu = act.a, act.mu
    in_heap: list[tuple[float, int]] = []
    out_heap: list[tuple[float, int]] = []
    # the priority each node was last queued at, None before its first push
    in_queued: list[float | None] = [None] * n
    out_queued: list[float | None] = [None] * n
    in_done = [False] * n
    out_done = [False] * n
    emitted_roots = [False] * n
    pending_roots: deque[int] = deque()

    def push(heap: list[tuple[float, int]], queued: list[float | None],
             node: int) -> None:
        """Queue ``node`` by its total activation, ``_activation_total``
        summed inline for fewer than 8 terms.

        A node queued again at an unchanged priority is skipped: its
        earlier entry is still in the heap unless the node is done, and an
        entry equal to another, or one for a done node, changes no pop and
        no choice between the heaps.
        """
        base = node * w
        if w < 8:
            t = 0.0
            for j in range(base, base + w):
                t += a[j]
        else:
            t = _activation_total(a, base, w)
        last = queued[node]
        if last is None:
            stats.nodes_touched += 1
        elif last == -t:
            return
        queued[node] = -t
        heapq.heappush(heap, (-t, node))

    for u in sources:
        push(in_heap, in_queued, u)

    def lower(x: int, i: int, cand: float, via: int, w_via: float) -> None:
        """Record ``cand`` as x's distance to term i, reached through ``via``."""
        j = x * w + i
        if d[j] == INF:
            missing[x] -= 1
            if missing[x] == 0 and in_done[x] and not emitted_roots[x]:
                pending_roots.append(x)
        d[j] = cand
        succ[j] = via
        succ_w[j] = w_via

    def propagate(queue: deque[tuple[int, int]]) -> None:
        """Repair shortest-known distances after improvements at the queued
        nodes; ``lower`` is inlined."""
        while queue:
            q, i = queue.popleft()
            base = d[q * w + i]
            for j in range(offset[q], offset[q + 1]):
                x = target[j]
                cand = w_in[j] + base
                xi = x * w + i
                if cand < d[xi]:
                    if d[xi] == INF:
                        missing[x] -= 1
                        if missing[x] == 0 and in_done[x] and not emitted_roots[x]:
                            pending_roots.append(x)
                    d[xi] = cand
                    succ[xi] = q
                    succ_w[xi] = w_in[j]
                    queue.append((x, i))

    def one_root_edge(r: int) -> bool:
        """Every term's path from ``r`` starts with the same edge."""
        base = r * w
        if d[base] == 0.0:
            return False
        for j in range(base + 1, base + w):
            if (d[j] == 0.0 or succ[j] != succ[base]
                    or succ_w[j] != succ_w[base]):
                return False
        return True

    def emit(r: int) -> None:
        """Pool the tree that follows every term's successors from ``r``."""
        emitted_roots[r] = True
        if one_root_edge(r):
            return
        paths = []
        kw_nodes = []
        for i in range(w):
            path: list[tuple[int, int, float]] = []
            x = r
            while d[x * w + i] > 0.0:
                s = succ[x * w + i]
                path.append((x, s, succ_w[x * w + i]))
                x = s
            paths.append(path)
            kw_nodes.append(x)
        pool.add(r, paths, tuple(kw_nodes))

    # activation, not distance, orders the expansion: the bound stays at
    # frontier 0
    pool.lower_bound(0.0)
    stats.stopped = STOPPED_EXHAUSTED
    while in_heap or out_heap:
        take_in = bool(in_heap)
        if take_in and out_heap and out_heap[0][0] < in_heap[0][0]:
            take_in = False
        if take_in:
            _, u = heapq.heappop(in_heap)
            if in_done[u]:
                continue
            in_done[u] = True
            stats.nodes_explored += 1
            push(out_heap, out_queued, u)
            if missing[u] == 0 and not emitted_roots[u]:
                pending_roots.append(u)
            propagate(deque((u, i) for i in range(w) if d[u * w + i] == 0.0))
            lo, hi = offset[u], offset[u + 1]
            _spread(a, w, mu, u, target, w_in, lo, hi)
            for j in range(lo, hi):
                x = target[j]
                if not in_done[x]:
                    push(in_heap, in_queued, x)
        else:
            _, v = heapq.heappop(out_heap)
            if out_done[v]:
                continue
            out_done[v] = True
            stats.nodes_explored += 1
            lo, hi = offset[v], offset[v + 1]
            improved = deque()
            for j in range(lo, hi):
                y, w_vy = target[j], w_out[j]
                for i in range(w):
                    cand = w_vy + d[y * w + i]
                    if cand < d[v * w + i]:
                        lower(v, i, cand, y, w_vy)
                        improved.append((v, i))
            propagate(improved)
            _spread(a, w, mu, v, target, w_out, lo, hi)
            for j in range(lo, hi):
                y = target[j]
                if not out_done[y]:
                    push(out_heap, out_queued, y)
        while pending_roots:
            r = pending_roots.popleft()
            if not emitted_roots[r]:
                emit(r)
        if pool.full():
            stats.stopped = STOPPED_K
            break

    answers = pool.top(stats)
    stats.elapsed = time.perf_counter() - started
    return answers, stats
