"""Answer trees and their ranking.

An answer is a directed tree embedded in the graph, rooted at a node from
which every keyword is reachable.  Its score mixes a node term (prestige of
root and leaves) with an edge term derived from the total edge weight.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
EDGE_AS_WRITTEN = "as-written"
EDGE_RECIPROCAL_SUM = "reciprocal-sum"


@dataclass(frozen=True)
class ScoreConfig:
    """Knobs for tree scoring.

    ``node_weight`` is the mixing factor for the node term: the additive
    combination is ``nw * N + (1 - nw) * E``; the multiplicative one is
    ``E * N ** nw``.  ``edge_variant`` selects how the summed edge weight
    becomes a score in (0, 1]: ``as-written`` uses 1 / (1 + 1 / sum) and so
    rewards heavier trees; ``reciprocal-sum`` uses 1 / (1 + sum) and rewards
    lighter ones.
    """

    node_weight: float = 0.2
    combine: str = ADDITIVE
    edge_variant: str = EDGE_AS_WRITTEN


@dataclass(frozen=True)
class AnswerTree:
    """A rooted directed tree plus the keyword node chosen per term.

    ``edges`` are (parent, child, weight) triples ordered parent-first is
    not required; the set defines the tree.  ``keyword_nodes[i]`` is the
    tree node that matched term ``i``.
    """

    root: int
    edges: tuple[tuple[int, int, float], ...]
    keyword_nodes: tuple[int, ...]

    @property
    def nodes(self) -> frozenset[int]:
        out = {self.root}
        for u, v, _ in self.edges:
            out.add(u)
            out.add(v)
        return frozenset(out)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for u, v, _ in self.edges:
            out.setdefault(u, []).append(v)
        return out

    def leaves(self) -> list[int]:
        """Nodes with no outgoing tree edge; the root is a leaf only when alone."""
        if not self.edges:
            return []
        parents = {u for u, _, _ in self.edges}
        return sorted(n for n in self.nodes if n not in parents)

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def shape_key(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Root and weight-free edge set; trees compare equal by this."""
        return self.root, tuple(sorted((u, v) for u, v, _ in self.edges))

    def identity_key(self):
        return self.root, tuple(sorted(self.edges))

    def is_valid(self) -> bool:
        """Every non-root node has exactly one parent and hangs off the root."""
        parent: dict[int, int] = {}
        for u, v, _ in self.edges:
            if v == self.root or v in parent:
                return False
            parent[v] = u
        seen = {self.root}
        order = [self.root]
        kids = self.children()
        while order:
            for c in kids.get(order.pop(), ()):
                if c in seen:
                    return False
                seen.add(c)
                order.append(c)
        return seen == set(self.nodes)


def node_score(tree: AnswerTree, prestige: np.ndarray) -> float:
    """Prestige of the root plus prestige of every leaf.

    A single-node tree counts its node once, as the root.
    """
    total = float(prestige[tree.root])
    for leaf in tree.leaves():
        total += float(prestige[leaf])
    return total


def edge_score(tree: AnswerTree, cfg: ScoreConfig) -> float:
    """Map the tree's total edge weight into (0, 1].  Edgeless trees score 1."""
    total = tree.total_weight()
    if tree.edge_count == 0:
        return 1.0
    if cfg.edge_variant == EDGE_AS_WRITTEN:
        return 1.0 / (1.0 + 1.0 / total)
    if cfg.edge_variant == EDGE_RECIPROCAL_SUM:
        return 1.0 / (1.0 + total)
    raise ValueError(f"unknown edge variant {cfg.edge_variant!r}")


def tree_score(n_score: float, e_score: float, cfg: ScoreConfig) -> float:
    if cfg.combine == ADDITIVE:
        return cfg.node_weight * n_score + (1.0 - cfg.node_weight) * e_score
    if cfg.combine == MULTIPLICATIVE:
        return e_score * n_score ** cfg.node_weight
    raise ValueError(f"unknown combination {cfg.combine!r}")


@dataclass(frozen=True)
class ScoredAnswer:
    tree: AnswerTree
    node_score: float
    edge_score: float
    score: float

    def sort_key(self):
        return (-self.score, self.tree.node_count, self.tree.root,
                self.tree.shape_key()[1])


def score_tree(tree: AnswerTree, prestige: np.ndarray, cfg: ScoreConfig) -> ScoredAnswer:
    n = node_score(tree, prestige)
    e = edge_score(tree, cfg)
    return ScoredAnswer(tree, n, e, tree_score(n, e, cfg))


def is_acceptable(tree: AnswerTree, baseline: list[ScoredAnswer]) -> bool:
    """No bigger than the largest answer a trusted baseline produced.

    Size is judged on node count and edge count against the maxima over the
    baseline's answers (its top 10, if longer lists are passed).
    """
    if not baseline:
        return False
    top = baseline[:10]
    max_nodes = max(a.tree.node_count for a in top)
    max_edges = max(a.tree.edge_count for a in top)
    return tree.node_count <= max_nodes and tree.edge_count <= max_edges


class OutputHeap:
    """Buffers scored answers and releases them under a falling upper bound.

    Answers are pushed as they are generated.  ``update_bound`` feeds the
    current upper bound on any *future* answer's score; a buffered answer is
    emitted once its score is at least that bound, so the emitted sequence
    is nonincreasing in score.  Bounds are clamped to be monotone.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._bound = float("inf")
        self._emitted_count = 0
        self._seq = 0

    @property
    def bound(self) -> float:
        return self._bound

    @property
    def emitted_count(self) -> int:
        """Answers released so far."""
        return self._emitted_count

    def push(self, answer: ScoredAnswer) -> list[ScoredAnswer]:
        heapq.heappush(self._heap, (answer.sort_key(), self._seq, answer))
        self._seq += 1
        return self._release()

    def update_bound(self, bound: float) -> list[ScoredAnswer]:
        self._bound = min(self._bound, bound)
        return self._release()

    def _release(self) -> list[ScoredAnswer]:
        out: list[ScoredAnswer] = []
        while self._heap and self._heap[0][2].score >= self._bound:
            out.append(heapq.heappop(self._heap)[2])
        self._emitted_count += len(out)
        return out
