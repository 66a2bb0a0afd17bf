"""Shared builders for randomized tests.

Edge weights come from a coarse grid of quarter multiples so that sums of
a few of them are exactly representable in float32 and float64 alike;
tests can then assert exact float equality where the contracts promise it.
"""

import hashlib
import random

import numpy as np
import pytest

from embanks.graph import DataGraph, GraphBuilder
from embanks.search import KeywordSets

WEIGHT_GRID = [i / 4 for i in range(1, 17)]


def random_graph(rng: random.Random, n: int, extra_links: int | None = None,
                 prestige_max: int = 5, connected: bool = True,
                 weights: list[float] = WEIGHT_GRID) -> DataGraph:
    """A random link graph; link direction is random per link, and each
    link's two weights are drawn from ``weights``."""
    b = GraphBuilder()
    for _ in range(n):
        b.add_node(float(rng.randint(0, prestige_max)))
    if connected:
        for i in range(1, n):
            t = rng.randrange(i)
            u, v = (i, t) if rng.random() < 0.5 else (t, i)
            b.add_link(u, v, rng.choice(weights), rng.choice(weights))
    extra = n // 2 if extra_links is None else extra_links
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        b.add_link(u, v, rng.choice(weights), rng.choice(weights))
    return b.build()


def with_self_loops(rng: random.Random, g: DataGraph, count: int) -> DataGraph:
    """``g`` rebuilt with self-loops added at up to ``count`` random nodes,
    its links in shuffled order."""
    links = list(g.links()) + [(x, x, 1.5, 0.5) for x in
                               rng.sample(range(g.node_count), min(g.node_count, count))]
    rng.shuffle(links)
    b = GraphBuilder()
    b.add_nodes(g.prestige)
    b.add_links(*zip(*links))
    return b.build()


def random_keyword_sets(rng: random.Random, n: int, nsets: int,
                        max_size: int = 3) -> KeywordSets:
    sets = []
    for _ in range(nsets):
        size = rng.randint(1, min(max_size, n))
        sets.append(frozenset(rng.sample(range(n), size)))
    return KeywordSets([f"t{i}" for i in range(nsets)], sets)


def answers_digest(answers) -> str:
    """A short digest of every answer's identity key and score, in order."""
    rows = [(a.tree.identity_key(), a.score) for a in answers]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.fixture
def rng():
    return random.Random(20250814)
