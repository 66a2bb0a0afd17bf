"""Ranked answer search: backward expanding and bidirectional."""

import random
from dataclasses import replace

import numpy as np
import pytest

from embanks import search
from embanks.graph import DataGraph, GraphBuilder
from embanks.scoring import (EDGE_RECIPROCAL_SUM, AnswerTree, ScoreConfig,
                             ScoredAnswer, score_tree)
from embanks.search import (COMBOS, COMBOS_ALL, COMBOS_BEST, STOPPED_EXHAUSTED,
                            STOPPED_K, STOPPED_ONE_SOURCE, ActivationState,
                            KeywordSets, NoMatchError, SearchConfig,
                            SearchStats, backward_search, bidirectional_search,
                            _activation_total, _tight_path, init_activation,
                            root_is_redundant, spread_activation,
                            steiner_minimality_filter)

from conftest import (WEIGHT_GRID, answers_digest, random_graph,
                      random_keyword_sets)
from oracles import (best_combo_answers, canonical_path, dijkstra_oracle,
                     exhaustive_answers, graph_adjacency, score_answer,
                     union_paths)

REST_TOL = 1e-9


def _assert_matches_oracle(answers, expected):
    assert len(answers) == len(expected), \
        (len(answers), len(expected))
    for got, ref in zip(answers, expected):
        assert got.tree.root == ref.root
        assert tuple(sorted(got.tree.edges)) == ref.edges
        assert got.score == ref.score
        assert got.node_score == ref.node_score
        assert got.edge_score == ref.edge_score


def test_backward_matches_exhaustive_oracle(rng):
    cfg = SearchConfig(k=10, combos=COMBOS_ALL)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        ks = random_keyword_sets(rng, n, rng.randint(2, 3))
        answers, stats = backward_search(g, ks, cfg)
        expected = exhaustive_answers(g, ks, cfg.score, k=cfg.k)
        _assert_matches_oracle(answers, expected)
        assert stats.nodes_explored <= stats.nodes_touched


def test_backward_single_term(rng):
    cfg = SearchConfig(k=5)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        ks = random_keyword_sets(rng, n, 1)
        answers, _ = backward_search(g, ks, cfg)
        expected = exhaustive_answers(g, ks, cfg.score, k=cfg.k)
        _assert_matches_oracle(answers, expected)


def test_backward_hand_example():
    """Two papers joined by an author: the join node roots the best tree."""
    b = GraphBuilder()
    p1 = b.add_node(1.0)
    p2 = b.add_node(1.0)
    au = b.add_node(2.0)
    b.add_link(au, p1, 1.0, 1.0)
    b.add_link(au, p2, 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["a", "b"], [frozenset({p1}), frozenset({p2})])
    answers, _ = backward_search(g, ks, SearchConfig(k=3))
    best = answers[0]
    assert best.tree.root == au
    assert set(best.tree.edges) == {(au, p1, 1.0), (au, p2, 1.0)}
    assert best.node_score == 2.0 + 1.0 + 1.0
    assert best.edge_score == 1.0 / (1.0 + 1.0 / 2.0)


def test_single_node_answer_scores_once():
    b = GraphBuilder()
    x = b.add_node(3.0)
    y = b.add_node(1.0)
    b.add_link(x, y, 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["a", "b"], [frozenset({x}), frozenset({x})])
    answers, _ = backward_search(g, ks, SearchConfig(k=2))
    single = [a for a in answers if a.tree.node_count == 1]
    assert single
    a = single[0]
    assert a.tree.root == x
    assert a.node_score == 3.0
    assert a.edge_score == 1.0
    assert a.score == 0.2 * 3.0 + 0.8


def test_redundant_single_child_root_excluded():
    """A root with one child is dropped when the terms survive without it."""
    b = GraphBuilder()
    r = b.add_node(1.0)
    m = b.add_node(1.0)
    k = b.add_node(1.0)
    b.add_link(r, m, 1.0, 1.0)
    b.add_link(m, k, 1.0, 1.0)
    g = b.build()
    # both terms live below r, so rooting at r is redundant
    ks = KeywordSets(["a", "b"], [frozenset({m}), frozenset({k})])
    answers, _ = backward_search(g, ks, SearchConfig(k=10))
    assert all(a.tree.root != r for a in answers)
    # but when the root itself carries a term, the same shape is legal
    ks2 = KeywordSets(["a", "b"], [frozenset({r}), frozenset({k})])
    answers2, _ = backward_search(g, ks2, SearchConfig(k=10))
    assert any(a.tree.root == r and a.tree.edge_count == 2 for a in answers2)


def test_steiner_filter_unit(rng):
    p = np.ones(6, dtype=np.float32)
    from embanks.scoring import AnswerTree

    def scored(root, edges):
        return score_tree(AnswerTree(root, tuple(edges), ()), p, ScoreConfig())

    small = scored(0, [(0, 1, 1.0)])
    superset = scored(0, [(0, 1, 1.0), (1, 2, 1.0)])
    disjoint = scored(3, [(3, 4, 1.0)])
    kept = steiner_minimality_filter([superset, small, disjoint])
    assert small in kept and disjoint in kept and superset not in kept


def test_steiner_filter_matches_pairwise_scan(rng):
    cfg = SearchConfig(k=50)
    for _ in range(10):
        n = rng.randint(4, 10)
        g = random_graph(rng, n)
        ks = random_keyword_sets(rng, n, 2)
        nofilter = SearchConfig(k=1000, steiner_filter=False)
        pool, _ = backward_search(g, ks, nofilter)
        kept = steiner_minimality_filter(pool)
        node_sets = [a.tree.nodes for a in pool]
        expect = [a for a in pool
                  if not any(o < a.tree.nodes for o in node_sets)]
        assert [a.tree.identity_key() for a in kept] == \
               [a.tree.identity_key() for a in expect]


def test_no_match_raises():
    g = random_graph(random.Random(1), 5)
    with pytest.raises(NoMatchError):
        backward_search(g, KeywordSets(["a"], [frozenset()]), SearchConfig())
    with pytest.raises(NoMatchError):
        bidirectional_search(g, KeywordSets(["a"], [frozenset()]),
                             SearchConfig())


def test_keyword_sets_restrict():
    ks = KeywordSets(["a", "b"], [frozenset({1, 5}), frozenset({7})])
    kept = ks.restrict(np.array([1, 7, 9]))
    assert kept.sets == [frozenset({0}), frozenset({1})]
    with pytest.raises(NoMatchError):
        ks.restrict(np.array([1]))  # second set vanishes
    with pytest.raises(NoMatchError):
        ks.restrict(np.zeros(0, dtype=np.int64))


def test_combos_best_is_subset_of_full_pool(rng):
    for _ in range(15):
        n = rng.randint(3, 10)
        g = random_graph(rng, n)
        ks = random_keyword_sets(rng, n, 2)
        best, _ = backward_search(g, ks, SearchConfig(k=20, combos=COMBOS_BEST))
        pool = exhaustive_answers(g, ks, ScoreConfig(), k=None, steiner=False)
        pool_keys = {(a.root, a.edges) for a in pool}
        for a in best:
            assert (a.tree.root, tuple(sorted(a.tree.edges))) in pool_keys
        full, _ = backward_search(g, ks, SearchConfig(k=20, combos=COMBOS_ALL))
        assert len(best) <= len(full)


def test_combos_best_matches_its_oracle(rng):
    """``combos=best`` answers, keyword nodes included, are the oracle's:
    per root, each term's nearest keyword node by (distance, id).

    Half the graphs have integer weights, so many nodes lie at equal
    distance from several keyword nodes of a term and the per-term
    iterator's labels decide the answers; queries have up to three terms,
    often with a node that matches two.  A node settles at most once per
    term."""
    configs = [SearchConfig(k=10, combos=COMBOS_BEST),
               SearchConfig(k=10 ** 6, steiner_filter=False, combos=COMBOS_BEST)]
    shared = three_terms = 0
    for trial in range(140):
        n = rng.randint(2, 14)
        weights = [1.0, 2.0, 3.0] if trial % 2 else WEIGHT_GRID
        g = random_graph(rng, n, extra_links=rng.randint(0, n), weights=weights)
        ks = random_keyword_sets(rng, n, rng.randint(1, 3), max_size=4)
        if len(ks.sets) > 1 and rng.random() < 0.4:  # a node matching two terms
            both = rng.randrange(n)
            ks = KeywordSets(ks.terms, [ks.sets[0] | {both}, ks.sets[1] | {both},
                                        *ks.sets[2:]])
        shared += len(ks.sets) > 1 and bool(ks.sets[0] & ks.sets[1])
        three_terms += len(ks.sets) == 3
        for cfg in configs:
            answers, stats = backward_search(g, ks, cfg)
            expected = best_combo_answers(g, ks, cfg.score, k=cfg.k,
                                          steiner=cfg.steiner_filter)
            _assert_matches_oracle(answers, expected)
            assert [a.tree.keyword_nodes for a in answers] == \
                [e.keyword_nodes for e in expected]
            assert stats.nodes_explored <= len(ks.sets) * g.node_count
    assert shared and three_terms


def test_combos_best_settles_each_node_once_per_term():
    """A hub above forty keyword nodes of one term: one iterator per
    keyword node settles the hub's side of the graph forty times over, the
    per-term iterator once per term."""
    b = GraphBuilder()
    hub, other = b.add_node(1.0), b.add_node(1.0)
    b.add_link(hub, other, 1.0, 1.0)
    chain = [hub] + [b.add_node(1.0) for _ in range(20)]
    for u, v in zip(chain[1:], chain):
        b.add_link(u, v, 1.0, 1.0)
    many = [b.add_node(1.0) for _ in range(40)]
    for k in many:
        b.add_link(hub, k, 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["a", "b"], [frozenset(many), frozenset({other})])
    best, best_stats = backward_search(g, ks, SearchConfig(k=10 ** 6))
    _, all_stats = backward_search(g, ks, SearchConfig(k=10 ** 6,
                                                       combos=COMBOS_ALL))
    assert best_stats.stopped == STOPPED_EXHAUSTED
    assert best_stats.nodes_explored <= len(ks.sets) * g.node_count
    assert all_stats.nodes_explored > 20 * g.node_count
    assert [a.tree.keyword_nodes for a in best] == \
        [e.keyword_nodes for e in best_combo_answers(g, ks, ScoreConfig())]


def test_ranking_builds_shapes_only_for_ties(monkeypatch, rng):
    """The pool's ranking equals sorting by ``ScoredAnswer.sort_key``, ties
    included, and reads a shape key only where score, node count and root
    all tie."""
    shapes = []
    shape_key = AnswerTree.shape_key

    def counting(tree):
        shapes.append(tree)
        return shape_key(tree)

    tied = 0
    for _ in range(40):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, extra_links=rng.randint(0, n),
                         weights=[1.0, 2.0], prestige_max=1)
        ks = random_keyword_sets(rng, n, rng.randint(1, 3))
        pool, _ = backward_search(g, ks, SearchConfig(
            k=10 ** 6, steiner_filter=False, combos=COMBOS_ALL))
        rng.shuffle(pool)
        heads = [(-a.score, a.tree.node_count, a.tree.root) for a in pool]
        monkeypatch.setattr(AnswerTree, "shape_key", counting)
        shapes.clear()
        ranked = search._ranked(pool)
        monkeypatch.setattr(AnswerTree, "shape_key", shape_key)
        assert ranked == sorted(pool, key=ScoredAnswer.sort_key)
        assert len(shapes) == sum(heads.count(h) > 1 for h in heads)
        tied += bool(shapes)
    assert tied

ONE_SOURCE_CONFIGS = {
    "all": SearchConfig(k=10),
    "best": SearchConfig(k=10, combos=COMBOS_BEST),
    "phase1": SearchConfig(k=10).for_phase1(100),
}


@pytest.mark.parametrize("name", sorted(ONE_SOURCE_CONFIGS))
def test_one_source_returns_its_node_without_a_sweep(monkeypatch, rng, name):
    """When one node is every term's only keyword node, both searches
    return exactly the oracle's answers, that node alone, and never build
    the adjacency lists a sweep walks."""
    cfg = ONE_SOURCE_CONFIGS[name]

    def no_sweep(_g):
        raise AssertionError("adjacency_lists called")

    monkeypatch.setattr(DataGraph, "adjacency_lists", no_sweep)
    for _ in range(40):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        s = rng.randrange(n)
        terms = [f"t{i}" for i in range(rng.randint(1, 4))]
        ks = KeywordSets(terms, [frozenset({s})] * len(terms))
        expected = exhaustive_answers(g, ks, cfg.score, k=cfg.k,
                                      steiner=cfg.steiner_filter)
        assert [(e.root, e.edges) for e in expected] == [(s, ())]
        for algorithm in (backward_search, bidirectional_search):
            answers, stats = algorithm(g, ks, cfg)
            _assert_matches_oracle(answers, expected)
            assert answers[0].tree.keyword_nodes == (s,) * len(terms)
            assert (stats.nodes_touched, stats.nodes_explored,
                    stats.answers_emitted) == (1, 1, 1)
            assert stats.stopped == STOPPED_ONE_SOURCE


@pytest.mark.parametrize("algorithm", [backward_search, bidirectional_search])
def test_stats_say_why_the_search_stopped(algorithm):
    """``k`` when the answer pool released k answers, ``exhausted`` when
    the frontier ran empty, ``one-source`` when one node is every term's
    only keyword node.  With zero prestige the one-node answer at ``s``
    meets the pool's bound, so it is released as soon as it is found."""
    b = GraphBuilder()
    s, t, u = (b.add_node(0.0) for _ in range(3))
    b.add_link(u, s, 1.0, 1.0)
    b.add_link(u, t, 1.0, 1.0)
    g = b.build()
    two = KeywordSets(["a", "b"], [frozenset({s, t}), frozenset({s})])
    one = KeywordSets(["a", "b"], [frozenset({s}), frozenset({s})])
    early, stats = algorithm(g, two, SearchConfig(k=1))
    assert stats.stopped == STOPPED_K
    assert stats.nodes_explored < g.node_count
    full, stats = algorithm(g, two, SearchConfig(k=10))
    assert stats.stopped == STOPPED_EXHAUSTED
    assert early == full[:1]
    assert algorithm(g, one, SearchConfig(k=1))[1].stopped == STOPPED_ONE_SOURCE
    assert (SearchStats(stopped=STOPPED_K)
            + SearchStats(stopped=STOPPED_EXHAUSTED)).stopped == STOPPED_EXHAUSTED


def test_early_termination_reciprocal_sum(rng):
    """With the distance-decaying edge score the search can stop early and
    still return the exact top answers."""
    score_cfg = ScoreConfig(edge_variant=EDGE_RECIPROCAL_SUM)
    for _ in range(20):
        n = rng.randint(4, 11)
        g = random_graph(rng, n, extra_links=n)
        ks = random_keyword_sets(rng, n, 2)
        cfg = SearchConfig(k=3, score=score_cfg, combos=COMBOS_ALL)
        answers, stats = backward_search(g, ks, cfg)
        expected = exhaustive_answers(g, ks, score_cfg, k=3)
        assert [a.score for a in answers] == [e.score for e in expected]
        exhaust = replace(cfg, k=10 ** 6)
        _, full_stats = backward_search(g, ks, exhaust)
        assert stats.nodes_explored <= full_stats.nodes_explored


def test_early_termination_saves_exploration():
    """On a long chain the bounded run must settle fewer nodes."""
    b = GraphBuilder()
    nodes = [b.add_node(1.0) for _ in range(40)]
    for i in range(39):
        b.add_link(nodes[i], nodes[i + 1], 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["a", "b"],
                     [frozenset({nodes[0]}), frozenset({nodes[1]})])
    cfg = SearchConfig(k=1, score=ScoreConfig(edge_variant=EDGE_RECIPROCAL_SUM))
    answers, stats = backward_search(g, ks, cfg)
    assert answers
    _, full = backward_search(g, ks, SearchConfig(
        k=10 ** 6, score=ScoreConfig(edge_variant=EDGE_RECIPROCAL_SUM)))
    assert stats.nodes_explored < full.nodes_explored


def _pool_fixture(k=10):
    """Zero prestige under ``reciprocal-sum``: a tree of weight ``W`` and the
    bound at frontier ``W`` both score ``0.8 / (1 + W)``.  ``r1`` reaches
    ``a`` and ``b`` at weight 1 in all, ``r2`` at weight 3."""
    b = GraphBuilder()
    a, bb, r1, r2 = (b.add_node(0.0) for _ in range(4))
    ks = KeywordSets(["a", "b"], [frozenset({a}), frozenset({bb})])
    cfg = SearchConfig(k=k, score=ScoreConfig(edge_variant=EDGE_RECIPROCAL_SUM))
    pool = search._AnswerPool(b.build(), ks, cfg)
    light = (r1, [[(r1, a, 0.5)], [(r1, bb, 0.5)]], (a, bb))
    heavy = (r2, [[(r2, a, 1.5)], [(r2, bb, 1.5)]], (a, bb))
    return pool, light, heavy


def test_answer_pool_replay():
    """Each tree is pooled and scored once; a candidate is released once the
    bound falls to its score, and a looser bound later releases nothing."""
    pool, light, heavy = _pool_fixture(k=2)
    r1, _, (a, bb) = light
    pool.add(*heavy)
    pool.add(*light)
    pool.add(*light)
    # paths that disagree on a parent, then a redundant single-child root
    pool.add(r1, [[(r1, a, 0.5)], [(r1, bb, 0.5), (bb, a, 0.5)]], (a, bb))
    pool.add(r1, [[(r1, a, 0.5)], [(r1, a, 0.5), (a, bb, 0.5)]], (a, bb))
    assert len(pool.candidates) == 2 and pool.released == 0
    pool.lower_bound(2.0)
    assert pool.released == 1 and not pool.full()
    bound = pool.bound
    pool.lower_bound(0.5)
    assert pool.bound == bound and pool.released == 1
    pool.lower_bound(3.0)
    assert pool.released == 2 and pool.full()
    stats = SearchStats()
    top = pool.top(stats)
    assert [x.tree.root for x in top] == [r1, heavy[0]]
    assert [x.score for x in top] == [0.4, 0.2]
    assert stats.answers_emitted == 2


def test_answer_pool_releases_on_equality():
    pool, light, _ = _pool_fixture()
    pool.lower_bound(1.0)
    pool.add(*light)
    (answer,) = pool.candidates.values()
    assert answer.score == pool.bound
    assert pool.released == 1


def _spy_pool(monkeypatch):
    """Record every ``_AnswerPool.add`` call as (pool, root, paths, keyword
    nodes, whether the pool grew), and every ``search.score_tree`` call."""
    calls, scored = [], []
    add, score = search._AnswerPool.add, search.score_tree

    def spy_add(pool, root, paths, keyword_nodes):
        before = len(pool.candidates)
        add(pool, root, paths, keyword_nodes)
        calls.append((pool, root, paths, keyword_nodes,
                      len(pool.candidates) > before))

    def counting(*args):
        scored.append(args[0])
        return score(*args)

    monkeypatch.setattr(search._AnswerPool, "add", spy_add)
    monkeypatch.setattr(search, "score_tree", counting)
    return calls, scored


@pytest.mark.parametrize("algorithm", [backward_search, bidirectional_search])
def test_answer_pool_agrees_with_oracles(monkeypatch, rng, algorithm):
    """Every kept candidate scores as ``oracles.score_answer`` does; every
    dropped one has conflicting paths, is pooled already, or has a root
    ``root_is_redundant`` rejects.  Each pooled candidate is scored once."""
    calls, scored = _spy_pool(monkeypatch)
    redundant = 0
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        ks = random_keyword_sets(rng, n, rng.randint(1, 3))
        if rng.random() < 0.3:  # a node matching two terms
            shared = rng.randrange(n)
            ks = KeywordSets(ks.terms, [s | {shared} for s in ks.sets])
        cfg = SearchConfig(k=rng.choice([1, 10 ** 6]), combos=rng.choice(COMBOS),
                           score=ScoreConfig(edge_variant=rng.choice(
                               ["as-written", EDGE_RECIPROCAL_SUM])))
        calls.clear()
        scored.clear()
        algorithm(g, ks, cfg)
        pooled = set()
        for pool, root, paths, keyword_nodes, kept in calls:
            edges = union_paths(root, paths)
            key = (root, edges)
            if kept:
                assert key not in pooled
                pooled.add(key)
                got = pool.candidates[key]
                ref = score_answer(root, edges, keyword_nodes, g.prestige, cfg.score)
                assert (got.tree.root, got.tree.edges, got.tree.keyword_nodes) == \
                    (ref.root, ref.edges, ref.keyword_nodes)
                assert (got.node_score, got.edge_score, got.score) == \
                    (ref.node_score, ref.edge_score, ref.score)
                assert not root_is_redundant(got.tree, ks)
            elif edges is not None and key not in pooled:
                assert root_is_redundant(AnswerTree(root, edges, keyword_nodes), ks)
                redundant += 1
        pools = {id(c[0]): c[0] for c in calls}.values()
        assert len(scored) == len(pooled) == sum(len(p.candidates) for p in pools)
    assert redundant > 0


def test_answer_paths_scan_each_node_once_per_iterator(monkeypatch):
    """Roots that share a high-degree node on their paths do not rescan it.

    Thirty leaves hang off ``h2``, which joins ``h``, the neighbour of every
    keyword node; ``kab`` matches both terms, so combination ``(kab, kab)``
    occurs.  Walking every root's paths afresh would scan ``h2`` hundreds
    of times; the tight-successor tables scan a node at most once per
    iterator.
    """
    b = GraphBuilder()
    ka, kb, kab, h, h2 = (b.add_node(1.0) for _ in range(5))
    for k in (ka, kb, kab):
        b.add_link(h, k, 1.0, 1.0)
    b.add_link(h2, h, 1.0, 1.0)
    for _ in range(30):
        b.add_link(b.add_node(1.0), h2, 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["a", "b"], [frozenset({ka, kab}), frozenset({kb, kab})])
    n_iterators = len(ks.sets[0] | ks.sets[1])

    scans = {}
    original = search._tight_successor

    def counting(adj, dist, node, label=None):
        scans[node] = scans.get(node, 0) + 1
        return original(adj, dist, node, label)

    monkeypatch.setattr(search, "_tight_successor", counting)
    answers, stats = backward_search(g, ks, SearchConfig(k=10 ** 6,
                                                         combos=COMBOS_ALL))
    assert answers
    assert stats.nodes_explored == n_iterators * g.node_count  # all settled
    assert max(scans.values()) <= n_iterators
    assert sum(scans.values()) <= stats.nodes_explored
    assert scans[h2] >= 1


def test_tied_paths_sharing_a_tail_take_the_smallest_id():
    """Two roots reach ``s``, which has two equal-cost routes to ``k``.

    Both answers must go through the smaller-id branch ``lo``, exactly as
    the brute-force canonical path does.
    """
    b = GraphBuilder()
    k, lo, hi, s, r1, r2, k2 = (b.add_node(1.0) for _ in range(7))
    b.add_link(lo, k, 1.0, 1.0)
    b.add_link(hi, k, 1.0, 1.0)
    b.add_link(s, hi, 1.0, 1.0)
    b.add_link(s, lo, 1.0, 1.0)
    for r in (r1, r2):
        b.add_link(r, s, 1.0, 1.0)
        b.add_link(r, k2, 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["a", "b"], [frozenset({k}), frozenset({k2})])
    answers, _ = backward_search(g, ks, SearchConfig(k=10 ** 6))
    trees = {a.tree.root: set(a.tree.edges) for a in answers}

    reverse = {}
    for u, out in graph_adjacency(g).items():
        for v, w in out:
            reverse.setdefault(v, []).append((u, w))
    dist = dijkstra_oracle(reverse, k)
    shared = {}
    adj = g.adjacency_lists()
    for r in (r1, r2):
        fresh = canonical_path(g, r, k)[2]
        assert tuple(_tight_path(adj, dist, shared, r)) == fresh
        assert (s, lo, 1.0) in fresh
        assert set(fresh) <= trees[r]
        assert (s, hi, 1.0) not in trees[r]


def _union_roots(monkeypatch) -> list[int]:
    """Record the root of every tree the searches start to assemble."""
    roots = []
    original = search._union_tree

    def counting(root, paths, keyword_nodes):
        roots.append(root)
        return original(root, paths, keyword_nodes)

    monkeypatch.setattr(search, "_union_tree", counting)
    return roots


@pytest.mark.parametrize("algorithm", [backward_search, bidirectional_search])
def test_single_child_roots_build_no_tree(monkeypatch, algorithm):
    """Fifty nodes hang in a chain above ``k``, which matches both terms.

    Each chain node's paths leave it by its one edge towards ``k``, so it
    is a redundant single-child root, dropped before any tree is built;
    only the one-node answer at ``k`` is assembled.  ``far`` matches ``b``
    too but has no link, so the search sweeps instead of stopping at ``k``.
    """
    b = GraphBuilder()
    chain = [b.add_node(1.0) for _ in range(51)]
    for u, v in zip(chain[1:], chain):
        b.add_link(u, v, 1.0, 1.0)
    far = b.add_node(1.0)
    g = b.build()
    k = chain[0]
    ks = KeywordSets(["a", "b"], [frozenset({k}), frozenset({k, far})])
    roots = _union_roots(monkeypatch)
    answers, stats = algorithm(g, ks, SearchConfig(k=10 ** 6))
    assert stats.nodes_explored >= g.node_count
    assert [(a.tree.root, a.tree.edges) for a in answers] == [(k, ())]
    assert roots and set(roots) == {k}


@pytest.mark.parametrize("algorithm", [backward_search, bidirectional_search])
def test_roots_left_by_two_edges_build_their_tree(monkeypatch, algorithm):
    """``r`` reaches ``ka`` and ``kb`` by different edges, so its tree is
    built and kept; the chain above ``r`` still builds none."""
    b = GraphBuilder()
    ka, r, kb = (b.add_node(1.0) for _ in range(3))
    b.add_link(r, ka, 1.0, 1.0)
    b.add_link(r, kb, 1.0, 1.0)
    chain = [r] + [b.add_node(1.0) for _ in range(10)]
    for u, v in zip(chain[1:], chain):
        b.add_link(u, v, 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["a", "b"], [frozenset({ka}), frozenset({kb})])
    roots = _union_roots(monkeypatch)
    answers, _ = algorithm(g, ks, SearchConfig(k=10 ** 6))
    assert r in roots
    assert not set(roots) & set(chain[1:])
    assert any(a.tree.root == r and a.tree.edges == ((r, ka, 1.0), (r, kb, 1.0))
               for a in answers)


def test_backward_full_pool_matches_exhaustive_oracle(rng):
    """Without a k cut or the Steiner filter the whole candidate pool equals
    the oracle's, so dropping single-child roots early loses no answer."""
    cfg = SearchConfig(k=10 ** 6, steiner_filter=False, combos=COMBOS_ALL)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        ks = random_keyword_sets(rng, n, rng.randint(2, 3))
        answers, _ = backward_search(g, ks, cfg)
        _assert_matches_oracle(
            answers, exhaustive_answers(g, ks, cfg.score, steiner=False))


def test_steiner_filter_stopping_at_k_is_the_full_prefix(rng):
    """Stopping at k keeps exactly the full filter's first k, for every k
    up to past the pool size, on pools with dominated and tied answers."""
    tied = dominated = 0
    for _ in range(60):
        n = rng.randint(2, 14)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        ks = random_keyword_sets(rng, n, rng.randint(1, 3))
        pool, _ = backward_search(g, ks,
                                  SearchConfig(k=10 ** 6, steiner_filter=False))
        full = steiner_minimality_filter(pool)
        scores = [a.score for a in pool]
        tied += len(set(scores)) < len(scores)
        dominated += len(full) < len(pool)
        for k in range(1, len(pool) + 3):
            assert steiner_minimality_filter(pool, k) == full[:k]
    assert tied and dominated


# --- activation -------------------------------------------------------------


def test_activation_init_divides_prestige():
    prestige = np.array([4.0, 2.0, 0.0], dtype=np.float32)
    ks = KeywordSets(["a", "b"], [frozenset({0, 1}), frozenset({2})])
    state = init_activation(ks, prestige, mu=0.5)
    assert state.terms == 2
    assert state.row(0) == [2.0, 0.0]
    assert state.row(1) == [1.0, 0.0]
    assert state.row(2) == [0.0, 0.0]
    assert state.a == [2.0, 0.0, 1.0, 0.0, 0.0, 0.0]


def test_activation_spread_conserves(rng):
    for _ in range(30):
        n = rng.randint(2, 15)
        g = random_graph(rng, n)
        ks = random_keyword_sets(rng, n, rng.randint(1, 3))
        state = init_activation(ks, g.prestige, mu=rng.choice([0.3, 0.5, 0.8]))
        for _ in range(50):
            node = rng.randrange(n)
            neighbors = [(v, w) for _, v, w in g.out_edges(node)]
            before = np.array(state.a)
            rec = spread_activation(state, node, neighbors)
            # conservation: what went out plus what stayed equals received
            assert np.allclose(np.add(rec.retained, rec.distributed()),
                               rec.received, atol=REST_TOL)
            # monotonicity: stored activation never decreases
            assert np.all(np.array(state.a) >= before - REST_TOL)


def test_activation_spread_matches_array_reference(rng):
    """The flat-list spread step reproduces the numpy row arithmetic it
    replaced bit for bit: offers of ``mu * received * share``, combined
    into stored activation by elementwise maximum."""
    for _ in range(30):
        n = rng.randint(2, 15)
        g = random_graph(rng, n)
        ks = random_keyword_sets(rng, n, rng.randint(1, 3))
        mu = rng.choice([0.3, 0.5, 0.8])
        state = init_activation(ks, g.prestige, mu=mu)
        ref = np.array(state.a).reshape(n, state.terms)
        for _ in range(50):
            node = rng.randrange(n)
            neighbors = [(v, w) for _, v, w in g.out_edges(node)]
            rec = spread_activation(state, node, neighbors)
            received = ref[node].copy()
            assert rec.received == received.tolist()
            inv = [1.0 / w for _, w in neighbors]
            for (v, offer), share in zip(rec.offered, inv):
                expected = mu * received * (share / sum(inv))
                assert offer == expected.tolist()
                np.maximum(ref[v], expected, out=ref[v])
            assert state.a == ref.ravel().tolist()


def test_bidirectional_spread_kernel_matches_spread_activation(monkeypatch, rng):
    """The search's spread over neighbour slots gives the answers and stats
    it gives when every step goes through ``spread_activation`` with a
    ``(node, weight)`` list and a record; every step leaves the table at
    the elementwise maximum of its old rows and the recorded offers."""
    kernel = search._spread
    records = []

    def stepped(a, w, mu, source, target, weight, lo, hi):
        expected = list(a)
        neighbors = [(target[j], weight[j]) for j in range(lo, hi)]
        with monkeypatch.context() as m:
            m.setattr(search, "_spread", kernel)
            record = spread_activation(ActivationState(a, w, mu), source, neighbors)
        assert [x for x, _ in record.offered] == [x for x, _ in neighbors]
        for x, offer in record.offered:
            for i, o in enumerate(offer, x * w):
                expected[i] = max(expected[i], o)
        assert a == expected
        records.append(record)

    for t in range(40):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        ks = random_keyword_sets(rng, n, rng.randint(8, 9) if t % 8 == 0
                                 else rng.randint(1, 3))
        cfg = SearchConfig(k=rng.choice([1, 3, 10]))
        answers, stats = bidirectional_search(g, ks, cfg)
        with monkeypatch.context() as m:
            m.setattr(search, "_spread", stepped)
            got, got_stats = bidirectional_search(g, ks, cfg)
        assert got == answers
        assert replace(got_stats, elapsed=0.0) == replace(stats, elapsed=0.0)
    assert records


def test_activation_total_sums_in_numpy_order():
    """Heap priorities equal ``np.sum`` of the row for any term count,
    including the pairwise orders numpy uses from 8 and past 128 terms."""
    r = random.Random(8)
    for w in [1, 2, 3, 7, 8, 9, 15, 16, 17, 40, 128, 129, 300]:
        for _ in range(40):
            row = [r.random() * 10.0 ** r.randint(-6, 6) for _ in range(w)]
            flat = [r.random() for _ in range(3)] + row + [r.random()]
            assert _activation_total(flat, 3, w) == float(np.sum(np.array(row)))


def test_activation_spread_no_neighbors_retains_everything():
    b = GraphBuilder()
    b.add_node(6.0)
    g = b.build()
    ks = KeywordSets(["a"], [frozenset({0})])
    state = init_activation(ks, g.prestige, mu=0.5)
    rec = spread_activation(state, 0, [])
    assert rec.offered == []
    assert rec.retained == rec.received == [6.0]


# --- bidirectional ----------------------------------------------------------


def _miss_example():
    """Graph where the activation-driven frontier skips one of two
    equal-cost answers; the exhaustive backward search keeps both."""
    b = GraphBuilder()
    n1 = b.add_node(1.0)
    n2 = b.add_node(1.0)
    n3 = b.add_node(1.0)
    n4 = b.add_node(1.0)
    n5 = b.add_node(1.0)
    b.add_link(n1, n2, 1.0, 1.0)
    b.add_link(n1, n3, 2.0, 2.0)
    b.add_link(n4, n1, 1.0, 1.0)
    b.add_link(n4, n5, 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["x", "y"], [frozenset({n2, n3}), frozenset({n5})])
    return g, ks, n1, n2, n3, n4, n5


def test_bidirectional_can_miss_answers_backward_finds():
    g, ks, n1, n2, n3, n4, n5 = _miss_example()
    back, _ = backward_search(g, ks, SearchConfig(k=10, combos=COMBOS_ALL))
    back_shapes = {a.tree.shape_key() for a in back}
    via_n2 = (n4, ((n1, n2), (n4, n1), (n4, n5)))
    via_n3 = (n4, ((n1, n3), (n4, n1), (n4, n5)))
    assert via_n2 in back_shapes
    assert via_n3 in back_shapes

    bidi, _ = bidirectional_search(g, ks, SearchConfig(k=10))
    bidi_shapes = {a.tree.shape_key() for a in bidi}
    assert via_n2 in bidi_shapes
    # the heuristic commits to the cheaper branch and never emits the other
    assert via_n3 not in bidi_shapes


def test_bidirectional_answers_are_valid(rng):
    for _ in range(25):
        n = rng.randint(2, 14)
        g = random_graph(rng, n, extra_links=n)
        ks = random_keyword_sets(rng, n, rng.randint(1, 3))
        answers, stats = bidirectional_search(g, ks, SearchConfig(k=10))
        scores = [a.score for a in answers]
        assert scores == sorted(scores, reverse=True)
        for a in answers:
            assert a.tree.is_valid()
            # every term matched by a tree node
            for i, s in enumerate(ks.sets):
                assert a.tree.keyword_nodes[i] in s
                assert a.tree.keyword_nodes[i] in a.tree.nodes
            rescored = score_tree(a.tree, g.prestige, ScoreConfig())
            assert rescored.score == a.score
        assert stats.nodes_explored <= stats.nodes_touched


def test_bidirectional_finds_obvious_answer():
    b = GraphBuilder()
    p1 = b.add_node(1.0)
    p2 = b.add_node(1.0)
    au = b.add_node(2.0)
    b.add_link(au, p1, 1.0, 1.0)
    b.add_link(au, p2, 1.0, 1.0)
    g = b.build()
    ks = KeywordSets(["a", "b"], [frozenset({p1}), frozenset({p2})])
    answers, _ = bidirectional_search(g, ks, SearchConfig(k=3))
    assert answers
    assert answers[0].tree.root == au
    assert set(answers[0].tree.edges) == {(au, p1, 1.0), (au, p2, 1.0)}


# Answers and counts of bidirectional_search on _bidi_pin_cases(), recorded
# from the numpy-table implementation: (nodes_touched, nodes_explored,
# answer count, digest of every answer's identity key and score).  Cases
# 2, 5 and 31 have one keyword node for every term, so they touch and
# explore that node alone.
BIDI_PIN = [
    (84, 84, 1, "66822693c0e2ed6d"), (92, 92, 1, "e91a2ca76fc8712d"),
    (1, 1, 1, "c068f96a891ab035"), (120, 120, 10, "8892c1ff3ab6a93a"),
    (32, 32, 1, "e171bf662ebc2511"), (1, 1, 1, "76cdb250b43b0ebd"),
    (102, 102, 2, "c72703b139f2f9cc"), (22, 22, 1, "aff8dd6cfc50b123"),
    (60, 60, 3, "bd6a0866b2b2c7d2"), (62, 62, 2, "37eb974f263ae0fc"),
    (16, 16, 1, "f532d137e6436bd1"), (70, 70, 3, "b1a71c55e532f437"),
    (26, 26, 1, "779aab65b1ea0018"), (48, 48, 3, "b7d79e408af458e3"),
    (100, 100, 2, "fd7b579c4112870b"), (42, 42, 1, "edce7062b8de6c4f"),
    (76, 76, 3, "c08ed00b8f48f438"), (48, 48, 1, "b1f01d09fc8dc8dc"),
    (90, 90, 3, "145ac5c98a73066e"), (82, 82, 1, "fc98cefa15fa84f8"),
    (58, 58, 1, "715d1a6fac454b22"), (80, 80, 10, "62a81bb7cc5fe943"),
    (98, 98, 2, "023529272cf6fc8c"), (70, 70, 1, "68b74dd17bc248b7"),
    (14, 14, 3, "e7419d59f4c97e0f"), (52, 52, 10, "232de96386118cb3"),
    (118, 118, 3, "aa682f03a4ebdc1c"), (20, 20, 1, "bcd7d9d5e87f5c8b"),
    (60, 60, 1, "6ca86ad3884c8189"), (78, 78, 3, "dd203b6863a78c5d"),
    (12, 12, 1, "fbdf84af0be08257"), (1, 1, 1, "cb49442e3166241c"),
    (46, 46, 2, "82a76b775c710121"), (52, 52, 3, "3333948437b9da5f"),
    (94, 94, 6, "5f643b7d63ed2ab2"), (50, 50, 3, "67701578cc2347a5"),
    (112, 112, 3, "668e3d795d918166"), (40, 40, 1, "eaff2533ccaaa49d"),
    (4, 4, 1, "ac6d820bdb3bfe79"), (68, 68, 1, "c5474c41869ed75c"),
    (212, 212, 4, "59f18d181196582d"), (238, 238, 10, "b8d60f24e7dabef8"),
    (582, 582, 2, "06d21af30c975435"), (518, 518, 10, "332c035c8746f7d5"),
    (12, 12, 1, "6b89cbd7e48246a8"), (36, 36, 10, "60ba383ded1c58f2"),
    (94, 94, 3, "c8c2c43cea2032e0"), (16, 16, 3, "224f2310a5926b2c"),
]


def _bidi_pin_cases():
    rng = random.Random(7070)
    for t in range(48):
        n = rng.randint(100, 300) if 40 <= t < 44 else rng.randint(2, 60)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        nsets = rng.randint(8, 10) if t >= 44 else rng.randint(1, 3)
        ks = random_keyword_sets(rng, n, nsets, max_size=4)
        cfg = SearchConfig(k=rng.choice([1, 3, 10]),
                           steiner_filter=rng.random() < 0.7)
        yield g, ks, cfg


def test_bidirectional_regression_pin():
    """Answers, their order and scores, and the touched and explored counts
    stay exactly as recorded, ties and exploration order included."""
    got = []
    for g, ks, cfg in _bidi_pin_cases():
        answers, stats = bidirectional_search(g, ks, cfg)
        got.append((stats.nodes_touched, stats.nodes_explored, len(answers),
                    answers_digest(answers)))
    assert got == BIDI_PIN


# (nodes_explored, stopped) of backward_search under combos=all, then
# bidirectional_search, on _reciprocal_pin_cases().  ``reciprocal-sum`` is the one score under which
# the pool's bound falls during a search, so these pin when each search
# reaches k released answers.
RECIPROCAL_PIN = [
    (70, "k", 100, "exhausted"), (406, "k", 116, "exhausted"),
    (15, "k", 28, "exhausted"), (132, "exhausted", 44, "exhausted"),
    (45, "exhausted", 18, "exhausted"), (273, "exhausted", 78, "exhausted"),
    (3, "k", 7, "k"), (3, "k", 18, "k"), (1, "k", 1, "k"),
    (180, "exhausted", 60, "exhausted"), (44, "exhausted", 22, "exhausted"),
    (178, "k", 96, "exhausted"), (2, "k", 10, "k"),
    (145, "exhausted", 58, "exhausted"), (129, "k", 110, "exhausted"),
    (210, "exhausted", 70, "exhausted"), (206, "k", 120, "exhausted"),
    (145, "k", 52, "exhausted"), (96, "k", 56, "exhausted"),
    (232, "exhausted", 116, "exhausted"), (95, "k", 70, "exhausted"),
    (265, "k", 104, "exhausted"), (55, "k", 32, "exhausted"),
    (116, "exhausted", 58, "exhausted"), (62, "k", 80, "exhausted"),
    (5, "k", 32, "k"), (44, "k", 32, "exhausted"), (33, "k", 34, "exhausted"),
    (59, "k", 100, "exhausted"), (220, "exhausted", 88, "exhausted"),
]


def _reciprocal_pin_cases():
    rng = random.Random(1102)
    score = ScoreConfig(edge_variant=EDGE_RECIPROCAL_SUM)
    for _ in range(30):
        n = rng.randint(4, 60)
        g = random_graph(rng, n, extra_links=rng.randint(0, n),
                         prestige_max=rng.choice([0, 1, 5]))
        ks = random_keyword_sets(rng, n, rng.randint(2, 3))
        if rng.random() < 0.4:  # a node matching every term ends searches early
            shared = rng.randrange(n)
            ks = KeywordSets(ks.terms, [s | {shared} for s in ks.sets])
        yield g, ks, SearchConfig(k=rng.choice([1, 3, 10]), score=score,
                                  combos=COMBOS_ALL)


def test_reciprocal_sum_stop_pin():
    got = []
    for g, ks, cfg in _reciprocal_pin_cases():
        row = ()
        for algorithm in (backward_search, bidirectional_search):
            stats = algorithm(g, ks, cfg)[1]
            row += (stats.nodes_explored, stats.stopped)
        got.append(row)
    assert got == RECIPROCAL_PIN
