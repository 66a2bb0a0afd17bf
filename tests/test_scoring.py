"""Answer trees, score formulas, and the bounded output heap."""

import numpy as np
import pytest

from embanks.scoring import (ADDITIVE, EDGE_AS_WRITTEN, EDGE_RECIPROCAL_SUM,
                             MULTIPLICATIVE, AnswerTree, OutputHeap,
                             ScoreConfig, edge_score, is_acceptable,
                             node_score, score_tree, tree_score)

PRESTIGE = np.array([5.0, 1.0, 2.0, 3.0, 0.5], dtype=np.float32)


def _tree(root, edges, kw=None):
    return AnswerTree(root, tuple(edges), tuple(kw or ()))


def test_single_node_tree():
    t = _tree(2, [])
    assert t.nodes == {2}
    assert t.leaves() == []
    assert node_score(t, PRESTIGE) == 2.0
    assert edge_score(t, ScoreConfig()) == 1.0


def test_leaves_and_node_score_path():
    t = _tree(0, [(0, 1, 1.0), (1, 2, 1.0)])
    assert t.leaves() == [2]
    assert node_score(t, PRESTIGE) == 5.0 + 2.0


def test_leaves_star():
    t = _tree(0, [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    assert t.leaves() == [1, 3]
    assert node_score(t, PRESTIGE) == 5.0 + 1.0 + 3.0


def test_edge_score_variants():
    t = _tree(0, [(0, 1, 2.0), (1, 2, 2.0)])
    assert t.total_weight() == 4.0
    as_written = edge_score(t, ScoreConfig(edge_variant=EDGE_AS_WRITTEN))
    assert as_written == 1.0 / (1.0 + 1.0 / 4.0)
    reciprocal = edge_score(t, ScoreConfig(edge_variant=EDGE_RECIPROCAL_SUM))
    assert reciprocal == 1.0 / 5.0
    one = _tree(0, [(0, 1, 1.0)])
    assert edge_score(one, ScoreConfig(edge_variant=EDGE_AS_WRITTEN)) == 0.5
    assert edge_score(one, ScoreConfig(edge_variant=EDGE_RECIPROCAL_SUM)) == 0.5


def test_tree_score_combinations():
    cfg = ScoreConfig(node_weight=0.2, combine=ADDITIVE)
    assert tree_score(7.0, 0.8, cfg) == 0.2 * 7.0 + 0.8 * 0.8
    cfg = ScoreConfig(node_weight=0.5, combine=MULTIPLICATIVE)
    assert tree_score(9.0, 0.5, cfg) == 0.5 * 3.0


def test_score_tree_assembles_parts():
    t = _tree(0, [(0, 3, 2.0)])
    a = score_tree(t, PRESTIGE, ScoreConfig())
    assert a.node_score == 8.0
    assert a.edge_score == 1.0 / (1.0 + 1.0 / 2.0)
    assert a.score == 0.2 * 8.0 + 0.8 * a.edge_score


def test_validity_rules():
    assert _tree(0, []).is_valid()
    assert _tree(0, [(0, 1, 1.0), (0, 2, 1.0)]).is_valid()
    # two parents for one node
    assert not _tree(0, [(0, 1, 1.0), (2, 1, 1.0), (0, 2, 1.0)]).is_valid()
    # edge back into the root
    assert not _tree(0, [(0, 1, 1.0), (1, 0, 1.0)]).is_valid()
    # disconnected from the root
    assert not _tree(0, [(1, 2, 1.0)]).is_valid()


def test_shape_and_identity_keys():
    a = _tree(0, [(0, 1, 1.0), (1, 2, 3.0)])
    b = _tree(0, [(0, 1, 9.0), (1, 2, 3.0)])
    assert a.shape_key() == b.shape_key()
    assert a.identity_key() != b.identity_key()


def test_sort_key_ordering():
    p = np.ones(4, dtype=np.float32)
    big = score_tree(_tree(0, [(0, 1, 5.0)]), p, ScoreConfig())
    small = score_tree(_tree(0, [(0, 1, 1.0)]), p, ScoreConfig())
    assert big.score > small.score
    assert sorted([small, big], key=lambda a: a.sort_key()) == [big, small]
    # equal scores: fewer nodes first, then smaller root
    t1 = score_tree(_tree(1, []), p, ScoreConfig())
    t2 = score_tree(_tree(2, []), p, ScoreConfig())
    assert t1.score == t2.score
    assert sorted([t2, t1], key=lambda a: a.sort_key()) == [t1, t2]


def test_is_acceptable_against_baseline():
    p = np.ones(6, dtype=np.float32)
    base = [score_tree(_tree(0, [(0, 1, 1.0), (1, 2, 1.0)]), p, ScoreConfig())]
    assert is_acceptable(_tree(3, [(3, 4, 9.0)]), base)
    assert is_acceptable(_tree(3, [(3, 4, 1.0), (4, 5, 1.0)]), base)
    too_big = _tree(0, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert not is_acceptable(too_big, base)
    assert not is_acceptable(_tree(0, []), [])


def test_output_heap_replay():
    p = np.ones(2, dtype=np.float32)

    def answer(weight):
        return score_tree(_tree(0, [(0, 1, weight)]), p, ScoreConfig())

    heavy = answer(100.0)   # edge score near 1
    light = answer(0.125)   # edge score near 0.11
    heap = OutputHeap()
    assert heap.push(heavy) == []
    assert heap.push(light) == []
    mid = (heavy.score + light.score) / 2
    assert heap.update_bound(mid) == [heavy]
    # bounds only fall: a looser bound must not release more
    assert heap.update_bound(heavy.score + 1.0) == []
    assert heap.bound == mid
    assert heap.update_bound(float("-inf")) == [light]
    assert heap.emitted_count == 2


def test_output_heap_emits_on_equality():
    p = np.ones(2, dtype=np.float32)
    a = score_tree(_tree(0, [(0, 1, 1.0)]), p, ScoreConfig())
    heap = OutputHeap()
    heap.push(a)
    assert heap.update_bound(a.score) == [a]
