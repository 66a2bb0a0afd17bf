"""Tokenizer and inverted index."""

import numpy as np

from embanks.graph import NodeMeta
from embanks.keywords import build_index, tokenize


def test_tokenize_alnum_runs():
    assert tokenize("The Night-Watch, part 2!") == \
        ["the", "night", "watch", "part", "2"]
    assert tokenize("") == []
    assert tokenize("...") == []
    assert tokenize("ABC abc") == ["abc", "abc"]


def _meta(texts, relations=None, names=None):
    n = len(texts)
    rel = np.asarray(relations or [0] * n, dtype=np.uint16)
    return NodeMeta(names or ["r0"], rel, list(texts),
                    [f"k{i}" for i in range(n)])


def test_index_matches_linear_scan(rng):
    vocab = ["red", "green", "blue", "gold", "iron", "silk"]
    for _ in range(10):
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 4)))
                 for _ in range(rng.randint(1, 30))]
        index = build_index(_meta(texts))
        for term in vocab:
            expect = [n for n, t in enumerate(texts) if term in tokenize(t)]
            assert index.lookup(term) == expect


def test_postings_sorted_and_deduped():
    index = build_index(_meta(["ash ash oak", "oak", "ash"]))
    assert index.lookup("ash") == [0, 2]
    assert index.lookup("oak") == [0, 1]
    assert index.terms() == ["ash", "oak"]
    assert len(index) == 2


def test_lookup_case_insensitive():
    index = build_index(_meta(["Maple"]))
    assert index.lookup("MAPLE") == [0]
    assert index.lookup("maple") == [0]
    assert index.lookup("absent") == []


def test_relation_names_flag():
    meta = _meta(["x", "y", "z"], relations=[0, 1, 1],
                 names=["paper", "author"])
    plain = build_index(meta)
    assert plain.lookup("paper") == []
    with_names = build_index(meta, include_relation_names=True)
    assert with_names.lookup("paper") == [0]
    assert with_names.lookup("author") == [1, 2]
    assert with_names.lookup("x") == [0]
