"""Tokenizer and inverted index."""

import numpy as np

from embanks.graph import NodeMeta
from embanks.keywords import build_index, tokenize

from oracles import build_index_reference


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
    assert index.terms == ["ash", "oak"]
    assert len(index) == 2


def test_lookup_case_insensitive():
    index = build_index(_meta(["Maple"]))
    assert index.lookup("MAPLE") == [0]
    assert index.lookup("maple") == [0]
    assert index.lookup("absent") == []


def test_lookup_misses_and_edges():
    index = build_index(_meta(["ash oak", "oak elm", "elm"]))
    assert index.terms == ["ash", "elm", "oak"]
    assert index.lookup("aaa") == []        # before the first term
    assert index.lookup("zzz") == []        # after the last term
    assert index.lookup("oa") == []         # a strict prefix of a term
    assert index.lookup("oaks") == []       # a term plus one character
    assert index.lookup("oak") == [0, 1]    # the last term
    assert index.lookup("ASH") == [0]       # uppercase
    assert index.lookup("ash") == [0]       # the first term


def test_empty_index_finds_nothing():
    index = build_index(_meta([""]))
    assert len(index) == 0 and index.terms == []
    assert index.lookup("") == [] and index.lookup("a") == []


def test_relation_names_flag():
    meta = _meta(["x", "y", "z"], relations=[0, 1, 1],
                 names=["paper", "author"])
    plain = build_index(meta)
    assert plain.lookup("paper") == []
    assert plain.lookup("author") == []
    assert plain.lookup("x") == [0]


def test_index_matches_per_node_reference(rng):
    """The one-pass build equals a dict of sets filled text by text, on
    texts with line breaks inside them, empty texts, repeated tokens, and
    characters whose lowercase is ASCII (the Kelvin sign, dotted capital I)
    or depends on context (capital sigma)."""
    pieces = ["Red", "red", "gold9", "ΣAΣ", "İx", "\u212a", "ß", "a\nb", "\n",
              "x\u2028y", "\x85", "12", " ", "--", ""]
    for trial in range(200):
        texts = ["".join(rng.choices(pieces, k=rng.randint(0, 6)))
                 for _ in range(rng.randint(0, 25))]
        index = build_index(_meta(texts))
        terms, offsets, ids = build_index_reference(_meta(texts))
        assert index.terms == terms, trial
        for got, want in ((index.offsets, offsets), (index.ids, ids)):
            assert got.dtype == want.dtype and np.array_equal(got, want), trial
