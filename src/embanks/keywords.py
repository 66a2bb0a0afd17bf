"""Inverted index from search terms to node ids."""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graph import NodeMeta

TOKEN_RE = re.compile(r"[a-z0-9]+")
_TOKEN_OR_BREAK = re.compile(r"[a-z0-9]+|\n")


def tokenize(text: str) -> list[str]:
    """Lowercase maximal alphanumeric runs, in order of appearance."""
    return TOKEN_RE.findall(text.lower())


@dataclass(eq=False)
class KeywordIndex:
    """Node ids per term, in CSR form.

    ``terms`` ascend strictly; the ids of ``terms[i]`` are
    ``ids[offsets[i]:offsets[i + 1]]``, ascending and duplicate-free.  Both
    arrays are unsigned: uint32 when built, and in a read index the stored
    arrays in their ``index.kwi`` widths, so a lookup turns only its own
    list into ids.
    """

    terms: list[str]
    offsets: np.ndarray  # unsigned [len(terms) + 1], from 0
    ids: np.ndarray      # unsigned [offsets[-1]]

    @classmethod
    def from_postings(cls, postings: dict[str, Iterable[int]]) -> KeywordIndex:
        """Sort the terms, and sort and deduplicate each term's node ids."""
        terms = sorted(postings)
        lists = [sorted(set(postings[t])) for t in terms]
        offsets = np.zeros(len(terms) + 1, dtype=np.uint32)
        offsets[1:] = np.cumsum([len(nodes) for nodes in lists])
        ids = np.fromiter((n for nodes in lists for n in nodes),
                          dtype=np.uint32, count=int(offsets[-1]))
        return cls(terms, offsets, ids)

    def lookup(self, term: str) -> list[int]:
        term = term.lower()
        i = bisect_left(self.terms, term)
        if i == len(self.terms) or self.terms[i] != term:
            return []
        return self.ids[self.offsets[i]:self.offsets[i + 1]].tolist()

    def __len__(self) -> int:
        return len(self.terms)


def build_index(meta: NodeMeta) -> KeywordIndex:
    """Index every token of every node's text; relation names are not indexed.

    All texts are lowercased and tokenized as one string, one line per
    node, so a token's node is the number of line breaks before it; a line
    break inside a text is a token boundary either way, so it becomes a
    space.  Lowercasing a joined string gives the same ``[a-z0-9]`` runs
    as lowercasing each text.  One stable sort by term of the (term, node)
    pairs, in node order, lists each term's nodes ascending with a node's
    repeats of a term side by side: dropping a pair equal to its
    predecessor leaves the CSR ids, and counting pairs per term the offsets.
    """
    texts = meta.node_text
    joined = "\n".join(texts)
    if joined.count("\n") > max(len(texts) - 1, 0):
        joined = "\n".join(text.replace("\n", " ") for text in texts)
    tokens = _TOKEN_OR_BREAK.findall(joined.lower())
    terms = sorted(set(tokens) - {"\n"})
    rank = dict(zip(terms, range(len(terms))))
    rank["\n"] = -1
    term = np.fromiter(map(rank.__getitem__, tokens), dtype=np.int64,
                       count=len(tokens))
    del tokens
    word = term >= 0
    node = np.cumsum(~word, dtype=np.int64)[word].astype(np.uint32)
    # ranks of at most 16 bits sort stably by radix, in linear time
    term = term[word].astype(np.min_scalar_type(len(terms)))
    order = np.argsort(term, kind="stable")
    term, node = term[order], node[order]
    first = np.ones(len(term), dtype=bool)
    first[1:] = (term[1:] != term[:-1]) | (node[1:] != node[:-1])
    offsets = np.zeros(len(terms) + 1, dtype=np.uint32)
    np.cumsum(np.bincount(term[first], minlength=len(terms)), out=offsets[1:])
    return KeywordIndex(terms, offsets, node[first])
