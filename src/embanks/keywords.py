"""Inverted index from search terms to node ids."""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graph import NodeMeta

TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase maximal alphanumeric runs, in order of appearance."""
    return TOKEN_RE.findall(text.lower())


@dataclass(eq=False)
class KeywordIndex:
    """Node ids per term, in CSR form.

    ``terms`` ascend strictly; the ids of ``terms[i]`` are
    ``ids[offsets[i]:offsets[i + 1]]``, ascending and duplicate-free.  Both
    arrays are uint32, the form ``index.kwi`` stores them in, so a read
    index is the stored arrays and a lookup turns only its own list into
    ids.
    """

    terms: list[str]
    offsets: np.ndarray  # uint32 [len(terms) + 1], from 0
    ids: np.ndarray      # uint32 [offsets[-1]]

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
    """Index every token of every node's text; relation names are not indexed."""
    acc: dict[str, set[int]] = {}
    for node, text in enumerate(meta.node_text):
        for term in tokenize(text):
            acc.setdefault(term, set()).add(node)
    return KeywordIndex.from_postings(acc)
