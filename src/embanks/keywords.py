"""Inverted index from search terms to node ids."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph import NodeMeta

TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase maximal alphanumeric runs, in order of appearance."""
    return TOKEN_RE.findall(text.lower())


@dataclass
class KeywordIndex:
    """Sorted, duplicate-free posting lists per term.

    The same shape serves both node-level and cluster-level indexes; the
    posting entries are node ids in the first case and cluster ids in the
    second.
    """

    postings: dict[str, list[int]] = field(default_factory=dict)

    def lookup(self, term: str) -> list[int]:
        return self.postings.get(term.lower(), [])

    def terms(self) -> list[str]:
        return sorted(self.postings)

    def __len__(self) -> int:
        return len(self.postings)


def build_index(meta: NodeMeta) -> KeywordIndex:
    """Index every token of every node's text; relation names are not indexed."""
    acc: dict[str, set[int]] = {}
    for node, text in enumerate(meta.node_text):
        for term in tokenize(text):
            acc.setdefault(term, set()).add(node)
    return KeywordIndex({term: sorted(nodes) for term, nodes in sorted(acc.items())})
