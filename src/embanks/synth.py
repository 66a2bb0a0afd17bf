"""Deterministic synthetic bibliography corpora.

Generates a four-table citation database (paper, author, writes, cites)
as tab-separated files plus a matching schema, sized by a small JSON spec.
The same spec always produces byte-identical files.

Two query classes are built in: pairs of frequent words that appear in
hundreds of titles, and pairs of rare words planted exactly once on a
paper and a connected author, so both broad and needle queries have known
answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from pathlib import Path

HIGH_WORDS = [
    "database", "query", "system", "index", "graph", "search",
    "join", "cache", "stream", "logic", "store", "rank",
]

FILLER_WORDS = [
    "adaptive", "parallel", "distributed", "temporal", "semantic",
    "relational", "incremental", "approximate", "scalable", "optimal",
    "dynamic", "static", "robust", "efficient", "concurrent", "secure",
    "partition", "schema", "workload", "latency", "throughput", "replica",
    "transaction", "snapshot", "version", "cluster", "storage", "memory",
    "buffer", "segment", "cursor", "plan", "cost", "histogram", "sample",
    "sketch", "filter", "bloom", "trie", "btree", "hash", "sort", "merge",
    "scan", "probe", "window", "batch", "vector", "matrix", "tensor",
    "kernel", "lattice", "order", "bound", "margin", "signal", "noise",
    "entropy", "gradient", "anneal", "prune", "split", "fold", "shard",
    "quorum", "ledger", "epoch", "beacon", "relay", "fabric", "mesh",
]

FIRST_NAMES = [
    "alice", "bruno", "chen", "divya", "elena", "farid", "grace", "hugo",
    "iris", "jonas", "kavya", "liam", "mira", "nadia", "omar", "priya",
    "quentin", "rosa", "sanjay", "tara",
]

LAST_NAMES = [
    "almeida", "baker", "chandra", "dubois", "endo", "fischer", "gupta",
    "haas", "ito", "jensen", "kumar", "lindgren", "moreau", "novak",
    "okafor", "patel", "quirke", "rossi", "suzuki", "tanaka",
]

RARE_STEMS = [
    "zephyr", "quasar", "obelisk", "fjord", "lichen", "gnomon", "tundra",
    "sphinx", "glacier", "mistral", "corundum", "axolotl", "peridot",
    "isthmus", "caldera", "monsoon", "halcyon", "bezoar", "nimbus",
    "aurora",
]

SCHEMA_TEXT = """\
# synthetic bibliography
table paper text=title
table author text=name
table writes
table cites
fk writes.author -> author.id
fk writes.paper -> paper.id
fk cites.src -> paper.id
fk cites.dst -> paper.id
"""


def rare_word(i: int) -> str:
    stem = RARE_STEMS[i % len(RARE_STEMS)]
    return f"{stem}{i // len(RARE_STEMS)}" if i >= len(RARE_STEMS) else stem


@dataclass
class SynthSpec:
    papers: int = 1000
    authors: int = 300
    writes: int = 1500
    cites: int = 500
    rare_pairs: int = 10
    seed: int = 0

    @classmethod
    def from_json(cls, path: str | Path) -> SynthSpec:
        """The spec in a JSON object of integer fields; table sizes are
        checked by ``generate_synthetic``."""
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a spec is a JSON object")
        bad = set(raw) - {f.name for f in fields(cls)}
        if bad:
            raise ValueError(f"{path}: unknown spec keys {sorted(bad)}")
        # bool is an int subclass, so compare types
        wrong = sorted(key for key, value in raw.items() if type(value) is not int
                       or key == "rare_pairs" and value < 0)
        if wrong:
            raise ValueError(f"{path}: spec keys {wrong} must be integers, "
                             "rare_pairs a nonnegative one")
        return cls(**raw)

    @property
    def tuple_count(self) -> int:
        return self.papers + self.authors + self.writes + self.cites


def high_pair(which: int = 0) -> tuple[str, str]:
    """A query of two words that occur in many titles."""
    i = (2 * which) % len(HIGH_WORDS)
    return HIGH_WORDS[i], HIGH_WORDS[(i + 1) % len(HIGH_WORDS)]


def low_pair(which: int = 0) -> tuple[str, str]:
    """A query of two planted rare words with a known joined answer."""
    return rare_word(2 * which), rare_word(2 * which + 1)


def _write_tsv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = ["\t".join(header)]
    lines += ["\t".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_synthetic(spec: SynthSpec, out_dir: str | Path) -> dict:
    """Write schema.txt, the four .tsv tables, and queries.txt."""
    if min(spec.papers, spec.authors, spec.writes, spec.cites) < 1:
        raise ValueError("all table sizes must be positive")
    if spec.papers < 2:
        raise ValueError("need at least two papers for citations")
    rng = random.Random(spec.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_pairs = min(spec.rare_pairs, spec.papers, spec.authors, spec.writes)

    papers = []
    for i in range(spec.papers):
        words = rng.sample(FILLER_WORDS, rng.randint(3, 5))
        if rng.random() < 0.35:
            words.insert(rng.randrange(len(words) + 1), rng.choice(HIGH_WORDS))
            if rng.random() < 0.25:
                words.insert(rng.randrange(len(words) + 1),
                             rng.choice(HIGH_WORDS))
        if i < n_pairs:
            words.append(rare_word(2 * i))
        papers.append((f"p{i}", " ".join(words)))

    authors = []
    for i in range(spec.authors):
        last = rare_word(2 * i + 1) if i < n_pairs else rng.choice(LAST_NAMES)
        authors.append((f"a{i}", f"{rng.choice(FIRST_NAMES)} {last}"))

    writes = []
    for i in range(spec.writes):
        if i < n_pairs:
            writes.append((f"w{i}", f"a{i}", f"p{i}"))
        else:
            writes.append((f"w{i}", f"a{rng.randrange(spec.authors)}",
                           f"p{rng.randrange(spec.papers)}"))

    cites = []
    for i in range(spec.cites):
        src = rng.randrange(spec.papers)
        dst = rng.randrange(spec.papers)
        if dst == src:
            dst = (dst + 1) % spec.papers
        cites.append((f"c{i}", f"p{src}", f"p{dst}"))

    (out / "schema.txt").write_text(SCHEMA_TEXT, encoding="utf-8")
    _write_tsv(out / "paper.tsv", ["id", "title"], papers)
    _write_tsv(out / "author.tsv", ["id", "name"], authors)
    _write_tsv(out / "writes.tsv", ["id", "author", "paper"], writes)
    _write_tsv(out / "cites.tsv", ["id", "src", "dst"], cites)

    words = {w for _, title in papers for w in title.split()}
    queries = [" ".join(p) for p in (high_pair(0), high_pair(1)) if set(p) <= words]
    queries += [" ".join(low_pair(i)) for i in range(min(2, n_pairs))]
    (out / "queries.txt").write_text("\n".join(queries) + "\n", encoding="utf-8")

    return {
        "paper": spec.papers,
        "author": spec.authors,
        "writes": spec.writes,
        "cites": spec.cites,
        "tuples": spec.tuple_count,
        "rare_pairs": n_pairs,
        "dir": str(out),
    }
