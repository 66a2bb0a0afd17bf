"""Synthetic corpus generator: determinism, counts, planted answers."""

import json

import pytest

from embanks.engine import ingest_to_store, single_phase_query
from embanks.keywords import build_index
from embanks.synth import (RARE_STEMS, SynthSpec, generate_synthetic,
                           high_pair, low_pair, rare_word)

FILES = ["schema.txt", "paper.tsv", "author.tsv", "writes.tsv", "cites.tsv",
         "queries.txt"]

SMALL = SynthSpec(papers=40, authors=15, writes=60, cites=20, rare_pairs=3,
                  seed=1)


def test_generation_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_synthetic(SMALL, a)
    generate_synthetic(SMALL, b)
    for name in FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    c = tmp_path / "c"
    generate_synthetic(SynthSpec(papers=40, authors=15, writes=60, cites=20,
                                 rare_pairs=3, seed=2), c)
    assert (a / "paper.tsv").read_bytes() != (c / "paper.tsv").read_bytes()


def test_counts_and_summary(tmp_path):
    summary = generate_synthetic(SMALL, tmp_path)
    assert summary["tuples"] == SMALL.tuple_count == 40 + 15 + 60 + 20
    assert summary["rare_pairs"] == 3
    for name, rows in [("paper.tsv", 40), ("author.tsv", 15),
                       ("writes.tsv", 60), ("cites.tsv", 20)]:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == rows + 1, name
    queries = (tmp_path / "queries.txt").read_text().splitlines()
    assert len(queries) == 4
    assert queries[0] == " ".join(high_pair(0))
    assert queries[2] == " ".join(low_pair(0))


@pytest.mark.parametrize("spec, left_out", [
    (SMALL, None),
    # no title of this corpus says "query"
    (SynthSpec(papers=60, authors=20, writes=90, cites=30, rare_pairs=3,
               seed=5), " ".join(high_pair(0))),
])
def test_queries_use_only_corpus_words(tmp_path, spec, left_out):
    generate_synthetic(spec, tmp_path)
    words = set()
    for name in ("paper.tsv", "author.tsv"):
        for line in (tmp_path / name).read_text().splitlines()[1:]:
            words.update(line.split("\t")[1].split())
    queries = (tmp_path / "queries.txt").read_text().splitlines()
    assert " ".join(low_pair(0)) in queries
    assert left_out not in queries
    for query in queries:
        assert set(query.split()) <= words, query


def test_ingest_counts(tmp_path):
    generate_synthetic(SMALL, tmp_path / "data")
    g, _, warnings = ingest_to_store(tmp_path / "data" / "schema.txt",
                                     tmp_path / "data", tmp_path / "s1",
                                     prune=False)
    assert warnings == []
    assert g.node_count == SMALL.tuple_count
    g2, _, _ = ingest_to_store(tmp_path / "data" / "schema.txt",
                               tmp_path / "data", tmp_path / "s2")
    assert g2.node_count == SMALL.papers + SMALL.authors


def test_planted_rare_pair_is_answerable(tmp_path):
    generate_synthetic(SMALL, tmp_path / "data")
    g, meta, _ = ingest_to_store(tmp_path / "data" / "schema.txt",
                                 tmp_path / "data", tmp_path / "store")
    index = build_index(meta)
    terms = list(low_pair(0))
    answers, _ = single_phase_query(g, index, terms)
    assert answers
    top = answers[0]
    texts = " | ".join(meta.node_text[n] for n in top.tree.nodes)
    for term in terms:
        assert term in texts
    assert top.tree.node_count <= 2


def test_spec_from_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"papers": 50, "seed": 9}))
    spec = SynthSpec.from_json(path)
    assert spec.papers == 50
    assert spec.seed == 9
    assert spec.authors == SynthSpec().authors
    path.write_text(json.dumps({"papers": 50, "color": "red"}))
    with pytest.raises(ValueError):
        SynthSpec.from_json(path)


def test_word_helpers():
    assert high_pair(0) == ("database", "query")
    assert len(set(high_pair(0) + high_pair(1))) == 4
    assert low_pair(0) == (RARE_STEMS[0], RARE_STEMS[1])
    assert rare_word(25) == RARE_STEMS[5] + "1"
    assert rare_word(3) == RARE_STEMS[3]


def test_generator_rejects_bad_sizes(tmp_path):
    with pytest.raises(ValueError):
        generate_synthetic(SynthSpec(papers=0), tmp_path)
    with pytest.raises(ValueError):
        generate_synthetic(SynthSpec(papers=1, authors=1, writes=1, cites=1),
                           tmp_path)
