"""Command line driver: pipeline wiring, output shape, determinism."""

import json
import shutil

import pytest

from embanks import cli
from embanks.synth import low_pair


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"papers": 40, "authors": 15, "writes": 60,
                                "cites": 20, "rare_pairs": 3, "seed": 1}))
    data = root / "data"
    store = root / "store"
    assert cli.main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert cli.main(["ingest", "--schema", str(data / "schema.txt"),
                     "--data", str(data), "--out", str(store)]) == 0
    assert cli.main(["cluster", "--store", str(store), "--algo", "close1",
                     "--size", "5"]) == 0
    return data, store


def test_pipeline_prints_summaries(corpus, capsys, tmp_path):
    data, store = corpus
    capsys.readouterr()
    assert cli.main(["cluster", "--store", str(store), "--algo", "close1",
                     "--size", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("clusters=")
    assert "superedges=" in out and "algo=close1" in out


def test_query_output_and_determinism(corpus, capsys):
    _, store = corpus
    terms = " ".join(low_pair(0))
    argv = ["query", "--store", str(store), "--seed", "7", terms]
    capsys.readouterr()
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first
    lines = first.splitlines()
    assert lines[0].startswith("1\t")
    for rank, line in enumerate(lines, start=1):
        cols = line.split("\t")
        assert int(cols[0]) == rank
        float(cols[1])
        assert len(cols) == 5


def test_baseline_output_and_determinism(corpus, capsys):
    data, _ = corpus
    terms = " ".join(low_pair(1))
    argv = ["baseline", "--data", str(data), terms]
    capsys.readouterr()
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0].startswith("1\t")


def test_stats_flag_writes_to_stderr_only(corpus, capsys):
    _, store = corpus
    terms = " ".join(low_pair(0))
    capsys.readouterr()
    assert cli.main(["query", "--store", str(store), terms]) == 0
    plain = capsys.readouterr()
    assert cli.main(["query", "--store", str(store), "--stats", terms]) == 0
    stats = capsys.readouterr()
    assert stats.out == plain.out
    assert plain.err == ""
    assert "phase1" in stats.err and "clusters:" in stats.err


def test_compare_reports_each_query(corpus, capsys):
    data, store = corpus
    capsys.readouterr()
    assert cli.main(["compare", "--store", str(store), "--data", str(data),
                     "--queries", str(data / "queries.txt")]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    queries = [q for q in (data / "queries.txt").read_text().splitlines()
               if q.strip()]
    assert len(lines) == len(queries)
    for line in lines:
        assert "overlap=" in line or "no-match=" in line


@pytest.mark.parametrize("combos", ["all", "best"])
def test_compare_reference_follows_combos(corpus, monkeypatch, combos):
    data, store = corpus
    seen = []
    real = cli.single_phase_query

    def recording(g, index, terms, algorithm, cfg):
        seen.append(cfg)
        return real(g, index, terms, algorithm, cfg)

    monkeypatch.setattr(cli, "single_phase_query", recording)
    assert cli.main(["compare", "--store", str(store), "--data", str(data),
                     "--queries", str(data / "queries.txt"), "--k", "4",
                     "--combos", combos]) == 0
    assert seen
    assert all(cfg.combos == combos and cfg.k == 4 for cfg in seen)


def test_no_match_exits_one(corpus, capsys):
    _, store = corpus
    capsys.readouterr()
    assert cli.main(["query", "--store", str(store), "qqqzzz"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no match" in captured.err


def test_missing_store_errors(tmp_path, capsys):
    capsys.readouterr()
    assert cli.main(["query", "--store", str(tmp_path / "nope"), "x"]) == 1
    assert "error:" in capsys.readouterr().err


def _query_fails(store, capsys):
    capsys.readouterr()
    assert cli.main(["query", "--store", str(store), " ".join(low_pair(0))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_reingest_needs_cluster_before_query(corpus, tmp_path, capsys):
    _, store = corpus
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"papers": 8, "authors": 4, "writes": 10,
                                "cites": 4, "rare_pairs": 2, "seed": 2}))
    data = tmp_path / "data"
    assert cli.main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert cli.main(["ingest", "--schema", str(data / "schema.txt"),
                     "--data", str(data), "--out", str(copy)]) == 0
    assert "graph.emb" in _query_fails(copy, capsys)
    assert cli.main(["cluster", "--store", str(copy), "--size", "5"]) == 0
    capsys.readouterr()
    assert cli.main(["query", "--store", str(copy), " ".join(low_pair(0))]) == 0
    assert capsys.readouterr().out.startswith("1\t")


def test_foreign_or_resized_cluster_file_errors(corpus, tmp_path, capsys):
    _, store = corpus
    mine, other = tmp_path / "mine", tmp_path / "other"
    shutil.copytree(store, mine)
    shutil.copytree(store, other)
    assert cli.main(["cluster", "--store", str(other), "--size", "4"]) == 0
    good = (mine / "clusters.emb").read_bytes()
    for data in ((other / "clusters.emb").read_bytes(), good[:-1],
                 good + b"\x00"):
        (mine / "clusters.emb").write_bytes(data)
        assert "clusters.emb" in _query_fails(mine, capsys)


def test_bad_synth_spec_errors(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"papers": 10, "color": "red"}))
    capsys.readouterr()
    assert cli.main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
    assert "error:" in capsys.readouterr().err
