"""Command line driver: pipeline wiring, output shape, determinism."""

import json
import shutil

import numpy as np
import pytest

from embanks import cli
from embanks.clustering import (WeightConfig, build_cluster_graph,
                                cluster_close_to_1)
from embanks.engine import EngineConfig, two_phase_query
from embanks.search import SearchConfig
from embanks.storage import ClusterStore, StorageFormatError, read_tuple_graph
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
    argv = ["query", "--store", str(store), terms]
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
    # both planted words sit in one cluster, so phase 1 stops there
    lines = stats.err.splitlines()
    assert " stopped=one-source " in lines[0]
    assert all(" stopped=exhausted " in line for line in lines[1:3])


def test_baseline_stats_say_why_the_search_stopped(corpus, capsys):
    data, _ = corpus
    argv = ["baseline", "--data", str(data), " ".join(low_pair(0))]
    capsys.readouterr()
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert cli.main(argv + ["--stats"]) == 0
    stats = capsys.readouterr()
    assert stats.out == plain.out and plain.err == ""
    assert stats.err.startswith("search: ")
    assert " stopped=exhausted " in stats.err


def test_compare_reports_each_query(corpus, capsys):
    data, store = corpus
    capsys.readouterr()
    assert cli.main(["compare", "--store", str(store),
                     "--queries", str(data / "queries.txt")]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    queries = [q for q in (data / "queries.txt").read_text().splitlines()
               if q.strip()]
    assert len(lines) == len(queries)
    for line in lines:
        assert "overlap=" in line or "no-match=" in line


def test_compare_reference_is_the_stored_graph(corpus, tmp_path, capsys):
    """The single-phase reference searches the store's own tuple graph, so
    on an unpruned store both sides number the nodes alike and a rare pair
    the two-phase search answers in full overlaps fully."""
    data, _ = corpus
    store = tmp_path / "unpruned"
    assert cli.main(["ingest", "--schema", str(data / "schema.txt"),
                     "--data", str(data), "--out", str(store),
                     "--no-prune"]) == 0
    assert cli.main(["cluster", "--store", str(store), "--size", "5"]) == 0
    capsys.readouterr()
    assert cli.main(["compare", "--store", str(store),
                     "--queries", str(data / "queries.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "zephyr quasar\toverlap=1.000 acceptable=4/4" in lines


@pytest.mark.parametrize("combos", ["all", "best"])
def test_compare_reference_follows_combos(corpus, monkeypatch, combos):
    data, store = corpus
    seen = []
    real = cli.single_phase_query

    def recording(g, index, terms, algorithm, cfg):
        seen.append(cfg)
        return real(g, index, terms, algorithm, cfg)

    monkeypatch.setattr(cli, "single_phase_query", recording)
    assert cli.main(["compare", "--store", str(store),
                     "--queries", str(data / "queries.txt"), "--k", "4",
                     "--combos", combos]) == 0
    assert seen
    assert all(cfg.combos == combos and cfg.k == 4 for cfg in seen)



def test_combos_defaults_to_the_search_config():
    """``query``, ``baseline`` and ``compare`` share one ``--combos``
    default, ``SearchConfig``'s, which ``EngineConfig`` shares too."""
    parser = cli.build_parser()
    argvs = [["query", "--store", "s", "a b"],
             ["baseline", "--data", "d", "a b"],
             ["compare", "--store", "s", "--queries", "q"]]
    assert {parser.parse_args(a).combos for a in argvs} == \
        {SearchConfig.combos} == {EngineConfig().combos} == {"best"}

def test_no_match_exits_one(corpus, capsys):
    _, store = corpus
    capsys.readouterr()
    assert cli.main(["query", "--store", str(store), "qqqzzz"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no match" in captured.err



@pytest.mark.parametrize("command, flag, value", [
    ("query", "--k", "0"), ("query", "--k", "-3"),
    ("query", "--limit", "0"), ("query", "--limit", "-1"),
    ("compare", "--k", "0"), ("compare", "--limit", "0"),
    ("baseline", "--k", "0"),
])
def test_nonpositive_k_or_limit_exits_one(corpus, capsys, command, flag,
                                          value):
    data, store = corpus
    where = {"query": ["--store", str(store), " ".join(low_pair(0))],
             "compare": ["--store", str(store),
                         "--queries", str(data / "queries.txt")],
             "baseline": ["--data", str(data), " ".join(low_pair(0))]}
    capsys.readouterr()
    assert cli.main([command, flag, value] + where[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"at least 1, got {value}" in captured.err


@pytest.mark.parametrize("command", ["query", "compare"])
def test_negative_budget_exits_one(corpus, capsys, command):
    data, store = corpus
    where = {"query": ["--store", str(store), " ".join(low_pair(0))],
             "compare": ["--store", str(store),
                         "--queries", str(data / "queries.txt")]}
    capsys.readouterr()
    assert cli.main([command, "--budget", "-1"] + where[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be nonnegative, got -1\n"


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


def test_inspect_prints_the_store_as_one_json_line(corpus, capsys):
    """``inspect`` prints one JSON line: every file's bytes as the file
    system gives them, the stored width of each integer column, and the
    clusters' count, singletons and size histogram."""
    _, store = corpus
    capsys.readouterr()
    assert cli.main(["inspect", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    info = json.loads(out)
    assert info["files"] == {p.name: p.stat().st_size for p in store.iterdir()}
    opened = ClusterStore.open(store)
    k = opened.cluster_count
    sizes, counts = np.unique(np.diff(opened.clustering.cluster_offset),
                              return_counts=True)
    assert info["clusters"] == k
    assert info["cluster_sizes"] == {str(n): c for n, c in
                                     zip(sizes.tolist(), counts.tolist())}
    assert info["singletons"] == info["cluster_sizes"].get("1", 0)
    widths = info["widths"]
    assert widths["graph"]["node_order"] == \
        opened.clustering.node_order.dtype.itemsize
    assert widths["index"]["ids"] == opened.keyword_index().ids.dtype.itemsize
    assert {w for w in widths["graph"].values()} | set(widths["index"].values()) \
        <= {1, 2, 4, 8}
    for name in ("src", "dst", "pos"):
        assert sum(widths["records"][name].values()) == k
        assert set(widths["records"][name]) <= {"1", "2", "4", "8"}


def test_reingest_answers_before_cluster(corpus, tmp_path, capsys):
    """A re-ingested store holds the new corpus as one cluster: it answers
    at once, and again after ``cluster``."""
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
    assert sorted(p.name for p in copy.iterdir()) == ["graph.emb", "index.kwi"]

    def query():
        capsys.readouterr()
        assert cli.main(["query", "--store", str(copy), " ".join(low_pair(0))]) == 0
        return capsys.readouterr().out

    assert ClusterStore.open(copy).cluster_count == 1
    assert query().startswith("1\t")
    assert cli.main(["cluster", "--store", str(copy), "--size", "5"]) == 0
    assert ClusterStore.open(copy).cluster_count > 1
    assert query().startswith("1\t")


def test_damaged_graph_file_errors(corpus, tmp_path, capsys):
    """A graph.emb cut or extended by one byte fails at open, and one with
    a flipped byte in every record fails at the first record read: either
    way ``query`` exits 1 naming the file."""
    _, store = corpus
    mine = tmp_path / "mine"
    shutil.copytree(store, mine)
    path = mine / "graph.emb"
    good = path.read_bytes()
    opened = ClusterStore.open(mine)
    section = len(good) - len(opened.records)
    flipped = bytearray(good)
    for end in (section + opened.header.record_offset[1:]).tolist():
        flipped[end - 1] ^= 0x10            # each record's CRC trailer
    for data, named in ((good[:-1], "graph.emb: "), (good + b"\x00", "graph.emb: "),
                        (bytes(flipped), "graph.emb cluster ")):
        path.write_bytes(data)
        assert named in _query_fails(mine, capsys)


def test_keyword_index_from_another_build_errors(corpus, tmp_path, capsys):
    """A larger corpus's index.kwi names nodes past the store's node range:
    the engine rejects it naming the file, and ``query`` and ``compare``
    exit 1 instead of crashing."""
    data, store = corpus
    mine, big = tmp_path / "mine", tmp_path / "big"
    shutil.copytree(store, mine)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"papers": 400, "authors": 150, "writes": 600,
                                "cites": 200, "rare_pairs": 3, "seed": 1}))
    assert cli.main(["synth", "--spec", str(spec), "--out", str(big)]) == 0
    assert cli.main(["ingest", "--schema", str(big / "schema.txt"),
                     "--data", str(big), "--out", str(big)]) == 0
    shutil.copy(big / "index.kwi", mine / "index.kwi")
    with pytest.raises(StorageFormatError, match="index.kwi"):
        two_phase_query(ClusterStore.open(mine), list(low_pair(0)))
    assert "index.kwi" in _query_fails(mine, capsys)
    assert cli.main(["compare", "--store", str(mine),
                     "--queries", str(data / "queries.txt")]) == 1
    assert "index.kwi" in capsys.readouterr().err


def test_combiner_flags_set_the_stored_cluster_graph(corpus, tmp_path, capsys):
    _, store = corpus
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    g = read_tuple_graph(copy)
    clustering = cluster_close_to_1(g, 5)
    prestiges, weights = set(), set()
    for edge_flag, edge in [("invsum", "inverse-sum"),
                            ("harmonic", "harmonic-mean"), ("min", "min")]:
        for prestige in ("sum", "max", "avg"):
            assert cli.main(["cluster", "--store", str(copy), "--algo", "close1",
                             "--size", "5", "--edge-combiner", edge_flag,
                             "--prestige", prestige]) == 0
            stored = ClusterStore.open(copy).cluster_graph
            built = build_cluster_graph(g, clustering,
                                        WeightConfig(edge, prestige))
            assert stored.node_count == built.node_count
            for name in ("prestige", "adjacency_offset", "adjacent_nodes",
                         "edge_weight", "edge_direction", "pair_slot"):
                assert np.array_equal(getattr(stored, name),
                                      getattr(built, name)), (edge, prestige, name)
            prestiges.add(stored.prestige.tobytes())
            weights.add(stored.edge_weight.tobytes())
    capsys.readouterr()
    # every prestige flag and at least two edge flags change what is stored;
    # this corpus's member edges all weigh the same, so min and harmonic agree
    assert len(prestiges) == 3 and len(weights) >= 2


@pytest.mark.parametrize("size", ["0", "-3"])
def test_nonpositive_cluster_size_errors(corpus, tmp_path, capsys, size):
    _, store = corpus
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    before = {p.name: p.read_bytes() for p in copy.iterdir()}
    capsys.readouterr()
    assert cli.main(["cluster", "--store", str(copy), "--size", size]) == 1
    assert "error:" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in copy.iterdir()} == before


def test_bad_synth_spec_errors(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"papers": 10, "color": "red"}))
    capsys.readouterr()
    assert cli.main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("raw,key", [
    ({"papers": "10"}, "papers"), ({"papers": 2.5}, "papers"),
    ({"authors": True}, "authors"), ({"seed": None}, "seed"),
    ({"rare_pairs": -1}, "rare_pairs")])
def test_synth_spec_of_wrong_type_errors(tmp_path, capsys, raw, key):
    """A spec value that is not an integer, or a negative ``rare_pairs``,
    fails with an error naming the key and writes no corpus."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("table, error", [
    (b"id\ttitle\tid\np1\tone\tp2\n",
     "paper.tsv:1: header names column 'id' twice"),
    (b"id\ttitle\r\np1\tone\r\np2\tcaf\xe9\r\n",
     "paper.tsv:3: not UTF-8 text, byte 0xe9")],
    ids=["duplicate-header", "not-utf8"])
def test_bad_tsv_fails_ingest_naming_file_and_line(tmp_path, capsys, table, error):
    """A header naming a column twice, or bytes that are not UTF-8, fail
    ``ingest`` with the file and line, and write no store."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "schema.txt").write_text("table paper text=title\n")
    (data / "paper.tsv").write_bytes(table)
    capsys.readouterr()
    assert cli.main(["ingest", "--schema", str(data / "schema.txt"),
                     "--data", str(data), "--out", str(tmp_path / "store")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {data / error.split(':')[0]}:")
    assert error in captured.err
    assert not (tmp_path / "store").exists()
