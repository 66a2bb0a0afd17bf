"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained, seeded, and prints a single summary line on
success so a verbose run reads as a checklist.  The points keep their
numbers; point 5 (cluster cost bounds) is retired, since no build or query
computes those bounds.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import embanks
from embanks.clustering import (EDGE_HARMONIC_MEAN, EDGE_INVERSE_SUM,
                                EDGE_MIN, PRESTIGE_AVG, PRESTIGE_SUM,
                                build_cluster_graph, cluster_close_to_1,
                                combine_edge_weights, combine_prestige)
from embanks.engine import (EngineConfig, build_store, compare_precision,
                            ingest_to_store, single_phase_query,
                            two_phase_query)
from embanks.graph import GraphBuilder, NodeMeta, estimate_memory
from embanks.keywords import build_index
from embanks.scoring import ScoreConfig
from embanks.search import (COMBOS_ALL, COMBOS_BEST, NoMatchError,
                            SearchConfig, backward_search, init_activation,
                            spread_activation)
from embanks.storage import (GRAPH_FILE, INDEX_FILE,
                             ClusterStore, expand_clusters, read_cluster,
                             read_compressed_graph, read_keyword_index,
                             read_tuple_graph, write_cluster,
                             write_compressed_graph, write_keyword_index,
                             write_tuple_graph)
from embanks.synth import SynthSpec, generate_synthetic, high_pair, low_pair

from conftest import random_graph, random_keyword_sets
from oracles import exhaustive_answers
from test_storage import link_multiset


def planted_store(rng, store_dir, n, terms, per_term, max_size):
    """A store over a random graph with query terms planted on sampled rows."""
    g = random_graph(rng, n, extra_links=n)
    texts = [f"row{i} shared" for i in range(n)]
    for t in terms:
        for i in rng.sample(range(n), per_term(rng)):
            texts[i] = texts[i] + " " + t
    meta = NodeMeta(["rel"], np.zeros(n, dtype=np.int32), texts,
                    [f"rel:{i}" for i in range(n)])
    store_dir.mkdir(parents=True, exist_ok=True)
    write_tuple_graph(store_dir, g)
    index = build_index(meta)
    write_keyword_index(store_dir / INDEX_FILE, index)
    build_store(store_dir, algorithm="close1", max_size=max_size)
    return g, index, ClusterStore.open(store_dir)


def test_criterion_01_backward_search_matches_exhaustive_oracle():
    """Top-10 answers and scores equal brute-force enumeration."""
    rng = random.Random(101)
    cfg = SearchConfig(k=10, combos=COMBOS_ALL)
    start = time.perf_counter()
    graphs = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        ks = random_keyword_sets(rng, n, rng.randint(2, 3))
        answers, _ = backward_search(g, ks, cfg)
        expected = exhaustive_answers(g, ks, cfg.score, k=cfg.k)
        assert len(answers) == len(expected)
        for got, ref in zip(answers, expected):
            assert got.tree.root == ref.root
            assert tuple(sorted(got.tree.edges)) == ref.edges
            assert abs(got.score - ref.score) <= 1e-9
        graphs += 1
    elapsed = time.perf_counter() - start
    assert graphs == 200
    assert elapsed <= 60.0
    print(f"criterion 1: PASS (200 graphs match the oracle, "
          f"{elapsed:.1f}s)")


def test_criterion_02_identity_clustering_matches_single_phase(tmp_path):
    """Size-1 clusters plus full refetch reproduce the one-phase top-10."""
    rng = random.Random(202)
    terms = ["alpha", "beta"]
    cfg = EngineConfig(k=10, phase1_limit=10, extra_policy="keyword",
                       gamma=1e9, max_refetch=400, combos=COMBOS_ALL)
    for trial in range(50):
        n = rng.randint(20, 200)
        g, index, store = planted_store(
            rng, tmp_path / f"s{trial}", n, terms,
            lambda r: r.randint(2, 6), max_size=1)
        res = two_phase_query(store, terms, cfg)
        assert len(res.expanded_clusters) == n
        ref, _ = single_phase_query(g, index, terms, "backward",
                                    SearchConfig(k=10, combos=COMBOS_ALL))
        ref = sorted(ref, key=lambda a: a.sort_key())
        assert len(res.answers) == len(ref)
        for a, b in zip(res.answers, ref):
            assert a.tree.shape_key() == b.tree.shape_key()
            assert a.score == b.score
    print("criterion 2: PASS (50 stores, exact top-10 equality)")


def _ring_graph(rng, n, doubled):
    b = GraphBuilder()
    for _ in range(n):
        b.add_node(float(rng.randint(0, 5)))
    for i in range(n):
        b.add_link(i, (i + 1) % n, rng.uniform(0.5, 4.0),
                   rng.uniform(0.5, 4.0))
        if doubled and rng.random() < 0.3:
            b.add_link((i + 1) % n, i, rng.uniform(0.5, 4.0),
                       rng.uniform(0.5, 4.0))
    return b.build()


def test_criterion_03_memory_model_and_compression():
    """The byte model is exact and clustering shrinks it by 60% or more."""
    assert estimate_memory(1_000_000, 10_000_000) == 140_000_000
    assert estimate_memory(500_000, 5_000_000) == 70_000_000
    rng = random.Random(303)
    ratios = []
    for n, doubled in ((3000, False), (5000, True), (2500, False),
                       (3140, True)):
        g = _ring_graph(rng, n, doubled)
        cl = cluster_close_to_1(g, 100)
        cg = build_cluster_graph(g, cl)
        k = cl.cluster_count
        assert n / 100 <= k <= 1.1 * (n / 100)
        original = estimate_memory(g.node_count, g.slot_count)
        compressed = estimate_memory(k, cg.slot_count)
        assert compressed <= 0.40 * original
        ratios.append(compressed / original)
    print(f"criterion 3: PASS (exact byte model, cluster counts within "
          f"+10%, ratios {[f'{r:.3f}' for r in ratios]})")


def test_criterion_04_weight_combiner_algebra():
    """Harmonic mean is size times inverse sum; prestige sum is size
    times average."""
    rng = random.Random(404)
    for _ in range(10_000):
        s = rng.randint(2, 8)
        ws = [rng.uniform(0.1, 10.0) for _ in range(s)]
        w_is = combine_edge_weights(ws, EDGE_INVERSE_SUM)
        w_hm = combine_edge_weights(ws, EDGE_HARMONIC_MEAN)
        w_min = combine_edge_weights(ws, EDGE_MIN)
        assert abs(w_hm - s * w_is) <= 1e-6 * w_hm
        assert w_is <= w_min <= w_hm

        vals = [rng.uniform(0.0, 5.0)
                for _ in range(rng.choice([1, 2, 4, 8]))]
        total = combine_prestige(vals, PRESTIGE_SUM)
        avg = combine_prestige(vals, PRESTIGE_AVG)
        assert len(vals) * avg == total
        assert avg == total / len(vals)
    print("criterion 4: PASS (10,000 weight sets)")


def test_criterion_06_activation_conservation():
    """Spread steps conserve mass; stored activation never decreases."""
    rng = random.Random(606)
    steps = 0
    for _ in range(42):
        n = rng.randint(2, 15)
        g = random_graph(rng, n)
        ks = random_keyword_sets(rng, n, rng.randint(1, 3))
        state = init_activation(ks, g.prestige,
                                mu=rng.choice([0.3, 0.5, 0.8]))
        for _ in range(2500):
            node = rng.randrange(n)
            neighbors = [(v, w) for _, v, w in g.out_edges(node)]
            before = np.array(state.a)
            rec = spread_activation(state, node, neighbors)
            drift = np.abs(np.add(rec.retained, rec.distributed())
                           - np.array(rec.received))
            assert drift.max(initial=0.0) <= 1e-9
            assert np.all(np.array(state.a) >= before)
            steps += 1
    assert steps >= 100_000
    print(f"criterion 6: PASS ({steps} spread steps conserve activation)")


def test_criterion_07_storage_round_trip(tmp_path):
    """Every store file, graph.emb's section and each of its cluster
    records reread byte-identically; expansion rebuilds the graph, and the
    tuple graph decoded from the store writes the ingest-time graph.emb
    again."""
    rng = random.Random(707)
    scratch = tmp_path / "rewrite"
    scratch.mkdir()
    for trial in range(20):
        n = rng.randint(16, 60)
        terms = ["alpha", "beta"]
        g, _, store = planted_store(
            rng, tmp_path / f"s{trial}", n, terms,
            lambda r: r.randint(1, 4), max_size=rng.randint(2, 6))
        d = tmp_path / f"s{trial}"

        write_tuple_graph(scratch / "t", read_tuple_graph(d))
        write_tuple_graph(scratch / "g", g)
        assert (scratch / "t" / GRAPH_FILE).read_bytes() == \
            (scratch / "g" / GRAPH_FILE).read_bytes()

        header, records = read_compressed_graph(d / GRAPH_FILE)
        offset = header.record_offset
        rewritten = []
        for c in range(header.clustering.cluster_count):
            payload = read_cluster(records[offset[c]:offset[c + 1]])
            assert payload.cluster_id == c
            rewritten.append(write_cluster(payload))
        write_compressed_graph(scratch / "g.emb", header, b"".join(rewritten))
        assert (scratch / "g.emb").read_bytes() == \
            (d / GRAPH_FILE).read_bytes()

        index = read_keyword_index(d / INDEX_FILE)
        write_keyword_index(scratch / "i.kwi", index)
        assert (scratch / "i.kwi").read_bytes() == \
            (d / INDEX_FILE).read_bytes()

        sub = expand_clusters(store, range(store.clustering.cluster_count))
        assert sub.graph.node_count == g.node_count
        assert link_multiset(sub.graph, sub.global_ids) == link_multiset(g)
        order = np.argsort(sub.global_ids)
        assert np.array_equal(sub.graph.prestige[order], g.prestige)
    print("criterion 7: PASS (20 stores byte-stable and rebuildable)")


def test_criterion_08_two_phase_touches_fewer_nodes(tmp_path):
    """On a 20k-node corpus a common-word query touches fewer nodes than
    the whole-graph search."""
    data = tmp_path / "data"
    store = tmp_path / "store"
    generate_synthetic(SynthSpec(papers=6000, authors=2000, writes=9000,
                                 cites=3000, rare_pairs=10, seed=8), data)
    g, _, _ = ingest_to_store(data / "schema.txt", data, store, prune=False)
    assert g.node_count >= 20_000
    build_store(store, algorithm="close1", max_size=100)
    st = ClusterStore.open(store)
    terms = list(high_pair(0))
    cfg = EngineConfig(k=10, phase1_limit=10, phase1_algorithm="bidi",
                       phase2_algorithm="bidi", combos=COMBOS_BEST,
                       extra_policy="none", gamma=0.0, budget=0)
    res = two_phase_query(st, terms, cfg)
    ref, ref_stats = single_phase_query(
        g, st.keyword_index(), terms, "bidi",
        SearchConfig(k=10, combos=COMBOS_BEST))
    assert res.answers
    assert ref
    assert res.stats.nodes_touched < ref_stats.nodes_touched
    print(f"criterion 8: PASS (two-phase touched {res.stats.nodes_touched} "
          f"nodes, single-phase {ref_stats.nodes_touched})")


def test_criterion_09_clustering_quality_ordering(tmp_path):
    """Median answer overlap ranks adjacency <= connection <= greedymin."""
    data = tmp_path / "data"
    base = tmp_path / "base"
    generate_synthetic(SynthSpec(papers=300, authors=100, writes=450,
                                 cites=150, rare_pairs=5, seed=9), data)
    g, _, _ = ingest_to_store(data / "schema.txt", data, base, prune=True)
    index = read_keyword_index(base / INDEX_FILE)
    queries = [high_pair(0), high_pair(1), low_pair(0), low_pair(1)]
    refs = [single_phase_query(g, index, list(q), "backward",
                               SearchConfig(k=10, combos=COMBOS_BEST))[0]
            for q in queries]
    cfg = EngineConfig(k=10, budget=5000, gamma=0.0, extra_policy="keyword",
                       combos=COMBOS_BEST)
    medians = {}
    for algo in ("adjacency", "connection", "greedymin"):
        per_seed = []
        for seed in range(10):
            d = tmp_path / f"{algo}{seed}"
            d.mkdir()
            shutil.copy(base / GRAPH_FILE, d / GRAPH_FILE)
            shutil.copy(base / INDEX_FILE, d / INDEX_FILE)
            build_store(d, algorithm=algo, max_size=30, seed=seed)
            store = ClusterStore.open(d)
            overlaps = []
            for q, ref in zip(queries, refs):
                try:
                    res = two_phase_query(store, list(q), cfg)
                    overlaps.append(compare_precision(res.answers,
                                                      ref).overlap)
                except NoMatchError:
                    overlaps.append(0.0)
            per_seed.append(sum(overlaps) / len(overlaps))
        per_seed.sort()
        medians[algo] = (per_seed[4] + per_seed[5]) / 2
    assert medians["adjacency"] <= medians["connection"] \
        <= medians["greedymin"]
    print(f"criterion 9: PASS (median overlaps "
          f"adjacency={medians['adjacency']:.3f} <= "
          f"connection={medians['connection']:.3f} <= "
          f"greedymin={medians['greedymin']:.3f})")


def test_criterion_10_cli_determinism(tmp_path):
    """Two runs of every command produce byte-identical output and files,
    even under different interpreter hash seeds."""
    spec = {"papers": 40, "authors": 15, "writes": 60, "cites": 20,
            "rare_pairs": 3, "seed": 1}
    verbs = (
        ["synth", "--spec", "spec.json", "--out", "data"],
        ["ingest", "--schema", "data/schema.txt", "--data", "data",
         "--out", "store"],
        ["cluster", "--store", "store", "--algo", "close1", "--size", "5"],
        ["query", "--store", "store", " ".join(low_pair(0))],
        ["baseline", "--data", "data", " ".join(high_pair(0))],
        ["compare", "--store", "store", "--queries", "data/queries.txt"],
    )
    # The children run with cwd=tmp_path, where a relative PYTHONPATH entry
    # such as `src` finds nothing, so the package's absolute source root
    # goes first; inherited entries follow.
    src_root = str(Path(embanks.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    runs = []
    for tag, hashseed in (("a", "1"), ("b", "31337")):
        base = tmp_path / tag
        base.mkdir()
        (base / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=pythonpath)
        outs = []
        for argv in verbs:
            r = subprocess.run([sys.executable, "-m", "embanks.cli", *argv],
                               capture_output=True, env=env, cwd=base)
            assert r.returncode == 0, (argv, r.stderr.decode(errors="replace"))
            outs.append(r.stdout)
        files = {str(p.relative_to(base)): p.read_bytes()
                 for p in sorted(base.rglob("*")) if p.is_file()}
        runs.append((outs, files))
    (outs_a, files_a), (outs_b, files_b) = runs
    for argv, x, y in zip(verbs, outs_a, outs_b):
        assert x, argv
        assert x == y, argv
    assert files_a == files_b
    print(f"criterion 10: PASS ({len(verbs)} commands byte-identical)")
