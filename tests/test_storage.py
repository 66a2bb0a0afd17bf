"""On-disk formats: round trips, corruption detection, store expansion."""

import random
import zlib
from collections import Counter

import numpy as np
import pytest

from embanks.clustering import (WeightConfig, _from_member_lists,
                                build_cluster_graph, min_crossing_weights)
from embanks.graph import NodeMeta
from embanks.keywords import KeywordIndex, build_index
from embanks.storage import (CLUSTERS_FILE, ClusterStore, StorageError,
                             StorageFormatError, expand_clusters,
                             make_cluster_payload, read_cluster,
                             read_compressed_graph, read_keyword_index,
                             read_tuple_graph, write_cluster,
                             write_compressed_graph, write_keyword_index,
                             write_store, write_tuple_graph, StoreHeader)
from embanks.graph import BYTES_PER_EDGE, BYTES_PER_NODE

from conftest import random_graph
from test_clustering import grown_clustering, random_clustering


def random_meta(rng, n):
    rels = ["alpha", "beta"]
    return NodeMeta(
        rels,
        np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint16),
        [f"text {i} " + rng.choice(["apple", "pear", ""]) for i in range(n)],
        [f"k{i}" for i in range(n)],
    )


def link_multiset(g, ids=None):
    out = Counter()
    for u, v, wf, wb in g.links():
        gu = u if ids is None else int(ids[u])
        gv = v if ids is None else int(ids[v])
        out[(gu, gv, wf, wb)] += 1
    return out


def built_store(rng, tmp_path, n=24, cl=None, g=None):
    if g is None:
        g = random_graph(rng, n, extra_links=rng.randint(2, n))
    if cl is None:
        cl = grown_clustering(rng, "close1", g, 4)
    write_store(tmp_path, g, cl, build_cluster_graph(g, cl))
    return g, cl, ClusterStore.open(tmp_path)


def test_tuple_graph_round_trip(rng, tmp_path):
    g = random_graph(rng, 15, extra_links=6)
    meta = random_meta(rng, 15)
    p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
    write_tuple_graph(p1, g, meta)
    g2, meta2 = read_tuple_graph(p1)
    assert g2.node_count == g.node_count
    for name in ("prestige", "node_type", "adjacency_offset",
                 "adjacent_nodes", "edge_weight", "edge_direction",
                 "pair_slot"):
        assert np.array_equal(getattr(g2, name), getattr(g, name)), name
    assert meta2.relation_names == meta.relation_names
    assert np.array_equal(meta2.node_relation, meta.node_relation)
    assert meta2.node_text == meta.node_text
    assert meta2.node_key == meta.node_key
    write_tuple_graph(p2, g2, meta2)
    assert p1.read_bytes() == p2.read_bytes()


def test_compressed_graph_round_trip(rng, tmp_path):
    g = random_graph(rng, 30, extra_links=12)
    cl = random_clustering(rng, 30, 5)
    cg = build_cluster_graph(g, cl, WeightConfig("min", "avg"))
    k = cl.cluster_count
    m = cg.graph.slot_count
    header = StoreHeader(cg, cl,
                         np.arange(k, dtype=np.int64),
                         np.arange(k, dtype=np.int64) * 2,
                         np.arange(k + 1, dtype=np.int64) * (1 << 33),
                         np.arange(k, dtype=np.int64) + 0xFFFF0000)
    p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
    write_compressed_graph(p1, header)
    # header, arrays and CRC only: no per-cluster or per-superedge cost bounds
    graph_arrays = 6 * k + 4 * (k + 1) + 12 * m + (m + 7) // 8
    clustering_arrays = 8 * cl.node_count + 4 * (k + 1)
    record_arrays = 8 * k + 8 * (k + 1) + 4 * k
    assert p1.stat().st_size == \
        28 + graph_arrays + clustering_arrays + record_arrays + 4
    h2 = read_compressed_graph(p1)
    assert h2.cluster_graph.wcfg == cg.wcfg
    assert np.array_equal(h2.cluster_graph.graph.adjacent_nodes,
                          cg.graph.adjacent_nodes)
    assert np.array_equal(h2.cluster_graph.graph.edge_weight,
                          cg.graph.edge_weight)
    assert np.array_equal(h2.clustering.node_mapping, cl.node_mapping)
    assert np.array_equal(h2.clustering.node_order, cl.node_order)
    assert np.array_equal(h2.clustering.cluster_offset, cl.cluster_offset)
    assert h2.clustering.max_cluster_size == cl.max_cluster_size
    assert np.array_equal(h2.intra_links, header.intra_links)
    assert np.array_equal(h2.crossing_links, header.crossing_links)
    assert np.array_equal(h2.record_offset, header.record_offset)
    assert np.array_equal(h2.record_crc, header.record_crc)
    write_compressed_graph(p2, h2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cluster_payload_round_trip(rng):
    g = random_graph(rng, 18, extra_links=9)
    cl = random_clustering(rng, 18, 5)
    for c in range(cl.cluster_count):
        payload = make_cluster_payload(g, cl, c)
        assert np.all(payload.bound_cluster != c)
        record = write_cluster(payload)
        back = read_cluster(record)
        assert back.cluster_id == c
        for name in ("members", "prestige", "node_type", "intra_src",
                     "intra_dst", "intra_w", "bound_src", "bound_dst",
                     "bound_cluster", "bound_w"):
            assert np.array_equal(getattr(back, name), getattr(payload, name)), name
        assert write_cluster(back) == record


def test_keyword_index_round_trip(tmp_path):
    # a term longer than 65,535 bytes needs the 32-bit string length
    long_term = "x" * 70_000
    index = KeywordIndex({"apple": [0, 2, 9], "pear": [1], "zx81": [3, 4],
                          long_term: [5]})
    p1, p2 = tmp_path / "a.kwi", tmp_path / "b.kwi"
    write_keyword_index(p1, index)
    back = read_keyword_index(p1)
    assert back.postings == index.postings
    write_keyword_index(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_keyword_index_round_trips_build_index(rng, tmp_path):
    meta = random_meta(rng, 40)
    index = build_index(meta, include_relation_names=True)
    write_keyword_index(tmp_path / "i.kwi", index)
    back = read_keyword_index(tmp_path / "i.kwi")
    assert back.postings == index.postings
    assert all(type(x) is int for p in back.postings.values() for x in p)


def test_corruption_detection(rng, tmp_path):
    g = random_graph(rng, 12, extra_links=4)
    meta = random_meta(rng, 12)
    path = tmp_path / "t.emb"
    write_tuple_graph(path, g, meta)
    raw = bytearray(path.read_bytes())

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0x40
    path.write_bytes(flipped)
    with pytest.raises(StorageFormatError):
        read_tuple_graph(path)

    path.write_bytes(raw[:-9])
    with pytest.raises(StorageError):
        read_tuple_graph(path)

    path.write_bytes(raw + b"\x00")
    with pytest.raises(StorageError):
        read_tuple_graph(path)

    wrong = bytearray(raw)
    wrong[0:4] = b"EMBI"
    path.write_bytes(wrong)
    with pytest.raises(StorageFormatError):
        read_tuple_graph(path)

    def restamped(blob, version):
        versioned = bytearray(blob)
        versioned[4] = version
        body = bytes(versioned[:-4])
        return body + zlib.crc32(body).to_bytes(4, "little")

    path.write_bytes(restamped(raw, 4))
    read_tuple_graph(path)
    for version in (1, 2, 3, 99):
        path.write_bytes(restamped(raw, version))
        with pytest.raises(StorageFormatError, match="unsupported version"):
            read_tuple_graph(path)

    record = write_cluster(make_cluster_payload(g, random_clustering(rng, 12, 4), 0))
    read_cluster(restamped(record, 3))
    for version in (1, 2, 4, 99):
        with pytest.raises(StorageFormatError, match="unsupported version"):
            read_cluster(restamped(record, version))


def first_failure(store_dir):
    """'open', the first cluster whose read fails, or None if all read."""
    try:
        store = ClusterStore.open(store_dir)
    except StorageFormatError:
        return "open"
    for c in range(store.cluster_count):
        try:
            store.read_cluster(c)
        except StorageFormatError:
            return c
    return None


def test_foreign_or_damaged_cluster_file_is_rejected(rng, tmp_path):
    g, cl, store = built_store(rng, tmp_path / "a", n=30)
    k = cl.cluster_count
    good = (tmp_path / "a" / CLUSTERS_FILE).read_bytes()
    assert first_failure(tmp_path / "a") is None

    # other builds of the same graph: a coarser clustering, and the same
    # partition with its ids reversed, which packs to the same length
    built_store(rng, tmp_path / "b", g=g,
                cl=grown_clustering(rng, "close1", g, 3))
    reversed_ids = _from_member_lists(
        [cl.members(c).tolist() for c in reversed(range(k))],
        cl.node_count, cl.max_cluster_size)
    built_store(rng, tmp_path / "c", g=g, cl=reversed_ids)
    other = (tmp_path / "b" / CLUSTERS_FILE).read_bytes()
    same_length = (tmp_path / "c" / CLUSTERS_FILE).read_bytes()
    assert len(other) != len(good)
    assert len(same_length) == len(good) and same_length != good

    target = tmp_path / "a" / CLUSTERS_FILE
    offset = store.header.record_offset
    cases = [(other, "open"), (same_length, 0),
             (good[:-1], "open"), (good + b"\x00", "open")]
    for c in range(k):
        flipped = bytearray(good)
        flipped[rng.randrange(int(offset[c]), int(offset[c + 1]))] ^= 0x10
        cases.append((bytes(flipped), c))
    for data, expected in cases:
        target.write_bytes(data)
        assert first_failure(tmp_path / "a") == expected


def test_expand_all_clusters_restores_graph(rng, tmp_path):
    for trial in range(4):
        d = tmp_path / f"s{trial}"
        g, cl, store = built_store(rng, d, n=rng.randint(6, 30))
        exp = expand_clusters(store, range(cl.cluster_count))
        exp.graph.validate()
        assert exp.graph.node_count == g.node_count
        for local, gid in enumerate(exp.global_ids):
            assert exp.graph.prestige[local] == g.prestige[int(gid)]
            assert exp.graph.node_type[local] == g.node_type[int(gid)]
            assert exp.global_to_local[int(gid)] == local
        assert link_multiset(exp.graph, exp.global_ids) == link_multiset(g)


def test_expand_subset_keeps_internal_links_only(rng, tmp_path):
    g, cl, store = built_store(rng, tmp_path, n=24)
    k = cl.cluster_count
    picked = sorted(random.Random(5).sample(range(k), max(2, k // 2)))
    exp = expand_clusters(store, picked)
    assert exp.clusters == tuple(picked)
    wanted = set(picked)
    members = {int(n) for c in picked for n in cl.members(c)}
    assert sorted(int(x) for x in exp.global_ids) == sorted(members)
    expected = Counter()
    for u, v, wf, wb in g.links():
        if int(cl.node_mapping[u]) in wanted and int(cl.node_mapping[v]) in wanted:
            expected[(u, v, wf, wb)] += 1
    assert link_multiset(exp.graph, exp.global_ids) == expected


def test_store_read_stats_and_cache(rng, tmp_path):
    g, cl, store = built_store(rng, tmp_path)
    first = store.read_cluster(0)
    assert store.clusters_read == 1
    assert store.bytes_read == len(write_cluster(first))
    again = store.read_cluster(0)
    assert again is first
    assert store.clusters_read == 1
    ids = list(range(cl.cluster_count))
    expand_clusters(store, ids)
    expand_clusters(store, ids)
    assert store.clusters_read == cl.cluster_count


def test_cluster_cost_accounting(rng, tmp_path):
    g, cl, store = built_store(rng, tmp_path)
    intra = np.zeros(cl.cluster_count, dtype=np.int64)
    crossing = np.zeros(cl.cluster_count, dtype=np.int64)
    for u, v, *_ in g.links():
        cu, cv = int(cl.node_mapping[u]), int(cl.node_mapping[v])
        if cu == cv:
            intra[cu] += 1
        else:
            crossing[cu] += 1
            crossing[cv] += 1
    assert np.array_equal(store.header.intra_links, intra)
    assert np.array_equal(store.header.crossing_links, crossing)
    for c in range(cl.cluster_count):
        members = len(cl.members(c))
        expected = BYTES_PER_NODE * members \
            + BYTES_PER_EDGE * (2 * int(intra[c]) + 2 * int(crossing[c]))
        assert store.cluster_cost(c) == expected


def test_min_crossing_map_matches_links(rng, tmp_path):
    g, cl, store = built_store(rng, tmp_path)
    buckets = {}
    for u, v, wf, wb in g.links():
        cu, cv = int(cl.node_mapping[u]), int(cl.node_mapping[v])
        if cu != cv:
            buckets.setdefault((cu, cv), []).append(wf)
            buckets.setdefault((cv, cu), []).append(wb)
    got = min_crossing_weights(g, store.clustering)
    assert set(got) == set(buckets)
    for pair, ws in buckets.items():
        assert got[pair] == float(np.float32(min(ws)))
