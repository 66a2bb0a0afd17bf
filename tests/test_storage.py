"""On-disk formats: round trips, corruption detection, store expansion."""

import mmap
import random
import re
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from embanks.clustering import (Clustering, WeightConfig, build_cluster_graph,
                                cluster_adjacency_naive, identity_clustering)
from embanks.graph import GraphBuilder, NodeMeta
from embanks.keywords import KeywordIndex, build_index
from embanks.storage import (FORMAT_VERSION, GRAPH_FILE,
                             INDEX_FILE, ClusterPayload, ClusterStore, StorageError,
                             StorageFormatError, expand_clusters, read_cluster,
                             read_compressed_graph, read_keyword_index,
                             read_tuple_graph, write_cluster,
                             write_compressed_graph, write_keyword_index,
                             write_store, write_tuple_graph, StoreHeader)
from embanks.graph import BYTES_PER_EDGE, BYTES_PER_NODE

from conftest import random_graph, with_self_loops
from oracles import (assert_same_graph, cluster_record_reference,
                     expand_reference, induced_subgraph, make_cluster_payload)
from test_clustering import GROWN, grown_clustering, random_clustering


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
    """A tuple graph written as a one-cluster store reads back array for
    array, self-loops included, and writes the same bytes again."""
    for trial in range(8):
        g = random_graph(rng, rng.randint(1, 20), extra_links=6)
        if trial % 2:
            g = with_self_loops(rng, g, 2)
        d1, d2 = tmp_path / f"a{trial}", tmp_path / f"b{trial}"
        write_tuple_graph(d1, g)
        g2 = read_tuple_graph(d1)
        assert g2.node_count == g.node_count
        for name in ("prestige", "adjacency_offset", "adjacent_nodes",
                     "edge_weight", "edge_direction", "pair_slot"):
            assert np.array_equal(getattr(g2, name), getattr(g, name)), name
        write_tuple_graph(d2, g2)
        assert (d1 / GRAPH_FILE).read_bytes() == (d2 / GRAPH_FILE).read_bytes()


def width(top):
    """Bytes per value of the narrowest unsigned column holding ``top``."""
    return 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4


def test_tuple_graph_byte_length(rng, tmp_path):
    """The tuple graph's graph.emb is a section with a one-node cluster
    graph and one record; a cluster record holds its header, column widths,
    member prestige, links with two weights and two slot positions, and its
    CRC: no row metadata, node types, member ids or target clusters.  Every
    id, position and count of these graphs fits one byte, so a record's
    links take 12 bytes each and need no padding."""
    for trial in range(12):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, extra_links=rng.randint(0, n))
        if trial % 3 == 0:
            g = with_self_loops(rng, g, 2)
        links = g.slot_count // 2
        d = tmp_path / f"t{trial}"
        write_tuple_graph(d, g)
        record = 28 + 4 * n + 12 * links
        # header, prestige, widths, adjacency offsets, node order, cluster
        # offsets, link counts, record offsets; no slots, so no bits
        body = 32 + 4 + 8 + 2 + n + 2 + 2 + 2 * width(record)
        section = body + -body % 4 + 4
        assert (d / GRAPH_FILE).stat().st_size == section + record
        cl = grown_clustering(rng, "close1", g, rng.randint(1, 5))
        _, _, store = built_store(rng, tmp_path / str(trial), g=g, cl=cl)
        # a record's links: the forward slots whose source is a member
        links = np.bincount(cl.node_mapping[g.slot_source[g.edge_direction]],
                            minlength=cl.cluster_count)
        members = np.diff(cl.cluster_offset)
        assert np.array_equal(np.diff(store.header.record_offset),
                              28 + 4 * members + 12 * links)


def test_compressed_graph_round_trip(rng, tmp_path):
    g = random_graph(rng, 30, extra_links=12)
    cl = random_clustering(rng, 30, 5)
    cg = build_cluster_graph(g, cl, WeightConfig("min", "avg"))
    k = cl.cluster_count
    m = cg.slot_count
    header = StoreHeader(cg, cl,
                         np.arange(k, dtype=np.int64),
                         np.arange(k, dtype=np.int64) * 2,
                         np.arange(k + 1, dtype=np.int64) * 3)
    records = bytes(rng.randrange(256) for _ in range(3 * k))
    p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
    write_compressed_graph(p1, header, records)
    # the section holds its header, column widths, arrays and CRC only: no
    # per-cluster or per-superedge cost bounds, no node types, no
    # node-to-cluster mapping and no record CRCs; every integer column
    # fits one byte; the records follow it unchanged
    graph_arrays = 4 * k + (k + 1) + 6 * m + (m + 7) // 8
    clustering_arrays = cl.node_count + (k + 1)
    record_arrays = 2 * k + (k + 1)
    body = 32 + 8 + graph_arrays + clustering_arrays + record_arrays
    section = body + -body % 4 + 4
    raw = p1.read_bytes()
    assert len(raw) == section + len(records)
    assert int.from_bytes(raw[8:16], "little") == section
    assert zlib.crc32(raw[:section - 4]) == \
        int.from_bytes(raw[section - 4:section], "little")
    h2, rest = read_compressed_graph(p1)
    assert bytes(rest) == records
    h = h2.cluster_graph
    for a in (h.adjacency_offset, h.adjacent_nodes, h.pair_slot,
              h2.clustering.node_order, h2.clustering.cluster_offset,
              h2.intra_links, h2.crossing_links, h2.record_offset):
        assert a.dtype == np.uint8
    assert np.array_equal(h2.cluster_graph.adjacent_nodes,
                          cg.adjacent_nodes)
    assert np.array_equal(h2.cluster_graph.edge_weight,
                          cg.edge_weight)
    assert np.array_equal(h2.clustering.node_mapping, cl.node_mapping)
    assert np.array_equal(h2.clustering.node_order, cl.node_order)
    assert np.array_equal(h2.clustering.cluster_offset, cl.cluster_offset)
    assert h2.clustering.max_cluster_size == cl.max_cluster_size
    assert np.array_equal(h2.intra_links, header.intra_links)
    assert np.array_equal(h2.crossing_links, header.crossing_links)
    assert np.array_equal(h2.record_offset, header.record_offset)
    write_compressed_graph(p2, h2, rest)
    assert p2.read_bytes() == raw


def test_cluster_payload_round_trip(rng):
    g = random_graph(rng, 18, extra_links=9)
    cl = random_clustering(rng, 18, 5)
    for c in range(cl.cluster_count):
        payload = make_cluster_payload(g, cl, c)
        assert payload.member_count == len(cl.members(c))
        inside = cl.node_mapping[payload.dst] == c
        assert np.all(inside[:-1] >= inside[1:])    # intra links first
        record = write_cluster(payload)
        back = read_cluster(record)
        assert back.cluster_id == c
        for name in ("prestige", "src", "dst", "w", "pos"):
            assert np.array_equal(getattr(back, name), getattr(payload, name)), name
        assert write_cluster(back) == record


def test_cluster_record_matches_field_by_field_packing(rng):
    """The byte-column encoder writes each record as a field-by-field
    packer does: empty records, records without links, float64 prestige,
    and target and position columns one, two and four bytes wide."""
    assert FORMAT_VERSION == 11
    for trial in range(60):
        members, links = rng.randint(0, 6), rng.choice([0, 0, 1, 5])
        dst_top, pos_top = rng.choice([2**8, 2**16, 2**32]), rng.choice([9, 2**16, 2**32])
        payload = ClusterPayload(
            rng.randrange(1000),
            np.array([rng.uniform(0, 9) for _ in range(members)]),
            np.array([rng.randrange(max(members, 1)) for _ in range(links)]),
            np.array([rng.randrange(dst_top) for _ in range(links)], dtype=np.uint32),
            np.array([[rng.uniform(0.1, 4), rng.uniform(0.1, 4)]
                      for _ in range(links)], dtype=np.float32).reshape(-1, 2),
            np.array([[rng.randrange(pos_top), rng.randrange(9)]
                      for _ in range(links)], dtype=np.int64).reshape(-1, 2))
        assert write_cluster(payload) == cluster_record_reference(payload), trial


def test_cluster_payload_matches_slot_walk(rng, tmp_path):
    """Every record write_store lays out is, byte for byte, the record of
    the payload a walk over each member's slots makes, under arbitrary
    clusterings and every clustering algorithm, self-loops included."""
    algorithms = ["random", "adjacency"] + GROWN
    for trial in range(60):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, extra_links=rng.randint(0, n),
                         connected=rng.random() < 0.7)
        if trial % 3 == 0:
            g = with_self_loops(rng, g, 2)
        name = algorithms[trial % len(algorithms)]
        size = rng.randint(1, 6)
        if name == "random":
            cl = random_clustering(rng, n, size)
        elif name == "adjacency":
            cl = cluster_adjacency_naive(g, size)
        else:
            cl = grown_clustering(rng, name, g, size)
        _, _, store = built_store(rng, tmp_path / str(trial), g=g, cl=cl)
        blob = bytes(store.records)
        offset = store.header.record_offset.tolist()
        assert offset[-1] == len(blob)
        for c in range(cl.cluster_count):
            record = write_cluster(make_cluster_payload(g, cl, c))
            assert blob[offset[c]:offset[c + 1]] == record, (trial, name, c)


def test_rebuilt_node_mapping_matches_written_clustering(rng, tmp_path):
    for name in ("close1", "greedymin", "connection"):
        g = random_graph(rng, 30, extra_links=10)
        cl = grown_clustering(rng, name, g, 4)
        _, _, store = built_store(rng, tmp_path / name, g=g, cl=cl)
        assert np.array_equal(store.clustering.node_mapping, cl.node_mapping)
        store.clustering.validate()


def test_graph_file_of_another_version_is_rejected(rng, tmp_path):
    built_store(rng, tmp_path, n=12)
    path = tmp_path / "graph.emb"
    raw = bytearray(path.read_bytes())
    section = int.from_bytes(raw[8:16], "little")
    for version in (*range(3, FORMAT_VERSION), FORMAT_VERSION + 1):
        raw[4] = version
        raw[section - 4:section] = \
            zlib.crc32(raw[:section - 4]).to_bytes(4, "little")
        path.write_bytes(raw)
        with pytest.raises(StorageFormatError,
                           match=f"unsupported version {version}$"):
            ClusterStore.open(tmp_path)


def test_graph_file_with_inconsistent_clustering_is_rejected(rng, tmp_path):
    g, cl, store = built_store(rng, tmp_path, n=20)
    path = tmp_path / "graph.emb"
    order = cl.node_order.copy()
    order[0] = order[1]                 # one node twice, another never
    broken = Clustering(cl.node_mapping, order, cl.cluster_offset,
                        cl.max_cluster_size)
    write_compressed_graph(path, replace(store.header, clustering=broken),
                           store.records)
    with pytest.raises(StorageFormatError, match="cover every node"):
        read_compressed_graph(path)


def test_graph_file_with_decreasing_cluster_offsets_is_rejected(rng, tmp_path):
    """The stored offsets are unsigned: a decreasing one must fail the
    check, not wrap into a huge cluster size."""
    g, cl, store = built_store(rng, tmp_path, n=20)
    offset = cl.cluster_offset.copy()
    offset[1] = offset[2] + 1
    broken = Clustering(cl.node_mapping, cl.node_order, offset,
                        cl.max_cluster_size)
    write_compressed_graph(tmp_path / GRAPH_FILE,
                           replace(store.header, clustering=broken), store.records)
    with pytest.raises(StorageFormatError, match="must split node_order"):
        ClusterStore.open(tmp_path)


def test_graph_file_with_decreasing_record_offsets_is_rejected(rng, tmp_path):
    """Record offsets are checked at open like every other offsets column,
    so a read never gets a negative record length."""
    g, cl, store = built_store(rng, tmp_path, n=24)
    assert cl.cluster_count >= 3
    offset = store.header.record_offset.copy()
    offset[1], offset[2] = offset[2], offset[1]
    write_compressed_graph(tmp_path / GRAPH_FILE,
                           replace(store.header, record_offset=offset), store.records)
    with pytest.raises(StorageFormatError, match="never decrease"):
        ClusterStore.open(tmp_path)


def test_graph_with_misplaced_adjacency_offsets_is_rejected(tmp_path):
    """The cluster graph's adjacency offsets are an offsets column too:
    from 0, never decreasing, and ending at the slot count."""
    b = GraphBuilder()
    b.add_nodes(np.ones(2))
    b.add_links([0, 1], [1, 0], [1.0, 2.0], [1.0, 2.0])
    g = b.build()
    write_store(tmp_path, g, identity_clustering(2), g)
    header, records = read_compressed_graph(tmp_path / GRAPH_FILE)
    for offset, message in (([0, 3, 2], "never decrease"),
                            ([0, 1, 2], "not at the 4 slots")):
        bad = replace(g, adjacency_offset=np.array(offset))
        write_compressed_graph(tmp_path / GRAPH_FILE,
                               replace(header, cluster_graph=bad), records)
        with pytest.raises(StorageFormatError, match=message):
            read_tuple_graph(tmp_path)


@pytest.mark.parametrize("n", [24, 600])
def test_read_arrays_are_read_only(rng, tmp_path, n):
    """Every array an opened store, a read cluster and a read index hand
    out is read-only, whether its file was read whole (24 nodes: every file
    is shorter than a page) or mapped (600 nodes), for a clustered store
    and for a tuple graph's one-cluster store; every float32 array is
    4-byte aligned."""
    g, cl, store = built_store(rng, tmp_path / "s", n=n)
    write_keyword_index(tmp_path / "s" / INDEX_FILE,
                        build_index(random_meta(rng, n)))
    write_tuple_graph(tmp_path / "t", g)
    files = [*(tmp_path / "s").iterdir(), *(tmp_path / "t").iterdir()]
    assert {p.stat().st_size >= mmap.PAGESIZE for p in files} == {n == 600}
    index = read_keyword_index(tmp_path / "s" / INDEX_FILE)
    arrays = [index.offsets, index.ids]
    for store in (store, ClusterStore.open(tmp_path / "t")):
        payload = store.read_cluster(0)
        h, graph = store.header, store.cluster_graph
        arrays += [h.intra_links, h.crossing_links, h.record_offset,
                   store.clustering.node_mapping, store.clustering.node_order,
                   store.clustering.cluster_offset, payload.prestige,
                   payload.src, payload.dst, payload.w, payload.pos,
                   graph.prestige, graph.adjacency_offset, graph.adjacent_nodes,
                   graph.edge_weight, graph.edge_direction, graph.pair_slot]
    assert [a.flags.writeable for a in arrays] == [False] * len(arrays)
    floats = [a for a in arrays if a.dtype.kind == "f"]
    assert len(floats) == 8 and all(a.flags.aligned for a in floats)


def test_empty_files_fail_as_truncated(rng, tmp_path):
    built_store(rng, tmp_path, n=12)
    (tmp_path / GRAPH_FILE).write_bytes(b"")
    with pytest.raises(StorageFormatError, match="truncated file"):
        ClusterStore.open(tmp_path)
    (tmp_path / INDEX_FILE).write_bytes(b"")
    with pytest.raises(StorageFormatError, match="truncated file"):
        read_keyword_index(tmp_path / INDEX_FILE)


def test_member_count_differing_from_graph_file_is_rejected(rng, tmp_path):
    g, cl, store = built_store(rng, tmp_path, n=24)
    c = next(c for c in range(cl.cluster_count - 1) if len(cl.members(c)) > 1)
    # the same node order with the last member of c moved to c + 1
    offset = cl.cluster_offset.copy()
    offset[c + 1] -= 1
    shifted = Clustering.from_order(cl.node_order, offset, cl.max_cluster_size)
    write_compressed_graph(tmp_path / GRAPH_FILE,
                           replace(store.header, clustering=shifted), store.records)
    store = ClusterStore.open(tmp_path)
    for other in range(c):
        store.read_cluster(other)
    with pytest.raises(StorageFormatError,
                       match=f"cluster {c}: holds {len(cl.members(c))} members"):
        store.read_cluster(c)


@pytest.mark.parametrize("end", ["src", "dst"])
def test_out_of_range_link_end_is_rejected(rng, tmp_path, end):
    """A link from one past the cluster's members, which expansion would
    join to the next cluster's first member, or to one past the last node
    fails the read, even with the record's offsets and CRC consistent."""
    g, cl, store = built_store(rng, tmp_path, n=24)
    c = next(c for c in range(cl.cluster_count - 1)
             if len(store.read_cluster(c).src))
    payload = make_cluster_payload(g, cl, c)
    getattr(payload, end)[0] = {"src": len(cl.members(c)), "dst": g.node_count}[end]
    record = write_cluster(payload)
    start, stop = store.header.record_offset[c:c + 2].tolist()
    assert stop - start == len(record)
    packed = bytes(store.records)
    write_compressed_graph(tmp_path / GRAPH_FILE, store.header,
                           packed[:start] + record + packed[stop:])
    store = ClusterStore.open(tmp_path)
    with pytest.raises(StorageFormatError, match=f"cluster {c}: a link end lies"):
        store.read_cluster(c)


def test_keyword_index_round_trip(tmp_path):
    # a term longer than 65,535 bytes needs the 32-bit column offsets, and
    # a column with a non-ASCII term is decoded term by term
    long_term = "x" * 70_000
    index = KeywordIndex.from_postings({"apple": [0, 2, 9], "pear": [1],
                                        "zx81": [3, 4], long_term: [5],
                                        "café": [6]})
    _assert_index_round_trips(index, tmp_path)


def test_keyword_index_round_trips_build_index(rng, tmp_path):
    meta = random_meta(rng, 40)
    index = build_index(meta)
    _assert_index_round_trips(index, tmp_path)


def test_empty_keyword_index_round_trips(tmp_path):
    index = KeywordIndex.from_postings({})
    assert len(index) == 0 and index.lookup("apple") == []
    _assert_index_round_trips(index, tmp_path)


def _assert_index_round_trips(index, tmp_path):
    """A read index holds the written one's terms and ids, each column in
    the narrowest width that holds it, answers every lookup the same, and
    writes the same bytes."""
    p1, p2 = tmp_path / "a.kwi", tmp_path / "b.kwi"
    write_keyword_index(p1, index)
    back = read_keyword_index(p1)
    assert back.terms == index.terms and len(back) == len(index)
    for a in (back.offsets, back.ids):
        assert a.dtype.itemsize == width(int(a.max(initial=0)))
    write_keyword_index(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    for term in index.terms:
        nodes = back.lookup(term)
        assert nodes == index.lookup(term) != []
        assert all(type(x) is int for x in nodes)
    misses = ["", "0", "~", *(t[:-1] for t in index.terms),
              *(t + "a" for t in index.terms)]
    for probe in misses:
        assert back.lookup(probe) == index.lookup(probe)


def _resealed(body):
    return body + zlib.crc32(body).to_bytes(4, "little")


def test_keyword_index_damage_fails_at_read(tmp_path):
    """A flipped byte or a cut file is rejected when the index is read,
    not at the first lookup of the damaged list."""
    index = KeywordIndex.from_postings({"apple": [0, 2, 9], "pear": [1, 70_000]})
    path = tmp_path / "i.kwi"
    write_keyword_index(path, index)
    raw = path.read_bytes()
    for pos in range(len(raw)):
        flipped = bytearray(raw)
        flipped[pos] ^= 0x10
        path.write_bytes(bytes(flipped))
        with pytest.raises(StorageFormatError):
            read_keyword_index(path)
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(StorageFormatError):
            read_keyword_index(path)

    # with a valid checksum, the layout itself is still checked at read
    body = raw[:-4]
    for damaged, message in [
            (body + b"\x00", "trailing bytes"),
            (body[:-1], "truncated"),
            (body[:4] + (6).to_bytes(4, "little") + body[8:], "unsupported version")]:
        path.write_bytes(_resealed(damaged))
        with pytest.raises(StorageFormatError, match=message):
            read_keyword_index(path)


def _u32s(values):
    return np.asarray(values, dtype="<u4").tobytes()


@pytest.mark.parametrize("term_offsets, posting_offsets, message", [
    ([0, 5, 9], [0, 3, 5], None),
    ([1, 5, 9], [0, 3, 5], "must start at 0"),
    ([0, 5, 9], [1, 3, 5], "must start at 0"),
    ([0, 5, 4], [0, 3, 5], "never decrease"),
    ([0, 5, 9], [0, 6, 5], "never decrease"),
    ([0, 5, 9], [0, 3, 6], "truncated"),         # ends past the stored ids
    ([0, 5, 9], [0, 3, 4], "trailing bytes"),    # ends before the last id
])
def test_keyword_index_offsets_are_checked(tmp_path, term_offsets,
                                           posting_offsets, message):
    """index.kwi: magic, version, term count, the widths of its three
    integer columns (here all four bytes) and a pad byte, the term column,
    the posting offsets, then the ids; offsets that would misplace a list
    are rejected even under a valid checksum."""
    body = (b"EMBI" + _u32s([FORMAT_VERSION, 2]) + bytes([4, 4, 4, 0])
            + _u32s(term_offsets) + b"applepear"
            + _u32s(posting_offsets) + _u32s([0, 2, 9, 1, 70_000]))
    path = tmp_path / "i.kwi"
    path.write_bytes(_resealed(body))
    if message is None:
        index = read_keyword_index(path)
        assert index.lookup("apple") == [0, 2, 9]
        assert index.lookup("pear") == [1, 70_000]
        return
    with pytest.raises(StorageFormatError, match=message):
        read_keyword_index(path)


@pytest.mark.parametrize("terms", [["pear", "apple"], ["pear", "pear"]])
def test_keyword_index_terms_must_ascend(tmp_path, terms):
    """lookup bisects the terms, so an unsorted or repeated term list,
    which would make lookups miss, is rejected at read."""
    ids = np.array([0, 1], dtype=np.uint32)
    index = KeywordIndex(terms, np.array([0, 1, 2], dtype=np.uint32), ids)
    path = tmp_path / "i.kwi"
    write_keyword_index(path, index)
    with pytest.raises(StorageFormatError, match="not strictly ascending"):
        read_keyword_index(path)


def test_corruption_detection(rng, tmp_path):
    """A tuple graph's graph.emb with a flipped byte in its section or its
    record, cut, extended, of another magic or of another version fails
    ``read_tuple_graph``."""
    g = random_graph(rng, 12, extra_links=4)
    write_tuple_graph(tmp_path, g)
    path = tmp_path / GRAPH_FILE
    raw = bytearray(path.read_bytes())
    section = int.from_bytes(raw[8:16], "little")

    for pos in (section // 2, (section + len(raw)) // 2):
        flipped = bytearray(raw)
        flipped[pos] ^= 0x40
        path.write_bytes(flipped)
        with pytest.raises(StorageFormatError):
            read_tuple_graph(tmp_path)

    path.write_bytes(raw[:-9])
    with pytest.raises(StorageError):
        read_tuple_graph(tmp_path)

    path.write_bytes(raw + b"\x00")
    with pytest.raises(StorageError):
        read_tuple_graph(tmp_path)

    wrong = bytearray(raw)
    wrong[0:4] = b"EMBI"
    path.write_bytes(wrong)
    with pytest.raises(StorageFormatError):
        read_tuple_graph(tmp_path)

    def restamped(blob, version):
        versioned = bytearray(blob)
        versioned[4] = version
        return _resealed(bytes(versioned[:-4]))

    others = (*range(1, FORMAT_VERSION), 99)
    path.write_bytes(restamped(raw[:section], FORMAT_VERSION) + raw[section:])
    read_tuple_graph(tmp_path)
    for version in others:
        path.write_bytes(restamped(raw[:section], version) + raw[section:])
        with pytest.raises(StorageFormatError, match="unsupported version"):
            read_tuple_graph(tmp_path)

    record = write_cluster(make_cluster_payload(g, random_clustering(rng, 12, 4), 0))
    read_cluster(restamped(record, FORMAT_VERSION))
    for version in others:
        with pytest.raises(StorageFormatError, match="unsupported version"):
            read_cluster(restamped(record, version))


def test_damaged_graph_file_is_rejected(rng, tmp_path):
    """A flipped byte in graph.emb's section fails the open; one in a
    record fails the first read of that cluster, naming the file and the
    cluster; a file cut or extended anywhere fails the open."""
    g, cl, store = built_store(rng, tmp_path, n=30)
    path = tmp_path / GRAPH_FILE
    good = path.read_bytes()
    section = len(good) - len(store.records)
    offset = (section + store.header.record_offset).tolist()

    def damaged(data):
        path.write_bytes(data)
        return ClusterStore.open(tmp_path)

    for pos in range(section):
        flipped = bytearray(good)
        flipped[pos] ^= 0x10
        with pytest.raises(StorageFormatError):
            damaged(bytes(flipped))
    for data in (good[:-1], good + b"\x00", good[:section], good[:section - 1]):
        with pytest.raises(StorageFormatError, match=f"^{re.escape(str(path))}: "):
            damaged(data)
    for c in range(cl.cluster_count):
        flipped = bytearray(good)
        flipped[rng.randrange(offset[c], offset[c + 1])] ^= 0x10
        store = damaged(bytes(flipped))
        for other in range(c):
            store.read_cluster(other)
        with pytest.raises(StorageFormatError,
                           match=f"^{re.escape(str(path))} cluster {c}: "):
            store.read_cluster(c)


def test_expand_all_clusters_restores_graph(rng, tmp_path):
    for trial in range(4):
        d = tmp_path / f"s{trial}"
        g, cl, store = built_store(rng, d, n=rng.randint(6, 30))
        exp = expand_clusters(store, range(cl.cluster_count))
        exp.graph.validate()
        assert exp.graph.node_count == g.node_count
        for local, gid in enumerate(exp.global_ids):
            assert exp.graph.prestige[local] == g.prestige[int(gid)]
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


def test_expand_subset_is_the_induced_subgraph_in_slot_order(rng, tmp_path):
    """Expanding any set of clusters gives the tuple graph's induced
    subgraph array for array: nodes in ascending id, each node's slots in
    their tuple-graph order, under every clustering algorithm, self-loops
    included; all clusters give the tuple graph itself."""
    algorithms = ["random", "adjacency"] + GROWN
    for trial in range(40):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, extra_links=rng.randint(0, n),
                         connected=rng.random() < 0.7)
        if trial % 3 == 0:
            g = with_self_loops(rng, g, 2)
        name = algorithms[trial % len(algorithms)]
        size = rng.randint(1, 6)
        if name == "random":
            cl = random_clustering(rng, n, size)
        elif name == "adjacency":
            cl = cluster_adjacency_naive(g, size)
        else:
            cl = grown_clustering(rng, name, g, size)
        _, _, store = built_store(rng, tmp_path / str(trial), g=g, cl=cl)
        k = cl.cluster_count
        for ids in (rng.sample(range(k), rng.randint(1, k)), range(k)):
            exp = expand_clusters(store, ids)
            nodes = sorted(int(x) for c in ids for x in cl.members(c))
            assert_same_graph(exp.graph, induced_subgraph(g, nodes))
        for name in ("adjacency_offset", "adjacent_nodes", "edge_weight",
                     "edge_direction", "pair_slot", "prestige"):
            assert np.array_equal(getattr(exp.graph, name), getattr(g, name))


def test_expand_clusters_matches_reference(rng, tmp_path):
    """Columnar expansion builds the same arrays as adding every node and
    link one at a time, for empty, single, duplicated and full cluster sets."""
    for trial in range(8):
        d = tmp_path / f"s{trial}"
        g, cl, store = built_store(rng, d, n=rng.randint(2, 30))
        k = cl.cluster_count
        some = [rng.randrange(k) for _ in range(rng.randint(1, k))]
        for ids in ([], [rng.randrange(k)], some + some[:2], range(k)):
            exp = expand_clusters(store, ids)
            want, global_ids = expand_reference(store, ids)
            assert_same_graph(exp.graph, want)
            assert exp.global_ids.dtype == np.int64
            assert exp.global_ids.tolist() == global_ids
            assert exp.clusters == tuple(sorted(set(ids)))


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


def test_out_of_range_cluster_id_is_rejected(rng, tmp_path):
    g, cl, store = built_store(rng, tmp_path)
    count = cl.cluster_count
    for bad in (count, -1, 10 ** 9):
        with pytest.raises(StorageError,
                           match=f"no cluster {bad}, the store has {count} clusters"):
            store.read_cluster(bad)
    assert store.clusters_read == 0


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


def induced_arrays(g, nodes):
    """``oracles.induced_subgraph`` as whole-array steps, for graphs too
    large for its per-slot loop: the subgraph on the ascending ``nodes``,
    each node keeping its surviving slots in order."""
    inside = np.zeros(g.node_count, dtype=bool)
    inside[nodes] = True
    local = np.cumsum(inside) - 1
    source = g.slot_source
    keep = inside[source] & inside[g.adjacent_nodes]
    new_slot = np.cumsum(keep) - 1
    offset = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(local[source[keep]], minlength=len(nodes)),
              out=offset[1:])
    return replace(g, node_count=len(nodes), prestige=g.prestige[nodes],
                   adjacency_offset=offset,
                   adjacent_nodes=local[g.adjacent_nodes[keep]],
                   edge_weight=g.edge_weight[keep],
                   edge_direction=g.edge_direction[keep],
                   pair_slot=new_slot[g.pair_slot[keep]])


@pytest.mark.parametrize("n", [256, 257, 65_536, 65_537])
def test_columns_at_their_width_boundaries(tmp_path, n):
    """Columns whose largest value is 255 or 256, 65,535 or 65,536 are
    stored one, two or four bytes wide and read back as written: node ids
    up to ``n - 1``, cluster offsets up to ``n``, a hub node with 256 or 257
    slots (positions up to 255 or 256), clusters of up to 257 members, and
    posting ids and offsets up to ``n - 1`` and ``n``.  The graph comes back
    from ``read_tuple_graph`` and from expanding cluster subsets, and the
    index from ``read_keyword_index``."""
    slots = 256 + n % 2
    # a chain through every node, a link back from the last one, and
    # ``slots - 1`` links into node 0 from the nodes after 1, some twice
    u = np.concatenate([np.arange(n - 1), [n - 1], 2 + np.arange(slots - 1) % (n - 2)])
    v = np.concatenate([np.arange(1, n), [n - 2], np.zeros(slots - 1, dtype=np.int64)])
    b = GraphBuilder()
    b.add_nodes(np.arange(n) % 7)
    b.add_links(u, v, 1.0 + u % 3, 2.0 + v % 5)
    g = b.build()
    assert int(np.diff(g.adjacency_offset).max()) == slots

    write_tuple_graph(tmp_path / "t", g)
    tuple_store = ClusterStore.open(tmp_path / "t")
    record = tuple_store.read_cluster(0)
    order = tuple_store.clustering
    assert order.node_order.dtype.itemsize == width(n - 1)
    assert order.cluster_offset.dtype.itemsize == width(n)
    assert record.src.dtype.itemsize == record.dst.dtype.itemsize == width(n - 1)
    assert record.pos.dtype.itemsize == width(slots - 1)
    assert_same_graph(read_tuple_graph(tmp_path / "t"), g)

    offset = np.append(np.arange(0, n, 257), n)
    cl = Clustering.from_order(np.arange(n), offset, 257)
    write_store(tmp_path / "c", g, cl, build_cluster_graph(g, cl))
    store = ClusterStore.open(tmp_path / "c")
    assert len(store.read_cluster(0).src) > 256 or n < 257
    assert store.read_cluster(0).src.dtype.itemsize == width(min(n, 257) - 1)
    assert_same_graph(read_tuple_graph(tmp_path / "c"), g)
    k = cl.cluster_count
    for ids in ({0}, {k - 1}, {0, k - 1}, set(range(0, k, 2))):
        ids = sorted(ids)
        nodes = np.concatenate([cl.members(c) for c in ids])
        exp = expand_clusters(store, ids)
        assert exp.global_ids.tolist() == nodes.tolist()
        assert_same_graph(exp.graph, induced_arrays(g, nodes))

    index = KeywordIndex.from_postings({"every": range(n - 1), "last": [n - 1]})
    write_keyword_index(tmp_path / INDEX_FILE, index)
    back = read_keyword_index(tmp_path / INDEX_FILE)
    assert back.offsets.dtype.itemsize == width(n)
    assert back.ids.dtype.itemsize == width(n - 1)
    assert back.terms == index.terms
    assert np.array_equal(back.offsets, index.offsets)
    assert np.array_equal(back.ids, index.ids)
    assert back.lookup("last") == [n - 1]
