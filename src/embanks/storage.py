"""On-disk store: one compressed cluster-level graph plus one packed cluster file.

Layout under a store directory (format 4)::

    graph.emb       cluster graph, clustering arrays, per-cluster link counts,
                    and each cluster record's byte offset and CRC32
    clusters.emb    the cluster records in id order: a cluster's members with
                    their prestige and type, and its intra and boundary
                    links, each with both direction weights
    index.kwi       keyword index over the original nodes (optional)
    tuples.emb      the ingested tuple graph with node texts and keys
                    (kept for clustering and baseline runs)

A graph stores per slot only its target, weight, direction bit and partner
slot.  All integers are little-endian and ids fit 32 bits; weights are
32-bit floats; strings carry a 32-bit byte length.  Every file and every
cluster record begins with a four-byte magic and a version and ends with a
CRC32 of everything before it; graph.emb also fixes the length and record
CRCs of clusters.emb.  Files carry the format version; cluster records keep
version 3, their layout since format 3.  Any other version is rejected, so
a store written by an older release must be rebuilt with ``ingest`` then
``cluster``.  Cluster cost bounds are not stored: ``clustering`` derives
them from the tuple graph and the clustering when they are needed.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import ClusterGraph, Clustering, WeightConfig
from .graph import DataGraph, GraphBuilder, NodeMeta, estimate_memory
from .keywords import KeywordIndex

GRAPH_FILE = "graph.emb"
TUPLES_FILE = "tuples.emb"
INDEX_FILE = "index.kwi"
CLUSTERS_FILE = "clusters.emb"

MAGIC_GRAPH = b"EMBK"
MAGIC_TUPLES = b"EMBT"
MAGIC_CLUSTER = b"EMBC"
MAGIC_INDEX = b"EMBI"
FORMAT_VERSION = 4
RECORD_VERSION = 3

_EDGE_COMBINER_IDS = {"inverse-sum": 0, "harmonic-mean": 1, "min": 2}
_PRESTIGE_COMBINER_IDS = {"sum": 0, "max": 1, "avg": 2}
_EDGE_COMBINER_NAMES = {v: k for k, v in _EDGE_COMBINER_IDS.items()}
_PRESTIGE_COMBINER_NAMES = {v: k for k, v in _PRESTIGE_COMBINER_IDS.items()}


class StorageError(Exception):
    pass


class StorageFormatError(StorageError):
    """A file failed magic, version, checksum, or bounds validation."""


class _Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def u8(self, v: int) -> None:
        self.raw(int(v).to_bytes(1, "little"))

    def u16(self, v: int) -> None:
        self.raw(int(v).to_bytes(2, "little"))

    def u32(self, v: int) -> None:
        self.raw(int(v).to_bytes(4, "little"))

    def arr(self, values: np.ndarray, dtype: str) -> None:
        self.raw(np.ascontiguousarray(values, dtype=np.dtype(dtype)).tobytes())

    def bits(self, flags: np.ndarray) -> None:
        self.raw(np.packbits(np.asarray(flags, dtype=bool)).tobytes())

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.u32(len(data))
        self.raw(data)

    def blob(self) -> bytes:
        body = b"".join(self._parts)
        return body + zlib.crc32(body).to_bytes(4, "little")

    def finish(self, path: Path) -> int:
        blob = self.blob()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        return len(blob)


def _read_bytes(path: Path, start: int = 0, size: int = -1) -> bytes:
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            return fh.read(size)
    except OSError as exc:
        raise StorageError(f"{path}: {exc}") from exc


class _Reader:
    def __init__(self, blob: bytes, magic: bytes, name: str,
                 expected_version: int = FORMAT_VERSION) -> None:
        self.name = name
        if len(blob) < 12:
            raise StorageFormatError(f"{name}: truncated file")
        body, crc = blob[:-4], int.from_bytes(blob[-4:], "little")
        if zlib.crc32(body) != crc:
            raise StorageFormatError(f"{name}: checksum mismatch")
        self._body = body
        self._pos = 0
        got = self.raw(4)
        if got != magic:
            raise StorageFormatError(f"{name}: bad magic {got!r}")
        version = self.u32()
        if version != expected_version:
            raise StorageFormatError(f"{name}: unsupported version {version}")

    def raw(self, n: int) -> bytes:
        if self._pos + n > len(self._body):
            raise StorageFormatError(f"{self.name}: truncated file")
        out = self._body[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return int.from_bytes(self.raw(1), "little")

    def u16(self) -> int:
        return int.from_bytes(self.raw(2), "little")

    def u32(self) -> int:
        return int.from_bytes(self.raw(4), "little")

    def arr(self, count: int, dtype: str) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.raw(count * dt.itemsize), dtype=dt).copy()

    def bits(self, count: int) -> np.ndarray:
        packed = np.frombuffer(self.raw((count + 7) // 8), dtype=np.uint8)
        return np.unpackbits(packed, count=count).astype(bool)

    def string(self) -> str:
        return self.raw(self.u32()).decode("utf-8")

    def done(self) -> None:
        if self._pos != len(self._body):
            raise StorageFormatError(f"{self.name}: {len(self._body) - self._pos} "
                                     "trailing bytes")


def _write_graph_arrays(w: _Writer, g: DataGraph) -> None:
    w.arr(g.prestige, "<f4")
    w.arr(g.node_type, "<u2")
    w.arr(g.adjacency_offset, "<u4")
    w.arr(g.adjacent_nodes, "<u4")
    w.arr(g.edge_weight, "<f4")
    w.bits(g.edge_direction)
    w.arr(g.pair_slot, "<u4")


def _read_graph_arrays(r: _Reader, n: int, m: int) -> DataGraph:
    return DataGraph(
        node_count=n,
        prestige=r.arr(n, "<f4"),
        node_type=r.arr(n, "<u2"),
        adjacency_offset=r.arr(n + 1, "<u4").astype(np.int64),
        adjacent_nodes=r.arr(m, "<u4").astype(np.int64),
        edge_weight=r.arr(m, "<f4"),
        edge_direction=r.bits(m),
        pair_slot=r.arr(m, "<u4").astype(np.int64),
    )


# --- tuple graph ------------------------------------------------------------

def write_tuple_graph(path: str | Path, g: DataGraph, meta: NodeMeta) -> int:
    w = _Writer()
    w.raw(MAGIC_TUPLES)
    w.u32(FORMAT_VERSION)
    w.u32(g.node_count)
    w.u32(g.slot_count)
    w.u32(len(meta.relation_names))
    _write_graph_arrays(w, g)
    for name in meta.relation_names:
        w.string(name)
    w.arr(meta.node_relation, "<u2")
    for texts in (meta.node_text, meta.node_key):
        blobs = [t.encode("utf-8") for t in texts]
        offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in blobs], out=offsets[1:])
        w.arr(offsets, "<u4")
        w.raw(b"".join(blobs))
    return w.finish(Path(path))


def read_tuple_graph(path: str | Path) -> tuple[DataGraph, NodeMeta]:
    r = _Reader(_read_bytes(Path(path)), MAGIC_TUPLES, str(path))
    n = r.u32()
    m = r.u32()
    relations = r.u32()
    g = _read_graph_arrays(r, n, m)
    names = [r.string() for _ in range(relations)]
    node_relation = r.arr(n, "<u2")
    texts: list[list[str]] = []
    for _ in range(2):
        offsets = r.arr(n + 1, "<u4")
        blob = r.raw(int(offsets[-1]))
        texts.append([blob[offsets[i]:offsets[i + 1]].decode("utf-8")
                      for i in range(n)])
    r.done()
    return g, NodeMeta(names, node_relation, texts[0], texts[1])


# --- compressed cluster graph -----------------------------------------------

@dataclass
class StoreHeader:
    cluster_graph: ClusterGraph
    clustering: Clustering
    intra_links: np.ndarray     # per cluster, link records inside it
    crossing_links: np.ndarray  # per cluster, crossing links incident to it
    record_offset: np.ndarray   # [k + 1] byte offsets of the records in clusters.emb
    record_crc: np.ndarray      # [k] CRC32 trailer of each record


def write_compressed_graph(path: str | Path, header: StoreHeader) -> int:
    cg = header.cluster_graph
    cl = header.clustering
    k = cg.graph.node_count
    w = _Writer()
    w.raw(MAGIC_GRAPH)
    w.u32(FORMAT_VERSION)
    w.u32(k)
    w.u32(cg.graph.slot_count)
    w.u32(cl.node_count)
    w.u32(cl.max_cluster_size)
    w.u8(_EDGE_COMBINER_IDS[cg.wcfg.edge_combiner])
    w.u8(_PRESTIGE_COMBINER_IDS[cg.wcfg.prestige_combiner])
    w.u16(0)
    _write_graph_arrays(w, cg.graph)
    w.arr(cl.node_mapping, "<u4")
    w.arr(cl.node_order, "<u4")
    w.arr(cl.cluster_offset, "<u4")
    w.arr(header.intra_links, "<u4")
    w.arr(header.crossing_links, "<u4")
    w.arr(header.record_offset, "<u8")
    w.arr(header.record_crc, "<u4")
    return w.finish(Path(path))


def read_compressed_graph(path: str | Path) -> StoreHeader:
    r = _Reader(_read_bytes(Path(path)), MAGIC_GRAPH, str(path))
    k = r.u32()
    m = r.u32()
    n = r.u32()
    max_size = r.u32()
    edge_comb = r.u8()
    prestige_comb = r.u8()
    r.u16()
    if edge_comb not in _EDGE_COMBINER_NAMES or prestige_comb not in _PRESTIGE_COMBINER_NAMES:
        raise StorageFormatError(f"{path}: unknown combiner ids")
    graph = _read_graph_arrays(r, k, m)
    clustering = Clustering(
        node_mapping=r.arr(n, "<u4").astype(np.int64),
        node_order=r.arr(n, "<u4").astype(np.int64),
        cluster_offset=r.arr(k + 1, "<u4").astype(np.int64),
        max_cluster_size=max_size,
    )
    intra = r.arr(k, "<u4").astype(np.int64)
    crossing = r.arr(k, "<u4").astype(np.int64)
    offset = r.arr(k + 1, "<u8").astype(np.int64)
    crc = r.arr(k, "<u4").astype(np.int64)
    r.done()
    wcfg = WeightConfig(_EDGE_COMBINER_NAMES[edge_comb],
                        _PRESTIGE_COMBINER_NAMES[prestige_comb])
    return StoreHeader(ClusterGraph(graph, wcfg), clustering, intra, crossing,
                       offset, crc)


# --- cluster records --------------------------------------------------------

@dataclass
class ClusterPayload:
    """Members and edges of one cluster.

    Edges are stored as whole links (both direction weights in one record).
    ``intra`` links join two members; ``boundary`` links lead from a member
    to a node in another cluster and live only in the record of the cluster
    owning the link's foreign-key source, so a reader joining two clusters
    restores the opposite direction itself.
    """

    cluster_id: int
    members: np.ndarray      # int64, global node ids
    prestige: np.ndarray     # float32
    node_type: np.ndarray    # uint16
    intra_src: np.ndarray    # int64, local member index
    intra_dst: np.ndarray
    intra_w: np.ndarray      # float32 [ln, 2] forward/backward
    bound_src: np.ndarray    # int64, local member index
    bound_dst: np.ndarray    # int64, global node id
    bound_cluster: np.ndarray  # int64, cluster of the target
    bound_w: np.ndarray      # float32 [lb, 2]


def write_cluster(payload: ClusterPayload) -> bytes:
    w = _Writer()
    w.raw(MAGIC_CLUSTER)
    w.u32(RECORD_VERSION)
    w.u32(payload.cluster_id)
    w.u32(len(payload.members))
    w.u32(len(payload.intra_src))
    w.u32(len(payload.bound_src))
    w.arr(payload.members, "<u4")
    w.arr(payload.prestige, "<f4")
    w.arr(payload.node_type, "<u2")
    w.arr(payload.intra_src, "<u4")
    w.arr(payload.intra_dst, "<u4")
    w.arr(payload.intra_w, "<f4")
    w.arr(payload.bound_src, "<u4")
    w.arr(payload.bound_dst, "<u4")
    w.arr(payload.bound_cluster, "<u4")
    w.arr(payload.bound_w, "<f4")
    return w.blob()


def read_cluster(record: bytes, name: str = "cluster record") -> ClusterPayload:
    r = _Reader(record, MAGIC_CLUSTER, name, RECORD_VERSION)
    cid = r.u32()
    nm = r.u32()
    ln = r.u32()
    lb = r.u32()
    payload = ClusterPayload(
        cluster_id=cid,
        members=r.arr(nm, "<u4").astype(np.int64),
        prestige=r.arr(nm, "<f4"),
        node_type=r.arr(nm, "<u2"),
        intra_src=r.arr(ln, "<u4").astype(np.int64),
        intra_dst=r.arr(ln, "<u4").astype(np.int64),
        intra_w=r.arr(2 * ln, "<f4").reshape(ln, 2),
        bound_src=r.arr(lb, "<u4").astype(np.int64),
        bound_dst=r.arr(lb, "<u4").astype(np.int64),
        bound_cluster=r.arr(lb, "<u4").astype(np.int64),
        bound_w=r.arr(2 * lb, "<f4").reshape(lb, 2),
    )
    r.done()
    return payload


def make_cluster_payload(g: DataGraph, clustering: Clustering,
                         cluster_id: int) -> ClusterPayload:
    """Slice one cluster out of the tuple graph.

    Every link whose foreign-key source node lives in this cluster is
    recorded here, either as an intra link (target in the same cluster) or
    a boundary link (target elsewhere).
    """
    members = clustering.members(cluster_id)
    local = {int(n): i for i, n in enumerate(members)}
    intra: list[tuple] = []
    bound: list[tuple] = []
    for u in members:
        u = int(u)
        for j in g.slots(u):
            if not g.edge_direction[j]:
                continue
            v = int(g.adjacent_nodes[j])
            b = int(g.pair_slot[j])
            record = (float(g.edge_weight[j]), float(g.edge_weight[b]))
            if int(clustering.node_mapping[v]) == cluster_id:
                intra.append((local[u], local[v]) + record)
            else:
                bound.append((local[u], v, int(clustering.node_mapping[v])) + record)
    ln, lb = len(intra), len(bound)
    return ClusterPayload(
        cluster_id=cluster_id,
        members=np.asarray(members, dtype=np.int64),
        prestige=np.asarray([g.prestige[int(n)] for n in members], dtype=np.float32),
        node_type=np.asarray([g.node_type[int(n)] for n in members], dtype=np.uint16),
        intra_src=np.asarray([r[0] for r in intra], dtype=np.int64),
        intra_dst=np.asarray([r[1] for r in intra], dtype=np.int64),
        intra_w=np.asarray([r[2:4] for r in intra], dtype=np.float32).reshape(ln, 2),
        bound_src=np.asarray([r[0] for r in bound], dtype=np.int64),
        bound_dst=np.asarray([r[1] for r in bound], dtype=np.int64),
        bound_cluster=np.asarray([r[2] for r in bound], dtype=np.int64),
        bound_w=np.asarray([r[3:5] for r in bound], dtype=np.float32).reshape(lb, 2),
    )


# --- keyword index ------------------------------------------------------------

def write_keyword_index(path: str | Path, index: KeywordIndex) -> int:
    w = _Writer()
    w.raw(MAGIC_INDEX)
    w.u32(FORMAT_VERSION)
    terms = index.terms()
    w.u32(len(terms))
    for term in terms:
        w.string(term)
        postings = index.postings[term]
        w.u32(len(postings))
        w.arr(np.asarray(postings, dtype=np.int64), "<u4")
    return w.finish(Path(path))


def read_keyword_index(path: str | Path) -> KeywordIndex:
    r = _Reader(_read_bytes(Path(path)), MAGIC_INDEX, str(path))
    count = r.u32()
    postings: dict[str, list[int]] = {}
    for _ in range(count):
        term = r.string()
        postings[term] = r.arr(r.u32(), "<u4").tolist()
    r.done()
    return KeywordIndex(postings)


# --- store assembly and expansion ----------------------------------------------

def write_store(store_dir: str | Path, g: DataGraph, clustering: Clustering,
                cluster_graph: ClusterGraph) -> None:
    """Write clusters.emb, then graph.emb, for a finished clustering."""
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    k = clustering.cluster_count
    intra = np.zeros(k, dtype=np.int64)
    crossing = np.zeros(k, dtype=np.int64)
    offset = np.zeros(k + 1, dtype=np.int64)
    crc = np.zeros(k, dtype=np.int64)
    with open(store_dir / CLUSTERS_FILE, "wb") as fh:
        for c in range(k):
            payload = make_cluster_payload(g, clustering, c)
            intra[c] = len(payload.intra_src)
            crossing[c] += len(payload.bound_src)
            np.add.at(crossing, payload.bound_cluster, 1)
            record = write_cluster(payload)
            fh.write(record)
            offset[c + 1] = offset[c] + len(record)
            crc[c] = int.from_bytes(record[-4:], "little")
        fh.flush()
        os.fsync(fh.fileno())
    header = StoreHeader(cluster_graph, clustering, intra, crossing, offset, crc)
    write_compressed_graph(store_dir / GRAPH_FILE, header)


@dataclass
class ExpandedGraph:
    """A node-level subgraph rebuilt from cluster records."""

    graph: DataGraph
    global_ids: np.ndarray          # int64, local -> original node id
    global_to_local: dict[int, int]
    clusters: tuple[int, ...]


@dataclass
class ClusterStore:
    """Read access to one store directory, counting disk traffic."""

    dir: Path
    header: StoreHeader
    clusters_read: int = 0
    bytes_read: int = 0
    _cache: dict[int, ClusterPayload] = field(default_factory=dict)
    _index: KeywordIndex | None = None

    @classmethod
    def open(cls, store_dir: str | Path) -> ClusterStore:
        store_dir = Path(store_dir)
        header = read_compressed_graph(store_dir / GRAPH_FILE)
        path = store_dir / CLUSTERS_FILE
        try:
            size = path.stat().st_size
        except OSError as exc:
            raise StorageError(f"{path}: {exc}") from exc
        if size != header.record_offset[-1]:
            raise StorageFormatError(f"{path}: length differs from {GRAPH_FILE}")
        return cls(store_dir, header)

    @property
    def cluster_graph(self) -> ClusterGraph:
        return self.header.cluster_graph

    @property
    def clustering(self) -> Clustering:
        return self.header.clustering

    @property
    def cluster_count(self) -> int:
        return self.clustering.cluster_count

    def read_cluster(self, cluster_id: int) -> ClusterPayload:
        if cluster_id in self._cache:
            return self._cache[cluster_id]
        path = self.dir / CLUSTERS_FILE
        start, end = self.header.record_offset[cluster_id:cluster_id + 2].tolist()
        record = _read_bytes(path, start, end - start)
        name = f"{path} cluster {cluster_id}"
        crc = int.from_bytes(record[-4:], "little")
        if crc != self.header.record_crc[cluster_id]:
            raise StorageFormatError(f"{name}: CRC differs from {GRAPH_FILE}")
        payload = read_cluster(record, name)
        if payload.cluster_id != cluster_id:
            raise StorageFormatError(f"{name}: holds cluster {payload.cluster_id}")
        self.clusters_read += 1
        self.bytes_read += len(record)
        self._cache[cluster_id] = payload
        return payload

    def cluster_cost(self, cluster_id: int) -> int:
        """Upper bound on the bytes expanding this cluster can add."""
        members = int(self.header.clustering.cluster_offset[cluster_id + 1]
                      - self.header.clustering.cluster_offset[cluster_id])
        slots = 2 * int(self.header.intra_links[cluster_id]) \
            + 2 * int(self.header.crossing_links[cluster_id])
        return estimate_memory(members, slots)

    def keyword_index(self) -> KeywordIndex:
        if self._index is None:
            self._index = read_keyword_index(self.dir / INDEX_FILE)
        return self._index


def expand_clusters(store: ClusterStore, cluster_ids) -> ExpandedGraph:
    """Materialize the subgraph induced by the given clusters.

    Intra links come straight from each record; boundary links are included
    only when both endpoints' clusters are requested, and the stored record
    provides the weights of both directions.
    """
    ids = tuple(sorted(set(int(c) for c in cluster_ids)))
    wanted = set(ids)
    builder = GraphBuilder()
    global_ids: list[int] = []
    local: dict[int, int] = {}
    payloads = [store.read_cluster(c) for c in ids]
    for payload in payloads:
        for i, n in enumerate(payload.members):
            local[int(n)] = builder.add_node(float(payload.prestige[i]),
                                             int(payload.node_type[i]))
            global_ids.append(int(n))
    for payload in payloads:
        for i in range(len(payload.intra_src)):
            u = local[int(payload.members[payload.intra_src[i]])]
            v = local[int(payload.members[payload.intra_dst[i]])]
            builder.add_link(u, v,
                             float(payload.intra_w[i, 0]), float(payload.intra_w[i, 1]))
        for i in range(len(payload.bound_src)):
            if int(payload.bound_cluster[i]) not in wanted:
                continue
            u = local[int(payload.members[payload.bound_src[i]])]
            v = local[int(payload.bound_dst[i])]
            builder.add_link(u, v,
                             float(payload.bound_w[i, 0]), float(payload.bound_w[i, 1]))
    return ExpandedGraph(builder.build(), np.asarray(global_ids, dtype=np.int64),
                         local, ids)
