"""On-disk store: one file for the graph, in cluster form, and one index.

Layout under a store directory (format 11)::

    graph.emb       a section with the cluster graph, the clustering's node
                    order and cluster offsets, per-cluster link counts and
                    each record's byte offset; then the cluster records: a
                    cluster's member count and prestige, and the links whose
                    foreign-key source is a member, with both weights and
                    the positions of both slots in their nodes' spans
    index.kwi       keyword index over the original nodes: its sorted terms,
                    then every term's node ids as one offsets-plus-ids pair

The records are the only copy of the tuple graph: ``ingest`` writes it as
one cluster of every node, and ``cluster`` and ``compare`` decode every
record of the current build.  The section keeps the records' link counts,
to budget for a record before reading it.  Row texts, keys and relations
are not stored: node ids follow the deterministic ingest order of the data
directory, so ingesting it again maps an id back to its row.  A graph
stores per node only its prestige and per slot only its target, weight,
direction bit and partner slot.  A cluster's members are its span of the
node order, which rebuilds the node-to-cluster mapping on read.  Integers
are little-endian and unsigned; weights are 32-bit floats.  Every integer
column is written in the narrowest of 1, 2, 4 and 8 bytes that holds its
largest value, and that width is one byte in a row of widths written
before the columns: one row for the section's integer columns, one for
index.kwi's, and one in each record's header for its own columns, so a
record decodes alone.  Float columns come before the integer columns, and
the section and every record are padded to a multiple of 4 bytes before
their CRC, so every float32 column is 4-byte aligned in the file.  Every
variable-length list is one column: ``count + 1`` offsets from 0, then the
bytes or ids they delimit.  Every file, graph.emb's section and every
cluster record begins with a magic and the format version and ends with a
CRC32 of everything before it; the section also holds its byte length,
and its last record offset fixes the length of the records after it.  Any
other version is rejected: rebuild with ``ingest`` then ``cluster``.

Readers map each file read-only (a file shorter than one page is read
instead), check it with one CRC pass (graph.emb: its section), and hand
out read-only ``np.frombuffer`` views in the stored dtypes; only derived
arrays such as the node-to-cluster mapping are computed.  An open store
reads only the records it needs, each checked by its own CRC when first
read.  Writers write a temporary file beside the target, fsync it and
rename it over the target, so a reader keeps the file it mapped when a
store is rebuilt.  Truncating a mapped file in place with another tool can
instead kill a reader with SIGBUS when it touches a page past the new end.

``expand_clusters`` numbers nodes in ascending id and keeps each node's
slots in tuple-graph order, so a search, which breaks ties by node id and
slot order, breaks them there as on those nodes of the whole graph.
"""

from __future__ import annotations

import mmap
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import Clustering, ClusteringError, build_cluster_graph
from .graph import DataGraph, GraphBuilder, estimate_memory
from .keywords import KeywordIndex

GRAPH_FILE = "graph.emb"
INDEX_FILE = "index.kwi"

MAGIC_GRAPH = b"EMBK"
MAGIC_CLUSTER = b"EMBC"
MAGIC_INDEX = b"EMBI"
FORMAT_VERSION = 11


class StorageError(Exception):
    pass


class StorageFormatError(StorageError):
    """A file failed magic, version, checksum, or bounds validation."""


class _Writer:
    """Magic, format version, the fields, then a CRC32 of all before it; a
    sized blob's u64 after the version holds its whole byte length."""

    def __init__(self, magic: bytes, sized: bool = False) -> None:
        self._parts = [magic, FORMAT_VERSION.to_bytes(4, "little")]
        self._sized = sized
        self._size = 16 if sized else 8     # the size word included

    def raw(self, data: bytes) -> None:
        self._parts.append(data)
        self._size += len(data)

    def u32(self, v: int) -> None:
        self.raw(int(v).to_bytes(4, "little"))

    def arr(self, values: np.ndarray, dtype) -> None:
        self.raw(np.ascontiguousarray(values, dtype=np.dtype(dtype)).tobytes())

    def bits(self, flags: np.ndarray) -> None:
        self.raw(np.packbits(np.asarray(flags, dtype=bool)).tobytes())

    def widths(self, columns) -> list[np.dtype]:
        """Write one width byte per integer column, the narrowest that
        holds its largest value, then pad to 4 bytes; return the dtypes to
        write the columns in."""
        widths = _widths([int(np.max(c, initial=0)) for c in columns])
        self.raw(widths.astype(np.uint8).tobytes())
        self.align()
        return [np.dtype(f"<u{w}") for w in widths.tolist()]

    def align(self) -> None:
        """Zero bytes up to a multiple of 4 from the magic."""
        self.raw(bytes(-self._size % 4))

    def blob(self) -> bytes:
        parts = self._parts
        if self._sized:
            size = self._size + 4
            parts = [*parts[:2], size.to_bytes(8, "little"), *parts[2:]]
        body = b"".join(parts)
        return body + zlib.crc32(body).to_bytes(4, "little")

    def finish(self, path: Path) -> int:
        blob = self.blob()
        _replace_file(path, [blob])
        return len(blob)


def _widths(top) -> np.ndarray:
    """Bytes per value (1, 2, 4 or 8) of the narrowest unsigned column that
    holds values up to ``top``, for every entry of ``top``."""
    top = np.asarray(top, dtype=np.uint64)
    return 1 << ((top > 0xFF).astype(np.int64) + (top > 0xFFFF)
                 + (top > 0xFFFFFFFF))


def _replace_file(path: Path, parts) -> None:
    """Write ``parts`` to a temporary file beside ``path``, fsync it and
    rename it over ``path``, so a reader that mapped the old file keeps
    reading the old bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _map_file(path: Path) -> memoryview:
    """The bytes of ``path``, mapped read-only.  A file shorter than one
    page is read instead: reading it costs less than mapping it, and an
    empty file cannot be mapped."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size < mmap.PAGESIZE:
                return memoryview(os.read(fd, size))
            return memoryview(mmap.mmap(fd, 0, access=mmap.ACCESS_READ))
        finally:
            os.close(fd)
    except OSError as exc:
        raise StorageError(f"{path}: {exc}") from exc


class _Reader:
    """Checks one file, section or record whole, magic and version
    first, then hands out views of its bytes.

    A sized section ends where its length word says; ``rest`` holds the
    bytes after it.  Arrays are ``np.frombuffer`` views in the stored
    dtype; the buffer is read-only, so they are too, and they keep it alive.
    ``name`` may be a function that makes the name, called only for an
    error message.
    """

    def __init__(self, data: memoryview, magic: bytes, name,
                 sized: bool = False) -> None:
        self._name = name
        self._body, self._pos = data, 0
        got = bytes(self.raw(4))
        if got != magic:
            raise StorageFormatError(f"{self.name}: bad magic {got!r}")
        version = self.u32()
        if version != FORMAT_VERSION:
            raise StorageFormatError(f"{self.name}: unsupported version {version}")
        size = int.from_bytes(self.raw(8), "little") if sized else len(data)
        if not self._pos + 4 <= size <= len(data):
            raise StorageFormatError(f"{self.name}: truncated file")
        self._body, self.rest = data[:size - 4], data[size:]
        if zlib.crc32(self._body) != int.from_bytes(data[size - 4:size], "little"):
            raise StorageFormatError(f"{self.name}: checksum mismatch")

    @property
    def name(self) -> str:
        return self._name() if callable(self._name) else self._name

    def raw(self, n: int) -> memoryview:
        if self._pos + n > len(self._body):
            raise StorageFormatError(f"{self.name}: truncated file")
        out = self._body[self._pos:self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return int.from_bytes(self.raw(4), "little")

    def arr(self, count: int, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.raw(count * dt.itemsize), dtype=dt)

    def bits(self, count: int) -> np.ndarray:
        packed = np.frombuffer(self.raw((count + 7) // 8), dtype=np.uint8)
        return _read_only(np.unpackbits(packed, count=count).view(bool))

    def widths(self, count: int) -> list[np.dtype]:
        """The dtypes of ``count`` integer columns, as ``_Writer.widths``
        wrote them."""
        widths = self.raw(count).tolist()
        if not set(widths) <= {1, 2, 4, 8}:
            raise StorageFormatError(f"{self.name}: column widths {widths} "
                                     "are not 1, 2, 4 or 8 bytes")
        self.align()
        return [np.dtype(f"<u{w}") for w in widths]

    def align(self) -> None:
        self.raw(-self._pos % 4)

    def offsets(self, count: int, dtype) -> np.ndarray:
        """``count + 1`` offsets into the column or file they delimit."""
        offsets = self.arr(count + 1, dtype)
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise StorageFormatError(f"{self.name}: column offsets must start "
                                     "at 0 and never decrease")
        return offsets

    def strings(self, count: int, dtype) -> list[str]:
        ends = self.offsets(count, dtype).tolist()
        blob = bytes(self.raw(ends[-1]))
        pairs = zip(ends, ends[1:])
        if blob.isascii():          # one decode; byte offsets are char offsets
            text = blob.decode("ascii")
            return [text[a:b] for a, b in pairs]
        return [blob[a:b].decode("utf-8") for a, b in pairs]

    def done(self) -> None:
        if self._pos != len(self._body):
            raise StorageFormatError(f"{self.name}: {len(self._body) - self._pos} "
                                     "trailing bytes")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# --- compressed cluster graph -----------------------------------------------

@dataclass
class StoreHeader:
    cluster_graph: DataGraph
    clustering: Clustering
    intra_links: np.ndarray     # per cluster, link records inside it
    crossing_links: np.ndarray  # per cluster, crossing links incident to it
    record_offset: np.ndarray   # [k + 1] byte offsets of the records after it


def write_compressed_graph(path: str | Path, header: StoreHeader,
                           records) -> None:
    """Write graph.emb: the section for ``header``, then ``records``, the
    bytes of every cluster record end to end."""
    cg = header.cluster_graph
    cl = header.clustering
    w = _Writer(MAGIC_GRAPH, sized=True)
    for count in (cg.node_count, cg.slot_count, cl.node_count, cl.max_cluster_size):
        w.u32(count)
    w.arr(cg.prestige, "<f4")
    w.arr(cg.edge_weight, "<f4")
    columns = (cg.adjacency_offset, cg.adjacent_nodes, cg.pair_slot,
               cl.node_order, cl.cluster_offset, header.intra_links,
               header.crossing_links, header.record_offset)
    for values, dtype in zip(columns, w.widths(columns)):
        w.arr(values, dtype)
    w.bits(cg.edge_direction)
    w.align()
    _replace_file(Path(path), [w.blob(), records])


def read_compressed_graph(path: str | Path) -> tuple[StoreHeader, memoryview]:
    """Check graph.emb's section; return it and the records after it."""
    r = _Reader(_map_file(Path(path)), MAGIC_GRAPH, str(path), sized=True)
    k, m, n, max_size = (r.u32() for _ in range(4))
    prestige = r.arr(k, "<f4")
    weight = r.arr(m, "<f4")
    (adjacency_dt, target_dt, partner_dt, order_dt, cluster_dt, intra_dt,
     crossing_dt, record_dt) = r.widths(8)
    adjacency = r.offsets(k, adjacency_dt)
    if adjacency[-1] != m:
        raise StorageFormatError(f"{path}: adjacency offsets end at "
                                 f"{adjacency[-1]}, not at the {m} slots")
    target = r.arr(m, target_dt)
    partner = r.arr(m, partner_dt)
    order = r.arr(n, order_dt)
    cluster_offset = r.arr(k + 1, cluster_dt)
    intra = r.arr(k, intra_dt)
    crossing = r.arr(k, crossing_dt)
    offset = r.offsets(k, record_dt)
    graph = DataGraph(k, prestige, adjacency, target, weight, r.bits(m), partner)
    r.align()
    r.done()
    if len(r.rest) != offset[-1]:
        raise StorageFormatError(f"{path}: the cluster records take "
                                 f"{len(r.rest)} bytes, not {offset[-1]}")
    try:
        clustering = Clustering.from_order(order, cluster_offset, max_size)
    except ClusteringError as exc:
        raise StorageFormatError(f"{path}: {exc}") from exc
    _read_only(clustering.node_mapping)
    return StoreHeader(graph, clustering, intra, crossing, offset), r.rest


# --- cluster records --------------------------------------------------------

@dataclass
class ClusterPayload:
    """Member prestige and links of one cluster.

    The members themselves are ``Clustering.members(cluster_id)``: local
    member index ``i`` is the ``i``-th of them.  A record holds each link
    whose foreign-key source is a member, once, with both direction
    weights: ``src`` is that member's local index, ``dst`` the global id of
    the other end.  Links whose other end is a member come first, then those
    leaving the cluster, each run ordered by member and then by slot; a
    reader joining two clusters restores the opposite direction itself.
    ``pos`` holds the positions of the forward slot in its source's span
    and of the backward slot in its target's.
    """

    cluster_id: int
    prestige: np.ndarray     # float32, one per member
    src: np.ndarray          # unsigned as read, local member index
    dst: np.ndarray          # unsigned as read, global node id
    w: np.ndarray            # float32 [l, 2] forward/backward
    pos: np.ndarray          # unsigned as read, [l, 2] forward/backward

    @property
    def member_count(self) -> int:
        return len(self.prestige)


def write_cluster(payload: ClusterPayload) -> bytes:
    data, _ = _encode_records(
        np.array([payload.cluster_id]), payload.prestige,
        np.array([payload.member_count]), payload.src, payload.dst,
        payload.w, payload.pos, np.array([len(payload.src)]))
    return data.tobytes()


def _encode_records(cluster_ids, prestige, sizes, src, dst, w, pos, links
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Cluster records end to end, as one column of bytes.

    Record ``i`` holds cluster ``cluster_ids[i]``: its ``sizes[i]`` members'
    values of ``prestige`` and its ``links[i]`` rows of ``src``, ``dst``,
    ``w`` and ``pos``, each taken in turn from the front of those columns.
    A record is five header words; the byte widths of its ``src``, ``dst``
    and ``pos`` columns, each the narrowest that holds the record's largest
    value, and a zero byte; the float32 prestige and weights; the three
    integer columns; zero bytes up to a multiple of 4; and a CRC32 word.
    Every column is scattered into place in one pass, an integer column as
    the low bytes of its little-endian values, and one ``zlib.crc32`` per
    record fills its trailer.  Returns the bytes and the
    ``len(cluster_ids) + 1`` byte offsets of the records.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    links = np.asarray(links, dtype=np.int64)
    src, dst = (np.asarray(c, dtype=np.int64) for c in (src, dst))
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 2)
    # per link, its source, its target and its larger slot position; their
    # largest per record fix the record's three widths
    rows = np.column_stack([src, dst, np.maximum(pos[:, 0], pos[:, 1])])
    top = np.zeros((len(links), 3), dtype=np.int64)
    full = links > 0
    if full.any():
        top[full] = np.maximum.reduceat(rows, (np.cumsum(links) - links)[full])
    widths = _widths(top)
    columns = ((src, links), (dst, links), (pos.reshape(-1), 2 * links))
    body = 24 + 4 * sizes + 8 * links + widths @ [1, 1, 2] * links
    start = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(body + -body % 4 + 4, out=start[1:])
    head, end = start[:-1], start[1:] - 4
    data = np.zeros(start[-1], dtype=np.uint8)
    words = data.view("<u4")                   # records start 4-aligned
    for i, value in enumerate((int.from_bytes(MAGIC_CLUSTER, "little"),
                               FORMAT_VERSION, cluster_ids, sizes, links)):
        words[head // 4 + i] = value
    data[(head + 20)[:, None] + np.arange(3)] = widths
    at = head // 4 + 6
    words[_spans(at, sizes)] = np.ascontiguousarray(prestige, dtype="<f4").view("<u4")
    words[_spans(at + sizes, 2 * links)] = \
        np.ascontiguousarray(w, dtype="<f4").reshape(-1).view("<u4")
    at = head + 24 + 4 * sizes + 8 * links
    for (values, n), wd in zip(columns, widths.T):
        most = int(wd.max(initial=1))
        low = values.astype(f"<u{most}").view(np.uint8)
        if wd.min(initial=most) < most:      # each value's low ``wd`` bytes
            low = low.reshape(-1, most)[np.arange(most) < np.repeat(wd, n)[:, None]]
        data[_spans(at, wd * n)] = low
        at = at + wd * n
    view = memoryview(data)
    words[end // 4] = [zlib.crc32(view[a:b])
                       for a, b in zip(head.tolist(), end.tolist())]
    return data, start


def _spans(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``first[i] + range(counts[i])`` for every ``i``, in order."""
    before = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(first - before, counts)


def read_cluster(record, name="cluster record") -> ClusterPayload:
    """Check and decode one record, any bytes-like object; the arrays are
    read-only views of it, in the stored widths; ``name`` is as for
    ``_Reader``."""
    r = _Reader(memoryview(record), MAGIC_CLUSTER, name)
    cid = r.u32()
    nm = r.u32()
    links = r.u32()
    src_dt, dst_dt, pos_dt = r.widths(3)
    payload = ClusterPayload(
        cluster_id=cid,
        prestige=r.arr(nm, "<f4"),
        w=r.arr(2 * links, "<f4").reshape(links, 2),
        src=r.arr(links, src_dt),
        dst=r.arr(links, dst_dt),
        pos=r.arr(2 * links, pos_dt).reshape(links, 2),
    )
    r.align()
    r.done()
    return payload


# --- keyword index ------------------------------------------------------------

def write_keyword_index(path: str | Path, index: KeywordIndex) -> int:
    """The term count; the widths of the term text offsets, the posting
    offsets and the ids; the term column; then the postings."""
    texts = [t.encode("utf-8") for t in index.terms]
    ends = np.zeros(len(texts) + 1, dtype=np.int64)
    ends[1:] = np.cumsum([len(t) for t in texts])
    w = _Writer(MAGIC_INDEX)
    w.u32(len(texts))
    columns = (ends, index.offsets, index.ids)
    ends_dt, offsets_dt, ids_dt = w.widths(columns)
    w.arr(ends, ends_dt)
    w.raw(b"".join(texts))
    w.arr(index.offsets, offsets_dt)
    w.arr(index.ids, ids_dt)
    return w.finish(Path(path))


def read_keyword_index(path: str | Path) -> KeywordIndex:
    """Check the whole file and keep its posting ids as stored; a lookup
    turns only its own list into ids."""
    r = _Reader(_map_file(Path(path)), MAGIC_INDEX, str(path))
    count = r.u32()
    ends_dt, offsets_dt, ids_dt = r.widths(3)
    terms = r.strings(count, ends_dt)
    offsets = r.offsets(len(terms), offsets_dt)
    ids = r.arr(int(offsets[-1]), ids_dt)
    r.done()
    if len(set(terms)) != len(terms) or terms != sorted(terms):
        raise StorageFormatError(f"{path}: terms are not strictly ascending")
    return KeywordIndex(terms, offsets, ids)


# --- store assembly and expansion ----------------------------------------------

def write_store(store_dir: str | Path, g: DataGraph, clustering: Clustering,
                cluster_graph: DataGraph) -> None:
    """Write graph.emb, in one rename, for a finished clustering.

    Each link is recorded once, by the cluster of its foreign-key source,
    with the positions of its two slots in their owners' spans.  One sort
    of the forward slots by (cluster, intra before boundary, member
    position, slot) lays out every record's links, and ``_encode_records``
    lays out every record at once.
    """
    k, mapping = clustering.cluster_count, clustering.node_mapping
    sizes = np.diff(clustering.cluster_offset)
    position = np.empty(clustering.node_count, dtype=np.int64)  # within its cluster
    position[clustering.node_order] = np.arange(clustering.node_count) \
        - np.repeat(clustering.cluster_offset[:-1], sizes)
    fwd = np.flatnonzero(g.edge_direction)
    src, dst = g.slot_source[fwd], g.adjacent_nodes[fwd]
    cluster = mapping[src]
    bound = cluster != mapping[dst]
    order = np.lexsort((fwd, position[src], bound, cluster))
    fwd, src, dst, cluster, bound = (a[order] for a in (fwd, src, dst, cluster, bound))
    intra = np.bincount(cluster[~bound], minlength=k)
    leaving = np.bincount(cluster[bound], minlength=k)
    crossing = leaving + np.bincount(mapping[dst[bound]], minlength=k)
    local = position[src]
    back = g.pair_slot[fwd]
    w = np.stack([g.edge_weight[fwd], g.edge_weight[back]], axis=1)
    at = g.adjacency_offset
    pos = np.stack([fwd - at[src], back - at[dst]], axis=1)
    records, start = _encode_records(np.arange(k), g.prestige[clustering.node_order],
                                     sizes, local, dst, w, pos, intra + leaving)
    header = StoreHeader(cluster_graph, clustering, intra, crossing, start)
    write_compressed_graph(Path(store_dir) / GRAPH_FILE, header, records)


def write_tuple_graph(store_dir: str | Path, g: DataGraph) -> None:
    """Write ``g`` as graph.emb of one cluster holding every node, or of
    none when ``g`` is empty; ``read_tuple_graph`` gives ``g`` back."""
    n = g.node_count
    clustering = Clustering.from_order(np.arange(n), np.array([0, n] if n else [0]), n)
    write_store(store_dir, g, clustering, build_cluster_graph(g, clustering))


def read_tuple_graph(store_dir: str | Path) -> DataGraph:
    """The tuple graph of a store, decoded from all of its clusters."""
    store = ClusterStore.open(store_dir)
    return expand_clusters(store, range(store.cluster_count)).graph


@dataclass
class ExpandedGraph:
    """A node-level subgraph rebuilt from cluster records.

    Local node ``i`` is original node ``global_ids[i]``, and ``global_ids``
    ascends, so local and original ids order nodes alike: a search that
    breaks ties by the smallest node id breaks them here as it would on the
    whole graph.
    """

    graph: DataGraph
    global_ids: np.ndarray          # int64, ascending, local -> original id
    clusters: tuple[int, ...]


@dataclass
class ClusterStore:
    """Read access to one store directory, counting disk traffic.

    graph.emb is mapped when the store opens, so a store keeps reading the
    build it opened after ``cluster`` replaces the file.
    """

    dir: Path
    header: StoreHeader
    records: memoryview             # graph.emb after its section
    clusters_read: int = 0
    bytes_read: int = 0
    _cache: dict[int, ClusterPayload] = field(default_factory=dict)
    _index: KeywordIndex | None = None

    @classmethod
    def open(cls, store_dir: str | Path) -> ClusterStore:
        store_dir = Path(store_dir)
        return cls(store_dir, *read_compressed_graph(store_dir / GRAPH_FILE))

    @property
    def cluster_graph(self) -> DataGraph:
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
        if not 0 <= cluster_id < self.cluster_count:
            raise StorageError(f"{self.dir}: no cluster {cluster_id}, "
                               f"the store has {self.cluster_count} clusters")
        start, end = self.header.record_offset[cluster_id:cluster_id + 2].tolist()
        record = self.records[start:end]

        def name() -> str:
            return f"{self.dir / GRAPH_FILE} cluster {cluster_id}"

        payload = read_cluster(record, name)
        if payload.cluster_id != cluster_id:
            raise StorageFormatError(f"{name()}: holds cluster {payload.cluster_id}")
        members = len(self.clustering.members(cluster_id))
        if payload.member_count != members:
            raise StorageFormatError(f"{name()}: holds {payload.member_count} "
                                     f"members, the node order has {members}")
        if np.any(payload.src >= members) \
                or np.any(payload.dst >= self.clustering.node_count):
            raise StorageFormatError(f"{name()}: a link end lies outside the "
                                     "cluster's members or the graph")
        self.clusters_read += 1
        self.bytes_read += len(record)
        self._cache[cluster_id] = payload
        return payload

    def cluster_cost(self, cluster_id: int) -> int:
        """Upper bound on the bytes expanding this cluster can add."""
        members = len(self.clustering.members(cluster_id))
        slots = 2 * int(self.header.intra_links[cluster_id]) \
            + 2 * int(self.header.crossing_links[cluster_id])
        return estimate_memory(members, slots)

    def keyword_index(self) -> KeywordIndex:
        if self._index is None:
            self._index = read_keyword_index(self.dir / INDEX_FILE)
        return self._index


def expand_clusters(store: ClusterStore, cluster_ids) -> ExpandedGraph:
    """Materialize the subgraph induced by the given clusters.

    Nodes are numbered in ascending original id and each node's slots keep
    their tuple-graph order, so every tie broken by node id or by slot
    falls as on the whole graph, and all clusters give the tuple graph
    array for array.  Each record adds its links whose far end lies in a
    requested cluster, as columns, with both weights and slot positions.
    Link ends are looked up among the expanded node ids, so the cost
    follows the clusters read, not the store's node count.
    """
    ids = tuple(sorted(set(int(c) for c in cluster_ids)))
    payloads = [store.read_cluster(c) for c in ids]
    builder = GraphBuilder()
    global_ids = np.zeros(0, dtype=np.int64)
    if payloads:
        members = [store.clustering.members(c) for c in ids]
        flat = np.concatenate(members, dtype=np.int64)
        by_id = np.argsort(flat)
        global_ids = flat[by_id]
        builder.add_nodes(np.concatenate([p.prestige for p in payloads])[by_id])
        ends = np.stack([  # both ends of every stored link, as node ids
            np.concatenate([m[p.src] for m, p in zip(members, payloads)]),
            np.concatenate([p.dst for p in payloads])]).astype(np.int64)
        w = np.concatenate([p.w for p in payloads])
        pos = np.concatenate([p.pos for p in payloads])
        at = np.minimum(np.searchsorted(global_ids, ends), len(global_ids) - 1)
        kept = global_ids[at[1]] == ends[1]
        builder.add_links(at[0, kept], at[1, kept], w[kept, 0], w[kept, 1],
                          pos[kept])
    return ExpandedGraph(builder.build(), global_ids, ids)
