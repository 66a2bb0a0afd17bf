"""Independent reference implementations for checking search results.

Everything here is deliberately brute force: canonical paths come from
enumerating all simple paths, answers from trying every root with every
keyword-node combination; tables are read, graphs laid out, pruned and
cut into cluster records and keywords indexed one row, link or token at a
time.  Only the public graph accessors, the ``DataGraph``, ``NodeMeta``,
``IngestResult`` and ``ClusterPayload`` containers, ``IngestError``,
``tokenize`` and the scoring constants are shared with the engine.
"""

from __future__ import annotations

import heapq
import itertools
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from embanks.graph import DataGraph, IngestError, IngestResult, NodeMeta
from embanks.keywords import tokenize
from embanks.storage import ClusterPayload


@dataclass(frozen=True)
class RefAnswer:
    root: int
    edges: tuple            # (u, v, w), sorted
    keyword_nodes: tuple
    node_score: float
    edge_score: float
    score: float

    @property
    def nodes(self) -> frozenset:
        out = {self.root}
        for u, v, _ in self.edges:
            out.add(u)
            out.add(v)
        return frozenset(out)

    def sort_key(self):
        return (-self.score, len(self.nodes), self.root,
                tuple(sorted((u, v) for u, v, _ in self.edges)))


def canonical_path(g, root: int, target: int):
    """Cheapest simple root-to-target path, smallest node sequence on ties.

    Costs accumulate from the target end, one addition per edge, matching
    how iterated shortest-path distances are formed.
    """
    best = None

    def dfs(u, visited, edges):
        nonlocal best
        if u == target:
            cost = 0.0
            for _, _, w in reversed(edges):
                cost = w + cost
            nodes = (root,) + tuple(v for _, v, _ in edges)
            if (best is None or cost < best[0]
                    or (cost == best[0] and nodes < best[1])):
                best = (cost, nodes, tuple(edges))
            return
        for _, v, w in g.out_edges(u):
            if v not in visited:
                dfs(v, visited | {v}, edges + [(u, v, w)])

    dfs(root, {root}, [])
    return best


def union_paths(root, paths):
    """Merge paths into a tree; None when parents conflict or root re-enters."""
    parent = {}
    for path in paths:
        for u, v, w in path:
            if v in parent:
                if parent[v] != (u, w):
                    return None
            else:
                parent[v] = (u, w)
    if root in parent:
        return None
    return tuple(sorted((u, v, w) for v, (u, w) in parent.items()))


def redundant_root(root, edges, nodes, ks) -> bool:
    children = [v for u, v, _ in edges if u == root]
    if len(children) != 1:
        return False
    rest = nodes - {root}
    return all(any(n in s for n in rest) for s in ks.sets)


def score_answer(root, edges, keyword_nodes, prestige, cfg) -> RefAnswer:
    nodes = {root}
    for u, v, _ in edges:
        nodes.add(u)
        nodes.add(v)
    parents = {u for u, _, _ in edges}
    n = float(prestige[root])
    if edges:
        for leaf in sorted(x for x in nodes if x not in parents):
            n += float(prestige[leaf])
    total = float(sum(w for _, _, w in edges))
    if not edges:
        e = 1.0
    elif cfg.edge_variant == "as-written":
        e = 1.0 / (1.0 + 1.0 / total)
    else:
        e = 1.0 / (1.0 + total)
    s = cfg.node_weight * n + (1.0 - cfg.node_weight) * e
    return RefAnswer(root, edges, tuple(keyword_nodes), n, e, s)


def subset_filter(answers):
    keep = []
    for a in answers:
        na = a.nodes
        if not any(b.nodes < na for b in answers):
            keep.append(a)
    return keep


def exhaustive_answers(g, ks, score_cfg, k=None, steiner=True):
    """Every distinct answer tree, ranked; the full pool when k is None."""
    pool = {}
    for root in range(g.node_count):
        paths = {}
        for target in sorted(set().union(*ks.sets)):
            paths[target] = canonical_path(g, root, target)
        per_set = [[n for n in sorted(s) if paths[n] is not None]
                   for s in ks.sets]
        if not all(per_set):
            continue
        for combo in itertools.product(*per_set):
            _pool_answer(pool, g, ks, score_cfg, root, combo,
                         [paths[n][2] for n in combo])
    return _ranked(pool, k, steiner)


def best_combo_answers(g, ks, score_cfg, k=None, steiner=True):
    """The ``combos=best`` answers: per root, one combination, each term's
    nearest keyword node by (distance, id), joined by canonical paths;
    ranked like ``exhaustive_answers``."""
    reverse = {v: list(g.in_edges(v)) for v in range(g.node_count)}
    dist = {n: dijkstra_oracle(reverse, n) for n in set().union(*ks.sets)}
    pool = {}
    for root in range(g.node_count):
        reach = [[(dist[n][root], n) for n in s if root in dist[n]]
                 for s in ks.sets]
        if not all(reach):
            continue
        combo = tuple(min(r)[1] for r in reach)
        _pool_answer(pool, g, ks, score_cfg, root, combo,
                     [canonical_path(g, root, n)[2] for n in combo])
    return _ranked(pool, k, steiner)


def _pool_answer(pool, g, ks, score_cfg, root, combo, paths):
    """Add the tree the paths make at root, unless it is no tree, has a
    redundant root, or is already pooled."""
    edges = union_paths(root, paths)
    if edges is None:
        return
    nodes = {root}
    for u, v, _ in edges:
        nodes.add(u)
        nodes.add(v)
    if redundant_root(root, edges, nodes, ks):
        return
    key = (root, edges)
    if key not in pool:
        pool[key] = score_answer(root, edges, combo, g.prestige, score_cfg)


def _ranked(pool, k, steiner):
    answers = sorted(pool.values(), key=RefAnswer.sort_key)
    if steiner:
        answers = subset_filter(answers)
    return answers if k is None else answers[:k]


def dijkstra_oracle(adj, source):
    """Textbook shortest paths over an adjacency dict {u: [(v, w), ...]}."""
    dist = {source: 0.0}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, ()):
            nd = w + d
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def graph_adjacency(g):
    """Adjacency dict over every traversable slot of a graph."""
    adj = {}
    for u in range(g.node_count):
        adj[u] = [(v, w) for _, v, w in g.out_edges(u)]
    return adj


def build_graph_reference(prestige, links, positions=None) -> DataGraph:
    """``GraphBuilder.build`` as a loop over ``(u, v, w_fwd, w_bwd)`` links.

    Each link takes the next free slot at ``u`` for its forward direction,
    then the next free slot at ``v`` for its backward one.  With
    ``positions``, one ``(forward, backward)`` pair per link, a node's slots
    go instead in ascending position.
    """
    n, m = len(prestige), 2 * len(links)
    counts = np.zeros(n, dtype=np.int64)
    for u, v, *_ in links:
        counts[u] += 1
        counts[v] += 1
    offset = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offset[1:])
    slot_of = {}        # (link, 0 forward / 1 backward) -> slot
    if positions is None:
        fill = offset[:-1].copy()
        for i, (u, v, *_) in enumerate(links):
            slot_of[i, 0] = int(fill[u]); fill[u] += 1
            slot_of[i, 1] = int(fill[v]); fill[v] += 1
    else:
        events = {}
        for i, ((u, v, *_), (pf, pb)) in enumerate(zip(links, positions)):
            events.setdefault(u, []).append((int(pf), i, 0))
            events.setdefault(v, []).append((int(pb), i, 1))
        for node, owned in events.items():
            for j, (_, i, end) in enumerate(sorted(owned)):
                slot_of[i, end] = int(offset[node]) + j
    adjacent = np.zeros(m, dtype=np.int64)
    weight = np.zeros(m, dtype=np.float32)
    direction = np.zeros(m, dtype=bool)
    pair = np.zeros(m, dtype=np.int64)
    for i, (u, v, wf, wb) in enumerate(links):
        jf, jb = slot_of[i, 0], slot_of[i, 1]
        adjacent[jf], weight[jf], direction[jf] = v, wf, True
        adjacent[jb], weight[jb], direction[jb] = u, wb, False
        pair[jf], pair[jb] = jb, jf
    return DataGraph(n, np.asarray(prestige, dtype=np.float32), offset,
                     adjacent, weight, direction, pair)


def expand_reference(store, cluster_ids):
    """``expand_clusters`` one node and one link at a time: returns the
    graph and the local -> original node ids, which ascend."""
    ids = sorted(set(int(c) for c in cluster_ids))
    mapping = store.clustering.node_mapping
    payloads = [store.read_cluster(c) for c in ids]
    prestige_values, weight_values = (store.header.prestige_values,
                                      store.header.weight_values)
    member_prestige = {}
    for p in payloads:
        for i, node in enumerate(store.clustering.members(p.cluster_id)):
            member_prestige[int(node)] = float(prestige_values[p.prestige_index[i]])
    global_ids = sorted(member_prestige)
    prestige = [member_prestige[node] for node in global_ids]
    local = {node: i for i, node in enumerate(global_ids)}
    links, positions = [], []
    for p in payloads:
        members = store.clustering.members(p.cluster_id)
        for i in range(len(p.src)):
            if int(mapping[p.dst[i]]) in ids:
                links.append((local[int(members[p.src[i]])],
                              local[int(p.dst[i])],
                              float(weight_values[p.weight_index[i, 0]]),
                              float(weight_values[p.weight_index[i, 1]])))
                positions.append(tuple(p.pos[i]))
    return build_graph_reference(prestige, links, positions), global_ids


def induced_subgraph(g, ids):
    """The subgraph of ``g`` on the ascending node ids ``ids``, renumbered
    in their order, each node keeping its surviving slots in order."""
    local = {int(node): i for i, node in enumerate(ids)}
    keep = [j for j in range(g.slot_count)
            if int(g.slot_source[j]) in local and int(g.adjacent_nodes[j]) in local]
    new_slot = {j: i for i, j in enumerate(keep)}
    counts = np.zeros(len(local), dtype=np.int64)
    for j in keep:
        counts[local[int(g.slot_source[j])]] += 1
    offset = np.zeros(len(local) + 1, dtype=np.int64)
    np.cumsum(counts, out=offset[1:])
    return DataGraph(
        len(local), np.asarray(g.prestige, dtype=np.float32)[list(local)],
        offset,
        np.array([local[int(g.adjacent_nodes[j])] for j in keep], dtype=np.int64),
        np.array([g.edge_weight[j] for j in keep], dtype=np.float32),
        np.array([bool(g.edge_direction[j]) for j in keep], dtype=bool),
        np.array([new_slot[int(g.pair_slot[j])] for j in keep], dtype=np.int64))


def assert_same_graph(got: DataGraph, want: DataGraph) -> None:
    """Equal array for array, dtypes included."""
    assert got.node_count == want.node_count
    for name in ("prestige", "adjacency_offset", "adjacent_nodes",
                 "edge_weight", "edge_direction", "pair_slot"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def prune_transitive_reference(g, spec, node_relation):
    """``graph.prune_transitive`` as one sequential splice per removed node.

    Link records are mutable ``[u, v, w_uv, w_vu]`` lists, numbered in
    ``links()`` order with composed links appended; each removed node, in
    id order, composes every pair of its live links in record order, merges
    a composition into an earlier composed link of the same node pair
    (minimum per direction) and deletes its own links.
    """
    prunable = {i for i, t in enumerate(spec.tables) if not t.has_text}
    if not prunable:
        return g, np.arange(g.node_count, dtype=np.int64)
    links = [list(l) for l in g.links()]
    incident = [set() for _ in range(g.node_count)]
    for li, (u, v, _, _) in enumerate(links):
        incident[u].add(li)
        incident[v].add(li)

    def ends(l, at):
        """Other endpoint plus (cost into ``at``, cost out of ``at``)."""
        u, v = l[0], l[1]
        if u == at:
            return v, l[3], l[2]
        return u, l[2], l[3]

    composed = {}

    def compose(a, b, cost_ab, cost_ba):
        lo, hi = (a, b) if a < b else (b, a)
        fwd, bwd = (cost_ab, cost_ba) if a < b else (cost_ba, cost_ab)
        li = composed.get((lo, hi))
        if li is not None and links[li] is not None:
            links[li][2] = min(links[li][2], fwd)
            links[li][3] = min(links[li][3], bwd)
            return
        composed[(lo, hi)] = len(links)
        incident[lo].add(len(links))
        incident[hi].add(len(links))
        links.append([lo, hi, fwd, bwd])

    keep = [int(r) not in prunable for r in node_relation]
    for w in range(g.node_count):
        if keep[w]:
            continue
        ids = sorted(incident[w])
        for ai in range(len(ids)):
            a_other, a_in, a_out = ends(links[ids[ai]], w)
            if a_other == w:
                continue
            for bi in range(ai + 1, len(ids)):
                b_other, b_in, b_out = ends(links[ids[bi]], w)
                if b_other == w or b_other == a_other:
                    continue
                compose(a_other, b_other, a_in + b_out, b_in + a_out)
        for li in ids:
            u, v = links[li][0], links[li][1]
            incident[u].discard(li)
            incident[v].discard(li)
            links[li] = None

    remap = np.full(g.node_count, -1, dtype=np.int64)
    prestige = []
    for x in range(g.node_count):
        if keep[x]:
            remap[x] = len(prestige)
            prestige.append(float(g.prestige[x]))
    out = [(int(remap[u]), int(remap[v]), wf, wb)
           for u, v, wf, wb in filter(None, links)
           if remap[u] >= 0 and remap[v] >= 0]
    return build_graph_reference(prestige, out), remap


def value_table_reference(*columns) -> np.ndarray:
    """Every distinct float32 value of ``columns``, one value at a time,
    ordered by its bit pattern: -0.0 and 0.0 are two entries."""
    bits = {struct.unpack("<I", struct.pack("<f", float(x)))[0]
            for column in columns for x in np.asarray(column).reshape(-1)}
    return np.array(sorted(bits), dtype="<u4").view("<f4")


def make_cluster_payload(g, clustering, cluster_id, prestige_values,
                         weight_values):
    """One cluster record's payload, walking each member's slots in order.

    Every link whose foreign-key source node lives in the cluster is
    recorded once, source as member position and target as global id, with
    its forward and backward weights: links with both ends in the cluster
    first, then the ones leaving it.  Prestige and weights are stored as
    their positions in ``prestige_values`` and ``weight_values``, matched
    by bit pattern.
    """
    def positions(table):
        return {struct.pack("<f", float(x)): i for i, x in enumerate(table)}

    prestige_at, weight_at = positions(prestige_values), positions(weight_values)
    members = [int(x) for x in clustering.members(cluster_id)]
    intra, bound = [], []
    for i, u in enumerate(members):
        for j, v, w in g.out_edges(u):
            if not g.edge_direction[j]:
                continue
            back = int(g.pair_slot[j])
            row = (i, v, weight_at[struct.pack("<f", w)],
                   weight_at[struct.pack("<f", float(g.edge_weight[back]))],
                   j - int(g.adjacency_offset[u]), back - int(g.adjacency_offset[v]))
            if int(clustering.node_mapping[v]) == cluster_id:
                intra.append(row)
            else:
                bound.append(row)
    rows = np.array(intra + bound, dtype=np.int64).reshape(-1, 6)
    prestige = [prestige_at[struct.pack("<f", float(g.prestige[u]))] for u in members]
    return ClusterPayload(cluster_id, np.array(prestige, dtype=np.int64),
                          rows[:, 0], rows[:, 1], rows[:, 2:4], rows[:, 4:])


def cluster_record_reference(payload) -> bytes:
    """A cluster record packed field by field: magic, version, cluster id,
    member and link counts; the byte widths of the source, target and
    position columns and of the two value-index columns, each the narrowest
    of 1, 2 and 4 that holds the largest value it covers; each member's
    prestige index; each link's two weight indexes; each link's source,
    each link's target and each link's two slot positions, in their widths;
    zero bytes up to a multiple of 4; then the CRC32 of all that."""
    prestige = [int(x) for x in payload.prestige_index]
    weight = [int(x) for row in payload.weight_index for x in row]
    src, dst = [int(x) for x in payload.src], [int(x) for x in payload.dst]
    pos = [int(x) for row in payload.pos for x in row]
    src_w, dst_w, pos_w, value_w = (
        1 if max(c, default=0) < 1 << 8 else 2 if max(c, default=0) < 1 << 16 else 4
        for c in (src, dst, pos, prestige + weight))
    body = b"EMBC" + struct.pack("<4I", 12, payload.cluster_id,
                                 len(prestige), len(src))
    body += bytes([src_w, dst_w, pos_w, value_w])
    for values, width in ((prestige, value_w), (weight, value_w), (src, src_w),
                          (dst, dst_w), (pos, pos_w)):
        code = {1: "<B", 2: "<H", 4: "<I"}[width]
        body += b"".join(struct.pack(code, x) for x in values)
    body += bytes(-len(body) % 4)
    return body + struct.pack("<I", zlib.crc32(body))


def connection_members_reference(g, max_size, rng):
    """``cluster_connection_naive``'s member lists, rebuilding the frontier
    from every member's slots before each random draw."""
    scan = list(range(g.node_count))
    rng.shuffle(scan)
    used = [False] * g.node_count
    members = []
    for seed in scan:
        if used[seed]:
            continue
        used[seed] = True
        cluster = [seed]
        while len(cluster) < max_size:
            frontier = [v for node in cluster for _, v, _ in g.out_edges(node)
                        if not used[v]]
            if not frontier:
                break
            v = rng.choice(frontier)
            used[v] = True
            cluster.append(v)
        members.append(cluster)
    return members


def read_tsv_reference(path):
    """A TSV file as its header and rows, reading it line by line in text
    mode; blank lines are skipped, other lines must match the header."""
    if not path.exists():
        raise IngestError(f"missing data file {path}")
    rows = []
    header = []
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if lineno == 1:
                header = line.split("\t")
                continue
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise IngestError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
            rows.append(cells)
    if not header or header == [""]:
        raise IngestError(f"{path}: missing header row")
    return header, rows


def ingest_reference(spec, data_dir):
    """``graph.ingest`` one row and one foreign-key cell at a time.

    Rows become nodes table by table; a key lookup maps each non-empty value
    of a referenced column to the first row holding it; every non-empty
    foreign-key cell either links its row there or, when the value is
    missing, adds a warning.  Prestige is the in-degree unless the table has
    a prestige column.  Errors are raised in the order the loop meets them.
    """
    warnings = []
    prestige, links = [], []
    node_text, node_key, node_relation = [], [], []
    tables_rows = {}
    explicit = {}
    for rel_id, table in enumerate(spec.tables):
        header, rows = read_tsv_reference(data_dir / f"{table.name}.tsv")
        col_index = {c: i for i, c in enumerate(header)}
        for col in table.text_columns:
            if col not in col_index:
                raise IngestError(f"{table.name}: text column {col!r} not in header")
        if table.prestige_column and table.prestige_column not in col_index:
            raise IngestError(
                f"{table.name}: prestige column {table.prestige_column!r} not in header")
        first_id = len(node_text)
        for rownum, row in enumerate(rows, 2):
            node = len(prestige)
            prestige.append(0.0)
            node_relation.append(rel_id)
            node_text.append(" ".join(row[col_index[c]] for c in table.text_columns))
            node_key.append(row[col_index[header[0]]])
            if table.prestige_column:
                raw = row[col_index[table.prestige_column]]
                try:
                    explicit[node] = float(raw)
                    if not math.isfinite(explicit[node]):
                        raise ValueError(raw)
                except ValueError as exc:
                    raise IngestError(
                        f"{table.name}.tsv:{rownum}: bad prestige value {raw!r}") from exc
        tables_rows[table.name] = (header, rows, first_id)

    def key_lookup(table, column):
        header, rows, first_id = tables_rows[table]
        if column not in header:
            raise IngestError(f"{table}: foreign-key column {column!r} not in header")
        ci = header.index(column)
        out = {}
        for i, row in enumerate(rows):
            value = row[ci]
            if value and value not in out:
                out[value] = first_id + i
        return out

    lookups = {}
    for fk in spec.foreign_keys:
        if fk.from_table not in tables_rows or fk.to_table not in tables_rows:
            raise IngestError(f"foreign key references unknown table: {fk}")
        key = (fk.to_table, fk.to_column)
        if key not in lookups:
            lookups[key] = key_lookup(*key)
        header, rows, first_id = tables_rows[fk.from_table]
        if fk.from_column not in header:
            raise IngestError(
                f"{fk.from_table}: foreign-key column {fk.from_column!r} not in header")
        ci = header.index(fk.from_column)
        for i, row in enumerate(rows):
            value = row[ci]
            if not value:
                continue
            target = lookups[key].get(value)
            if target is None:
                warnings.append(
                    f"{fk.from_table}.tsv row {i + 2}: dangling reference "
                    f"{fk.from_column}={value!r} -> {fk.to_table}.{fk.to_column}")
                continue
            links.append((first_id + i, target, spec.forward_weight_default,
                          spec.forward_weight_default))

    for _, v, _, _ in links:
        prestige[v] += 1.0
    for node, value in explicit.items():
        prestige[node] = value
    meta = NodeMeta([t.name for t in spec.tables],
                    np.asarray(node_relation, dtype=np.uint16), node_text, node_key)
    return IngestResult(build_graph_reference(prestige, links), meta, warnings)


def build_index_reference(meta):
    """Terms ascending, each with its sorted set of nodes, as CSR arrays."""
    acc = {}
    for node, text in enumerate(meta.node_text):
        for term in tokenize(text):
            acc.setdefault(term, set()).add(node)
    terms = sorted(acc)
    lists = [sorted(acc[t]) for t in terms]
    offsets = np.zeros(len(terms) + 1, dtype=np.uint32)
    offsets[1:] = np.cumsum([len(nodes) for nodes in lists])
    ids = np.array([n for nodes in lists for n in nodes], dtype=np.uint32)
    return terms, offsets, ids


def close_to_1_members_reference(g, max_size):
    """``cluster_close_to_1``'s member lists, computing each offered edge's
    weight ratio as ``max / min`` of its two direction weights."""
    used = [False] * g.node_count
    members = []
    for seed in range(g.node_count):
        if used[seed]:
            continue
        used[seed] = True
        cluster = [seed]
        heap = []
        seq = itertools.count()

        def offer(node):
            for j, v, w_out in g.out_edges(node):
                if not used[v]:
                    w_in = float(g.edge_weight[g.pair_slot[j]])
                    heapq.heappush(heap, (max(w_out, w_in) / min(w_out, w_in),
                                          next(seq), v))

        offer(seed)
        while len(cluster) < max_size and heap:
            _, _, v = heapq.heappop(heap)
            if used[v]:
                continue
            used[v] = True
            cluster.append(v)
            offer(v)
        members.append(cluster)
    return members
