"""Flat-array directed graph over database tuples.

Every foreign-key link is stored twice: a forward slot in the referencing
node's adjacency span and a backward slot in the referenced node's span.
The two slots carry independent weights and are tied together by a partner
index, so traversal can walk either direction of any link and always find
the cost of the opposite direction in O(1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BYTES_PER_NODE = 20
BYTES_PER_EDGE = 12

DEFAULT_FORWARD_WEIGHT = 1.0

# (offset, target, w_out, w_in), see DataGraph.adjacency_lists
AdjacencyLists = tuple[list[int], list[int], list[float], list[float]]


class GraphError(Exception):
    """Base class for graph construction and validation failures."""


class IngestError(GraphError):
    """Raised when schema or data files cannot be turned into a graph."""


@dataclass(frozen=True)
class TableSpec:
    name: str
    text_columns: tuple[str, ...] = ()
    prestige_column: str | None = None

    @property
    def has_text(self) -> bool:
        return len(self.text_columns) > 0


@dataclass(frozen=True)
class ForeignKey:
    from_table: str
    from_column: str
    to_table: str
    to_column: str


@dataclass
class IngestSpec:
    tables: list[TableSpec]
    foreign_keys: list[ForeignKey]
    forward_weight_default: float = DEFAULT_FORWARD_WEIGHT


@dataclass
class NodeMeta:
    """Per-node metadata kept outside the search arrays."""

    relation_names: list[str]
    node_relation: np.ndarray  # uint16, relation id per node
    node_text: list[str]
    node_key: list[str]

    def __len__(self) -> int:
        return len(self.node_text)


@dataclass
class DataGraph:
    """Both-direction adjacency arrays for one graph.

    ``adjacency_offset`` has ``node_count + 1`` entries; the slots of node
    ``u`` are ``range(adjacency_offset[u], adjacency_offset[u + 1])``.  Slot
    ``j`` describes a traversable edge ``u -> adjacent_nodes[j]`` whose
    weight is ``edge_weight[j]``; ``edge_direction[j]`` is True when the
    traversal follows the foreign-key direction.  ``pair_slot[j]`` is the
    slot of the same link seen from the other endpoint.  The integer
    arrays are int64 in a built graph and unsigned, in their stored widths,
    in a read one.
    """

    node_count: int
    prestige: np.ndarray        # float32 [n]
    adjacency_offset: np.ndarray  # integer [n + 1]
    adjacent_nodes: np.ndarray  # integer [m]
    edge_weight: np.ndarray     # float32 [m]
    edge_direction: np.ndarray  # bool [m], True = forward
    pair_slot: np.ndarray       # integer [m]
    _lists: AdjacencyLists | None = field(default=None, init=False,
                                          repr=False, compare=False)

    @property
    def slot_count(self) -> int:
        return int(len(self.adjacent_nodes))

    @property
    def slot_source(self) -> np.ndarray:
        """Owning node of every slot (int64 [m]), derived from the offsets."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64),
                         np.diff(self.adjacency_offset))

    @property
    def in_degree(self) -> np.ndarray:
        """Foreign-key links pointing at each node: its backward slots."""
        return np.bincount(self.slot_source[~self.edge_direction],
                           minlength=self.node_count)

    def out_edges(self, node: int):
        """Yield (slot, target, weight) for every traversable edge leaving node."""
        for j in range(self.adjacency_offset[node], self.adjacency_offset[node + 1]):
            yield j, int(self.adjacent_nodes[j]), float(self.edge_weight[j])

    def in_edges(self, node: int):
        """Yield (source, weight of source->node) for every edge entering node.

        The sources are exactly the adjacency targets of ``node``; the cost
        of the opposite direction lives in the partner slot.
        """
        for j in range(self.adjacency_offset[node], self.adjacency_offset[node + 1]):
            yield int(self.adjacent_nodes[j]), float(self.edge_weight[self.pair_slot[j]])

    def adjacency_lists(self) -> AdjacencyLists:
        """The adjacency arrays as plain Python lists, for hot loops.

        Returns ``(offset, target, w_out, w_in)``: node ``x``'s slots are
        ``range(offset[x], offset[x + 1])``, and slot ``j`` is the edge
        ``x -> target[j]`` of weight ``w_out[j]`` whose opposite direction
        ``target[j] -> x`` weighs ``w_in[j]``.  The weights are the same
        float64 values ``out_edges`` and ``in_edges`` yield.

        When all four arrays are read-only, as a read store's views of its
        read-only mapping are, they cannot change: the lists are built on
        the first call and the same lists are returned after it, so callers
        must not change them.  Otherwise each call builds a snapshot, which
        does not follow later changes to the arrays.
        """
        if self._lists is not None:
            return self._lists
        arrays = (self.adjacency_offset, self.adjacent_nodes, self.edge_weight,
                  self.pair_slot)
        lists = (arrays[0].tolist(), arrays[1].tolist(), arrays[2].tolist(),
                 self.edge_weight[self.pair_slot].tolist())
        if not any(a.flags.writeable for a in arrays):
            self._lists = lists
        return lists

    def links(self):
        """Yield each stored link once as (u, v, w_fwd, w_bwd).

        ``u -> v`` is the foreign-key direction.
        """
        fwd = self.edge_direction
        yield from zip(self.slot_source[fwd].tolist(),
                       self.adjacent_nodes[fwd].tolist(),
                       self.edge_weight[fwd].tolist(),
                       self.edge_weight[self.pair_slot[fwd]].tolist())

    def validate(self) -> None:
        """Check the structural invariants, raising GraphError on breach."""
        if len(self.adjacency_offset) != self.node_count + 1:
            raise GraphError("adjacency_offset length must be node_count + 1")
        offset = self.adjacency_offset
        if offset[0] != 0 or np.any(offset[1:] < offset[:-1]):
            raise GraphError("adjacency_offset must be nondecreasing from 0")
        if int(self.adjacency_offset[-1]) != self.slot_count:
            raise GraphError("adjacency_offset must end at the slot count")
        m = self.slot_count
        for arr, name in ((self.edge_weight, "edge_weight"),
                          (self.edge_direction, "edge_direction"),
                          (self.pair_slot, "pair_slot")):
            if len(arr) != m:
                raise GraphError(f"{name} length mismatch")
        if m and (np.min(self.adjacent_nodes) < 0
                  or np.max(self.adjacent_nodes) >= self.node_count):
            raise GraphError("adjacency target out of range")
        if not np.all(np.isfinite(self.edge_weight) & (self.edge_weight > 0)):
            raise GraphError("edge weights must be finite and positive")
        starts = self.slot_source
        for j in range(m):
            b = int(self.pair_slot[j])
            if b < 0 or b >= m or int(self.pair_slot[b]) != j:
                raise GraphError(f"slot {j}: partner index not an involution")
            if int(self.adjacent_nodes[b]) != int(starts[j]):
                raise GraphError(f"slot {j}: partner does not point back")
            if int(starts[b]) != int(self.adjacent_nodes[j]):
                raise GraphError(f"slot {j}: partner not owned by the target")
            if bool(self.edge_direction[b]) == bool(self.edge_direction[j]):
                raise GraphError(f"slot {j}: partner must have the opposite direction")


class GraphBuilder:
    """Accumulates nodes and links, then freezes them into a DataGraph."""

    def __init__(self) -> None:
        self._prestige: list[float] = []
        # link columns (u, v, w_fwd, w_bwd, positions or None), u -> v the
        # FK direction, in insertion order
        self._chunks: list[tuple] = []

    def add_node(self, prestige: float = 0.0) -> int:
        self._prestige.append(prestige)
        return len(self._prestige) - 1

    def add_nodes(self, prestige: np.ndarray) -> range:
        """Add one node per prestige value; returns their ids."""
        first = len(self._prestige)
        self._prestige.extend(np.asarray(prestige, dtype=np.float64).tolist())
        return range(first, len(self._prestige))

    def add_link(self, u: int, v: int, forward_weight: float,
                 backward_weight: float) -> None:
        self.add_links([u], [v], [forward_weight], [backward_weight])

    def add_links(self, u, v, w_fwd, w_bwd, positions=None) -> None:
        """Add a link ``u -> v`` for every row of four equal-length columns,
        in order; nothing is added when a row fails a check.  ``positions``
        rows rank each link's forward slot in ``u``'s span and its backward
        slot in ``v``'s, for every link of the builder or for none."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        wf = np.asarray(w_fwd, dtype=np.float64)
        wb = np.asarray(w_bwd, dtype=np.float64)
        if not u.shape == v.shape == wf.shape == wb.shape or u.ndim != 1:
            raise GraphError("link columns must be one-dimensional and "
                             "of equal length")
        pos = None if positions is None else np.asarray(positions, dtype=np.int64)
        if pos is not None and pos.shape != (len(u), 2) \
                or self._chunks and (pos is None) != (self._chunks[0][4] is None):
            raise GraphError("slot positions must be one pair per link, "
                             "given for every link or for none")
        n = len(self._prestige)
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphError(f"link ({u[i]}, {v[i]}) references an unknown node")
        if not (np.isfinite(wf).all() and np.isfinite(wb).all()):
            raise GraphError("link weights must be finite")
        if (wf <= 0).any() or (wb <= 0).any():
            raise GraphError("link weights must be positive")
        self._chunks.append((u, v, wf, wb, pos))

    def build(self) -> DataGraph:
        """Freeze into a DataGraph.

        Every link ``i`` is two events, ``2i`` its forward slot at ``u`` and
        ``2i + 1`` its backward slot at ``v``.  One sort of the events by
        (owner, position) lays out every span.  Without positions an event's
        position is its number: links in insertion order, a self-loop's
        forward slot before its backward one.
        """
        n = len(self._prestige)
        chunks = self._chunks or [(np.zeros(0, dtype=np.int64),) * 2
                                  + (np.zeros(0),) * 2 + (None,)]
        u, v, wf, wb = (col[0] if len(col) == 1 else np.concatenate(col)
                        for col in list(zip(*chunks))[:4])
        m = 2 * len(u)
        owner = np.empty(m, dtype=np.int64)        # event -> node
        owner[0::2], owner[1::2] = u, v
        weight = np.empty(m, dtype=np.float32)
        weight[0::2], weight[1::2] = wf, wb
        position = (np.arange(m) if chunks[0][4] is None
                    else np.concatenate([c[4] for c in chunks]).reshape(-1))
        # slot -> event; the keys differ, as positions do within a span
        order = np.argsort(owner * (int(position.max(initial=0)) + 1) + position)
        slot = np.empty(m, dtype=np.int64)         # event -> slot
        slot[order] = np.arange(m, dtype=np.int64)
        partner = order ^ 1                        # slot -> the link's other event
        offset = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n), out=offset[1:])
        return DataGraph(
            node_count=n,
            prestige=np.asarray(self._prestige, dtype=np.float32),
            adjacency_offset=offset,
            adjacent_nodes=owner[partner],
            edge_weight=weight[order],
            edge_direction=order % 2 == 0,
            pair_slot=slot[partner],
        )


def estimate_memory(nodes: int, edges: int) -> int:
    """Bytes needed to hold a graph of the given size in the flat arrays.

    Five 4-byte values per node and three per adjacency slot.
    """
    if nodes < 0 or edges < 0:
        raise ValueError("node and edge counts must be nonnegative")
    return BYTES_PER_NODE * nodes + BYTES_PER_EDGE * edges


def assign_backward_weights(g: DataGraph,
                            default: float = DEFAULT_FORWARD_WEIGHT) -> DataGraph:
    """Reweight every backward slot as ln(1 + in-degree), floored at ``default``.

    The in-degree charged is that of the slot's target, the *referencing*
    row, not of the referenced row that owns the slot.  ``synth``'s
    referencing rows (``writes``, ``cites``) are never referenced, so
    ln(1 + 0) = 0 is lifted to ``default`` for every ``synth`` backward
    slot.  BANKS charges the referenced row's in-degree; direction 1 of
    ROADMAP.md plans that change.  Mutates and returns ``g``.
    """
    indeg = g.in_degree
    # math.log1p per distinct degree keeps the weights bit-identical on
    # every platform, which a vectorised log1p does not promise
    weight = np.array([max(math.log1p(d), default)
                       for d in range(int(indeg.max(initial=0)) + 1)],
                      dtype=np.float32)
    back = ~g.edge_direction
    g.edge_weight[back] = weight[indeg[g.adjacent_nodes[back]]]
    return g


def parse_schema(path: str | Path) -> IngestSpec:
    """Read a schema description file.

    Lines::

        table <name> text=<col,col,...> [prestige=<col>]
        fk <table>.<column> -> <table>.<column>
        default_weight <value>

    Blank lines and lines starting with ``#`` are skipped.
    """
    path = Path(path)
    tables: list[TableSpec] = []
    fks: list[ForeignKey] = []
    default = DEFAULT_FORWARD_WEIGHT
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "table":
                name = parts[1]
                if any(t.name == name for t in tables):
                    raise IngestError(f"{path}:{lineno}: table {name!r} declared twice")
                text_cols: tuple[str, ...] = ()
                prestige_col = None
                for extra in parts[2:]:
                    key, _, value = extra.partition("=")
                    if key == "text":
                        text_cols = tuple(c for c in value.split(",") if c)
                    elif key == "prestige":
                        prestige_col = value or None
                    else:
                        raise IngestError(f"{path}:{lineno}: unknown table option {key!r}")
                tables.append(TableSpec(name, text_cols, prestige_col))
            elif kind == "fk":
                if parts[2] != "->":
                    raise IndexError
                src = parts[1].split(".")
                dst = parts[3].split(".")
                fks.append(ForeignKey(src[0], src[1], dst[0], dst[1]))
            elif kind == "default_weight":
                default = float(parts[1])
                if not (math.isfinite(default) and default > 0):
                    raise IngestError(f"{path}:{lineno}: default_weight must be "
                                      f"finite and positive, got {parts[1]!r}")
            else:
                raise IngestError(f"{path}:{lineno}: unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise IngestError(f"{path}:{lineno}: malformed line {line!r}") from exc
    if not tables:
        raise IngestError(f"{path}: no tables declared")
    return IngestSpec(tables, fks, default)


def _read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    r"""The header and the columns of a UTF-8 TSV file.

    A line ends at ``\n``, ``\r\n`` or a lone ``\r`` and nowhere else,
    so a cell may hold ``\x0c``, ``\x85`` or ``\u2028``.  Blank lines are
    skipped; every other line must hold as many tab-separated cells as the
    header, which must name each column once.  Line ends and tabs are
    counted per line on the bytes, the text is split once at line ends,
    and the body once at tabs, so each column is a stride of one cell list.
    """
    if not path.exists():
        raise IngestError(f"missing data file {path}")
    data = path.read_bytes()
    if b"\r" in data:   # as in text mode; in UTF-8 these bytes are only themselves
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise IngestError(f"{path}:{line}: not UTF-8 text, byte "
                          f"{data[exc.start]:#04x} ({exc.reason})") from None
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.append(np.flatnonzero(raw == ord("\n")), len(raw))
    tabs = np.diff(np.searchsorted(np.flatnonzero(raw == ord("\t")), ends),
                   prepend=0)
    filled = np.diff(ends, prepend=-1) > 1
    del raw, data
    lines = text.split("\n")
    del text
    header = lines[0].split("\t")
    if len(set(header)) < len(header):
        name = next(c for i, c in enumerate(header) if c in header[:i])
        raise IngestError(f"{path}:1: header names column {name!r} twice")
    filled[0] = False
    wrong = np.flatnonzero(filled & (tabs != len(header) - 1))
    if len(wrong):
        line = int(wrong[0])
        raise IngestError(f"{path}:{line + 1}: expected {len(header)} "
                          f"columns, got {tabs[line] + 1}")
    if header == [""]:
        raise IngestError(f"{path}: missing header row")
    body = list(filter(None, lines[1:]))
    del lines
    cells = "\t".join(body).split("\t") if body else []
    del body
    return header, [cells[i::len(header)] for i in range(len(header))]


@dataclass
class IngestResult:
    graph: DataGraph
    meta: NodeMeta
    warnings: list[str] = field(default_factory=list)


@dataclass
class _Table:
    """One loaded table: its first node id, its row count and the columns
    a foreign key reads."""

    name: str
    first_id: int
    rows: int
    columns: dict[str, list[str]]

    def column(self, name: str) -> list[str]:
        if name not in self.columns:
            raise IngestError(
                f"{self.name}: foreign-key column {name!r} not in header")
        return self.columns[name]


def _prestige_column(table: str, cells: list[str]) -> np.ndarray:
    """A prestige column as float64; the first cell that is not a finite
    float raises, naming its row."""
    values = np.array([_float_or_nan(raw) for raw in cells], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raw = cells[bad[0]]
        raise IngestError(f"{table}.tsv:{bad[0] + 2}: bad prestige value {raw!r}")
    return values


def _float_or_nan(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _first_row_ids(table: _Table, column: str) -> dict[str, int]:
    """Value -> node id of the first row holding it; empty cells map nowhere."""
    cells = table.column(column)
    last = table.first_id + table.rows - 1
    ids = dict(zip(reversed(cells), range(last, table.first_id - 1, -1)))
    ids.pop("", None)
    return ids


def ingest(spec: IngestSpec, data_dir: str | Path) -> IngestResult:
    """Load ``<table>.tsv`` files and build the tuple graph.

    Node ids are assigned table by table in declaration order, row by row
    in file order.  Prestige comes from the table's prestige column when
    declared, otherwise it defaults to the node's foreign-key in-degree.
    Dangling references are skipped with a warning; malformed rows raise.
    Each table's nodes, texts and keys are added as columns, and each
    foreign-key column is joined through one dict per referenced column,
    whose value -> node id entries come from the first row holding a value.
    """
    data_dir = Path(data_dir)
    warnings: list[str] = []
    builder = GraphBuilder()
    node_text: list[str] = []
    node_key: list[str] = []
    tables: dict[str, _Table] = {}
    explicit_prestige: list[tuple[range, np.ndarray]] = []
    row_counts: list[int] = []
    fk_columns = [(fk.from_table, fk.from_column) for fk in spec.foreign_keys] \
        + [(fk.to_table, fk.to_column) for fk in spec.foreign_keys]

    for table in spec.tables:
        header, columns = _read_tsv(data_dir / f"{table.name}.tsv")
        by_name = dict(zip(header, columns))
        for col in table.text_columns:
            if col not in by_name:
                raise IngestError(f"{table.name}: text column {col!r} not in header")
        if table.prestige_column and table.prestige_column not in by_name:
            raise IngestError(
                f"{table.name}: prestige column {table.prestige_column!r} not in header")
        rows = len(columns[0])
        row_counts.append(rows)
        nodes = builder.add_nodes(np.zeros(rows))
        text = [by_name[c] for c in table.text_columns]
        if len(text) == 1:
            node_text.extend(text[0])
        else:
            node_text.extend(map(" ".join, zip(*text)) if text else [""] * rows)
        node_key.extend(columns[0])
        if table.prestige_column:
            explicit_prestige.append(
                (nodes, _prestige_column(table.name, by_name[table.prestige_column])))
        tables[table.name] = _Table(
            table.name, nodes.start, rows,
            {c: by_name[c] for t, c in fk_columns if t == table.name and c in by_name})

    lookups: dict[tuple[str, str], dict[str, int]] = {}
    sources = [np.zeros(0, dtype=np.int64)]
    targets = [np.zeros(0, dtype=np.int64)]
    for fk in spec.foreign_keys:
        if fk.from_table not in tables or fk.to_table not in tables:
            raise IngestError(f"foreign key references unknown table: {fk}")
        key = (fk.to_table, fk.to_column)
        if key not in lookups:
            lookups[key] = _first_row_ids(tables[fk.to_table], fk.to_column)
        table = tables[fk.from_table]
        cells = table.column(fk.from_column)
        target = np.fromiter(map(lookups[key].get, cells, itertools.repeat(-1)),
                             dtype=np.int64, count=table.rows)
        for i in np.flatnonzero(target < 0).tolist():
            if cells[i]:
                warnings.append(
                    f"{fk.from_table}.tsv row {i + 2}: dangling reference "
                    f"{fk.from_column}={cells[i]!r} -> {fk.to_table}.{fk.to_column}")
        found = np.flatnonzero(target >= 0)
        sources.append(table.first_id + found)
        targets.append(target[found])

    source, target = np.concatenate(sources), np.concatenate(targets)
    w = np.full(len(source), spec.forward_weight_default)
    builder.add_links(source, target, w, w)
    graph = builder.build()
    graph.prestige[:] = graph.in_degree
    for nodes, values in explicit_prestige:
        graph.prestige[nodes.start:nodes.stop] = values
    meta = NodeMeta(
        relation_names=[t.name for t in spec.tables],
        node_relation=np.repeat(np.arange(len(spec.tables), dtype=np.uint16),
                                row_counts),
        node_text=node_text,
        node_key=node_key,
    )
    return IngestResult(graph, meta, warnings)


def prune_transitive(g: DataGraph, spec: IngestSpec,
                     node_relation: np.ndarray) -> tuple[DataGraph, np.ndarray]:
    """Remove nodes of relations that carry no text, preserving distances.

    ``node_relation`` holds each node's relation id, as in ``NodeMeta``.
    Removed nodes are spliced out in id order: every pair of links meeting
    at one, taken in link order, composes a direct link between their far
    ends whose per-direction costs are the float64 path sums.  A pair whose
    far ends coincide composes nothing, so no self-loop is made.  The new
    graph holds the links between surviving nodes in ``links()`` order,
    then one link per composed node pair, placed where its first
    composition was made and carrying each direction's minimum over all of
    them, rounded to float32 once.  Returns the new graph and an old->new
    node id map (-1 for removed).
    """
    prunable = [i for i, t in enumerate(spec.tables) if not t.has_text]
    if not prunable:
        remap = np.arange(g.node_count, dtype=np.int64)
        return g, remap

    n = g.node_count
    keep = ~np.isin(node_relation, prunable)
    source, target = g.slot_source, g.adjacent_nodes
    fwd = np.flatnonzero(g.edge_direction)      # link i is forward slot fwd[i]
    link = np.empty(g.slot_count, dtype=np.int64)
    link[fwd] = link[g.pair_slot[fwd]] = np.arange(len(fwd))
    # a prunable node with a prunable neighbour (or a self-loop) sees links
    # that earlier splices made; every other one sees only its own links
    chained = np.zeros(n, dtype=bool)
    chained[source[~keep[source] & ~keep[target]]] = True
    simple = ~keep & ~chained

    # per simple node, its slots in link order: far end, cost in, cost out
    slots = np.flatnonzero(simple[source])
    slots = slots[np.lexsort((link[slots], source[slots]))]
    far = target[slots]
    cost_in = g.edge_weight[g.pair_slot[slots]].astype(np.float64)
    cost_out = g.edge_weight[slots].astype(np.float64)
    degree = np.bincount(source[slots], minlength=n)
    start = np.cumsum(degree) - degree
    cols: list[tuple[np.ndarray, ...]] = []     # (at, pair, a, b, ab, ba)
    for d in np.unique(degree[simple]).tolist():
        if d < 2:
            continue
        at = np.flatnonzero(simple & (degree == d))
        ai, bi = np.triu_indices(d, 1)
        ja, jb = start[at, None] + ai, start[at, None] + bi
        a, b = far[ja].ravel(), far[jb].ravel()
        made = a != b
        cols.append((np.repeat(at, len(ai))[made],
                     np.tile(np.arange(len(ai)), len(at))[made], a[made], b[made],
                     (cost_in[ja] + cost_out[jb]).ravel()[made],
                     (cost_in[jb] + cost_out[ja]).ravel()[made]))
    cols.append(_splice_chains(g, keep, chained, link))

    # merge parallel compositions: in order of creation, one link per node
    # pair at its first composition with each direction's minimum; only the
    # cheapest can lie on a shortest path, and keeping them all would grow
    # exponentially on chains
    at, pair, a, b, ab, ba = map(np.concatenate, zip(*cols))
    order = np.lexsort((pair, at))
    a, b, ab, ba = a[order], b[order], ab[order], ba[order]
    flip = a > b
    lo, hi = np.where(flip, b, a), np.where(flip, a, b)
    _, first, group = np.unique(lo * n + hi, return_index=True,
                                return_inverse=True)
    w_lo = np.full(len(first), np.inf)
    w_hi = np.full(len(first), np.inf)
    np.minimum.at(w_lo, group, np.where(flip, ba, ab))
    np.minimum.at(w_hi, group, np.where(flip, ab, ba))
    by_first = np.argsort(first)

    remap = np.full(n, -1, dtype=np.int64)
    builder = GraphBuilder()
    remap[keep] = builder.add_nodes(g.prestige[keep])
    u, v = source[fwd], target[fwd]
    kept = keep[u] & keep[v]
    builder.add_links(remap[u[kept]], remap[v[kept]], g.edge_weight[fwd[kept]],
                      g.edge_weight[g.pair_slot[fwd[kept]]])
    first = first[by_first]
    builder.add_links(remap[lo[first]], remap[hi[first]],
                      w_lo[by_first].astype(np.float32),
                      w_hi[by_first].astype(np.float32))
    return builder.build(), remap


def _splice_chains(g: DataGraph, keep: np.ndarray, chained: np.ndarray,
                   link: np.ndarray) -> tuple[np.ndarray, ...]:
    """Splice the ``chained`` prunable nodes one at a time, in id order.

    Their links to other prunable nodes change as earlier splices compose
    and merge them, so this runs sequentially over mutable link records.
    A composition joining two kept nodes is returned as a column row
    ``(at, pair, a, b, cost_ab, cost_ba)`` instead: no splice reads a link
    between kept nodes, so those merge with the rest at the end.
    """
    slots = np.flatnonzero(chained[g.slot_source])
    fwd = np.unique(np.where(g.edge_direction[slots], slots, g.pair_slot[slots]))
    # link id -> [u, v, w_uv, w_vu]; composed links get ids past the originals
    rows = {i: [u, v, wf, wb] for i, u, v, wf, wb in zip(
        link[fwd].tolist(), g.slot_source[fwd].tolist(),
        g.adjacent_nodes[fwd].tolist(), g.edge_weight[fwd].tolist(),
        g.edge_weight[g.pair_slot[fwd]].tolist())}
    incident: dict[int, set[int]] = {x: set() for x in np.flatnonzero(chained).tolist()}
    for i, (u, v, _, _) in rows.items():
        for end in (u, v):
            if end in incident:
                incident[end].add(i)
    composed: dict[tuple[int, int], int] = {}
    next_id = len(link) // 2
    is_kept = keep.tolist()
    out: list[tuple] = []
    for x in sorted(incident):
        ends = []   # (far end, cost into x, cost out of x), in link order
        for i in sorted(incident.pop(x)):
            u, v, w_uv, w_vu = rows.pop(i)
            ends.append((v, w_vu, w_uv) if u == x else (u, w_uv, w_vu))
            if ends[-1][0] in incident:
                incident[ends[-1][0]].discard(i)
        pair = 0
        for ai, (a, a_in, a_out) in enumerate(ends):
            if a == x:
                continue
            for b, b_in, b_out in ends[ai + 1:]:
                if b == x or b == a:
                    continue
                ab, ba = a_in + b_out, b_in + a_out
                if is_kept[a] and is_kept[b]:
                    out.append((x, pair, a, b, ab, ba))
                    pair += 1
                    continue
                lo, hi, w_lo, w_hi = (a, b, ab, ba) if a < b else (b, a, ba, ab)
                row = rows.get(composed.get((lo, hi), -1))
                if row is not None:
                    row[2], row[3] = min(row[2], w_lo), min(row[3], w_hi)
                    continue
                rows[next_id] = [lo, hi, w_lo, w_hi]
                composed[(lo, hi)] = next_id
                for end in (lo, hi):
                    if end in incident:
                        incident[end].add(next_id)
                next_id += 1
    return tuple(np.array([row[c] for row in out],
                          dtype=np.int64 if c < 4 else np.float64)
                 for c in range(6))


def apply_remap(meta: NodeMeta, remap: np.ndarray) -> NodeMeta:
    """Project node metadata through a prune remap."""
    keep = np.flatnonzero(remap >= 0).tolist()
    return NodeMeta(
        relation_names=list(meta.relation_names),
        node_relation=meta.node_relation[keep],
        node_text=[meta.node_text[i] for i in keep],
        node_key=[meta.node_key[i] for i in keep],
    )


def build_graph(spec: IngestSpec, data_dir: str | Path,
                prune: bool = True) -> tuple[DataGraph, NodeMeta, list[str]]:
    """Full ingest pipeline: load, weight backward slots, prune key-only nodes."""
    result = ingest(spec, data_dir)
    graph = assign_backward_weights(result.graph, spec.forward_weight_default)
    meta = result.meta
    if prune:
        graph, remap = prune_transitive(graph, spec, meta.node_relation)
        meta = apply_remap(meta, remap)
    return graph, meta, result.warnings
