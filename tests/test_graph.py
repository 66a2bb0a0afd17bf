"""Tuple-graph construction: builder, ingest, weights, pruning."""

import math
import random

import numpy as np
import pytest

from embanks.graph import (BYTES_PER_EDGE, BYTES_PER_NODE, DataGraph,
                           ForeignKey, GraphBuilder, GraphError, IngestError,
                           IngestSpec, TableSpec, apply_remap,
                           assign_backward_weights, build_graph,
                           estimate_memory, ingest, parse_schema,
                           prune_transitive)

from embanks.keywords import build_index

from conftest import WEIGHT_GRID, random_graph, with_self_loops
from oracles import (assert_same_graph, build_graph_reference,
                     build_index_reference, dijkstra_oracle, graph_adjacency,
                     ingest_reference, prune_transitive_reference)


def test_memory_estimate_reference_points():
    assert estimate_memory(1_000_000, 10_000_000) == 140_000_000
    assert estimate_memory(500_000, 5_000_000) == 70_000_000
    assert estimate_memory(0, 0) == 0
    assert estimate_memory(3, 7) == 3 * BYTES_PER_NODE + 7 * BYTES_PER_EDGE


def test_pair_slots_are_an_involution(rng):
    edgeless = 0
    for trial in range(14):
        # the last four graphs skip the spanning tree, so nodes can be edgeless
        g = random_graph(rng, rng.randint(2, 25), connected=trial < 10)
        g.validate()
        edgeless += int(np.count_nonzero(np.diff(g.adjacency_offset) == 0))
        owner = np.repeat(np.arange(g.node_count), np.diff(g.adjacency_offset))
        assert np.array_equal(g.slot_source, owner)
        for j in range(g.slot_count):
            b = int(g.pair_slot[j])
            assert int(g.pair_slot[b]) == j
            assert bool(g.edge_direction[j]) != bool(g.edge_direction[b])
            assert int(g.adjacent_nodes[j]) == int(owner[b])
            assert int(g.adjacent_nodes[b]) == int(owner[j])
    assert edgeless > 0


def test_add_link_rejects_bad_weights():
    b = GraphBuilder()
    u, v = b.add_node(), b.add_node()
    for wf, wb in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                   (1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(GraphError):
            b.add_link(u, v, wf, wb)
    assert b.build().slot_count == 0


def test_builder_matches_per_link_reference(rng):
    """The array build lays out slots as the per-link loop does, whether
    links arrive one at a time, as columns, or both interleaved; the graphs
    have self-loops, parallel links and a node with no link."""
    for trial in range(40):
        n = rng.randint(1, 12)
        prestige = [float(rng.randint(0, 5)) for _ in range(n + 1)]
        links = [(rng.randrange(n), rng.randrange(n), rng.choice(WEIGHT_GRID),
                  rng.choice(WEIGHT_GRID)) for _ in range(rng.randint(0, 3 * n))]
        u = rng.randrange(n)
        links.insert(rng.randint(0, len(links)), (u, u, 0.25, 4.0))
        b = GraphBuilder()
        if trial % 2:
            b.add_nodes(np.array(prestige, dtype=np.float32))
        else:
            for x in prestige:
                b.add_node(x)
        i = 0
        while i < len(links):
            take = rng.randint(1, 4)
            chunk = links[i:i + take]
            if rng.random() < 0.5:
                b.add_links(*(np.array(col) for col in zip(*chunk)))
            else:
                for link in chunk:
                    b.add_link(*link)
            i += take
        g = b.build()
        g.validate()
        assert_same_graph(g, build_graph_reference(prestige, links))
        assert g.slot_count == 2 * len(links)
        assert g.adjacency_offset[-1] == g.adjacency_offset[-2]  # node n


def test_empty_builder_matches_reference():
    b = GraphBuilder()
    assert_same_graph(b.build(), build_graph_reference([], []))
    b.add_node(2.0)
    b.add_links([], [], [], [])
    assert_same_graph(b.build(), build_graph_reference([2.0], []))


def test_builder_lays_slots_out_by_position(rng):
    """With slot positions, every node's slots go in ascending position,
    whatever order and chunks the links come in; positions must be one
    pair per link, given for all links or for none."""
    for trial in range(40):
        g = random_graph(rng, rng.randint(1, 15), extra_links=rng.randint(0, 8))
        if trial % 2:
            g = with_self_loops(rng, g, 2)
        links = list(g.links())
        fwd = np.flatnonzero(g.edge_direction)
        back = g.pair_slot[fwd]
        at = g.adjacency_offset
        pos = np.stack([fwd - at[g.slot_source[fwd]],
                        back - at[g.adjacent_nodes[fwd]]], axis=1)
        shuffled = rng.sample(range(len(links)), len(links))
        b = GraphBuilder()
        b.add_nodes(g.prestige)
        while shuffled:
            take = rng.randint(1, 4)
            chunk, shuffled = shuffled[:take], shuffled[take:]
            b.add_links(*(np.array([links[i][c] for i in chunk]) for c in range(4)),
                        pos[chunk])
        got = b.build()
        assert_same_graph(got, build_graph_reference(g.prestige, links, pos))
        for name in ("adjacency_offset", "adjacent_nodes", "edge_weight",
                     "edge_direction", "pair_slot"):
            assert np.array_equal(getattr(got, name), getattr(g, name)), name
    b = GraphBuilder()
    b.add_nodes(np.ones(3))
    with pytest.raises(GraphError, match="one pair per link"):
        b.add_links([0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0], [[0, 0]])
    b.add_links([0], [1], [1.0], [1.0], [[0, 0]])
    with pytest.raises(GraphError, match="for every link or for none"):
        b.add_links([1], [2], [1.0], [1.0])


def test_add_links_rejects_like_add_link():
    b = GraphBuilder()
    b.add_nodes(np.ones(3))
    good = ([0, 1], [1, 2], [1.0, 2.0], [1.0, 1.0])
    bad = [
        (([0, 3], [1, 2]), "unknown node"),
        (([-1, 1], [1, 2]), "unknown node"),
        (([0, 1], [1, 7]), "unknown node"),
    ]
    for (u, v), message in bad:
        with pytest.raises(GraphError, match=message):
            b.add_links(u, v, *good[2:])
    for col in (2, 3):
        for value in (math.nan, math.inf, 0.0, -1.0):
            cols = [list(c) for c in good]
            cols[col][1] = value
            with pytest.raises(GraphError):
                b.add_links(*cols)
    with pytest.raises(GraphError):
        b.add_links([0, 1], [1], [1.0], [1.0])
    assert b.build().slot_count == 0
    b.add_links(*good)
    assert b.build().slot_count == 4


def test_validate_rejects_broken_pairing(rng):
    g = random_graph(rng, 8)
    g.pair_slot[0] = 0
    with pytest.raises(GraphError):
        g.validate()


def test_validate_rejects_nonpositive_weight(rng):
    for bad in (0.0, float("nan"), float("inf")):
        g = random_graph(rng, 8)
        g.edge_weight[3] = bad
        with pytest.raises(GraphError):
            g.validate()


def test_backward_weights_formula(rng):
    """Backward slot weight is max(ln(1 + fk in-degree of target), default)."""
    for _ in range(15):
        b = GraphBuilder()
        n = rng.randint(2, 20)
        for _ in range(n):
            b.add_node()
        links = []
        for _ in range(rng.randint(1, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            links.append((u, v))
            b.add_link(u, v, 1.0, 1.0)
        if not links:
            continue
        default = rng.choice([0.5, 1.0, 2.0])
        g = assign_backward_weights(b.build(), default)
        indeg = [0] * n
        for _, v in links:
            indeg[v] += 1
        # the backward slot of link u -> v points at u, so u's fk in-degree
        # sets its cost
        for u, v, w_fwd, w_bwd in g.links():
            assert w_fwd == 1.0
            expected = np.float32(max(math.log1p(indeg[u]), default))
            assert np.float32(w_bwd) == expected


# --- ingest -----------------------------------------------------------------


SCHEMA = """\
# people and places
table person text=name prestige=fame
table city text=city,state
table visit
fk person.home -> city.id
fk visit.who -> person.id
fk visit.where -> city.id
default_weight 1.0
"""


def _write_corpus(tmp_path):
    (tmp_path / "schema.txt").write_text(SCHEMA)
    (tmp_path / "person.tsv").write_text(
        "id\tname\tfame\thome\n"
        "p1\talice\t2.5\tc1\n"
        "p2\tbob\t0.5\tc9\n")
    (tmp_path / "city.tsv").write_text(
        "id\tcity\tstate\n"
        "c1\tspringfield\til\n"
        "c2\tshelbyville\til\n")
    (tmp_path / "visit.tsv").write_text(
        "id\twho\twhere\n"
        "v1\tp1\tc2\n"
        "v2\tp2\tc1\n"
        "v3\t\tc1\n"
        "v4\tp9\tc2\n")
    return tmp_path


def test_ingest_small_corpus(tmp_path):
    corpus = _write_corpus(tmp_path)
    spec = parse_schema(corpus / "schema.txt")
    result = ingest(spec, corpus)
    g, meta = result.graph, result.meta

    assert g.node_count == 8  # 2 person + 2 city + 4 visit
    assert meta.node_key == ["p1", "p2", "c1", "c2", "v1", "v2", "v3", "v4"]
    assert meta.node_text[:4] == ["alice", "bob", "springfield il",
                                  "shelbyville il"]
    assert meta.relation_names == ["person", "city", "visit"]
    assert list(meta.node_relation) == [0, 0, 1, 1, 2, 2, 2, 2]

    links = {(u, v) for u, v, *_ in g.links()}
    # p2's home is dangling, v3's who is empty, v4's who is dangling
    assert links == {(0, 2), (4, 0), (4, 3), (5, 1), (5, 2), (6, 2), (7, 3)}
    assert len(result.warnings) == 2
    assert any("c9" in w for w in result.warnings)
    assert any("p9" in w for w in result.warnings)

    # explicit prestige wins; everyone else gets fk in-degree
    assert g.prestige[0] == np.float32(2.5)
    assert g.prestige[1] == np.float32(0.5)
    assert g.prestige[2] == 3.0  # c1: person home + v2 + v3
    assert g.prestige[3] == 2.0  # c2: v1 + v4
    assert all(g.prestige[i] == 0.0 for i in (4, 5, 6, 7))


def test_ingest_duplicate_keys_first_wins(tmp_path):
    (tmp_path / "schema.txt").write_text(
        "table a text=t\ntable b text=t\nfk b.ref -> a.id\n")
    (tmp_path / "a.tsv").write_text("id\tt\nx\tfirst\nx\tsecond\n")
    (tmp_path / "b.tsv").write_text("id\tt\tref\nb1\thello\tx\n")
    result = ingest(parse_schema(tmp_path / "schema.txt"), tmp_path)
    links = list(result.graph.links())
    assert len(links) == 1
    assert links[0][:2] == (2, 0)


def test_ingest_rejects_nonfinite_prestige(tmp_path):
    (tmp_path / "schema.txt").write_text("table a text=t prestige=p\n")
    spec = parse_schema(tmp_path / "schema.txt")
    for bad in ("nan", "inf", "-inf", "NaN"):
        (tmp_path / "a.tsv").write_text(f"id\tt\tp\nr1\tok\t1.5\nr2\tbad\t{bad}\n")
        with pytest.raises(IngestError, match=f"a.tsv:3: bad prestige value '{bad}'"):
            ingest(spec, tmp_path)


def test_parse_schema_errors(tmp_path):
    def parse(text):
        p = tmp_path / "s.txt"
        p.write_text(text)
        return parse_schema(p)

    with pytest.raises(IngestError):
        parse("fk a.b -> c.d\n")  # no tables
    with pytest.raises(IngestError):
        parse("table a\nfk a.b c.d\n")  # missing arrow
    with pytest.raises(IngestError):
        parse("table a colour=red\n")  # unknown option
    with pytest.raises(IngestError):
        parse("grable a\n")  # unknown directive
    with pytest.raises(IngestError):
        parse("table a\ndefault_weight heavy\n")  # non-numeric
    for bad in ("nan", "inf", "-inf", "0", "-1.5"):
        with pytest.raises(IngestError, match="s.txt:2"):
            parse(f"table a\ndefault_weight {bad}\n")
    with pytest.raises(IngestError, match="s.txt:3: table 'a' declared twice"):
        parse("table a text=t\ntable b\ntable a text=t\n")

    spec = parse("table a text=x,y prestige=p\ndefault_weight 2.5\n")
    assert spec.tables[0].text_columns == ("x", "y")
    assert spec.tables[0].prestige_column == "p"
    assert spec.forward_weight_default == 2.5


def test_tsv_errors(tmp_path):
    (tmp_path / "schema.txt").write_text("table a text=t\n")
    spec = parse_schema(tmp_path / "schema.txt")
    with pytest.raises(IngestError, match="missing data file"):
        ingest(spec, tmp_path)
    (tmp_path / "a.tsv").write_text("id\tt\nrow1\tone\ttoo-many\n")
    with pytest.raises(IngestError, match="a.tsv:2"):
        ingest(spec, tmp_path)
    (tmp_path / "a.tsv").write_text("")
    with pytest.raises(IngestError, match="header"):
        ingest(spec, tmp_path)
    (tmp_path / "a.tsv").write_text("id\tt\nr1\tok\n")
    (tmp_path / "schema.txt").write_text("table a text=missing\n")
    with pytest.raises(IngestError, match="missing"):
        ingest(parse_schema(tmp_path / "schema.txt"), tmp_path)


def test_tsv_header_naming_a_column_twice_is_rejected(tmp_path):
    """Keys, texts and prestige would read one copy of the column and
    foreign keys the other."""
    (tmp_path / "schema.txt").write_text(
        "table a text=title\ntable b text=t\nfk b.ref -> a.id\n")
    (tmp_path / "a.tsv").write_text("id\ttitle\tid\nx1\tone\ty1\n")
    (tmp_path / "b.tsv").write_text("id\tt\tref\nb1\thello\ty1\n")
    spec = parse_schema(tmp_path / "schema.txt")
    with pytest.raises(IngestError, match=r"a\.tsv:1: header names column 'id' twice"):
        ingest(spec, tmp_path)


def test_tsv_that_is_not_utf8_is_rejected_with_its_line(tmp_path):
    """The line number counts ``\\r\\n`` and a lone ``\\r`` as one line end
    each, as a file read in text mode does."""
    (tmp_path / "schema.txt").write_text("table a text=t\n")
    spec = parse_schema(tmp_path / "schema.txt")
    for body, line in ((b"id\tt\nr1\tcaf\xe9\n", 2),
                       (b"id\tt\r\nr1\tok\r\rr2\tcaf\xe9\r\n", 4),
                       (b"id\t\xff\n", 1)):
        (tmp_path / "a.tsv").write_bytes(body)
        with pytest.raises(IngestError, match=rf"a\.tsv:{line}: not UTF-8 text"):
            ingest(spec, tmp_path)


def _random_table_dir(rng, root, seen):
    """A schema and its TSV files, drawn to mix every case ``ingest`` must
    handle; returns the schema path and marks in ``seen`` the cases drawn.
    The file a wrong column count is planted in after a blank line is
    returned too, with the planted line's number."""
    root.mkdir()
    names = [f"t{i}" for i in range(rng.randint(1, 3))]
    columns = {t: ["id"] for t in names}
    schema = []
    for t in names:
        text = rng.sample(["a", "b", "c"], rng.choice([0, 1, 1, 2, 3]))
        columns[t] += text
        line = f"table {t}" + (f" text={','.join(text)}" if text else "")
        if rng.random() < 0.3:
            columns[t].append("p")
            line += " prestige=p"
        schema.append(line)
    for j in range(rng.randint(0, 3)):
        src, dst = rng.choice(names), rng.choice(names)
        to = rng.choice(["id", "id", columns[dst][-1]])
        if rng.random() < 0.97:
            columns[src].append(f"f{j}")
        schema.append(f"fk {src}.f{j} -> {dst}.{to}")
    (root / "schema.txt").write_text("\n".join(schema) + "\n")
    planted = None
    for t in names:
        header = columns[t][:1] + rng.sample(columns[t][1:], len(columns[t]) - 1)
        rows = []
        for _ in range(rng.choice([0, 1, 2, 4, 6, 8])):
            row = []
            for c in header:
                if c == "id":
                    row.append(f"k{rng.randrange(5)}")
                elif c == "p":
                    row.append(rng.choice(["1.5", "2", "-3", " 0.25 ", "1e2"]
                                          + ["nan", "x", ""] * (rng.random() < 0.05)))
                elif c.startswith("f"):
                    row.append(rng.choice(["", "k0", "k1", "k2", "k3", "zz", "word"]))
                else:
                    row.append(" ".join(rng.choices(
                        ["Red", "blue", "gold", "", "a\x85b", "x\u2028y", "\x0cz",
                         "p\x1cq", "v\x0bw", "İron"], k=rng.randint(0, 3))))
            rows.append(row)
        seen["header-only table"] |= not rows
        seen["empty FK cell"] |= any(c.startswith("f") and not cell
                                     for r in rows for c, cell in zip(header, r))
        seen["duplicate key"] |= len({r[0] for r in rows}) < len(rows)
        seen["multi-column text"] |= bool(rows) and sum(
            c in "abc" for c in header) > 1
        lines = ["\t".join(header)] + ["\t".join(r) for r in rows]
        blank_before = False
        for i in range(len(lines) - 1, 0, -1):
            if rng.random() < 0.15:
                lines.insert(i, "")
        if len(lines) > 2 and rng.random() < 0.05:
            at = rng.randrange(1, len(lines))
            if lines[at]:
                if "\t" in lines[at] and rng.random() < 0.5:
                    lines[at] = lines[at].rsplit("\t", 1)[0]
                else:
                    lines[at] += "\textra"
                blank_before = "" in lines[1:at]
                if blank_before:
                    planted = (root / f"{t}.tsv", at + 1)
        end = rng.choice(["\n", "\n", "\r\n"])
        trailing = rng.random() < 0.8
        text = end.join(lines) + (end if trailing else "")
        (root / f"{t}.tsv").write_bytes(text.encode("utf-8"))
        seen["blank line"] |= "" in lines[1:]
        seen["CRLF"] |= end == "\r\n"
        seen["no trailing newline"] |= not trailing and len(lines) > 1
        seen["special character"] |= any(ch in text for ch in "\x85\u2028\x0c")
    return root / "schema.txt", planted


def test_ingest_matches_row_loop_reference(tmp_path):
    """The column-pass ingest equals the row loop it replaced on random
    table directories: every graph array and dtype, the node metadata, the
    warnings in order, or the IngestError message; the keyword index built
    from its metadata equals a per-node dict of sets."""
    rng = random.Random(2026)
    seen = dict.fromkeys(
        ["header-only table", "duplicate key", "multi-column text",
         "blank line", "CRLF", "no trailing newline", "special character",
         "empty FK cell", "dangling reference", "bad prestige",
         "wrong column count after a blank line", "built"], False)
    for trial in range(300):
        schema, planted = _random_table_dir(rng, tmp_path / str(trial), seen)
        spec = parse_schema(schema)
        try:
            want = ingest_reference(spec, schema.parent)
        except IngestError as exc:
            with pytest.raises(IngestError) as got:
                ingest(spec, schema.parent)
            assert str(got.value) == str(exc), trial
            seen["bad prestige"] |= "bad prestige value" in str(exc)
            seen["wrong column count after a blank line"] |= planted is not None \
                and str(exc).startswith(f"{planted[0]}:{planted[1]}: expected")
            continue
        got = ingest(spec, schema.parent)
        assert_same_graph(got.graph, want.graph)
        assert got.warnings == want.warnings, trial
        assert got.meta.relation_names == want.meta.relation_names
        assert got.meta.node_relation.dtype == want.meta.node_relation.dtype
        assert np.array_equal(got.meta.node_relation, want.meta.node_relation)
        assert got.meta.node_text == want.meta.node_text, trial
        assert got.meta.node_key == want.meta.node_key, trial
        index = build_index(got.meta)
        terms, offsets, ids = build_index_reference(want.meta)
        assert index.terms == terms
        for a, b in ((index.offsets, offsets), (index.ids, ids)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        seen["built"] = True
        seen["dangling reference"] |= any("dangling" in w for w in want.warnings)
    assert all(seen.values()), [case for case, hit in seen.items() if not hit]


# --- pruning ----------------------------------------------------------------


def _spec_with_textless(n_relations, textless):
    tables = [TableSpec(f"r{i}", () if i in textless else ("t",), None)
              for i in range(n_relations)]
    return IngestSpec(tables, [], 1.0)


def test_prune_two_link_composition():
    """A key-only node between two neighbors becomes one composed link."""
    b = GraphBuilder()
    a, w, c = b.add_node(1.0), b.add_node(0.0), b.add_node(1.0)
    b.add_link(w, a, 1.0, 2.0)
    b.add_link(w, c, 4.0, 8.0)
    # relation 1 is key-only
    g, remap = prune_transitive(b.build(), _spec_with_textless(2, {1}),
                                np.array([0, 1, 0]))

    assert g.node_count == 2
    assert remap[a] == 0 and remap[c] == 1 and remap[w] == -1
    links = list(g.links())
    assert len(links) == 1
    # a->c costs backward(w->a) + forward(w->c) = 2 + 4; c->a costs 8 + 1
    a_out = {t: wt for _, t, wt in g.out_edges(int(remap[a]))}
    c_out = {t: wt for _, t, wt in g.out_edges(int(remap[c]))}
    assert a_out == {int(remap[c]): 6.0}
    assert c_out == {int(remap[a]): 9.0}


def test_prune_preserves_distances(rng):
    """Shortest distances between surviving nodes are unchanged.

    Weights are quarter multiples so all path sums are exact floats and the
    equality can be literal.
    """
    for _ in range(20):
        n = rng.randint(4, 14)
        b = GraphBuilder()
        types = [rng.choice([0, 1]) for _ in range(n)]
        for i in range(n):
            b.add_node(1.0)
        for i in range(1, n):
            t = rng.randrange(i)
            u, v = (i, t) if rng.random() < 0.5 else (t, i)
            b.add_link(u, v, rng.choice(WEIGHT_GRID), rng.choice(WEIGHT_GRID))
        for _ in range(n // 2):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                b.add_link(u, v, rng.choice(WEIGHT_GRID),
                           rng.choice(WEIGHT_GRID))
        g = b.build()
        pruned, remap = prune_transitive(g, _spec_with_textless(2, {1}),
                                         np.array(types))

        survivors = [i for i in range(n) if types[i] == 0]
        assert [remap[i] >= 0 for i in range(n)] == \
               [types[i] == 0 for i in range(n)]
        before = graph_adjacency(g)
        after = graph_adjacency(pruned)
        for s in survivors:
            db = dijkstra_oracle(before, s)
            da = dijkstra_oracle(after, int(remap[s]))
            for t in survivors:
                expect = db.get(t)
                got = da.get(int(remap[t]))
                if expect is None:
                    assert got is None
                else:
                    assert got == expect, (s, t, expect, got)


def test_prune_skips_self_compositions():
    """Two links from a removed node to one neighbor breed no self-loop."""
    b = GraphBuilder()
    a, w = b.add_node(1.0), b.add_node(0.0)
    b.add_link(w, a, 1.0, 1.0)
    b.add_link(w, a, 2.0, 2.0)
    g, _ = prune_transitive(b.build(), _spec_with_textless(2, {1}),
                           np.array([0, 1]))
    assert g.node_count == 1
    assert g.slot_count == 0


def test_prune_matches_sequential_reference(rng):
    """The column splice equals one sequential splice per removed node,
    array for array, on graphs with one or two key-only relations, chains
    of key-only nodes, self-loops, parallel links and weights off the
    quarter grid."""
    seen = {"chain": 0, "self-loop": 0, "parallel": 0}
    for trial in range(400):
        n = rng.randint(1, 24)
        textless = set(rng.sample(range(3), rng.choice([1, 2])))
        relation = np.array([rng.randrange(3) for _ in range(n)])
        links = []
        for _ in range(rng.randint(0, 3 * n)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.08 else rng.randrange(n)
            w = [rng.choice([rng.uniform(0.05, 4.0), 0.1, 0.3, 1.0])
                 for _ in range(2)]
            links.append((u, v, *w))
            if rng.random() < 0.15:
                links.append((u, v, rng.uniform(0.05, 4.0), w[1]))
        rng.shuffle(links)
        b = GraphBuilder()
        b.add_nodes(np.arange(n) % 3)
        for link in links:
            b.add_link(*link)
        g = b.build()
        pruned = [relation[u] in textless for u in range(n)]
        seen["chain"] += any(pruned[u] and pruned[v] and u != v
                             for u, v, *_ in links)
        seen["self-loop"] += any(u == v and pruned[u] for u, v, *_ in links)
        seen["parallel"] += len({l[:2] for l in links}) < len(links)
        spec = _spec_with_textless(3, textless)
        got, remap = prune_transitive(g, spec, relation)
        want, want_remap = prune_transitive_reference(g, spec, relation)
        assert np.array_equal(remap, want_remap), trial
        assert_same_graph(got, want)
    assert min(seen.values()) >= 30, seen


def test_prune_keeps_textual_relations_intact(rng):
    g = random_graph(rng, 12)
    pruned, remap = prune_transitive(g, _spec_with_textless(1, set()),
                                     np.zeros(g.node_count, dtype=np.uint16))
    assert pruned.node_count == g.node_count
    assert sorted(pruned.links()) == sorted(g.links())
    assert list(remap) == list(range(g.node_count))


def test_apply_remap_drops_removed_nodes():
    from embanks.graph import NodeMeta
    meta = NodeMeta(["a", "b"], np.array([0, 1, 0], dtype=np.uint16),
                    ["x", "y", "z"], ["k1", "k2", "k3"])
    out = apply_remap(meta, np.array([0, -1, 1]))
    assert out.node_text == ["x", "z"]
    assert out.node_key == ["k1", "k3"]
    assert list(out.node_relation) == [0, 0]


def test_build_graph_pipeline(tmp_path):
    corpus = _write_corpus(tmp_path)
    spec = parse_schema(corpus / "schema.txt")
    g, meta, warnings = build_graph(spec, corpus)
    # visits are key-only and pruned away
    assert g.node_count == 4
    assert meta.node_key == ["p1", "p2", "c1", "c2"]
    assert len(warnings) == 2
    g.validate()
    # v1 composed person p1 with city c2, both directions present
    targets = {t for _, t, _ in g.out_edges(0)}
    assert 3 in targets and 2 in targets
