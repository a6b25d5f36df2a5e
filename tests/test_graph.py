"""Graph files, paths, and the bounded path enumerator."""

import sys

from hypothesis import given, settings, strategies as st

import pytest

from steinalg import (Edge, Graph, GraphFormatError, Path, VertexSubset, concat,
                      enumerate_paths, is_acyclic, is_prefix, load_graph,
                      serialize_graph, sources, strip_prefix, subgraph)
from steinalg import cli, graph as graph_module, sampling
from tests.conftest import TWO_CYCLE_TEXT, long_line, random_graph_text, vertex_path


def test_load_serialize_roundtrip(two_cycle):
    assert serialize_graph(two_cycle) == TWO_CYCLE_TEXT
    again = load_graph(serialize_graph(two_cycle))
    assert again.vertices == two_cycle.vertices
    assert [(e.id, e.range_vertex, e.source_vertex) for e in again.edges] == \
        [(e.id, e.range_vertex, e.source_vertex) for e in two_cycle.edges]


@pytest.mark.parametrize("vertices,edges,message", [
    (["a,b"], [], "vertex id 'a,b' cannot be written: ',' separates vertex ids"),
    (["v#"], [], "id 'v#' cannot be written: '#' starts a comment"),
    (["v", "w"], [("e#1", "v", "w")], "id 'e#1' cannot be written: '#' starts a comment"),
], ids=["comma-in-vertex", "hash-in-vertex", "hash-in-edge"])
def test_serialize_refuses_ids_the_format_cannot_carry(vertices, edges, message):
    """Text that would load as another graph, or fail to load, is not
    written: a ',' splits a vertex id in two, and a '#' cuts a line."""
    with pytest.raises(GraphFormatError) as exc:
        serialize_graph(Graph(vertices, edges))
    assert str(exc.value) == message


def test_serialize_writes_every_other_id():
    """Ids that look like the format's own tokens still load back."""
    g = Graph(["v:1", "<-", "edge:"], [("edge:", "v:1", "<-"), ("<-", "<-", "edge:"),
                                       ("a,b", "edge:", "v:1")])
    assert graph_maps(load_graph(serialize_graph(g))) == graph_maps(g)


def test_load_ignores_blank_lines_and_comments():
    g = load_graph("# a loop\nvertices: v\n\nedge: e v <- v\n")
    assert g.vertices == ("v",) and len(g.edges) == 1


FORMAT_ERRORS = [
    ("edge: e v <- v", "vertices", 1),
    ("vertices: v\nedge: e v <- w", "undeclared", 2),
    ("vertices: v, v\nedge: e v <- v", "duplicate vertex", 1),
    ("vertices: v\nedge: e v <- v\nedge: e v <- v", "duplicate edge", 3),
    ("# header\n\nvertices: v\nedge: e v <- v\n\nedge: e v <- v", "duplicate edge", 6),
    ("vertices: v\nbogus line", "edge", 2),
    ("vertices: v\nedge: e v -> v", "edge syntax", 2),
    ("# nothing here\n", "missing", None),
    # Two errors: the first in file order wins, and the loader stops at
    # its first syntax error.
    ("vertices: v\nedge: e v <- v\nedge: e v <- v\nbogus line", "duplicate edge", 3),
    ("vertices: v\nedge: e v <- v\nedge: f v -> v\nedge: g v <- w", "edge syntax", 3),
    ("vertices: v w, x, x", "bad vertex id", 1),
    ("vertices: v, v\nbogus line", "duplicate vertex", 1),
]


@pytest.mark.parametrize("text,fragment,line", FORMAT_ERRORS,
                         ids=["%s-%s" % case[:2] for case in FORMAT_ERRORS])
def test_format_errors(text, fragment, line):
    with pytest.raises(GraphFormatError) as exc:
        load_graph(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_edge_lookup_maps(two_cycle):
    e1 = two_cycle.edge("e1")
    assert (e1.range_vertex, e1.source_vertex) == ("v", "w")
    assert [e.id for e in two_cycle.edges_with_range("v")] == ["e1"]
    assert [e.id for e in two_cycle.edges_with_source("v")] == ["e2"]
    assert not two_cycle.is_source("v")


def test_sources(line_graph, loop_graph):
    assert list(sources(line_graph)) == ["c"]
    assert list(sources(loop_graph)) == []


def test_path_basics(rose2):
    p = Path(rose2, ("a", "b"))
    assert (p.range_vertex, p.source_vertex, len(p)) == ("v", "v", 2)
    assert p.render() == "a.b"
    assert vertex_path(rose2, "v").render() == "v"


def test_path_validation(line_graph):
    with pytest.raises(ValueError):
        Path(line_graph, ("f2", "f1"))  # source of f2 is c, range of f1 is a
    Path(line_graph, ("f1", "f2"))  # a <- b <- c composes
    with pytest.raises(ValueError, match="unknown edge id 'nope'"):
        Path(line_graph, ("nope",))
    with pytest.raises(ValueError):
        vertex_path(line_graph, "zz")


def test_concat_strip_prefix(line_graph):
    f1 = Path(line_graph, ("f1",))
    f2 = Path(line_graph, ("f2",))
    both = concat(f1, f2)
    assert both.render() == "f1.f2"
    assert concat(both, vertex_path(line_graph, "c")) == both
    with pytest.raises(ValueError):
        concat(f2, f1)
    assert strip_prefix(both, f1) == f2
    assert strip_prefix(both, both) == vertex_path(line_graph, "c")
    assert strip_prefix(f1, both) is None
    assert is_prefix(f1, both) and not is_prefix(f2, both)


def test_sort_key_orders_by_declaration(rose2):
    paths = sorted([Path(rose2, ("b",)), Path(rose2, ("a", "a")),
                    vertex_path(rose2, "v"), Path(rose2, ("a",))],
                   key=Path.sort_key)
    assert [p.render() for p in paths] == ["v", "a", "a.a", "b"]


def test_enumerate_paths(rose2, line_graph):
    assert [p.render() for p in enumerate_paths(rose2, max_len=2)] == \
        ["v", "a", "a.a", "a.b", "b", "b.a", "b.b"]
    assert [p.render() for p in enumerate_paths(line_graph, from_range="a", max_len=3)] == \
        ["a", "f1", "f1.f2"]


def test_enumerate_paths_beyond_recursion_limit(loop_graph):
    limit = sys.getrecursionlimit() + 200
    paths = enumerate_paths(loop_graph, max_len=limit)
    assert len(paths) == limit + 1
    assert [len(p) for p in paths] == list(range(limit + 1))


def test_is_acyclic(line_graph, loop_graph, two_cycle):
    assert is_acyclic(line_graph)
    assert not is_acyclic(loop_graph)
    assert not is_acyclic(two_cycle)


def test_is_acyclic_beyond_recursion_limit():
    n = sys.getrecursionlimit() + 200
    g = long_line(n)
    assert is_acyclic(g)
    closed = Graph(g.vertices, list(g.edges) + [("back", "x%d" % (n - 1), "x0")])
    assert not is_acyclic(closed)


def closes_a_cycle(g):
    """Whether some vertex reaches itself by a walk of positive length,
    from the transitive closure of the edges."""
    reach = {v: {e.source_vertex for e in g.edges_with_range(v)} for v in g.vertices}
    grew = True
    while grew:
        grew = False
        for v in g.vertices:
            more = set().union(*(reach[u] for u in reach[v])) - reach[v]
            if more:
                reach[v] |= more
                grew = True
    return any(v in reach[v] for v in g.vertices)


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=200, deadline=None)
def test_is_acyclic_matches_the_closure(seed):
    """The peel agrees with the transitive closure on random graphs with
    loops and parallel edges, and on their cycle-free restrictions."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=7, max_edges=10)
    order = {v: i for i, v in enumerate(g.vertices)}
    forward = Graph(g.vertices, [e for e in g.edges
                                 if order[e.range_vertex] < order[e.source_vertex]])
    for h in (g, forward):
        assert is_acyclic(h) == (not closes_a_cycle(h))
    assert is_acyclic(forward)


def test_subgraph(two_cycle):
    keep = VertexSubset(two_cycle, ["v"])
    sub = subgraph(two_cycle, keep)
    assert sub.vertices == ("v",) and len(sub.edges) == 0
    assert is_acyclic(sub)


def test_vertex_subset(two_cycle):
    s = VertexSubset(two_cycle, ["w"])
    assert "w" in s and "v" not in s
    assert list(s.complement()) == ["v"]
    assert s.render() == "w"
    assert VertexSubset(two_cycle, ["w", "v"]).render() == "v,w"  # graph order
    # The member set behind lookups is left out of equality, hash and repr.
    assert s == VertexSubset(two_cycle, ("w", "w"))
    assert hash(s) == hash(VertexSubset(two_cycle, ["w"]))
    assert repr(s) == "VertexSubset(graph=%r, members=('w',))" % (two_cycle,)
    with pytest.raises(ValueError):
        VertexSubset(two_cycle, ["zz"])


def test_graph_constructor_mirrors_loader():
    g = Graph(["x"], [("l", "x", "x")])
    assert g.edge("l").range_vertex == "x"
    with pytest.raises((GraphFormatError, ValueError)):
        Graph(["x"], [("l", "x", "y")])


@pytest.mark.parametrize("vertices,edges,message", [
    ("vw", [], None),
    (["v", "w"], ["eab"], None),
    ([1], [], None),
    (["v"], [("e", "v")], None),
    (["v"], [3], None),
    (["v"], [(1, "v", "v")], None),
    (["v"], [("e", ["v"], "v")], None),
    (["v"], [("e", "v", None)], None),
    (["v", ""], [], None),
    (["v w"], [], None),
    # Two errors each: the first in vertex, then edge order is named.
    (["v", "v", ""], [], "duplicate vertex id 'v'"),
    (["v"], [("e", "v", "w"), ("e", "v", "v")], "edge 'e' uses undeclared vertex 'w'"),
    (["v"], [("e f", "v", "v"), ("g", "v", "v"), ("g", "v", "v")], "bad edge id 'e f'"),
    (["v"], [("", "v", "v"), 3], "bad edge id ''"),
    (["v", "v"], [3], "duplicate vertex id 'v'"),
    # A triple that can be read only once is read once.
    (["v"], [iter(("e", "v", "w"))], "edge 'e' uses undeclared vertex 'w'"),
], ids=["vertex-string", "edge-string", "vertex-int", "edge-pair", "edge-int",
        "edge-id-int", "unhashable-range", "none-source", "empty-vertex",
        "spaced-vertex", "duplicate-then-bad-vertex", "undeclared-then-duplicate",
        "bad-id-then-duplicate", "bad-id-then-not-an-edge",
        "duplicate-vertex-then-not-an-edge", "one-shot-triple"])
def test_graph_constructor_rejects_bad_input(vertices, edges, message):
    """Strings are not read as lists of ids, and ids, edges and endpoints
    of the wrong type are format errors rather than bare TypeErrors.  With
    two errors, the message names the first."""
    with pytest.raises(GraphFormatError) as exc:
        Graph(vertices, edges)
    if message is not None:
        assert str(exc.value) == message


def test_graph_constructor_names_a_bad_edge_before_a_failing_iterable():
    """Edges come from any iterable; one that fails after a bad edge
    still gets the bad edge named, and one that fails after good edges
    passes its own error on."""
    def edges(first):
        yield first
        raise RuntimeError("no more edges")
    with pytest.raises(GraphFormatError, match="bad edge id ''"):
        Graph(["v"], edges(("", "v", "v")))
    with pytest.raises(RuntimeError, match="no more edges"):
        Graph(["v"], edges(("e", "v", "v")))


def first_error(vertices, edges):
    """The message of the first bad vertex or edge, read one at a time in
    order, or None: the reference the constructor's verdict is held to."""
    declared = set()
    for v in vertices:
        if not (isinstance(v, str) and v.split() == [v]):
            return "bad vertex id %r" % (v,)
        if v in declared:
            return "duplicate vertex id %r" % (v,)
        declared.add(v)
    seen = set()
    for e in edges:
        if isinstance(e, Edge):
            e = (e.id, e.range_vertex, e.source_vertex)
        if isinstance(e, str) or not isinstance(e, tuple) or len(e) != 3:
            return "edge %r must be an Edge or an (id, range, source) triple" % (e,)
        eid, rv, sv = e
        if not (isinstance(eid, str) and eid.split() == [eid]):
            return "bad edge id %r" % (eid,)
        if eid in seen:
            return "duplicate edge id %r" % (eid,)
        seen.add(eid)
        for x in (rv, sv):
            if not (isinstance(x, str) and x in declared):
                return "edge %r uses undeclared vertex %r" % (eid, x)
    return None


BAD_VERTICES = ["", "a b", 1, ["v1"]]
BAD_EDGES = [3, "abc", ("e", "v1")]
BAD_IDS = ["", "e 1", 1, ("e",), ["e"]]
BAD_ENDPOINTS = ["zz", "", None, ["v1"], 1]


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=300, deadline=None)
def test_graph_constructor_names_the_first_error(seed):
    """Random graphs with up to three faults of every kind, at random
    places: the constructor raises the message of the first fault in
    vertex, then edge order, and builds the graph when there is none."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=8, max_edges=20)
    vertices = list(g.vertices)
    edges = [e if rng.random() < 0.5 else (e.id, e.range_vertex, e.source_vertex)
             for e in g.edges]
    for _ in range(rng.randint(0, 3)):
        i, kind = rng.randrange(len(edges)), rng.randrange(6)
        eid, rv, sv = edges[i] if isinstance(edges[i], tuple) and len(edges[i]) == 3 \
            else ("e1", "v1", "v1")
        if kind == 0:
            vertices[rng.randrange(len(vertices))] = rng.choice(
                BAD_VERTICES + [rng.choice(vertices)])
        elif kind == 1:
            edges[i] = rng.choice(BAD_EDGES)
        elif kind == 2:
            edges[i] = (rng.choice(BAD_IDS), rv, sv)
        elif kind == 3:
            edges[i] = (rng.choice(g.edges).id, rv, sv)
        elif kind == 4:
            edges[i] = (eid, rng.choice(BAD_ENDPOINTS), sv)
        else:
            edges[i] = Edge(eid, rv, rng.choice(BAD_ENDPOINTS))
    want = first_error(vertices, edges)
    if want is None:
        assert Graph(vertices, edges).edges == tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges)
    else:
        with pytest.raises(GraphFormatError) as exc:
            Graph(vertices, edges)
        assert str(exc.value) == want


GRAPH_MAPS = ("vertices", "edges", "_vertex_index", "_edge_index", "_by_id",
              "_edges_with_range", "_edges_with_source", "_sole_edge_range")


def graph_maps(g):
    """Every map a graph keeps; a dict as its item list, so order counts."""
    maps = (getattr(g, name) for name in GRAPH_MAPS)
    return [list(m.items()) if isinstance(m, dict) else m for m in maps]


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=200, deadline=None)
def test_load_rebuilds_every_map(seed):
    """Loading the serialized text of a graph rebuilds every map the
    constructor made, in order."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=12, max_edges=40)
    assert graph_maps(load_graph(serialize_graph(g))) == graph_maps(g)


# The maps a graph derives from its edge columns on first read.
DERIVED_MAPS = ("edges", "_by_id", "_edge_index", "_edges_with_range",
                "_edges_with_source", "_sole_edge_range")


def test_validate_builds_no_edge_and_no_map(tmp_path, monkeypatch, capsys):
    """``steinalg validate`` reads the vertices and the edge ids alone: on a
    4,000-edge file it builds no ``Edge`` and leaves every derived map
    unbuilt.  The first ``edges_with_range`` call then builds maps equal to
    the ones ``Graph()`` builds from the same edges."""
    text = random_graph_text(4000, 4000)
    path = tmp_path / "graph.txt"
    path.write_text(text)
    built = []
    edge = graph_module._edge
    monkeypatch.setattr(graph_module, "_edge", lambda *a: built.append(a) or edge(*a))
    loaded = []
    load = cli.load_graph_file
    monkeypatch.setattr(cli, "load_graph_file", lambda p: loaded.append(load(p)) or loaded[0])
    assert cli.main(["validate", "--graph", str(path), "--format", "kv"]) == 0
    assert "edges = 4000\n" in capsys.readouterr().out
    [g] = loaded
    assert built == []
    assert [name for name in DERIVED_MAPS if name in vars(g)] == []
    g.edges_with_range("v0")
    assert len(built) == 4000
    triples = [(eid, rv, sv) for _, eid, rv, _, sv in map(str.split, text.splitlines()[1:])]
    assert graph_maps(g) == graph_maps(Graph(g.vertices, triples))
    assert len(built) == 2 * 4000


def test_ids_reject_exactly_whitespace():
    """An id is bad exactly when it is empty or has a whitespace character;
    a zero-width space is not whitespace."""
    for c in ("\t", " ", "\u2003", "\u3000", "\x1c"):
        with pytest.raises(GraphFormatError, match="bad vertex id"):
            Graph(["a%sb" % c], [])
        with pytest.raises(GraphFormatError, match="bad edge id"):
            Graph(["v"], [("e" + c, "v", "v")])
    g = Graph(["v.1", "\u00e9", "x\u200by"], [("e-1", "v.1", "x\u200by")])
    assert g.edge("e-1").source_vertex == "x\u200by"
