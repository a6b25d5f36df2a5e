"""Graph files, paths, and the bounded path enumerator."""

import sys

from hypothesis import given, settings, strategies as st

import pytest

from steinalg import (Graph, GraphFormatError, Path, VertexSubset, concat,
                      enumerate_paths, is_acyclic, is_prefix, load_graph,
                      serialize_graph, sources, strip_prefix, subgraph,
                      vertex_path)
from steinalg import sampling
from tests.conftest import TWO_CYCLE_TEXT, long_line


def test_load_serialize_roundtrip(two_cycle):
    assert serialize_graph(two_cycle) == TWO_CYCLE_TEXT
    again = load_graph(serialize_graph(two_cycle))
    assert again.vertices == two_cycle.vertices
    assert [(e.id, e.range_vertex, e.source_vertex) for e in again.edges] == \
        [(e.id, e.range_vertex, e.source_vertex) for e in two_cycle.edges]


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
    assert p.prefix(1) == Path(rose2, ("a",))
    assert p.prefix(0) == vertex_path(rose2, "v")
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
