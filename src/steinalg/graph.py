"""Finite directed graphs, paths, and deterministic path enumeration.

Edges carry a range vertex and a source vertex.  A path x_1 x_2 ... x_n is
composable when source(x_i) == range(x_{i+1}); it has range(x_1) at the left
end and source(x_n) at the right end, and it extends at the source end.  A
*source vertex* of the graph is one that no edge ranges at.

Vertices and edges keep their declaration order, and every enumeration and
tie-break in the package derives from that order, so all outputs are
reproducible byte for byte.

Validation happens once, at the boundary.  The public ``Path`` constructor
checks that every edge id exists and that the edges compose, and computes
both endpoints.  Operations on valid paths (``concat``, ``strip_prefix``,
``Path.prefix``, ``enumerate_paths``) build their results with the private
``_path``, which trusts the edges and endpoints it is given: each caller
knows them from the paths it started from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError


class GraphFormatError(InputError):
    """Malformed graph text; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Edge:
    id: str
    range_vertex: str
    source_vertex: str


class Graph:
    """A finite directed graph with ordered vertices and edges."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        seen = set()
        for v in self.vertices:
            if not v or any(c.isspace() for c in v):
                raise GraphFormatError("bad vertex id %r" % (v,))
            if v in seen:
                raise GraphFormatError("duplicate vertex id %r" % (v,))
            seen.add(v)
        built = []
        by_id = {}
        for e in edges:
            e = e if isinstance(e, Edge) else Edge(*e)
            if not e.id or any(c.isspace() for c in e.id):
                raise GraphFormatError("bad edge id %r" % (e.id,))
            if e.id in by_id:
                raise GraphFormatError("duplicate edge id %r" % (e.id,))
            for endpoint in (e.range_vertex, e.source_vertex):
                if endpoint not in seen:
                    raise GraphFormatError(
                        "edge %r uses undeclared vertex %r" % (e.id, endpoint))
            by_id[e.id] = e
            built.append(e)
        self.edges = tuple(built)
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._edge_index = {e.id: i for i, e in enumerate(self.edges)}
        self._by_id = by_id
        into = {v: [] for v in self.vertices}
        outof = {v: [] for v in self.vertices}
        for e in self.edges:
            into[e.range_vertex].append(e)
            outof[e.source_vertex].append(e)
        self._edges_with_range = {v: tuple(es) for v, es in into.items()}
        self._edges_with_source = {v: tuple(es) for v, es in outof.items()}

    # -- lookups ---------------------------------------------------------

    def has_vertex(self, v):
        return v in self._vertex_index

    def vertex_index(self, v):
        return self._vertex_index[v]

    def edge(self, edge_id) -> Edge:
        return self._by_id[edge_id]

    def edge_index(self, edge_id):
        return self._edge_index[edge_id]

    def edges_with_range(self, v):
        """Edges e with range(e) == v; these continue paths whose source is v."""
        return self._edges_with_range[v]

    def edges_with_source(self, v):
        return self._edges_with_source[v]

    def is_source(self, v):
        """True when no edge ranges at v, so v ends boundary paths."""
        return not self._edges_with_range[v]

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))


class Path:
    """A finite path: a single vertex, or a composable edge-id sequence.

    Both endpoints are computed once, when the path is built; ``vertex`` is
    the vertex of a vertex path and None for an edge path.
    """

    __slots__ = ("graph", "edges", "range_vertex", "source_vertex")

    def __init__(self, graph, edges=(), vertex=None):
        edges = tuple(edges)
        if edges:
            first = prev = _known_edge(graph, edges[0])
            for eid in edges[1:]:
                e = _known_edge(graph, eid)
                if prev.source_vertex != e.range_vertex:
                    raise ValueError(
                        "edges %r and %r are not composable" % (prev.id, e.id))
                prev = e
            range_vertex, source_vertex = first.range_vertex, prev.source_vertex
        else:
            if vertex is None or not graph.has_vertex(vertex):
                raise InputError(
                    "vertex path needs a declared vertex, got %r" % (vertex,))
            range_vertex = source_vertex = vertex
        self.graph = graph
        self.edges = edges
        self.range_vertex = range_vertex
        self.source_vertex = source_vertex

    @property
    def vertex(self):
        return None if self.edges else self.range_vertex

    def __len__(self):
        return len(self.edges)

    def __eq__(self, other):
        # Equal edge sequences on one graph share their range vertex, so
        # the range comparison only separates vertex paths.
        return (isinstance(other, Path) and self.graph is other.graph
                and self.edges == other.edges
                and self.range_vertex == other.range_vertex)

    def __hash__(self):
        return hash(self.edges) if self.edges else hash(self.range_vertex)

    def sort_key(self):
        # Lexicographic in declaration order; vertex paths precede edge paths.
        idx = self.graph.edge_index
        tie = self.graph.vertex_index(self.vertex) if not self.edges else -1
        return (tuple(idx(e) for e in self.edges), tie)

    def prefix(self, n):
        """The first n edges as a path (the vertex path at the range for n == 0)."""
        if n >= len(self.edges):
            return self
        if n == 0:
            return _path(self.graph, (), self.range_vertex, self.range_vertex)
        edges = self.edges[:n]
        return _path(self.graph, edges, self.range_vertex,
                     self.graph._by_id[edges[-1]].source_vertex)

    def render(self):
        return self.vertex if not self.edges else ".".join(self.edges)

    def __repr__(self):
        return "Path(%s)" % self.render()


def _known_edge(graph, edge_id) -> Edge:
    try:
        return graph.edge(edge_id)
    except KeyError:
        raise InputError("unknown edge id %r" % (edge_id,)) from None


_new_path = object.__new__


def _path(graph, edges, range_vertex, source_vertex) -> Path:
    """A path from edges already known to compose, with known endpoints;
    nothing is checked."""
    p = _new_path(Path)
    p.graph = graph
    p.edges = edges
    p.range_vertex = range_vertex
    p.source_vertex = source_vertex
    return p


def vertex_path(graph, v) -> Path:
    return Path(graph, (), v)


def concat(p: Path, q: Path) -> Path:
    """The path p followed by q; requires source(p) == range(q)."""
    if p.graph is not q.graph:
        raise ValueError("paths live on different graphs")
    if p.source_vertex != q.range_vertex:
        raise ValueError("paths %r and %r are not composable" % (p, q))
    if not q.edges:
        return p
    if not p.edges:
        return q
    return _path(p.graph, p.edges + q.edges, p.range_vertex, q.source_vertex)


def strip_prefix(full: Path, prefix: Path):
    """The remainder tau with full == concat(prefix, tau), or None."""
    edges = full.edges
    n = len(prefix.edges)
    # A longer prefix fails the comparison: the slice stops at len(edges).
    if edges[:n] != prefix.edges or prefix.range_vertex != full.range_vertex:
        return None
    if n == 0:
        return full
    if n == len(edges):
        return _path(full.graph, (), full.source_vertex, full.source_vertex)
    # The remainder ranges where its first edge does, in full's own graph.
    rest = edges[n:]
    return _path(full.graph, rest, full.graph._by_id[rest[0]].range_vertex,
                 full.source_vertex)


def is_prefix(prefix: Path, full: Path) -> bool:
    return strip_prefix(full, prefix) is not None


@dataclass(frozen=True)
class VertexSubset:
    """An ordered subset of a graph's vertices (declaration order).

    Membership is looked up in a set of the members; it follows from the
    other two fields, so equality, hashing and repr ignore it.
    """

    graph: Graph
    members: tuple
    _lookup: frozenset = field(compare=False, repr=False)

    def __init__(self, graph, members):
        members = frozenset(members)
        for v in members:
            if not graph.has_vertex(v):
                raise InputError("unknown vertex %r" % (v,))
        ordered = tuple(v for v in graph.vertices if v in members)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "members", ordered)
        object.__setattr__(self, "_lookup", members)

    def __contains__(self, v):
        return v in self._lookup

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def complement(self):
        return VertexSubset(self.graph, [v for v in self.graph.vertices if v not in self._lookup])

    def render(self):
        return ",".join(self.members)


# -- text format ---------------------------------------------------------
#
#   # comment
#   vertices: v, w
#   edge: e1 v <- w
#
# declares r(e1) = v and s(e1) = w.  Comments and blank lines are skipped;
# the first payload line must be the vertex list.


def load_graph(text: str) -> Graph:
    """Parse graph text; raises GraphFormatError with a line number.

    Parsing checks the syntax of each line; ``Graph`` checks the ids, and
    its errors are tagged with the line of the edge it was reading.
    """
    lines = ((n, raw.split("#", 1)[0].strip())
             for n, raw in enumerate(text.splitlines(), start=1))
    lines = ((n, line) for n, line in lines if line)
    lineno, line = next(lines, (None, None))
    if line is None:
        raise GraphFormatError("missing 'vertices:' declaration")
    if not line.startswith("vertices:"):
        raise GraphFormatError("expected 'vertices:' declaration first", lineno)
    body = line[len("vertices:"):].strip()
    vertices = [v.strip() for v in body.split(",") if v.strip()] if body else []

    def edges():
        nonlocal lineno
        for lineno, line in lines:
            if not line.startswith("edge:"):
                raise GraphFormatError("expected 'edge:' declaration", lineno)
            fields = line[len("edge:"):].split()
            if len(fields) != 4 or fields[2] != "<-":
                raise GraphFormatError(
                    "edge syntax is 'edge: <id> <range> <- <source>'", lineno)
            eid, rng, _, src = fields
            yield Edge(eid, rng, src)

    try:
        return Graph(vertices, edges())
    except GraphFormatError as exc:
        if exc.line is not None:
            raise
        raise GraphFormatError(str(exc), lineno) from None


def serialize_graph(g: Graph) -> str:
    lines = ["vertices: " + ", ".join(g.vertices)]
    for e in g.edges:
        lines.append("edge: %s %s <- %s" % (e.id, e.range_vertex, e.source_vertex))
    return "\n".join(lines) + "\n"


def load_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


# -- structural queries --------------------------------------------------


def sources(g: Graph) -> VertexSubset:
    """Vertices at which no edge ranges."""
    return VertexSubset(g, [v for v in g.vertices if g.is_source(v)])


def enumerate_paths(g: Graph, from_range=None, max_len=0):
    """All paths of length <= max_len ranging at from_range (or anywhere).

    Paths appear in lexicographic declaration order (vertex paths first),
    which makes the unfiltered output closed under taking prefixes.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    roots = [from_range] if from_range is not None else list(g.vertices)
    out = []
    for v in roots:
        if not g.has_vertex(v):
            raise InputError("unknown vertex %r" % (v,))
        # An explicit stack, children pushed last edge first, pops paths in
        # the same pre-order a recursive walk would visit them in, without
        # reaching the interpreter's recursion limit on long paths.
        stack = [vertex_path(g, v)]
        while stack:
            path = stack.pop()
            out.append(path)
            if len(path) < max_len:
                # Each edge e ranging at the path's source extends it.
                stack.extend(_path(g, path.edges + (e.id,), path.range_vertex,
                                   e.source_vertex)
                             for e in reversed(g.edges_with_range(path.source_vertex)))
    return out


def is_acyclic(g: Graph) -> bool:
    """True when no path of positive length returns to its range vertex."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in g.vertices}
    for root in g.vertices:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        # An explicit stack of (vertex, edges left), so that long paths do
        # not reach the interpreter's recursion limit.
        stack = [(root, iter(g.edges_with_range(root)))]
        while stack:
            v, todo = stack[-1]
            for e in todo:
                u = e.source_vertex
                if color[u] == GRAY:
                    return False
                if color[u] == WHITE:
                    color[u] = GRAY
                    stack.append((u, iter(g.edges_with_range(u))))
                    break
            else:
                color[v] = BLACK
                stack.pop()
    return True


def subgraph(g: Graph, keep: VertexSubset) -> Graph:
    """The restriction to the given vertices and the edges between them."""
    verts = [v for v in g.vertices if v in keep]
    edges = [e for e in g.edges
             if e.range_vertex in keep and e.source_vertex in keep]
    return Graph(verts, edges)
