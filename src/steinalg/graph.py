"""Finite directed graphs, paths, and deterministic path enumeration.

Edges carry a range vertex and a source vertex.  A path x_1 x_2 ... x_n is
composable when source(x_i) == range(x_{i+1}); it has range(x_1) at the left
end and source(x_n) at the right end, and it extends at the source end.  A
*source vertex* of the graph is one that no edge ranges at.

Vertices and edges keep their declaration order, and every enumeration and
tie-break in the package derives from that order, so all outputs are
reproducible byte for byte.

Validation happens once, at the boundary.  A graph is checked where it
enters, and is then kept as its vertex tuple and three edge columns: the
ids (``edge_ids``), range vertices and source vertices, in declaration order.

- ``Graph`` reads its edges one at a time, in order (``_read_edges``): each
  id is a word and new, both endpoints are declared vertices, and the first
  edge to fail a check is named.  It keeps the ``Edge`` objects it read;
- ``load_graph`` checks the syntax of each line while it splits the edge
  lines into the three columns, and stops at the first bad line.  Split
  fields are words, so it decides the rest over whole columns: no id
  repeats (a set's size) and every endpoint is declared (set inclusion).
  When both hold, the columns are the graph and no ``Edge`` is built.  Only
  when one fails does it read the edges with ``_read_edges``, to name the
  first failure with its line;
- ``serialize_graph`` refuses an id that the text format cannot carry.

Everything else a graph offers is derived from the columns on first read:
the ``Edge`` objects (``edges``), the lookups by id and the edge lists by
range and by source vertex.  Each is built once, by a ``cached_property``,
and is a plain instance attribute after that.  A reader of the vertices and
the edge ids alone, such as ``steinalg validate``, builds none of them.

Inside the package a path is flat: its edge-id tuple, with its range and
source vertex alongside (``_flat_paths``), ordered by its edges' indexes.
``Path`` is the API's view of it.  Its constructor checks that the edge ids
exist and compose, where a path enters from a caller; program code builds
a ``Path`` with the trusting ``_path`` only for a value that a public
function returns or a report renders.  ``concat``, ``strip_prefix`` and
``is_prefix`` serve the boundary classes of ``cylinder`` and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError


class GraphFormatError(InputError):
    """Malformed graph text; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    range_vertex: str
    source_vertex: str


_new_edge = object.__new__
_set_id = Edge.id.__set__
_set_range = Edge.range_vertex.__set__
_set_source = Edge.source_vertex.__set__


def _edge(eid, range_vertex, source_vertex) -> Edge:
    """An edge built without the frozen dataclass's ``__init__``, which sets
    each field through ``object.__setattr__``; nothing is checked."""
    e = _new_edge(Edge)
    _set_id(e, eid)
    _set_range(e, range_vertex)
    _set_source(e, source_vertex)
    return e


def _edge_of_triple(t) -> Edge:
    """The edge of an (id, range, source) triple given to ``Graph``."""
    # A str would unpack as its characters.
    if not isinstance(t, str):
        try:
            return _edge(*t)
        except TypeError:
            pass
    raise GraphFormatError("edge %r must be an Edge or an (id, range, "
                           "source) triple" % (t,))


def _is_id(x):
    """True for a nonempty string without whitespace: split() leaves such
    a string whole, and splits or drops any other."""
    return isinstance(x, str) and x.split() == [x]


def _vertex_index(vertices):
    """Vertex id -> position in ``vertices``; raises GraphFormatError at
    the first bad or repeated id."""
    index = {}
    for v in vertices:
        if not _is_id(v):
            raise GraphFormatError("bad vertex id %r" % (v,))
        if v in index:
            raise GraphFormatError("duplicate vertex id %r" % (v,))
        index[v] = len(index)
    return index


def _read_edges(items, index, edges):
    """Read the items one at a time, in order: make each an ``Edge``, check
    that its id is a new word and its endpoints are vertices of ``index``,
    and append it to ``edges``.  Raises GraphFormatError at the first item
    that fails a check; ``len(edges)`` is then its position."""
    seen = set()
    for e in items:
        if not isinstance(e, Edge):
            e = _edge_of_triple(e)
        eid = e.id
        if not _is_id(eid):
            raise GraphFormatError("bad edge id %r" % (eid,))
        if eid in seen:
            raise GraphFormatError("duplicate edge id %r" % (eid,))
        for v in (e.range_vertex, e.source_vertex):
            # Declared vertices are strings, and only those are looked up,
            # so an unhashable endpoint is reported like any other.
            if not (isinstance(v, str) and v in index):
                raise GraphFormatError("edge %r uses undeclared vertex %r" % (eid, v))
        seen.add(eid)
        edges.append(e)


class Graph:
    """A finite directed graph with ordered vertices and edges.

    Vertex and edge ids are nonempty strings without whitespace.  Edges are
    ``Edge`` objects or (id, range, source) triples.  The constructor reads
    each edge once, in order, and raises at the first that fails a check.

    A graph is stored as ``vertices`` and three edge columns: ``edge_ids``
    and the range and source vertex of each edge, in declaration order.
    ``edges`` and the lookup maps are built from the columns on first read.
    """

    def __init__(self, vertices, edges):
        # A str would iterate as its characters, each taken for a vertex.
        if isinstance(vertices, str):
            raise GraphFormatError("vertex list %r must be a collection of "
                                   "vertex ids, not one string" % (vertices,))
        vertices = tuple(vertices)
        index = _vertex_index(vertices)
        checked = []
        _read_edges(edges, index, checked)
        self._store(vertices, index, tuple(e.id for e in checked),
                    tuple(e.range_vertex for e in checked),
                    tuple(e.source_vertex for e in checked))
        self.edges = tuple(checked)

    def _store(self, vertices, index, ids, ranges, sources):
        """Keep vertices and edge columns that passed every check."""
        self.vertices = vertices
        self._vertex_index = index
        self.edge_ids = ids
        self._ranges = ranges
        self._sources = sources

    # -- derived on first read -------------------------------------------

    @cached_property
    def edges(self):
        """The ``Edge`` of each edge, in declaration order."""
        return tuple(map(_edge, self.edge_ids, self._ranges, self._sources))

    @cached_property
    def _by_id(self):
        return dict(zip(self.edge_ids, self.edges))

    @cached_property
    def _edge_index(self):
        return {eid: i for i, eid in enumerate(self.edge_ids)}

    def _edges_by(self, column):
        """Each vertex's edges, in order, by the vertex in ``column``."""
        groups = {v: [] for v in self.vertices}
        for e, v in zip(self.edges, column):
            groups[v].append(e)
        return {v: tuple(es) for v, es in groups.items()}

    @cached_property
    def _edges_with_range(self):
        return self._edges_by(self._ranges)

    @cached_property
    def _edges_with_source(self):
        return self._edges_by(self._sources)

    @cached_property
    def _sole_edge_range(self):
        """Edge id -> range vertex, for each edge that is the only edge into
        its range vertex: the edges a minimal pair strips (cylinder._minimal)."""
        return {es[0].id: v for v, es in self._edges_with_range.items()
                if len(es) == 1}

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
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), len(self.edge_ids))


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
            _require_vertex(graph, vertex)
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

    def render(self):
        return self.vertex if not self.edges else ".".join(self.edges)

    def __repr__(self):
        return "Path(%s)" % self.render()


def _require_vertex(graph, v):
    """Raise InputError unless v is a declared vertex of the graph."""
    if not graph.has_vertex(v):
        raise InputError("vertex path needs a declared vertex, got %r" % (v,))


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
        # A str would iterate as its characters, each taken for a vertex.
        if isinstance(members, str):
            raise InputError("vertex set %r must be a collection of vertex "
                             "names, not one string" % (members,))
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


def _as_subset(graph, members, role="vertex subset") -> VertexSubset:
    """members read as a ``VertexSubset`` of the graph by its rule; a subset
    of another graph raises ValueError, naming the role of the value."""
    if not isinstance(members, VertexSubset):
        return VertexSubset(graph, members)
    if members.graph is not graph:
        raise ValueError("%s lives on a different graph" % role)
    return members


# -- text format ---------------------------------------------------------
#
#   # comment
#   vertices: v, w
#   edge: e1 v <- w
#
# declares r(e1) = v and s(e1) = w.  Comments and blank lines are skipped;
# the first payload line must be the vertex list.  Vertex ids are separated
# by commas and a '#' starts a comment, so no id may hold a '#', and no
# vertex id a ','.


def _comma_list(text):
    """Comma-separated ids, each stripped, blanks dropped: the body of a
    'vertices:' line and the CLI's --t0 value."""
    return tuple(v for v in map(str.strip, text.split(",")) if v)


def _edge_fields(line, lineno):
    """The id, range and source of one edge line; raises GraphFormatError
    tagged with the line when it is no edge declaration."""
    line = line.strip()
    if not line.startswith("edge:"):
        raise GraphFormatError("expected 'edge:' declaration", lineno)
    fields = line[len("edge:"):].split()
    if len(fields) != 4 or fields[2] != "<-":
        raise GraphFormatError(
            "edge syntax is 'edge: <id> <range> <- <source>'", lineno)
    return fields[0], fields[1], fields[3]


def load_graph(text: str) -> Graph:
    """Parse graph text; raises GraphFormatError with a line number.

    Parsing splits each edge line into the id, range and source columns,
    and stops at the first line that is no edge declaration.  The edges
    before it pass the constructor's checks, and the first edge to fail one
    is named with its line; that error comes before the syntax error, which
    lies on a later line.  The columns become the graph as they are: no
    ``Edge`` and no lookup map is built until one is read.
    """
    raw = text.splitlines()
    if "#" in text:
        raw = [line.partition("#")[0] for line in raw]
    numbered = enumerate(raw, start=1)
    for vline, line in numbered:
        if line := line.strip():
            break
    else:
        raise GraphFormatError("missing 'vertices:' declaration")
    if not line.startswith("vertices:"):
        raise GraphFormatError("expected 'vertices:' declaration first", vline)
    body = line[len("vertices:"):].strip()
    vertices = _comma_list(body)
    try:
        index = _vertex_index(vertices)
    except GraphFormatError as exc:
        raise GraphFormatError(str(exc), vline) from None
    ids, ranges, sources = [], [], []
    syntax = None
    for lineno, line in numbered:
        match line.split():
            case ["edge:", eid, rv, "<-", sv]:
                pass
            case []:
                continue
            case _:
                # Every other line takes the full rule: "edge:e1 v <- w" is
                # an edge, and the rule names what is wrong with a bad line.
                try:
                    eid, rv, sv = _edge_fields(line, lineno)
                except GraphFormatError as exc:
                    syntax = exc
                    break
        ids.append(eid)
        ranges.append(rv)
        sources.append(sv)
    # Split fields are words, so every id is one; what is left to check is
    # that no id repeats and every endpoint is declared.
    if len(set(ids)) != len(ids) or not index.keys() >= {*ranges, *sources}:
        checked = []
        try:
            _read_edges(zip(ids, ranges, sources), index, checked)
        except GraphFormatError as exc:
            # Edge i is the i-th payload line after the vertex list, as every
            # payload line before the first syntax error is an edge.
            lines = [n for n, line in enumerate(raw[vline:], start=vline + 1)
                     if line.strip()]
            raise GraphFormatError(str(exc), lines[len(checked)]) from None
    if syntax is not None:
        raise syntax
    g = object.__new__(Graph)
    g._store(vertices, index, tuple(ids), tuple(ranges), tuple(sources))
    return g


def serialize_graph(g: Graph) -> str:
    """The text that ``load_graph`` reads back as ``g``; raises
    GraphFormatError for an id the format cannot carry."""
    for v in g.vertices:
        if "," in v:
            raise GraphFormatError("vertex id %r cannot be written: ',' "
                                   "separates vertex ids" % (v,))
    for x in g.vertices + g.edge_ids:
        if "#" in x:
            raise GraphFormatError("id %r cannot be written: '#' starts a "
                                   "comment" % (x,))
    lines = ["vertices: " + ", ".join(g.vertices)]
    for edge in zip(g.edge_ids, g._ranges, g._sources):
        lines.append("edge: %s %s <- %s" % edge)
    return "\n".join(lines) + "\n"


def load_graph_file(path) -> Graph:
    """Parse a UTF-8 graph file, with or without a byte-order mark; bytes
    that are not UTF-8 raise GraphFormatError, like any other malformed
    graph text."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError("graph file is not UTF-8 text: %s" % exc) from None
    return load_graph(text)


# -- structural queries --------------------------------------------------


def sources(g: Graph) -> VertexSubset:
    """Vertices at which no edge ranges."""
    return VertexSubset(g, [v for v in g.vertices if g.is_source(v)])


def enumerate_paths(g: Graph, from_range=None, max_len=0):
    """All paths of length <= max_len ranging at from_range (or anywhere).

    Paths appear in lexicographic declaration order (vertex paths first),
    which makes the unfiltered output closed under taking prefixes.
    """
    roots = [from_range] if from_range is not None else g.vertices
    return [_path(g, edges, v, source)
            for edges, v, source in _flat_paths(g, max_len, roots)]


def _flat_paths(g: Graph, max_len, roots=None):
    """The paths of ``enumerate_paths``, in its order, as flat paths (edge
    ids, range vertex, source vertex), ranging at each of ``roots`` in turn
    (every vertex by default).  Raises ValueError for a negative max_len and
    InputError for an undeclared root, when the walk reaches it."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    for v in g.vertices if roots is None else roots:
        if not g.has_vertex(v):
            raise InputError("unknown vertex %r" % (v,))
        # An explicit stack, children pushed last edge first, pops paths in
        # the same pre-order a recursive walk would visit them in, without
        # reaching the interpreter's recursion limit on long paths.
        stack = [((), v)]
        while stack:
            edges, source = stack.pop()
            yield edges, v, source
            if len(edges) < max_len:
                # Each edge e ranging at the path's source extends it.
                stack.extend((edges + (e.id,), e.source_vertex)
                             for e in reversed(g.edges_with_range(source)))


def is_acyclic(g: Graph) -> bool:
    """True when no path of positive length returns to its range vertex.

    A vertex that no remaining edge ranges at lies on no cycle, so the
    graph is peeled: such a vertex goes, with the edges it is the source
    of, until no such vertex is left.  The graph is acyclic exactly when
    every vertex goes.
    """
    left = {v: len(g.edges_with_range(v)) for v in g.vertices}
    peeled = [v for v, n in left.items() if not n]
    for v in peeled:
        for e in g.edges_with_source(v):
            left[e.range_vertex] -= 1
            if not left[e.range_vertex]:
                peeled.append(e.range_vertex)
    return len(peeled) == len(g.vertices)


def subgraph(g: Graph, keep: VertexSubset) -> Graph:
    """The restriction to the given vertices and the edges between them."""
    verts = [v for v in g.vertices if v in keep]
    edges = [e for e in g.edges
             if e.range_vertex in keep and e.source_vertex in keep]
    return Graph(verts, edges)
