"""Seeded random generators for graphs, elements, and collapse instances.

Every generator takes an explicit random.Random, so a corpus is a pure
function of its seed.  Walks prefer short objects: the exact algebra blows
up quickly in path length, and the test budget lives on many small cases
rather than few deep ones.

Pairs and elements are drawn flat: a walk extends a tuple of edge ids, a
pair is a flat pair (see ``cylinder._flat``), and an element is built from
flat terms the way ``from_terms`` builds it after flattening, so no ``Path``
is made per step and ``random_pair`` builds its ``PathPair`` once.  The
constraint vertices are checked once per call, at the boundary.
"""

from __future__ import annotations

import random

from .collapse import CollapseSpec, collapse, validate_collapsible
from .cylinder import GroupoidProbe, PathPair, _build
from .graph import Graph, Path, VertexSubset, concat, vertex_path
from .morita import Corner
from .steinberg import SteinbergElement, _from_flat, zero


def rng_from_seed(seed) -> random.Random:
    return random.Random(seed)


def random_graph(rng, max_vertices=6, max_edges=10) -> Graph:
    nv = rng.randint(1, max_vertices)
    vertices = ["v%d" % i for i in range(1, nv + 1)]
    cap = min(max_edges, 3 * nv)
    ne = rng.randint(1, cap)
    edges = [("e%d" % i, rng.choice(vertices), rng.choice(vertices))
             for i in range(1, ne + 1)]
    return Graph(vertices, edges)


def corpus_graphs(seed, count=20):
    rng = rng_from_seed(seed)
    return [random_graph(rng) for _ in range(count)]


# -- paths and pairs --------------------------------------------------------


def _forward(rng, g, start, max_len):
    """A random path ranging at start, extended at the source end, as (its
    edge ids, its source vertex)."""
    edges, source = (), start
    for _ in range(rng.randint(0, max_len)):
        es = g.edges_with_range(source)
        if not es:
            break
        e = rng.choice(es)
        edges += (e.id,)
        source = e.source_vertex
    return edges, source


def _backward(rng, g, end, max_len):
    """A random path with source end, extended at the range end, as (its
    edge ids, its range vertex)."""
    edges, range_vertex = (), end
    for _ in range(rng.randint(0, max_len)):
        es = g.edges_with_source(range_vertex)
        if not es:
            break
        e = rng.choice(es)
        edges = (e.id,) + edges
        range_vertex = e.range_vertex
    return edges, range_vertex


def _constraints(g, row_in, col_in):
    """row_in and col_in as tuples (None stays None).  An empty one admits
    no pair and raises ValueError; an undeclared vertex raises InputError,
    as ``vertex_path`` does."""
    allowed = [None if a is None else tuple(a) for a in (row_in, col_in)]
    for name, a in zip(("row_in", "col_in"), allowed):
        if a is not None and not a:
            raise ValueError("%s is empty: no leg can range there" % name)
    for a in allowed:
        for v in a or ():
            vertex_path(g, v)   # raises InputError for an undeclared vertex
    return allowed


def _random_flat_pair(rng, g, max_len, row_in, col_in):
    """``random_pair`` as a flat pair, on constraints already checked."""
    roots = row_in if row_in is not None else g.vertices
    for _ in range(40):
        mu_range = rng.choice(roots)
        mu, v = _forward(rng, g, mu_range, max_len)
        for _ in range(20):
            nu, nu_range = _backward(rng, g, v, max_len)
            if col_in is None or nu_range in col_in:
                return (mu, nu, v, mu_range, nu_range)
    anchor = (row_in if row_in is not None
              else col_in if col_in is not None else g.vertices)[0]
    return ((), (), anchor, anchor, anchor)


def random_pair(rng, g, max_len=2, row_in=None, col_in=None) -> PathPair:
    """A random basic pair, optionally with constrained range vertices.

    row_in / col_in restrict where the first / second leg may range; the
    fallback unit pair always satisfies the constraints because both kinds
    of constraint admit a vertex pair over a constrained vertex.  An empty
    constraint admits no pair and raises ValueError; an undeclared vertex
    in either raises InputError.
    """
    row_in, col_in = _constraints(g, row_in, col_in)
    return _build(g, _random_flat_pair(rng, g, max_len, row_in, col_in))


def _random_flat_element(rng, g, ring, max_terms, max_len, row_in=None, col_in=None):
    """An element of random flat terms on constraints already checked."""
    terms = [(_random_flat_pair(rng, g, max_len, row_in, col_in),
              ring.coerce(ring.sample(rng)))
             for _ in range(rng.randint(0, max_terms))]
    return _from_flat(g, ring, terms)


def random_element(rng, g, ring, max_terms=3, max_len=2) -> SteinbergElement:
    return _random_flat_element(rng, g, ring, max_terms, max_len)


def random_corner_element(rng, g, ring, f0, corner: Corner,
                          max_terms=2, max_len=2) -> SteinbergElement:
    """A random element supported in the corner's block; the zero element,
    the block's only one, when the block constrains a leg and f0 is empty."""
    row_req, col_req = corner.value
    if (row_req or col_req) and not tuple(f0):
        return zero(g, ring)
    row_in, col_in = _constraints(g, f0 if row_req else None, f0 if col_req else None)
    return _random_flat_element(rng, g, ring, max_terms, max_len, row_in, col_in)


def random_adequate_probe(rng, g, pair: PathPair, depth) -> GroupoidProbe:
    """A probe extending the pair by a shared tail of the given depth.

    The tail stops early only at a source vertex, so the probe either
    reaches the requested depth or pins a unique truncated element; both
    make pointwise evaluation exact for elements within the depth.
    """
    w = vertex_path(g, pair.source_vertex)
    for _ in range(depth):
        es = g.edges_with_range(w.source_vertex)
        if not es:
            break
        w = Path(g, w.edges + (rng.choice(es).id,))
    return GroupoidProbe(concat(pair.mu, w), concat(pair.nu, w))


# -- collapse instances -------------------------------------------------------


def random_collapse_spec(rng, g, max_new_edges=10):
    """A valid collapse instance on g with a bounded collapsed graph, or
    None when sampling fails; sources stay retained by construction."""
    candidates = [v for v in g.vertices if not g.is_source(v)]
    cap = min(len(candidates), len(g.vertices) - 1)
    if cap < 1:
        return None
    for _ in range(30):
        t0 = VertexSubset(g, rng.sample(candidates, rng.randint(1, cap)))
        spec = CollapseSpec(g, t0)
        if not validate_collapsible(spec).ok:
            continue
        if len(collapse(spec).collapsed.edges) <= max_new_edges:
            return spec
    return None


def collapse_corpus(seed, count=20):
    rng = rng_from_seed(seed)
    out = []
    for _ in range(count * 200):
        if len(out) >= count:
            break
        spec = random_collapse_spec(rng, random_graph(rng))
        if spec is not None:
            out.append(spec)
    if len(out) < count:
        raise RuntimeError("collapse corpus sampling starved")
    return out
