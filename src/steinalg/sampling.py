"""Seeded random generators for graphs, elements, and collapse instances.

Every generator takes an explicit random.Random, so a corpus is a pure
function of its seed.  Walks prefer short objects: the exact algebra blows
up quickly in path length, and the test budget lives on many small cases
rather than few deep ones.
"""

from __future__ import annotations

import random

from .collapse import CollapseSpec, collapse, validate_collapsible
from .cylinder import GroupoidProbe, PathPair
from .graph import Graph, Path, VertexSubset, concat, vertex_path
from .morita import Corner
from .steinberg import SteinbergElement, from_terms, zero


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


def forward_walk(rng, g, start, max_len) -> Path:
    """A random path ranging at start, extended at the source end."""
    p = vertex_path(g, start)
    for _ in range(rng.randint(0, max_len)):
        es = g.edges_with_range(p.source_vertex)
        if not es:
            break
        p = Path(g, p.edges + (rng.choice(es).id,))
    return p


def backward_walk(rng, g, end, max_len) -> Path:
    """A random path with source end, extended at the range end."""
    p = vertex_path(g, end)
    for _ in range(rng.randint(0, max_len)):
        es = g.edges_with_source(p.range_vertex)
        if not es:
            break
        p = Path(g, (rng.choice(es).id,) + p.edges)
    return p


def random_pair(rng, g, max_len=2, row_in=None, col_in=None) -> PathPair:
    """A random basic pair, optionally with constrained range vertices.

    row_in / col_in restrict where the first / second leg may range; the
    fallback unit pair always satisfies the constraints because both kinds
    of constraint admit a vertex pair over a constrained vertex.  An empty
    constraint admits no pair and raises ValueError.
    """
    for name, allowed in (("row_in", row_in), ("col_in", col_in)):
        if allowed is not None and not tuple(allowed):
            raise ValueError("%s is empty: no leg can range there" % name)
    for _ in range(40):
        roots = tuple(row_in) if row_in is not None else g.vertices
        mu = forward_walk(rng, g, rng.choice(roots), max_len)
        nu = None
        for _ in range(20):
            cand = backward_walk(rng, g, mu.source_vertex, max_len)
            if col_in is None or cand.range_vertex in col_in:
                nu = cand
                break
        if nu is not None:
            return PathPair(mu, nu)
    anchor = next(iter(row_in if row_in is not None
                       else col_in if col_in is not None else g.vertices))
    unit = vertex_path(g, anchor)
    return PathPair(unit, unit)


def random_element(rng, g, ring, max_terms=3, max_len=2) -> SteinbergElement:
    terms = [(random_pair(rng, g, max_len), ring.sample(rng))
             for _ in range(rng.randint(0, max_terms))]
    return from_terms(g, ring, terms)


def random_corner_element(rng, g, ring, f0, corner: Corner,
                          max_terms=2, max_len=2) -> SteinbergElement:
    """A random element supported in the corner's block; the zero element,
    the block's only one, when the block constrains a leg and f0 is empty."""
    row_req, col_req = corner.value
    if (row_req or col_req) and not tuple(f0):
        return zero(g, ring)
    row_in = f0 if row_req else None
    col_in = f0 if col_req else None
    terms = [(random_pair(rng, g, max_len, row_in, col_in), ring.sample(rng))
             for _ in range(rng.randint(0, max_terms))]
    return from_terms(g, ring, terms)


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
