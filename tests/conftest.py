"""Shared fixtures: the named small graphs, the shipped rings, and the
seeded corpora the randomized tests draw from; the brute-force canonical
form the canonical-form tests compare against; the pair rules on Path
objects that the flat pair kernel is compared against; the range leg index
that records its trie walks and the composites of its plans; probe membership
and probe windows, the set semantics the pair operations are compared
against; the relaxation that least connectors are compared against; and
the element-level surjectivity witness that the pair-level one is compared
against."""

import pytest

from steinalg import (Corner, Graph, GroupoidProbe, IntegerRing, IntegersMod,
                      LinkingElement, MoritaWitness, Path, PathPair,
                      RationalRing, Report, as_bisection, boundary_tails,
                      compose_pairs, concat, convolve, corner_of, embed,
                      expand, indicator, invert_pair, is_prefix,
                      linking_convolve, load_graph, pairs_to_depth,
                      strip_prefix, vertex_path)
from steinalg import sampling
from steinalg.cylinder import _RangeLegIndex

LOOP_TEXT = "vertices: v\nedge: e v <- v\n"
TWO_CYCLE_TEXT = "vertices: v, w\nedge: e1 v <- w\nedge: e2 w <- v\n"
OUTSPLIT_TEXT = ("vertices: u, ua, ub\n"
                 "edge: ra ua <- u\nedge: rb ub <- u\n"
                 "edge: sa u <- ua\nedge: sb u <- ub\n")
LINE_TEXT = "vertices: a, b, c\nedge: f1 a <- b\nedge: f2 b <- c\n"
ROSE2_TEXT = "vertices: v\nedge: a v <- v\nedge: b v <- v\n"


def long_line(n):
    """Vertices x0 <- x1 <- ... <- x(n-1); only x(n-1) is a source."""
    vertices = ["x%d" % i for i in range(n)]
    edges = [("f%d" % i, vertices[i], vertices[i + 1]) for i in range(n - 1)]
    return Graph(vertices, edges)


def common_depth_terms(graph, ring, raw_terms):
    """The canonical form by brute force: expand every merged term to the
    deepest term's min depth, which makes the pieces disjoint, add up the
    pieces, then merge complete equal-coefficient fans pass after pass
    until no pass merges anything.  Exponential in the depth gap; a test
    oracle only."""
    merged = {}
    for pair, coeff in raw_terms:
        acc = merged.get(pair)
        merged[pair] = coeff if acc is None else ring.add(acc, coeff)
    merged = {p: c for p, c in merged.items() if not ring.is_zero(c)}
    if not merged:
        return {}
    depth = max(p.min_depth for p in merged)
    terms = {}
    for pair, coeff in merged.items():
        for piece in expand(pair, depth):
            acc = terms.get(piece)
            terms[piece] = coeff if acc is None else ring.add(acc, coeff)
    terms = {p: c for p, c in terms.items() if not ring.is_zero(c)}
    changed = True
    while changed:
        changed = False
        by_parent = {}
        for p in terms:
            if p.mu.edges and p.nu.edges and p.mu.edges[-1] == p.nu.edges[-1]:
                parent = PathPair(p.mu.prefix(len(p.mu) - 1), p.nu.prefix(len(p.nu) - 1))
                by_parent.setdefault(parent, []).append(p)
        for parent, kids in by_parent.items():
            coeffs = [terms[k] for k in kids]
            if (len(kids) == len(graph.edges_with_range(parent.source_vertex))
                    and all(ring.eq(coeffs[0], c) for c in coeffs[1:])):
                for k in kids:
                    del terms[k]
                terms[parent] = coeffs[0]
                changed = True
    return terms


def reference_compose_pairs(p, q):
    """Pair composition on Path objects: the remainder tau of the longer of
    p's source leg and q's range leg slides onto the other outer leg."""
    tau = strip_prefix(q.mu, p.nu)
    if tau is not None:
        return PathPair(concat(p.mu, tau), q.nu)
    tau = strip_prefix(p.nu, q.mu)
    if tau is not None:
        return PathPair(p.mu, concat(q.nu, tau))
    return None


def reference_minimal_pair(p):
    """The minimal pair on Path objects: strip the common last edge of both
    legs while it is the only edge ranging at its range vertex."""
    mu, nu = p.mu.edges, p.nu.edges
    graph = p.graph
    k, n = 0, min(len(mu), len(nu))
    while k < n:
        e = mu[-1 - k]
        if e != nu[-1 - k] or len(graph.edges_with_range(graph.edge(e).range_vertex)) != 1:
            break
        k += 1
    if not k:
        return p
    return PathPair(p.mu.prefix(len(mu) - k), p.nu.prefix(len(nu) - k))


def plan_composites(p, plan):
    """The composites of the flat pair p that the entries of
    ``_RangeLegIndex.plan(p)`` stand for, in plan order."""
    return [(p[0] + suffix, leg, source, p[3], leg_range)
            for _, suffix, leg, source, leg_range in plan]


class _CountedRoots(dict):
    """A trie's roots that log the lookup each walk starts with."""

    def __init__(self, roots, walks):
        super().__init__(roots)
        self.walks = walks

    def get(self, key, default=None):
        self.walks.append(key)
        return super().get(key, default)


def recording_range_leg_index(walks, composites):
    """A ``_RangeLegIndex`` class to put in place of the real one: every
    trie walk of an instance appends its range vertex to walks, and each
    instance appends to composites one list, which collects the composites
    of every plan the instance hands out."""

    class RecordingRangeLegIndex(_RangeLegIndex):
        def __init__(self, pairs):
            super().__init__(pairs)
            self._roots = _CountedRoots(self._roots, walks)
            self.formed = []
            composites.append(self.formed)

        def plan(self, p):
            entries = super().plan(p)
            self.formed += plan_composites(p, entries)
            return entries

    return RecordingRangeLegIndex


def member(b, probe):
    """Probe membership in a pair or bisection: the pair matches with a
    shared tail, the degree agrees, and no excluded path is a prefix of the
    tail."""
    b = as_bisection(b)
    if probe.degree != b.pair.degree:
        return False
    tail = strip_prefix(probe.mu_full, b.pair.mu)
    if tail is None:
        return False
    other = strip_prefix(probe.nu_full, b.pair.nu)
    if other is None or tail != other:
        return False
    return not any(is_prefix(a, tail) for a in b.excluded)


def probes_in(b, depth):
    """The probes of Z((mu,nu) \\ F) whose shared tail has the given depth."""
    b = as_bisection(b)
    out = []
    for w in boundary_tails(b.graph, b.pair.source_vertex, depth):
        probe = GroupoidProbe(concat(b.pair.mu, w), concat(b.pair.nu, w))
        if member(b, probe):
            out.append(probe)
    return out


def probe_window(g, max_len):
    """Every probe with truncations of length <= max_len, in the order of
    the pair window: the probe (mu, |mu| - |nu|, nu) for each pair Z(mu, nu)."""
    return [GroupoidProbe(p.mu, p.nu) for p in pairs_to_depth(g, max_len)]


def relaxed_connectors(graph, f0):
    """The least connectors by relaxation: extend each connector found so
    far by every edge ranging at its source, and keep the least candidate
    per vertex (shortest, then lexicographic), until nothing improves."""
    best = {v: vertex_path(graph, v) for v in f0}

    def key(p):
        return (len(p), p.sort_key())

    changed = True
    while changed:
        changed = False
        for e in graph.edges:
            upstream = best.get(e.range_vertex)
            if upstream is None or len(upstream) >= len(graph.vertices):
                continue
            cand = concat(upstream, Path(graph, (e.id,)))
            cur = best.get(e.source_vertex)
            if cur is None or key(cand) < key(cur):
                best[e.source_vertex] = cand
                changed = True
    return {v: best.get(v) for v in graph.vertices}


def element_level_surjectivity_witness(transversal, ring, pair, side):
    """``surjectivity_witness`` as it was when every row compared canonical
    elements: the oracle for the pair-level rows.

    Each row builds the indicators of the factors and of the target,
    convolves them, and compares canonical forms; the matrix row multiplies
    two ``LinkingElement``s, whose constructors raise ``CornerSupportError``
    when a factor leaves its block, so ``piece-1-blocks`` is recorded as a
    pass.  A check's detail is shown only when the check fails.
    """
    if side not in ("psi", "phi"):
        raise ValueError("side must be 'psi' or 'phi'")
    f0 = transversal.f0
    rep = Report("surjectivity witness (%s side)" % side)
    rep.add("target", "pair", pair.render())
    cell = corner_of(pair, f0)
    rep.add("target", "cell", cell.render())
    if side == "psi":
        ok = cell == Corner.GG
        if not rep.check("target", "supported", ok,
                         "" if ok else "psi targets need both legs retained"):
            return MoritaWitness(side, pair, (), rep)
        v = PathPair(pair.mu, pair.mu)
        n = compose_pairs(invert_pair(v), pair)
    else:
        conn = transversal._connectors.get(pair.source_vertex)
        if not rep.check("target", "connector-exists", conn is not None,
                         "" if conn is not None else
                         "vertex %s cannot reach the retained set"
                         % pair.source_vertex):
            return MoritaWitness(side, pair, (), rep)
        rep.add("target", "connector", conn.render())
        v = PathPair(conn, pair.nu)
        n = compose_pairs(pair, invert_pair(v))
    rep.check("factors", "piece-1-blocks", True)
    rep.check("factors", "pieces-disjoint", "vacuous", "single piece")

    v_ind, v_inv, n_ind = (indicator(v, ring), indicator(invert_pair(v), ring),
                           indicator(n, ring))
    target = indicator(pair, ring)
    if side == "psi":
        unit, direct = convolve(v_ind, v_inv), convolve(v_ind, n_ind)
        unit_target = PathPair(pair.mu, pair.mu)
    else:
        unit, direct = convolve(v_inv, v_ind), convolve(n_ind, v_ind)
        unit_target = PathPair(pair.nu, pair.nu)
    rep.check("verification", "unit-cover", unit == indicator(unit_target, ring))
    rep.check("verification", "reconstructs", direct == target)

    mv = LinkingElement(transversal, ring, f12=v_ind)
    mn = LinkingElement(transversal, ring, f21=n_ind)
    prod = linking_convolve(mv, mn) if side == "psi" else linking_convolve(mn, mv)
    want = embed(transversal, target, Corner.GG if side == "psi" else Corner.HH)
    rep.check("verification", "matrix-reconstructs", prod == want)
    return MoritaWitness(side, pair, ((v, n),), rep)


def sweep_graph(rng):
    """A random graph plus a source s (it receives no edge) and a vertex t
    whose whole fan is one edge, both wired into the random part."""
    g = sampling.random_graph(rng, max_vertices=3, max_edges=4)
    vs = list(g.vertices)
    edges = [(e.id, e.range_vertex, e.source_vertex) for e in g.edges]
    edges += [("fs", rng.choice(vs), "s"), ("ft", "t", rng.choice(vs)),
              ("fo", rng.choice(vs), "t")]
    return Graph(vs + ["s", "t"], edges)



@pytest.fixture
def loop_graph():
    """One vertex, one loop."""
    return load_graph(LOOP_TEXT)


@pytest.fixture
def two_cycle():
    """Two vertices on a 2-cycle; collapsing w leaves a single loop."""
    return load_graph(TWO_CYCLE_TEXT)


@pytest.fixture
def outsplit_graph():
    """The intermediate graph between a 2-rose and its outsplit form:
    collapsing u gives the complete graph on two vertices, collapsing
    {ua, ub} gives the 2-rose."""
    return load_graph(OUTSPLIT_TEXT)


@pytest.fixture
def line_graph():
    """A 2-edge line; c receives nothing, so paths terminate there."""
    return load_graph(LINE_TEXT)


@pytest.fixture
def rose2():
    """One vertex, two loops."""
    return load_graph(ROSE2_TEXT)


@pytest.fixture
def zring():
    return IntegerRing()


@pytest.fixture
def qring():
    return RationalRing()


@pytest.fixture
def z4():
    return IntegersMod(4)


@pytest.fixture
def all_rings(zring, qring, z4):
    return (zring, qring, z4)


@pytest.fixture(scope="session")
def graph_corpus():
    return sampling.corpus_graphs(7, 20)


@pytest.fixture(scope="session")
def collapse_specs():
    return sampling.collapse_corpus(13, 20)
