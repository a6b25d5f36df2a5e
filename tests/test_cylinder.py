"""Path pairs, basic bisections, probes and the pair window.

The independent oracle throughout: a compact set built from pairs whose
legs fit inside depth L is faithfully represented by its probes at the
uniform leg horizon L (source-terminated probes stand for their single
truncated element).  Construction-level results are compared against plain
set operations on those probe sets.
"""

import copy
from itertools import islice

from hypothesis import assume, example, given, settings, strategies as st

import pytest

from steinalg import (BasicBisection, GroupoidProbe, IntegerRing, IntegersMod,
                      Path, PathPair, RationalRing, add, as_bisection,
                      boundary_tails, compose_pairs, concat, convolve,
                      enumerate_paths, expand, indicator, pair_contains,
                      pairs_to_depth, strip_prefix)
from steinalg import Graph, collapse, load_graph, sampling
from steinalg.collapse import _transport
from steinalg.cylinder import _compose, _flat, _minimal, _RangeLegIndex, _window
from tests.conftest import (common_depth_terms, forward_walk, invert_pair,
                            long_line, member, minimal_pair, partners,
                            plan_composites, prefix, probes_in,
                            reference_compose_pairs, reference_minimal_pair,
                            sweep_graph, vertex_path)

seeds = st.integers(min_value=0, max_value=10 ** 9)


def horizon_for(*bs):
    out = 0
    for b in bs:
        b = as_bisection(b)
        ex = max((len(a) for a in b.excluded), default=0)
        out = max(out, len(b.pair.mu) + ex, len(b.pair.nu) + ex)
    return out + 1


# -- pairs -------------------------------------------------------------------


def test_pair_shape(loop_graph, line_graph):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    p = PathPair(e, v)
    assert (p.degree, p.min_depth, p.render()) == (1, 0, "Z(e,v)")
    assert not p.is_source_terminated()
    c = vertex_path(line_graph, "c")
    assert PathPair(c, c).is_source_terminated()
    with pytest.raises(ValueError):
        PathPair(Path(line_graph, ("f1",)), c)  # sources b vs c differ


def test_pair_extend(loop_graph):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    q = PathPair(e, v).extend(e)
    assert q.render() == "Z(e.e,e)"
    assert q.degree == 1


def test_pair_is_immutable(loop_graph):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    p = PathPair(e, v)
    with pytest.raises(AttributeError):
        p.mu = v
    with pytest.raises(AttributeError):
        del p.nu
    assert copy.copy(p) == p and copy.deepcopy(p).render() == "Z(e,v)"
    assert p != (e, v) and hash(p) == hash(PathPair(e, v))


def test_invert_pair(loop_graph):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    assert invert_pair(PathPair(e, v)) == PathPair(v, e)
    assert invert_pair(invert_pair(PathPair(e, v))) == PathPair(e, v)


# -- exclusions ---------------------------------------------------------------


def test_bisection_reduces_exclusions_to_antichain(loop_graph):
    v = vertex_path(loop_graph, "v")
    e = Path(loop_graph, ("e",))
    ee = Path(loop_graph, ("e", "e"))
    b = BasicBisection(PathPair(v, v), [ee, e])
    assert [a.render() for a in b.excluded] == ["e"]
    assert b.render() == "Z((v,v) \\ {e})"


def test_bisection_rejects_unanchored_exclusion(line_graph):
    f1 = Path(line_graph, ("f1",))
    with pytest.raises(ValueError):
        BasicBisection(PathPair(f1, f1), [f1])  # f1 does not continue from b


def test_as_bisection_wraps_pairs(loop_graph):
    v = vertex_path(loop_graph, "v")
    b = as_bisection(PathPair(v, v))
    assert b.pair == PathPair(v, v) and b.excluded == ()


# -- probes -------------------------------------------------------------------


def test_probe_degree_is_forced(loop_graph):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    pr = GroupoidProbe(e, v)
    assert pr.degree == 1
    assert pr.render() == "(e, 1, v)"
    assert pr == GroupoidProbe(e, v) and hash(pr) == hash(GroupoidProbe(e, v))


def test_probe_rejects_mismatched_truncations(line_graph, loop_graph):
    f1 = Path(line_graph, ("f1",))
    with pytest.raises(ValueError, match="common source"):
        GroupoidProbe(f1, vertex_path(line_graph, "c"))
    with pytest.raises(ValueError, match="different graphs"):
        GroupoidProbe(vertex_path(loop_graph, "v"), vertex_path(line_graph, "a"))


def test_member_and_pair_contains(loop_graph):
    e = Path(loop_graph, ("e",))
    ee = Path(loop_graph, ("e", "e"))
    v = vertex_path(loop_graph, "v")
    p = PathPair(e, v)
    assert pair_contains(p, GroupoidProbe(ee, e))
    assert not pair_contains(p, GroupoidProbe(ee, ee))   # degree 0 vs 1
    assert not pair_contains(p, GroupoidProbe(v, v))     # too shallow
    b = BasicBisection(PathPair(v, v), [ee])
    assert member(b, GroupoidProbe(e, e))
    assert not member(b, GroupoidProbe(ee, ee))          # excluded branch
    assert not member(b, GroupoidProbe(e, v))            # wrong degree


def test_boundary_tails_stop_at_sources(line_graph, loop_graph):
    assert [t.render() for t in boundary_tails(line_graph, "a", 5)] == ["f1.f2"]
    assert [t.render() for t in boundary_tails(line_graph, "a", 1)] == ["f1"]
    assert [t.render() for t in boundary_tails(loop_graph, "v", 3)] == ["e.e.e"]
    # Excluding the one continuation of b leaves no probe below Z(b,b).
    b, f2 = vertex_path(line_graph, "b"), Path(line_graph, ("f2",))
    assert probes_in(BasicBisection(PathPair(b, b), [f2]), 1) == []


def test_pairs_to_depth_groups_by_source(outsplit_graph):
    g = outsplit_graph
    paths = enumerate_paths(g, max_len=2)

    def key(path):
        return (g.vertex_index(path.range_vertex), path.sort_key())

    want = sorted(((a, b) for a in paths for b in paths
                   if a.source_vertex == b.source_vertex),
                  key=lambda ab: (g.vertex_index(ab[0].source_vertex),
                                  key(ab[0]), key(ab[1])))
    got = pairs_to_depth(g, 2)
    assert [(p.mu, p.nu) for p in got] == want


@given(seeds, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=60))
@settings(max_examples=100, deadline=None)
def test_pair_window_filters_and_stops_early(seed, depth, limit):
    """``ranges`` keeps the pairs whose legs both range there, and ``limit``
    cuts the list, each in the order of the full window; the list is the
    flat window's, built."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    keep = [v for v in g.vertices if rng.random() < 0.5]
    full = pairs_to_depth(g, depth)
    kept = [p for p in full if p.mu.range_vertex in keep and p.nu.range_vertex in keep]
    assert pairs_to_depth(g, depth, ranges=keep) == kept
    assert pairs_to_depth(g, depth, ranges=keep, limit=limit) == kept[:limit]
    assert pairs_to_depth(g, depth, limit=limit) == full[:limit]
    assert (list(islice(_window(g, depth, keep), limit))
            == [_flat(p) for p in pairs_to_depth(g, depth, keep, limit)])


# -- pair-level operations ----------------------------------------------------


def test_minimal_pair_strips_single_received_edges(loop_graph, rose2):
    g = long_line(4)
    f0f1 = Path(g, ("f0", "f1"))
    x0 = vertex_path(g, "x0")
    # x1 and x0 each receive one edge, so the whole common tail goes.
    assert minimal_pair(PathPair(f0f1, f0f1)) == PathPair(x0, x0)
    f1 = Path(g, ("f1",))
    assert minimal_pair(PathPair(f1, f1)) == PathPair(vertex_path(g, "x1"),
                                                      vertex_path(g, "x1"))
    # v receives two edges on the rose, so nothing is stripped.
    aa = Path(rose2, ("a", "a"))
    assert minimal_pair(PathPair(aa, aa)) == PathPair(aa, aa)
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    assert minimal_pair(PathPair(e, v)) == PathPair(e, v)


STRIP_TEXT = ("vertices: a, b, c, s, m, r\n"
              "edge: f1 a <- b\nedge: f2 b <- c\nedge: f3 c <- s\n"
              "edge: g1 m <- c\nedge: g2 m <- c\nedge: k r <- m\n")


@pytest.mark.parametrize("build", [
    lambda: load_graph(STRIP_TEXT),
    lambda: Graph(["a", "b", "c", "s", "m", "r"],
                  [("f1", "a", "b"), ("f2", "b", "c"), ("f3", "c", "s"),
                   ("g1", "m", "c"), ("g2", "m", "c"), ("k", "r", "m")]),
], ids=["load_graph", "Graph"])
def test_flat_minimal_matches_the_path_level_reference(build):
    """The flat minimal-pair rule strips through the graph's map of edges
    that are the only edge into their range vertex, and agrees with the rule
    on Path objects.  a, b, c and r each receive one edge, m receives two
    and s none.  The pairs returned untouched are returned as they are: an
    empty leg, last edges that differ, and a last edge, g1, into a vertex
    that receives two edges.  The chain f1.f2.f3 strips to the vertex a."""
    g = build()
    assert g._sole_edge_range == {"f1": "a", "f2": "b", "f3": "c", "k": "r"}

    def pair(mu, nu):
        return PathPair(Path(g, mu) if mu else vertex_path(g, "s"),
                        Path(g, nu) if nu else vertex_path(g, "s"))

    untouched = [pair((), ("f3",)), pair(("f3",), ()),
                 PathPair(Path(g, ("g1",)), Path(g, ("f2",))),
                 PathPair(Path(g, ("k", "g1")), Path(g, ("g1",))),
                 PathPair(Path(g, ("k", "g2")), Path(g, ("k", "g1")))]
    for p in untouched:
        t = _flat(p)
        assert _minimal(g, t) is t
        assert reference_minimal_pair(p) is p
    chain = pair(("f1", "f2", "f3"), ("f1", "f2", "f3"))
    a = vertex_path(g, "a")
    assert minimal_pair(chain) == PathPair(a, a)
    assert _minimal(g, _flat(chain)) == ((), (), "a", "a", "a")
    # The common tail f3 goes, then the legs part at f2 and g1.
    mixed = pair(("f1", "f2", "f3"), ("g1", "f3"))
    assert minimal_pair(mixed) == PathPair(Path(g, ("f1", "f2")), Path(g, ("g1",)))
    pairs = pairs_to_depth(g, 3) + untouched + [chain, mixed]
    for p in pairs:
        assert minimal_pair(p) == reference_minimal_pair(p)
        assert _minimal(g, _flat(p)) == _flat(reference_minimal_pair(p))


@given(seeds, st.sampled_from([IntegerRing(), RationalRing(), IntegersMod(4)]))
@settings(max_examples=200, deadline=None)
def test_minimal_pair_is_the_indicator_term(seed, ring):
    """A basic set's one canonical term is its minimal pair: the brute-force
    canonical form agrees, since the canonical form itself hands a lone pair
    to minimal_pair."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    p = sampling.random_pair(rng, g, max_len=3)
    p = p.extend(forward_walk(rng, g, p.source_vertex, 3))
    assert common_depth_terms(g, ring, [(p, ring.one())]) == {minimal_pair(p): ring.one()}
    assert list(indicator(p, ring).terms) == [minimal_pair(p)]


def test_compose_pairs_cases(loop_graph):
    e = Path(loop_graph, ("e",))
    ee = Path(loop_graph, ("e", "e"))
    v = vertex_path(loop_graph, "v")
    assert compose_pairs(PathPair(v, e), PathPair(ee, v)) == PathPair(e, v)
    assert compose_pairs(PathPair(v, e), PathPair(e, v)) == PathPair(v, v)
    assert compose_pairs(PathPair(e, v), PathPair(v, e)) == PathPair(e, e)


def test_compose_pairs_incompatible(line_graph):
    f1 = Path(line_graph, ("f1",))
    f2 = Path(line_graph, ("f2",))
    assert compose_pairs(PathPair(f1, f1), PathPair(f2, f2)) is None


def test_compose_pairs_rejects_pairs_from_different_graphs():
    """Both pairs range at v, so the flat rule alone would compose them
    into Z(f,v) on a graph that has no edge f."""
    a = Graph(["v"], [])
    b = Graph(["v"], [("f", "v", "v")])
    unit_a = PathPair(vertex_path(a, "v"), vertex_path(a, "v"))
    f_b = PathPair(Path(b, ("f",)), vertex_path(b, "v"))
    for p, q in ((unit_a, f_b), (f_b, unit_a)):
        with pytest.raises(ValueError, match="pairs live on different graphs"):
            compose_pairs(p, q)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_pair_rules_match_the_path_level_references(seed):
    """compose_pairs and minimal_pair run the flat pair kernel and agree
    with the rules on Path objects.  The sweep graph's depth-1 window holds
    vertex legs, Z(s,s) at the source s and Z(ft,ft), whose edge is the
    whole fan of t; Z(s,s) composes with no pair ranging elsewhere.  Deeper
    random pairs, extended along a common walk, get common tails to
    strip."""
    rng = sampling.rng_from_seed(seed)
    g = sweep_graph(rng)
    pairs = pairs_to_depth(g, 1)
    for _ in range(8):
        p = sampling.random_pair(rng, g, max_len=3)
        pairs.append(p.extend(forward_walk(rng, g, p.source_vertex, 2)))
    for p in pairs:
        assert minimal_pair(p) == reference_minimal_pair(p)
    composed = [compose_pairs(p, q) for p in pairs for q in pairs]
    assert composed == [reference_compose_pairs(p, q) for p in pairs for q in pairs]
    assert None in composed


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_plans_form_the_composites_of_the_composition_rule(seed):
    """For every pair p of a window, the composites formed from the range
    leg index's plan for p are the composition rule's on the partners of p,
    in order, and the partners are exactly the pairs that compose with p.
    The windows: a sweep graph's pairs (vertex legs, the source s) and
    their minimal pairs, and when the sweep graph collapses, the collapsed
    graph's minimal pairs and their images, as step (d) of the iso check
    indexes them."""
    rng = sampling.rng_from_seed(seed)
    g = sweep_graph(rng)
    window = [_flat(p) for p in pairs_to_depth(g, 2, limit=120)]
    windows = [window, [_minimal(g, t) for t in window]]
    spec = sampling.random_collapse_spec(rng, g)
    if spec is not None:
        cert = collapse(spec)
        F = cert.collapsed
        transport = _transport(cert.edge_paths)
        minimal = [_minimal(F, _flat(a)) for a in pairs_to_depth(F, 2, limit=120)]
        windows += [minimal, [_minimal(g, transport(m)) for m in minimal]]
    for pairs in windows:
        index = _RangeLegIndex(pairs)
        for p in pairs:
            found = partners(index, p)
            assert plan_composites(p, index.plan(p)) == [_compose(p, pairs[j])
                                                         for j in found]
            assert found == [j for j, q in enumerate(pairs)
                             if _compose(p, q) is not None]


def test_expand_partitions(rose2, line_graph):
    v = vertex_path(rose2, "v")
    pieces = expand(PathPair(v, v), 1)
    assert [q.render() for q in pieces] == ["Z(a,a)", "Z(b,b)"]
    # Source-terminated pairs survive expansion untouched.
    c = vertex_path(line_graph, "c")
    assert expand(PathPair(c, c), 3) == [PathPair(c, c)]
    with pytest.raises(ValueError):
        expand(PathPair(Path(rose2, ("a",)), Path(rose2, ("a",))), 0)


@given(seeds, st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_expand_yields_sorted_partition(seed, extra):
    """Pieces come in sort_key order and split the pair's probes exactly."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    p = sampling.random_pair(rng, g)
    pieces = expand(p, p.min_depth + extra)
    assert pieces == sorted(pieces, key=PathPair.sort_key)
    assert len(set(pieces)) == len(pieces)
    depth = extra + max(len(q.mu) for q in pieces) - len(p.mu)
    for pr in probes_in(p, depth):
        assert sum(1 for q in pieces if pair_contains(q, pr)) == 1


# -- trusted construction ------------------------------------------------------
#
# Operations on valid paths and pairs build their results without checking
# them again; these tests re-check every result through the public
# constructors instead.


def assert_valid_path(p):
    g = p.graph
    assert p == Path(g, p.edges, p.vertex)
    if p.edges:
        assert p.range_vertex == g.edge(p.edges[0]).range_vertex
        assert p.source_vertex == g.edge(p.edges[-1]).source_vertex
    else:
        assert p.range_vertex == p.source_vertex == p.vertex


def assert_valid_pair(p):
    assert_valid_path(p.mu)
    assert_valid_path(p.nu)
    assert PathPair(p.mu, p.nu) == p


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_trusted_paths_are_valid(seed):
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=4, max_edges=8)
    paths = enumerate_paths(g, max_len=3)
    made = list(paths)
    for p in paths:
        for n in range(len(p) + 1):
            made.append(strip_prefix(p, prefix(p, n)))
    for _ in range(30):
        p = rng.choice(paths)
        tails = [q for q in paths if q.range_vertex == p.source_vertex]
        made.append(concat(p, rng.choice(tails)))
    for pair in pairs_to_depth(g, 1):
        for piece in expand(pair, pair.min_depth + 2):
            made.extend((piece.mu, piece.nu))
    for p in made:
        assert_valid_path(p)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_trusted_pairs_are_valid(seed):
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=4, max_edges=8)
    window = pairs_to_depth(g, 2)
    made = []
    for _ in range(40):
        p, q = rng.choice(window), rng.choice(window)
        made.append(invert_pair(p))
        composed = compose_pairs(p, q)
        if composed is not None:
            made.append(composed)
        for tau in enumerate_paths(g, from_range=p.source_vertex, max_len=2):
            made.append(p.extend(tau))
    ring = IntegerRing()
    f = sampling.random_element(rng, g, ring, max_terms=4, max_len=2)
    h = sampling.random_element(rng, g, ring, max_terms=4, max_len=2)
    for element in (f, h, convolve(f, h), add(f, h)):
        made.extend(element.terms)
    for p in made:
        assert_valid_pair(p)


# -- set semantics ------------------------------------------------------------


@given(seeds)
@example(31)  # two-loop graph where the middle sits deeper than both pairs
@settings(max_examples=40, deadline=None)
def test_compose_pairs_matches_factorization(seed):
    """A candidate probe lies in the composition exactly when some middle
    leg splits it into a member of p followed by a member of q."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    p = sampling.random_pair(rng, g)
    q = sampling.random_pair(rng, g)
    got = compose_pairs(p, q)
    horizon = horizon_for(p, q, *([got] if got is not None else []))
    mu_tails = boundary_tails(g, p.source_vertex, horizon - len(p.mu))
    nu_tails = boundary_tails(g, q.source_vertex, horizon - len(q.nu))
    # A split of a probe forces mid = q.mu plus the exact tail that built
    # the probe's nu leg, so those tails enumerate every possible middle.
    mids = [concat(q.mu, w) for w in nu_tails]
    assume(len(mu_tails) * len(nu_tails) <= 2000)

    def splits(pr):
        return any(mid.source_vertex == pr.mu_full.source_vertex
                   and member(p, GroupoidProbe(pr.mu_full, mid))
                   and member(q, GroupoidProbe(mid, pr.nu_full))
                   for mid in mids)

    for t in mu_tails:
        muf = concat(p.mu, t)
        for w in nu_tails:
            nuf = concat(q.nu, w)
            if muf.source_vertex != nuf.source_vertex:
                continue
            pr = GroupoidProbe(muf, nuf)
            in_composite = got is not None and pair_contains(got, pr)
            assert in_composite == splits(pr), pr.render()
