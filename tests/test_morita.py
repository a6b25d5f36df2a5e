"""The linking matrix algebra, its context maps, and surjectivity witnesses."""

import itertools
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import pytest

from steinalg import (Corner, CornerSupportError, Graph, InputError,
                      IntegerRing, IntegersMod, LinkingElement, Path, PathPair,
                      RationalRing, SteinbergElement, Transversal, add,
                      concat, convolve, corner_of, eq_ops_check, indicator,
                      least_connectors, linking_convolve, load_graph,
                      morita_report, pairs_to_depth, phi, psi,
                      surjectivity_witness, vertex_path, zero)
from steinalg import morita, sampling
from steinalg.cylinder import _flat
from steinalg.morita import element_supported_in
from tests.conftest import (LOOP_TEXT, OUTSPLIT_TEXT, backward_walk,
                            element_level_surjectivity_witness, embed,
                            long_line, pair_supported_in,
                            path_walk_corner_element, path_walk_element,
                            path_walk_pair, per_target_witness_rows,
                            random_transversal, relaxed_connectors)

seeds = st.integers(min_value=0, max_value=10 ** 9)
RINGS = (IntegerRing(), RationalRing(), IntegersMod(4))

BLOCK_CORNERS = {"f11": Corner.GG, "f12": Corner.GZ,
                 "f21": Corner.ZG, "f22": Corner.HH}


def one_way_graph():
    """Collapsible at v, yet v cannot reach the retained vertex u."""
    return Graph(["v", "u"], [("e", "v", "u")])


def two_cycle_pairs(g):
    v = vertex_path(g, "v")
    w = vertex_path(g, "w")
    e1 = Path(g, ("e1",))
    return v, w, e1, PathPair(e1, w), PathPair(w, e1)


# -- corners -------------------------------------------------------------------


def test_corner_of_frozen_table(two_cycle):
    f0 = ["v"]
    v, w, e1, gz, zg = two_cycle_pairs(two_cycle)
    assert corner_of(PathPair(v, v), f0) == Corner.GG
    assert corner_of(gz, f0) == Corner.GZ
    assert corner_of(zg, f0) == Corner.ZG
    assert corner_of(PathPair(w, w), f0) == Corner.HH


def test_supports_overlap(two_cycle):
    # A GG pair satisfies every one-sided pattern; HH constrains nothing.
    f0 = ["v"]
    v, w, e1, gz, zg = two_cycle_pairs(two_cycle)
    unit = PathPair(v, v)
    assert all(pair_supported_in(unit, f0, c) for c in Corner)
    assert pair_supported_in(gz, f0, Corner.HH)
    assert not pair_supported_in(gz, f0, Corner.GG)
    assert not pair_supported_in(PathPair(w, w), f0, Corner.GZ)
    f = indicator(unit, IntegerRing())
    assert element_supported_in(f, f0, Corner.GZ)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_element_support_reads_the_pair_rule_off_the_stored_form(seed):
    """element_supported_in reads range vertices off the stored flat pairs;
    it agrees with pair_supported_in on every term of .terms."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f0 = [v for v in g.vertices if rng.random() < 0.5]
    f = sampling.random_element(rng, g, rng.choice(RINGS), max_terms=4)
    for c in Corner:
        assert (element_supported_in(f, f0, c)
                == all(pair_supported_in(p, f0, c) for p in f.terms))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_support_error_names_the_first_term_outside_the_block(seed):
    """Each block rejects an element with the first term of .terms, in
    stored order, outside its pattern, as a rescan of .terms would find."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f0 = [v for v in g.vertices if rng.random() < 0.5]
    t = Transversal(g, f0)
    ring = rng.choice(RINGS)
    f = sampling.random_element(rng, g, ring, max_terms=4)
    for name, c in BLOCK_CORNERS.items():
        outside = [p for p in f.terms if not pair_supported_in(p, f0, c)]
        if not outside:
            assert getattr(LinkingElement(t, ring, **{name: f}), name) == f
            continue
        with pytest.raises(CornerSupportError) as err:
            LinkingElement(t, ring, **{name: f})
        assert str(err.value) == ("block %s term %s violates the %s support pattern"
                                  % (name, outside[0].render(), c.render()))


# -- transversals ----------------------------------------------------------------


def test_transversal_accepts_two_cycle(two_cycle):
    assert Transversal(two_cycle, ["v"]).unreachable == ()
    conn = least_connectors(two_cycle, ["v"])
    assert conn["v"].render() == "v"
    assert conn["w"].render() == "e1"


def test_transversal_rejects_unreachable_vertex():
    g = one_way_graph()
    assert Transversal(g, ["u"]).unreachable == ("v",)
    assert least_connectors(g, ["u"])["v"] is None
    # The same split is a perfectly valid collapse instance.
    from steinalg import CollapseSpec, validate_collapsible
    assert validate_collapsible(CollapseSpec(g, ["v"])).ok


def test_least_connectors_prefer_short_then_early(outsplit_graph):
    conn = least_connectors(outsplit_graph, ["ua", "ub"])
    assert conn["u"].render() == "ra"
    assert len(conn["ua"]) == 0 and len(conn["ub"]) == 0


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_least_connectors_match_the_relaxation(seed):
    """The breadth-first pass finds the connectors the relaxation finds, on
    random graphs with loops and parallel edges, for a random retained set
    and for the empty one.  The added vertex x emits no edge and is never
    retained, so it has no connector in any case."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=7, max_edges=14)
    vertices = list(g.vertices)
    edges = [(e.id, e.range_vertex, e.source_vertex) for e in g.edges]
    g = Graph(vertices + ["x"], edges + [("fx", "x", rng.choice(vertices))])
    kept = [v for v in vertices if rng.random() < 0.3]
    for f0 in ([], kept):
        got = least_connectors(g, f0)
        assert got == relaxed_connectors(g, f0)
        assert got["x"] is None


def test_transversal_value_equality(two_cycle):
    assert Transversal(two_cycle, ["v"]) == Transversal(two_cycle, ["v"])
    assert Transversal(two_cycle, ["v"]) != Transversal(two_cycle, ["w"])


# -- the matrix algebra ------------------------------------------------------------


def test_linking_element_is_immutable(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    a = LinkingElement(t, zring)
    with pytest.raises(AttributeError):
        a.f11 = zero(two_cycle, zring)
    assert a.is_zero()
    assert a.render() == "[[0 | 0] [0 | 0]]"


def test_blocks_enforce_their_patterns(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    w = vertex_path(two_cycle, "w")
    hh = indicator(PathPair(w, w), zring)
    with pytest.raises(CornerSupportError, match="block f12"):
        LinkingElement(t, zring, f12=hh)
    with pytest.raises(CornerSupportError, match="block f11"):
        LinkingElement(t, zring, f11=hh)
    assert LinkingElement(t, zring, f22=hh).f22 == hh


def test_only_given_blocks_are_checked(two_cycle, zring, monkeypatch):
    """A block left out is filled in with zero, which every support pattern
    allows, so only the blocks passed in are checked; a zero passed in is
    checked like any other block."""
    checked = []
    require = morita._require_support

    def counting_require(f, f0, corner, role):
        checked.append(role)
        require(f, f0, corner, role)

    monkeypatch.setattr(morita, "_require_support", counting_require)
    t = Transversal(two_cycle, ["v"])
    w = vertex_path(two_cycle, "w")
    hh = indicator(PathPair(w, w), zring)
    assert LinkingElement(t, zring).is_zero()
    assert checked == []
    assert LinkingElement(t, zring, f22=hh).f22 == hh
    assert checked == ["block f22"]
    LinkingElement(t, zring, f12=zero(two_cycle, zring))
    assert checked == ["block f22", "block f12"]
    with pytest.raises(CornerSupportError, match="block f11"):
        LinkingElement(t, zring, f11=hh)


def test_embed_targets_diagonal_blocks(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    v = vertex_path(two_cycle, "v")
    f = indicator(PathPair(v, v), zring)
    assert embed(t, f, Corner.GG).f11 == f
    assert embed(t, f, Corner.HH).f22 == f
    with pytest.raises(CornerSupportError):
        embed(t, f, Corner.GZ)


def test_linking_rejects_mismatched_operands(two_cycle, rose2, zring, qring):
    t = Transversal(two_cycle, ["v"])
    with pytest.raises(ValueError, match="different graph or ring"):
        LinkingElement(t, zring, f11=zero(rose2, zring))
    a = LinkingElement(t, zring)
    with pytest.raises(ValueError, match="different algebras"):
        linking_convolve(a, LinkingElement(t, qring))
    with pytest.raises(ValueError, match="different retained sets"):
        linking_convolve(a, LinkingElement(Transversal(two_cycle, ["v", "w"]), zring))


def test_linking_convolve_frozen(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    _, _, _, gz, zg = two_cycle_pairs(two_cycle)
    m = LinkingElement(t, zring, f12=indicator(gz, zring))
    n = LinkingElement(t, zring, f21=indicator(zg, zring))
    prod = linking_convolve(m, n)
    assert prod.f11.render() == "1 * Z(v,v)"
    assert prod.f12.is_zero() and prod.f21.is_zero() and prod.f22.is_zero()
    back = linking_convolve(n, m)
    assert back.f22.render() == "1 * Z(w,w)"


def random_linking(rng, g, ring, f0, t):
    blocks = {name: sampling.random_corner_element(rng, g, ring, f0, corner)
              for name, corner in BLOCK_CORNERS.items()}
    return LinkingElement(t, ring, **blocks)


def block_sum(a, b):
    """The blockwise sum of two matrix elements."""
    return LinkingElement(a.transversal, a.ring,
                          **{name: add(getattr(a, name), getattr(b, name))
                             for name in BLOCK_CORNERS})


def local_matmul(a, b):
    """Independent 2x2 block multiply, written out index by index."""
    names = (("f11", "f12"), ("f21", "f22"))
    blocks = {}
    for i in range(2):
        for j in range(2):
            acc = zero(a.transversal.graph, a.ring)
            for k in range(2):
                acc = add(acc, convolve(getattr(a, names[i][k]),
                                        getattr(b, names[k][j])))
            blocks[names[i][j]] = acc
    return LinkingElement(a.transversal, a.ring, **blocks)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_linking_convolve_matches_local_matmul(seed):
    ring = IntegersMod(4)
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f0 = random_transversal(rng, g)
    t = Transversal(g, f0)
    a = random_linking(rng, g, ring, f0, t)
    b = random_linking(rng, g, ring, f0, t)
    assert linking_convolve(a, b) == local_matmul(a, b)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_linking_convolve_associative_distributive(seed):
    ring = IntegerRing()
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f0 = random_transversal(rng, g)
    t = Transversal(g, f0)
    a, b, c = (random_linking(rng, g, ring, f0, t) for _ in range(3))
    assert (linking_convolve(linking_convolve(a, b), c)
            == linking_convolve(a, linking_convolve(b, c)))
    assert (linking_convolve(a, block_sum(b, c))
            == block_sum(linking_convolve(a, b), linking_convolve(a, c)))


# -- context maps --------------------------------------------------------------------


def test_psi_phi_frozen(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    _, _, _, gz, zg = two_cycle_pairs(two_cycle)
    m = indicator(gz, zring)
    n = indicator(zg, zring)
    assert psi(t, m, n).render() == "1 * Z(v,v)"
    assert phi(t, n, m).render() == "1 * Z(w,w)"


def test_psi_phi_enforce_supports(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    _, _, _, gz, zg = two_cycle_pairs(two_cycle)
    m = indicator(gz, zring)
    n = indicator(zg, zring)
    with pytest.raises(CornerSupportError, match="psi left factor"):
        psi(t, n, m)
    with pytest.raises(CornerSupportError, match="phi right factor"):
        phi(t, n, n)


def test_eq_ops_frozen_and_misassigned(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    _, _, _, gz, zg = two_cycle_pairs(two_cycle)
    m = indicator(gz, zring)
    n = indicator(zg, zring)
    assert eq_ops_check(t, m, m, n, n)
    with pytest.raises(CornerSupportError):
        eq_ops_check(t, n, n, m, m)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_eq_ops_on_random_tuples(ring, seed):
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f0 = random_transversal(rng, g)
    t = Transversal(g, f0)
    args = [sampling.random_corner_element(rng, g, ring, f0, c)
            for c in (Corner.GZ, Corner.GZ, Corner.ZG, Corner.ZG)]
    assert eq_ops_check(t, *args)


def test_context_maps_reject_operands_from_another_graph(zring):
    """Two loads of one text are two graphs: operands and targets from the
    other load are rejected, not computed on."""
    g, h = load_graph(OUTSPLIT_TEXT), load_graph(OUTSPLIT_TEXT)
    t = Transversal(g, ["u"])
    unit = PathPair(vertex_path(h, "u"), vertex_path(h, "u"))
    m = indicator(unit, zring)
    with pytest.raises(ValueError, match="psi left factor lives on a different graph"):
        psi(t, m, m)
    with pytest.raises(ValueError, match="phi left factor lives on a different graph"):
        phi(t, m, m)
    with pytest.raises(ValueError, match="m lives on a different graph"):
        eq_ops_check(t, m, m, m, m)
    for side in ("psi", "phi"):
        with pytest.raises(ValueError, match="target pair lives on a different graph"):
            surjectivity_witness(t, zring, unit, side)
    with pytest.raises(ValueError, match="pair lives on a different graph"):
        corner_of(unit, t.f0)
    for corner in Corner:
        with pytest.raises(ValueError, match="element lives on a different graph"):
            element_supported_in(m, t.f0, corner)
    # A plain collection of vertex names is read on any graph.
    assert corner_of(unit, ["u"]) == Corner.GG
    assert element_supported_in(m, ["u"], Corner.GG)


# -- witnesses -------------------------------------------------------------------------


def test_psi_witness_frozen(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    v = vertex_path(two_cycle, "v")
    target = PathPair(v, Path(two_cycle, ("e1", "e2")))
    w = surjectivity_witness(t, zring, target, "psi")
    assert w.ok, w.report.failures()
    assert len(w.pieces) == 1
    v1, n1 = w.pieces[0]
    assert v1.render() == "Z(v,v)"
    assert n1.render() == "Z(v,e1.e2)"
    assert w.report.value("factors", "pieces-disjoint") == "vacuous (single piece)"


def test_phi_witness_frozen(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    w_ = vertex_path(two_cycle, "w")
    target = PathPair(w_, w_)
    w = surjectivity_witness(t, zring, target, "phi")
    assert w.ok, w.report.failures()
    assert w.report.value("target", "connector") == "e1"
    v1, n1 = w.pieces[0]
    assert v1.render() == "Z(e1,w)"
    assert n1.render() == "Z(w,e1)"


def test_passing_witness_rows_carry_no_failure_text(two_cycle, zring):
    """A target check shows its reason only when it fails."""
    t = Transversal(two_cycle, ["v"])
    v = vertex_path(two_cycle, "v")
    w = surjectivity_witness(t, zring, PathPair(v, v), "phi")
    assert w.ok
    assert w.report.value("target", "connector-exists") == "pass"
    w = surjectivity_witness(t, zring, PathPair(v, v), "psi")
    assert w.ok
    assert w.report.value("target", "supported") == "pass"
    w_ = vertex_path(two_cycle, "w")
    w = surjectivity_witness(t, zring, PathPair(w_, w_), "psi")
    assert (w.report.value("target", "supported")
            == "fail (psi targets need both legs retained)")


def test_psi_witness_needs_gg_target(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    w_ = vertex_path(two_cycle, "w")
    w = surjectivity_witness(t, zring, PathPair(w_, w_), "psi")
    assert not w.ok
    assert w.report.failures() == ["target.supported"]
    assert w.pieces == ()


def test_phi_witness_needs_connector(zring):
    g = one_way_graph()
    t = Transversal(g, ["u"])
    v = vertex_path(g, "v")
    w = surjectivity_witness(t, zring, PathPair(v, v), "phi")
    assert not w.ok
    assert w.report.failures() == ["target.connector-exists"]


def test_witness_side_validation(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    v = vertex_path(two_cycle, "v")
    with pytest.raises(ValueError, match="side"):
        surjectivity_witness(t, zring, PathPair(v, v), "both")


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_witnesses_on_random_targets(seed):
    ring = IntegerRing()
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f0 = random_transversal(rng, g)
    t = Transversal(g, f0)
    for _ in range(4):
        pair = sampling.random_pair(rng, g)
        assert surjectivity_witness(t, ring, pair, "phi").ok
        if corner_of(pair, f0) == Corner.GG:
            assert surjectivity_witness(t, ring, pair, "psi").ok


def assert_matches_oracle(t, ring, pair, side):
    got = surjectivity_witness(t, ring, pair, side)
    want = element_level_surjectivity_witness(t, ring, pair, side)
    assert got.report.render_kv() == want.report.render_kv()
    assert got.pieces == want.pieces
    return got


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_pair_witness_matches_element_oracle(ring, seed):
    """On every pair of the depth-2 window, both sides' reports equal the
    element-level oracle's byte for byte, over a transversal and over a
    random retained set, where some vertices have no connector."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=4, max_edges=6)
    kept = [v for v in g.vertices if rng.random() < 0.5]
    for f0 in (random_transversal(rng, g), kept):
        t = Transversal(g, f0)
        for pair in pairs_to_depth(g, 2):
            for side in ("psi", "phi"):
                assert_matches_oracle(t, ring, pair, side)


def corrupt_connectors(rng, t):
    """Per vertex, a connector that is not its least one: a path leaving
    the retained set where the vertex lies outside it, else a longer path
    into it through one edge out of the vertex, where there is one.  Then
    about a third of the vertices, where there is another vertex, take a
    random path from another vertex instead, ranging in or outside the
    retained set."""
    g, f0 = t.graph, t.f0
    bad = dict(t._connectors)
    for u in g.vertices:
        if u not in f0:
            bad[u] = backward_walk(rng, g, u, 2)
            if bad[u].range_vertex in f0:
                bad[u] = vertex_path(g, u)
            continue
        longer = [concat(t._connectors[e.range_vertex], Path(g, (e.id,)))
                  for e in g.edges_with_source(u)
                  if t._connectors[e.range_vertex] is not None]
        if longer:
            bad[u] = rng.choice(longer)
    for u in g.vertices:
        others = [w for w in g.vertices if w != u]
        if others and rng.random() < 1 / 3:
            bad[u] = backward_walk(rng, g, rng.choice(others), 2)
    return bad


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_pair_witness_on_corrupted_connectors(seed):
    """A corrupted connector fails ``factors.piece-1-blocks`` alone, its
    defects named in order.  One that starts at another vertex gives no
    pair v, as PathPair's own check agrees, and no pieces, wherever it
    ranges.  Else one ranging outside the retained set makes the oracle's
    matrix blocks raise, and the pair witness names v outside block (1,2).
    A longer connector into the retained set still factors every target,
    as the oracle agrees.  The second factor n = t v^-1 takes t's own
    second leg, so no connector leaves it missing."""
    ring = IntegerRing()
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=4, max_edges=6)
    t = Transversal(g, random_transversal(rng, g))
    object.__setattr__(t, "_connectors", corrupt_connectors(rng, t))
    for pair in pairs_to_depth(g, 2):
        conn = t._connectors[pair.source_vertex]
        if conn.source_vertex == pair.source_vertex and conn.range_vertex in t.f0:
            assert assert_matches_oracle(t, ring, pair, "phi").ok
            continue
        w = surjectivity_witness(t, ring, pair, "phi")
        assert w.report.failures() == ["factors.piece-1-blocks"]
        if conn.source_vertex != pair.source_vertex:
            with pytest.raises(ValueError, match="common source vertex"):
                PathPair(conn, pair.nu)
            assert w.pieces == ()
            want = "connector %s does not start at %s" % (conn.render(),
                                                          pair.source_vertex)
        else:
            with pytest.raises(CornerSupportError):
                element_level_surjectivity_witness(t, ring, pair, "phi")
            want = "%s violates the GZ support pattern" % w.pieces[0][0].render()
            assert w.pieces[0][0] == PathPair(conn, pair.nu)
        assert w.report.value("factors", "piece-1-blocks") == "fail (%s)" % want


def test_pair_witness_names_the_factor_outside_its_block(two_cycle, zring):
    t = Transversal(two_cycle, ["v"])
    w_ = vertex_path(two_cycle, "w")
    object.__setattr__(t, "_connectors", {"v": vertex_path(two_cycle, "v"), "w": w_})
    w = surjectivity_witness(t, zring, PathPair(w_, w_), "phi")
    assert (w.report.value("factors", "piece-1-blocks")
            == "fail (Z(w,w) violates the GZ support pattern)")


def test_witness_with_a_connector_from_another_vertex_has_no_pieces(outsplit_graph,
                                                                    zring):
    """A connector that starts at another vertex than the target's source
    vertex gives no factor pair: the witness returns no pieces and fails
    ``factors.piece-1-blocks`` alone, naming the connector."""
    t = Transversal(outsplit_graph, ["ua", "ub"])
    object.__setattr__(t, "_connectors",
                       dict(t._connectors, u=Path(outsplit_graph, ("ra", "sa"))))
    u = vertex_path(outsplit_graph, "u")
    w = surjectivity_witness(t, zring, PathPair(u, u), "phi")
    assert w.pieces == ()
    assert w.report.failures() == ["factors.piece-1-blocks"]
    assert (w.report.value("factors", "piece-1-blocks")
            == "fail (connector ra.sa does not start at u)")


def test_witnesses_build_no_elements(monkeypatch):
    """Witnesses and a report without eq-ops samples convolve nothing, build
    no indicator, multiply no matrix elements and scan no block: the
    connector decides the blocks."""
    def refuse(*args, **kwargs):
        raise AssertionError("a witness fell back to elements")

    for name in ("convolve", "linking_convolve", "indicator", "_first_outside"):
        monkeypatch.setattr(morita, name, refuse, raising=False)
    g = load_graph(OUTSPLIT_TEXT)
    zring = IntegerRing()
    for f0 in (["u"], ["ua", "ub"]):
        t = Transversal(g, f0)
        for pair in pairs_to_depth(g, 3):
            assert surjectivity_witness(t, zring, pair, "phi").ok
            if corner_of(pair, f0) == Corner.GG:
                assert surjectivity_witness(t, zring, pair, "psi").ok
    for t0 in (["u"], ["ua", "ub"]):
        assert morita_report(g, t0, zring, depth=3, eq_samples=0).ok


# -- random samples ---------------------------------------------------------------------


@pytest.mark.parametrize("corner", list(Corner), ids=lambda c: c.render())
def test_corner_sampling_with_an_empty_retained_set(corner, zring):
    """No leg ranges in an empty retained set: a block constraining a leg
    holds only the zero element, and a constrained pair is a typed error."""
    g = load_graph(LOOP_TEXT)
    rng = sampling.rng_from_seed(0)
    f = sampling.random_corner_element(rng, g, zring, [], corner)
    assert element_supported_in(f, [], corner)
    if corner != Corner.HH:
        assert f.is_zero()
    row_req, col_req = corner.value
    if row_req or col_req:
        name = "row_in" if row_req else "col_in"
        with pytest.raises(ValueError, match="%s is empty" % name):
            sampling.random_pair(rng, g, 2, [] if row_req else None,
                                 [] if col_req else None)


def draw_both(state, draw, oracle, *args):
    """The flat draw and the Path-walk oracle's draw on args from one rng
    state, each with its generator's state after it.  An element is given
    as its stored form in order and its rendering, an exception as its
    type and message."""
    out = []
    for f in (draw, oracle):
        rng = random.Random()
        rng.setstate(state)
        try:
            got = f(rng, *args)
        except (ValueError, InputError) as exc:
            got = (type(exc), str(exc))
        if isinstance(got, SteinbergElement):
            got = (list(got.flat.items()), got.den, got.render())
        out.append((got, rng.getstate()))
    return out


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_flat_sampling_draws_what_the_path_walk_draws(ring, seed):
    """random_pair, random_element and random_corner_element draw what the
    Path walks draw, term by term, and leave the generator in the same
    state: on random graphs, whose source vertices stop walks early, and on
    a line, with and without constraints, for every corner over a random
    retained set, which may be empty."""
    rng = sampling.rng_from_seed(seed)
    if seed % 3:
        g = sampling.random_graph(rng, max_vertices=5, max_edges=8)
    else:
        g = long_line(4)
    f0 = [v for v in g.vertices if rng.random() < 0.5]
    row = rng.choice([None, f0 or g.vertices[:1]])
    col = rng.choice([None, f0 or g.vertices[-1:]])
    max_len = rng.randint(0, 3)
    state = rng.getstate()
    flat, path = draw_both(state, sampling.random_pair, path_walk_pair, g, max_len, row, col)
    assert flat == path
    flat, path = draw_both(state, sampling.random_element, path_walk_element, g, ring)
    assert flat == path
    for corner in Corner:
        flat, path = draw_both(state, sampling.random_corner_element,
                               path_walk_corner_element, g, ring, f0, corner)
        assert flat == path


def test_flat_sampling_takes_the_unit_fallback_as_the_path_walk_does(line_graph):
    """On the line a <- b <- c no leg of length <= 1 ranges at c from a
    pair whose first leg ranges at a, so all 40 x 20 tries fail and both
    samplers fall back to the unit pair at the first row vertex."""
    state = random.Random(3).getstate()
    flat, path = draw_both(state, sampling.random_pair, path_walk_pair,
                           line_graph, 1, ["a"], ["c"])
    assert flat == path
    assert flat[0].render() == "Z(a,a)"


@pytest.mark.parametrize("row, col, error, message", [
    ([], None, ValueError, "row_in is empty: no leg can range there"),
    (None, [], ValueError, "col_in is empty: no leg can range there"),
    (["x"], [], ValueError, "col_in is empty: no leg can range there"),
    (["x"], None, InputError, "vertex path needs a declared vertex, got 'x'"),
    (None, ["x"], InputError, "vertex path needs a declared vertex, got 'x'"),
    (["x"], ["x"], InputError, "vertex path needs a declared vertex, got 'x'"),
])
def test_sampling_rejects_empty_and_undeclared_constraints(line_graph, row, col, error,
                                                           message):
    """An empty constraint raises ValueError and a constraint of undeclared
    vertices raises InputError, as the Path walk raised them."""
    state = random.Random(5).getstate()
    flat, path = draw_both(state, sampling.random_pair, path_walk_pair,
                           line_graph, 2, row, col)
    assert flat[0] == path[0] == (error, message)


# -- the pipeline ------------------------------------------------------------------------


def test_pairs_to_depth_counts(loop_graph):
    assert len(pairs_to_depth(loop_graph, 2)) == 9


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_morita_report_passes_on_fixture(two_cycle, ring):
    rep = morita_report(two_cycle, ["w"], ring, depth=2, seed=3, eq_samples=5)
    assert rep.ok, rep.failures()
    assert rep.value("transversal", "meets-every-orbit") == "pass"
    assert rep.value("context", "surjective-morita-context") == "pass"


def test_morita_report_empty_collapse(two_cycle, zring):
    rep = morita_report(two_cycle, [], zring, depth=2, eq_samples=3)
    assert rep.ok
    assert rep.value("setup", "collapsed") == "(none)"
    assert rep.value("corners", "HH") == "0"


def test_morita_report_without_eq_samples_is_vacuous(two_cycle, zring):
    """No sampled tuple tests no identity: the row is vacuous, not a pass,
    and a negative sample count is refused."""
    rep = morita_report(two_cycle, ["w"], zring, depth=2, eq_samples=0)
    assert rep.value("eq-ops", "tuples") == "0"
    assert rep.value("eq-ops", "identities") == "vacuous (no tuples sampled)"
    assert rep.ok
    with pytest.raises(ValueError, match="eq_samples must be >= 0"):
        morita_report(two_cycle, ["w"], zring, depth=2, eq_samples=-1)


def test_morita_report_rejects_bad_collapse(loop_graph, zring):
    with pytest.raises(ValueError, match="collapse preconditions failed"):
        morita_report(loop_graph, ["v"], zring)


def test_morita_report_certifies_transversal_failure(zring):
    rep = morita_report(one_way_graph(), ["v"], zring, depth=2, eq_samples=3)
    assert not rep.ok
    assert "transversal.meets-every-orbit" in rep.failures()
    assert rep.value("witnesses", "skipped") == "vacuous (transversal failed)"
    assert "context.surjective-morita-context" in rep.failures()


@given(seeds, st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_morita_report_counts_match_the_listed_window(seed, depth):
    """The corner rows and both witness target rows equal a count of the
    listed window, each pair classified by corner_of."""
    spec = sampling.collapse_corpus(seed, 1)[0]
    g, f0 = spec.graph, spec.f0
    rep = morita_report(g, spec.t0, IntegerRing(), depth=depth, eq_samples=0)
    pairs = pairs_to_depth(g, depth)
    cells = {c: sum(corner_of(p, f0) is c for p in pairs) for c in Corner}
    assert {c: rep.value("corners", c.render()) for c in Corner} == \
        {c: str(n) for c, n in cells.items()}
    met = rep.value("transversal", "meets-every-orbit") == "pass"
    for side, total in (("psi", cells[Corner.GG]), ("phi", len(pairs))):
        want = "%d of %d" % (min(total, morita._WITNESS_CAP), total) if met else None
        assert rep.value("witnesses", "%s-targets" % side) == want


def test_morita_report_does_not_list_the_window(zring):
    """On the 2-rose with a tail at depth 8 the window holds 586,757 pairs;
    the report counts them and lists at most the witness cap per side."""
    g = load_graph("vertices: v, w\nedge: a v <- v\nedge: b v <- v\nedge: c w <- v\n")
    tracemalloc.start()
    try:
        rep = morita_report(g, [], zring, depth=8, eq_samples=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert rep.value("witnesses", "phi-targets") == "1024 of 586757"
    assert peak < 8 * 2 ** 20


def test_morita_report_is_deterministic(two_cycle, zring):
    a = morita_report(two_cycle, ["w"], zring, depth=2, seed=11, eq_samples=4)
    b = morita_report(two_cycle, ["w"], zring, depth=2, seed=11, eq_samples=4)
    assert a.render_text() == b.render_text()
    assert a.render_kv() == b.render_kv()


# -- the report's witness decision ---------------------------------------------------------


def witness_windows():
    """(transversal, graph, targets): the outsplit fixture over both retained
    sets at depths 2-5, and each instance of the acceptance corpus at depth
    3, where most instances have vertices without a connector."""
    g = load_graph(OUTSPLIT_TEXT)
    for f0 in (["ua", "ub"], ["u"]):
        t = Transversal(g, f0)
        for depth in (2, 3, 4, 5):
            yield t, g, pairs_to_depth(g, depth)
    for spec in sampling.collapse_corpus(13, 20):
        yield Transversal(spec.graph, spec.f0), spec.graph, pairs_to_depth(spec.graph, 3)


def test_report_decision_equals_the_witness_report():
    """On every target of the windows, on both sides, the decision
    morita_report reads equals the ok of the rendered witness report."""
    zring = IntegerRing()
    outcomes = {True: 0, False: 0}
    for t, g, targets in witness_windows():
        for pair in targets:
            for side in ("psi", "phi"):
                got = morita._holds(morita._witness_rows(t, g, _flat(pair), side))
                assert got == surjectivity_witness(t, zring, pair, side).ok
                outcomes[got] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


# (retained set, vertex, connector edges, depth) -> the parent's
# witnesses.phi-verified row with that vertex's connector replaced.
CORRUPTED_PHI_ROWS = {
    # a wrong path: sa starts at ua, not at u, and ranges at u
    (("u",), "u", ("sa",), 2): "fail (Z(u,u): factors.piece-1-blocks)",
    (("u",), "u", ("sa",), 3): "fail (Z(u,u): factors.piece-1-blocks)",
    # the unit at u, re-ranged outside the retained set
    (("u",), "u", (), 3): "fail (Z(u,u): factors.piece-1-blocks)",
    # paths from ua and ub that range outside the retained set {u}
    (("ua", "ub"), "ua", ("ra", "sa"), 2): "fail (Z(sa,sa): factors.piece-1-blocks)",
    (("ua", "ub"), "ub", ("rb",), 2): "fail (Z(sb,sb): factors.piece-1-blocks)",
    (("ua", "ub"), "ub", ("rb",), 3):
        "fail (Z(sa.ra.sb,sa.ra.sb): factors.piece-1-blocks)",
    # a path into the retained set {ua, ub} that starts at ua, not at u;
    # every composite still forms, so only the source check catches it
    (("u",), "u", ("ra", "sa"), 2): "fail (Z(u,u): factors.piece-1-blocks)",
    (("u",), "u", ("ra", "sa"), 3): "fail (Z(u,u): factors.piece-1-blocks)",
}


@pytest.mark.parametrize("case", sorted(CORRUPTED_PHI_ROWS), ids=repr)
def test_corrupted_connectors_fail_the_report_as_before(case, monkeypatch):
    """With one vertex's connector corrupted, morita_report names the first
    failing target and its failed rows (the first six cases exactly as
    before witnesses were decided without a report), and every target's
    decision still equals its witness report's ok."""
    t0, vertex, edges, depth = case
    g = load_graph(OUTSPLIT_TEXT)
    least = morita.least_connectors

    def corrupted(graph, f0):
        out = least(graph, f0)
        out[vertex] = Path(graph, edges) if edges else vertex_path(graph, vertex)
        return out

    monkeypatch.setattr(morita, "least_connectors", corrupted)
    zring = IntegerRing()
    rep = morita_report(g, list(t0), zring, depth=depth, eq_samples=2)
    assert rep.value("witnesses", "psi-verified") == "pass"
    assert rep.value("witnesses", "phi-verified") == CORRUPTED_PHI_ROWS[case]
    t = Transversal(g, [v for v in g.vertices if v not in t0])
    failing = 0
    for pair in pairs_to_depth(g, depth):
        w = surjectivity_witness(t, zring, pair, "phi")
        assert morita._holds(morita._witness_rows(t, g, _flat(pair), "phi")) == w.ok
        failing += not w.ok
    assert failing > 0


def target_groups(pairs):
    """The positions in a target list where a source vertex's targets
    start, and the list's length."""
    out, pos = [], 0
    for _, group in itertools.groupby(pairs, key=lambda p: p.source_vertex):
        out.append(pos)
        pos += sum(1 for _ in group)
    return out + [pos]


def recorded_report(mp, *args, **kwargs):
    """morita_report with its witness decisions recorded: the (side, source
    vertex) of each ``_witness_rows`` call and each ``_flat`` call made
    outside ``surjectivity_witness``, and the side of each witness built."""
    calls, flats, witnesses, inside = [], [], [], []
    rows, witness, flat = morita._witness_rows, morita.surjectivity_witness, morita._flat

    def record_rows(transversal, graph, t, side):
        if not inside:
            calls.append((side, t[2]))
        return rows(transversal, graph, t, side)

    def record_witness(transversal, ring, pair, side):
        witnesses.append(side)
        inside.append(side)
        try:
            return witness(transversal, ring, pair, side)
        finally:
            inside.pop()

    def record_flat(p):
        if not inside:
            flats.append(p)
        return flat(p)

    with mp.context() as inner:
        inner.setattr(morita, "_witness_rows", record_rows)
        inner.setattr(morita, "surjectivity_witness", record_witness)
        inner.setattr(morita, "_flat", record_flat)
        rep = morita_report(*args, **kwargs)
    return rep, calls, flats, witnesses


def test_witness_sections_match_the_per_target_loop():
    """On collapse instances whose connectors are corrupted (three in four)
    or left as they are, with the witness cap just before, at and just past
    each boundary between source vertices' targets, the witness rows equal
    the per-target loop's, the failing target and its failed rows included.
    The report decides each side's source vertex at most once, flattens no
    pair, and builds a witness only for a side that fails."""
    zring = IntegerRing()
    outcomes = Counter()
    for seed in range(24):
        spec = sampling.collapse_corpus(seed, 1)[0]
        g, t0 = spec.graph, spec.t0
        depth = 1 + seed % 3
        least = morita.least_connectors

        def corrupted(graph, f0, seed=seed):
            out = least(graph, f0)
            if seed % 4:
                t = SimpleNamespace(graph=graph, f0=f0, _connectors=out)
                out = corrupt_connectors(sampling.rng_from_seed(seed), t)
            return out

        window = pairs_to_depth(g, depth)
        retained = [p for p in window if corner_of(p, spec.f0) is Corner.GG]
        caps = {max(b + d, 0) for pairs in (window, retained)
                for b in target_groups(pairs) for d in (-1, 0, 1)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(morita, "least_connectors", corrupted)
            t = Transversal(g, spec.f0)
            for cap in sorted(caps | {morita._WITNESS_CAP}):
                mp.setattr(morita, "_WITNESS_CAP", cap)
                rep, calls, flats, witnesses = recorded_report(mp, g, t0, zring,
                                                               depth=depth, eq_samples=0)
                if t.unreachable:
                    want = [("skipped", "vacuous (transversal failed)")]
                else:
                    want = per_target_witness_rows(t, zring, depth, cap)
                assert rep.section("witnesses") == want
                assert max(Counter(calls).values(), default=0) <= 1
                assert flats == []
                assert witnesses == [side for side in ("psi", "phi")
                                     if rep.value("witnesses", "%s-verified" % side)
                                     not in (None, "pass")]
                outcomes[str(rep.value("witnesses", "phi-verified"))[:4]] += 1
    assert outcomes["pass"] > 0 and outcomes["fail"] > 0 and outcomes["None"] > 0
