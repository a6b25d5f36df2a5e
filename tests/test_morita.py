"""The linking matrix algebra, its context maps, and surjectivity witnesses."""

from hypothesis import given, settings, strategies as st

import pytest

from steinalg import (Corner, CornerSupportError, Graph, IntegerRing,
                      IntegersMod, LinkingElement, Path, PathPair,
                      RationalRing, Transversal, add, convolve, embed,
                      eq_ops_check, indicator, least_connectors,
                      linking_convolve, morita_report, pairs_to_depth, phi,
                      psi, surjectivity_witness, vertex_path, zero)
from steinalg import sampling
from steinalg.morita import element_supported_in, pair_supported_in
from tests.conftest import relaxed_connectors

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
    from steinalg import corner_of
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
    f0 = sampling.random_transversal(rng, g)
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
    f0 = sampling.random_transversal(rng, g)
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
    f0 = sampling.random_transversal(rng, g)
    t = Transversal(g, f0)
    args = [sampling.random_corner_element(rng, g, ring, f0, c)
            for c in (Corner.GZ, Corner.GZ, Corner.ZG, Corner.ZG)]
    assert eq_ops_check(t, *args)


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
    f0 = sampling.random_transversal(rng, g)
    t = Transversal(g, f0)
    from steinalg import corner_of
    for _ in range(4):
        pair = sampling.random_pair(rng, g)
        assert surjectivity_witness(t, ring, pair, "phi").ok
        if corner_of(pair, f0) == Corner.GG:
            assert surjectivity_witness(t, ring, pair, "psi").ok


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


def test_morita_report_rejects_bad_collapse(loop_graph, zring):
    with pytest.raises(ValueError, match="collapse preconditions failed"):
        morita_report(loop_graph, ["v"], zring)


def test_morita_report_certifies_transversal_failure(zring):
    rep = morita_report(one_way_graph(), ["v"], zring, depth=2, eq_samples=3)
    assert not rep.ok
    assert "transversal.meets-every-orbit" in rep.failures()
    assert rep.value("witnesses", "skipped") == "vacuous (transversal failed)"
    assert "context.surjective-morita-context" in rep.failures()


def test_morita_report_is_deterministic(two_cycle, zring):
    a = morita_report(two_cycle, ["w"], zring, depth=2, seed=11, eq_samples=4)
    b = morita_report(two_cycle, ["w"], zring, depth=2, seed=11, eq_samples=4)
    assert a.render_text() == b.render_text()
    assert a.render_kv() == b.render_kv()
