"""The collapse move: preconditions, the path map, windowed certification."""

import dataclasses
import functools
import hashlib
import importlib
import sys
from collections import Counter

from hypothesis import assume, given, settings, strategies as st

import pytest

from steinalg import (CollapseSpec, Graph, GroupoidProbe, InputError,
                      IntegerRing, Path, PathPair, Report, SteinbergElement,
                      Transversal, VertexSubset, boundary_tails,
                      check_phi_fin_image, collapse, compose_pairs, concat,
                      convolve, enumerate_paths, first_hit_extensions,
                      from_terms, indicator, is_prefix, pair_contains,
                      pairs_to_depth, load_graph, pointed_groupoid_iso_check,
                      serialize_graph, validate_collapsible)
from steinalg import sampling
from steinalg.collapse import (_COVERAGE_PAIR_CAP, _INJECTIVITY_PROBE_CAP,
                               _MULTIPLICATIVE_COMBO_BUDGET, _check_well_formed,
                               _collapsed_edges, _legs_depth, _transport)
from steinalg.cylinder import (_build, _compose, _flat, _legs_by_source, _minimal,
                               _RangeLegIndex, _window)
from tests.conftest import (OUTSPLIT_TEXT, ROSE2_TEXT, TWO_CYCLE_TEXT,
                            collapsed_preimage, long_line, minimal_pair,
                            path_map_image_report, phi_fin, phi_pair,
                            probe_window, recording_range_leg_index,
                            vertex_path)

seeds = st.integers(min_value=0, max_value=10 ** 9)


# -- preconditions ---------------------------------------------------------------


def test_validate_accepts_fixture_specs(two_cycle, outsplit_graph):
    for g, t0 in ((two_cycle, ["w"]), (outsplit_graph, ["u"]),
                  (outsplit_graph, ["ua", "ub"])):
        rep = validate_collapsible(CollapseSpec(g, t0))
        assert rep.ok, rep.failures()
        assert rep.value("finiteness", "finite-emission").startswith("vacuous")


def test_validate_accepts_empty_collapse(loop_graph):
    rep = validate_collapsible(CollapseSpec(loop_graph, []))
    assert rep.ok
    assert rep.value("shape", "collapsed") == "(none)"


def test_validate_rejects_collapsing_everything(loop_graph):
    rep = validate_collapsible(CollapseSpec(loop_graph, ["v"]))
    assert not rep.ok
    assert "shape.retained-nonempty" in rep.failures()
    assert "shape.collapsed-acyclic" in rep.failures()


def test_validate_rejects_cyclic_region(two_cycle):
    rep = validate_collapsible(CollapseSpec(two_cycle, ["v", "w"]))
    assert "shape.collapsed-acyclic" in rep.failures()


def test_validate_rejects_collapsed_source(line_graph):
    rep = validate_collapsible(CollapseSpec(line_graph, ["c"]))
    assert rep.failures() == ["shape.sources-retained"]
    assert rep.value("shape", "sources-retained") == "fail (collapsed source c)"


def test_validate_long_line_interior():
    """Collapsing the interior of a 20,000-vertex line: the complement, the
    induced subgraph and the stray-source check look members up in a set,
    so validation is linear; a scan of the member tuple made it quadratic
    (over 10 s at this size)."""
    n = 20000
    g = long_line(n)
    rep = validate_collapsible(CollapseSpec(g, g.vertices[1:-1]))
    assert rep.ok, rep.failures()
    assert rep.value("shape", "retained") == "x0,x%d" % (n - 1)


def test_spec_rejects_foreign_subset(loop_graph, rose2):
    with pytest.raises(ValueError):
        CollapseSpec(loop_graph, VertexSubset(rose2, ["v"]))


def test_vertex_sets_reject_a_bare_string(outsplit_graph):
    """A str would iterate as its characters: "ab" would name {a, b}."""
    g = Graph(["a", "b", "ab"], [])
    for build in (CollapseSpec, Transversal):
        with pytest.raises(InputError, match="not one string"):
            build(g, "ab")
        with pytest.raises(InputError, match="not one string"):
            build(outsplit_graph, "ua")
    assert CollapseSpec(g, ["ab"]).t0.members == ("ab",)


# -- first hits -------------------------------------------------------------------


def test_first_hits_at_retained_vertex(two_cycle):
    t0 = VertexSubset(two_cycle, ["w"])
    hits = first_hit_extensions(two_cycle, t0, "v")
    assert [p.render() for p in hits] == ["v"]


def test_first_hits_walk_to_retained(two_cycle, outsplit_graph):
    t0 = VertexSubset(two_cycle, ["w"])
    assert [p.render() for p in first_hit_extensions(two_cycle, t0, "w")] == ["e2"]
    t0 = VertexSubset(outsplit_graph, ["u"])
    hits = first_hit_extensions(outsplit_graph, t0, "u")
    assert [p.render() for p in hits] == ["sa", "sb"]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_first_hits_split_every_tail_once(seed):
    """What makes the iso check's coverage step sound without testing the
    partition: on a valid collapse, the first hits at each vertex are
    nonempty and an antichain, and every boundary tail as long as the
    longest hit has exactly one hit as a prefix."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    spec = sampling.random_collapse_spec(rng, g)
    assume(spec is not None)
    for v in g.vertices:
        hits = first_hit_extensions(g, spec.t0, v)
        assert hits
        assert not any(a != b and is_prefix(a, b) for a in hits for b in hits)
        for w in boundary_tails(g, v, max(len(tau) for tau in hits)):
            assert sum(1 for tau in hits if is_prefix(tau, w)) == 1


def test_first_hits_detect_cycle():
    g = Graph(["v", "w"], [("l", "w", "w"), ("e", "v", "w")])
    t0 = VertexSubset(g, ["w"])
    with pytest.raises(ValueError, match="cycle through 'w'"):
        first_hit_extensions(g, t0, "w")


# -- the move ----------------------------------------------------------------------


def test_collapse_two_cycle_frozen(two_cycle):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    assert serialize_graph(cert.collapsed) == "vertices: v\nedge: e1.e2 v <- v\n"
    assert set(cert.edge_paths) == {"e1.e2"}
    assert cert.edge_paths["e1.e2"].edges == ("e1", "e2")


def test_collapse_outsplit_to_shift_graph(outsplit_graph):
    cert = collapse(CollapseSpec(outsplit_graph, ["u"]))
    assert serialize_graph(cert.collapsed) == (
        "vertices: ua, ub\n"
        "edge: ra.sa ua <- ua\n"
        "edge: ra.sb ua <- ub\n"
        "edge: rb.sa ub <- ua\n"
        "edge: rb.sb ub <- ub\n")


def test_collapse_outsplit_to_rose(outsplit_graph):
    cert = collapse(CollapseSpec(outsplit_graph, ["ua", "ub"]))
    assert serialize_graph(cert.collapsed) == (
        "vertices: u\nedge: sa.ra u <- u\nedge: sb.rb u <- u\n")


def test_collapse_suffixes_only_renders_two_paths_share():
    """The path a.b and the original edge a.b render alike: the first in
    path order keeps the render and the other takes the first free suffix,
    skipping a.b~2, the render of another path, which keeps it.  Every
    name survives serialize_graph and load_graph."""
    g = load_graph("vertices: v, w, x\nedge: a v <- w\nedge: b w <- x\n"
                   "edge: a.b v <- x\nedge: a.b~2 v <- x\n")
    cert = collapse(CollapseSpec(g, ["w"]))
    assert {e: p.edges for e, p in cert.edge_paths.items()} == {
        "a.b": ("a", "b"), "a.b~3": ("a.b",), "a.b~2": ("a.b~2",)}
    assert [e.id for e in cert.collapsed.edges] == ["a.b", "a.b~3", "a.b~2"]
    text = serialize_graph(cert.collapsed)
    assert serialize_graph(load_graph(text)) == text
    assert check_phi_fin_image(cert, 4).ok
    assert pointed_groupoid_iso_check(cert, 3).ok


def test_collapse_nothing_is_identity(rose2):
    cert = collapse(CollapseSpec(rose2, []))
    assert serialize_graph(cert.collapsed) == ROSE2_TEXT
    assert phi_fin(cert, Path(cert.collapsed, ("a", "b"))) == Path(rose2, ("a", "b"))


def test_collapse_rejects_invalid_spec(loop_graph):
    with pytest.raises(ValueError, match="collapse preconditions failed"):
        collapse(CollapseSpec(loop_graph, ["v"]))


def test_collapse_line_beyond_recursion_limit():
    """Collapsing the interior of a long line leaves one edge end to end;
    neither the acyclicity check nor the first-hit walk recurses."""
    n = sys.getrecursionlimit() + 200
    g = long_line(n)
    cert = collapse(CollapseSpec(g, g.vertices[1:-1]))
    assert cert.collapsed.vertices == ("x0", "x%d" % (n - 1))
    [edge] = cert.collapsed.edges
    assert cert.edge_paths[edge.id].edges == tuple("f%d" % i for i in range(n - 1))


# -- the path map ------------------------------------------------------------------


def test_phi_fin_expands_abbreviations(two_cycle):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    F = cert.collapsed
    assert phi_fin(cert, vertex_path(F, "v")) == vertex_path(two_cycle, "v")
    assert phi_fin(cert, Path(F, ("e1.e2",))) == Path(two_cycle, ("e1", "e2"))
    assert (phi_fin(cert, Path(F, ("e1.e2", "e1.e2")))
            == Path(two_cycle, ("e1", "e2", "e1", "e2")))


def test_phi_pair_maps_legs(outsplit_graph):
    cert = collapse(CollapseSpec(outsplit_graph, ["u"]))
    F = cert.collapsed
    pair = PathPair(Path(F, ("ra.sa",)), Path(F, ("rb.sa",)))
    image = phi_pair(cert, pair)
    assert image.mu == Path(outsplit_graph, ("ra", "sa"))
    assert image.nu == Path(outsplit_graph, ("rb", "sa"))


@pytest.mark.parametrize("t0", [["w"]], ids=["two-cycle"])
def test_preimage_inverts_phi_fin(two_cycle, t0):
    cert = collapse(CollapseSpec(two_cycle, t0))
    for p in enumerate_paths(cert.collapsed, max_len=3):
        assert collapsed_preimage(cert, phi_fin(cert, p)) == p


def test_preimage_rejects_unretained_endpoints(two_cycle, outsplit_graph):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    assert collapsed_preimage(cert, Path(two_cycle, ("e1",))) is None
    assert collapsed_preimage(cert, Path(two_cycle, ("e2",))) is None
    assert collapsed_preimage(cert, vertex_path(two_cycle, "w")) is None
    cert = collapse(CollapseSpec(outsplit_graph, ["u"]))
    assert collapsed_preimage(cert, Path(outsplit_graph, ("ra",))) is None
    assert (collapsed_preimage(cert, Path(outsplit_graph, ("ra", "sa")))
            == Path(cert.collapsed, ("ra.sa",)))


# -- certification of honest certificates -------------------------------------------


@pytest.mark.parametrize("fixture,t0", [
    ("two_cycle", ["w"]),
    ("outsplit_graph", ["u"]),
    ("outsplit_graph", ["ua", "ub"]),
    ("rose2", []),
], ids=["two-cycle", "outsplit-shift", "outsplit-rose", "identity"])
def test_image_and_iso_checks_pass(fixture, t0, request):
    g = request.getfixturevalue(fixture)
    cert = collapse(CollapseSpec(g, t0))
    img = check_phi_fin_image(cert, 4)
    assert img.ok, img.failures()
    assert img.value("window", "max-len") == "4"
    iso = pointed_groupoid_iso_check(cert, 3)
    assert iso.ok, iso.failures()


def test_iso_check_keeps_full_depth_on_small_graphs(two_cycle):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    iso = pointed_groupoid_iso_check(cert, 3)
    assert iso.ok
    assert iso.value("multiplicative", "legs-depth") == "3"


# -- corrupted certificates are caught ----------------------------------------------


def test_corrupt_missing_path_entry(two_cycle):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    bad = dataclasses.replace(cert, edge_paths={})
    rep = check_phi_fin_image(bad, 3)
    assert not rep.ok
    assert "no path" in rep.value("well-formed", "edges-abbreviate-paths")


def test_corrupt_wrong_endpoints(two_cycle):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    bad = dataclasses.replace(
        cert, edge_paths={"e1.e2": Path(two_cycle, ("e1",))})
    rep = check_phi_fin_image(bad, 3)
    assert not rep.ok
    assert "endpoints disagree" in rep.value("well-formed", "edges-abbreviate-paths")


def test_corrupt_path_through_retained_interior(two_cycle):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    bad = dataclasses.replace(
        cert, edge_paths={"e1.e2": Path(two_cycle, ("e1", "e2", "e1", "e2"))})
    rep = check_phi_fin_image(bad, 3)
    assert not rep.ok
    assert "leaves the collapsed" in rep.value("well-formed", "edges-abbreviate-paths")


def test_corrupt_duplicate_image_breaks_injectivity(rose2):
    cert = collapse(CollapseSpec(rose2, []))
    a = Path(rose2, ("a",))
    bad = dataclasses.replace(cert, edge_paths={"a": a, "b": a})
    rep = check_phi_fin_image(bad, 3)
    assert "bijection.injective" in rep.failures()
    assert "bijection.covers-window" in rep.failures()
    iso = pointed_groupoid_iso_check(bad, 2)
    assert "transport.injective" in iso.failures()
    # b and v do not compose in the collapsed graph, but their images do.
    assert (iso.value("multiplicative", "transport-multiplicative")
            == "fail (Z(v,a) then Z(b,v))")


def test_corrupt_dropped_edge_breaks_coverage(two_cycle):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    bad = dataclasses.replace(cert, collapsed=Graph(["v"], []), edge_paths={})
    rep = check_phi_fin_image(bad, 3)
    assert rep.failures() == ["bijection.covers-window"]
    assert "first missing e1.e2" in rep.value("bijection", "covers-window")


def test_iso_check_reports_broken_preconditions(two_cycle):
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    bad = dataclasses.replace(cert, t0=VertexSubset(two_cycle, ["v", "w"]))
    rep = pointed_groupoid_iso_check(bad, 2)
    assert not rep.ok


# -- random instances ----------------------------------------------------------------


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_random_collapses_certify(seed):
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    spec = sampling.random_collapse_spec(rng, g)
    assume(spec is not None)
    cert = collapse(spec)
    assert check_phi_fin_image(cert, 4).ok
    assert pointed_groupoid_iso_check(cert, 2).ok


# -- the multiplicative check against the element-level oracle -----------------------


def element_level_iso_check(cert, depth, products):
    """``pointed_groupoid_iso_check`` as it was when step (d) compared
    canonical elements: the oracle for the pair comparison.

    Every cap is applied by slicing the full window, the legs depth backs
    off by building each window it tries, and step (d) canonicalizes
    transport(1_a * 1_b) and transport(1_a) * transport(1_b) for every
    ordered combination.  ``products`` memoizes step (d) per legs depth
    for one certificate, whose windows at two depths often back off to the
    same legs depth.
    """
    rep = Report("pointed groupoid isomorphism")
    if not _check_well_formed(cert, rep):
        return rep
    pre = validate_collapsible(CollapseSpec(cert.original, cert.t0))
    if not rep.check("well-formed", "preconditions", pre.ok,
                     "" if pre.ok else ", ".join(pre.failures())):
        return rep
    g, F, f0, t0 = cert.original, cert.collapsed, cert.f0, cert.t0

    fprobes = probe_window(F, depth)[:_INJECTIVITY_PROBE_CAP]
    images = []
    defect = None
    for pr in fprobes:
        try:
            images.append(GroupoidProbe(phi_fin(cert, pr.mu_full),
                                        phi_fin(cert, pr.nu_full)))
        except (KeyError, ValueError):
            defect = pr.render()
            break
    rep.add("transport", "probes", len(fprobes))
    rep.check("transport", "defined", defect is None,
              "" if defect is None else "fails at %s" % defect)
    if defect is not None:
        return rep
    rep.check("transport", "units-fixed",
              all(phi_fin(cert, vertex_path(F, v)) == vertex_path(g, v)
                  for v in F.vertices))
    rep.check("transport", "injective", len(images) == len(set(images)))

    pairs = [p for p in pairs_to_depth(g, depth)
             if p.mu.range_vertex in f0 and p.nu.range_vertex in f0]
    pairs = pairs[:_COVERAGE_PAIR_CAP]
    rep.add("coverage", "pairs", len(pairs))
    cover_defect = None
    for pair in pairs:
        v = pair.source_vertex
        try:
            hits = first_hit_extensions(g, t0, v)
        except ValueError:
            hits = []
        if not hits:
            cover_defect = "%s has no retained continuation" % pair.render()
            break
        if any(a != b and is_prefix(a, b) for a in hits for b in hits):
            cover_defect = "first hits at %s are not an antichain" % v
            break
        pieces = [pair.extend(tau) for tau in hits]
        if any(collapsed_preimage(cert, q.mu) is None
               or collapsed_preimage(cert, q.nu) is None for q in pieces):
            cover_defect = "piece of %s has no collapsed preimage" % pair.render()
            break
        for w in boundary_tails(g, v, max(len(tau) for tau in hits)):
            probe = GroupoidProbe(concat(pair.mu, w), concat(pair.nu, w))
            n = sum(1 for q in pieces if pair_contains(q, probe))
            if n != 1:
                cover_defect = "%s meets %d pieces of %s" % (
                    probe.render(), n, pair.render())
                break
        if cover_defect:
            break
    rep.check("coverage", "first-hit-splitting", cover_defect is None,
              cover_defect or "")

    ring = IntegerRing()

    def transport(x):
        return from_terms(g, ring, [(phi_pair(cert, p), c)
                                    for p, c in x.terms.items()])

    mult_depth = depth
    while True:
        fpairs = pairs_to_depth(F, mult_depth)
        if len(fpairs) ** 2 <= _MULTIPLICATIVE_COMBO_BUDGET or mult_depth == 0:
            break
        mult_depth -= 1
    rep.add("multiplicative", "legs-depth", mult_depth)
    rep.add("multiplicative", "pairs", len(fpairs))
    if mult_depth not in products:
        inds = [indicator(p, ring) for p in fpairs]
        timages = [transport(x) for x in inds]
        products[mult_depth] = next(
            ("%s then %s" % (a.render(), b.render())
             for a, fa, ta in zip(fpairs, inds, timages)
             for b, fb, tb in zip(fpairs, inds, timages)
             if transport(convolve(fa, fb)) != convolve(ta, tb)), None)
    mult_defect = products[mult_depth]
    rep.check("multiplicative", "transport-multiplicative", mult_defect is None,
              mult_defect or "")
    return rep


@given(seeds, st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_legs_depth_matches_building_each_window(seed, depth):
    """The back-off sized from path counts lands on the deepest window
    within budget, found here by building the windows: they only grow with
    the leg length, so the shallow ones are built up to the first over
    budget."""
    g = sampling.random_graph(sampling.rng_from_seed(seed), max_edges=8)
    want = 0
    for k in range(1, depth + 1):
        if len(pairs_to_depth(g, k)) ** 2 > _MULTIPLICATIVE_COMBO_BUDGET:
            break
        want = k
    assert _legs_depth(g, depth) == want


def test_legs_depth_stops_once_no_longer_path_exists(line_graph):
    """Past its longest path the collapsed window stops growing, so any
    depth is within budget at once, however large."""
    cert = collapse(CollapseSpec(line_graph, ["b"]))
    assert _legs_depth(cert.collapsed, 10 ** 9) == 10 ** 9
    rep = pointed_groupoid_iso_check(cert, 10 ** 9)
    assert rep.ok
    assert rep.value("multiplicative", "legs-depth") == str(10 ** 9)


def drop_collapsed_edge(cert, edge_id):
    """The certificate with one collapsed edge and its path left out."""
    F = cert.collapsed
    kept = [e for e in F.edges if e.id != edge_id]
    return dataclasses.replace(
        cert, collapsed=Graph(F.vertices, kept),
        edge_paths={e.id: cert.edge_paths[e.id] for e in kept})


@functools.lru_cache(maxsize=None)
def corpus(seed):
    return sampling.collapse_corpus(seed, 20)


@pytest.mark.parametrize("seed,index", [(s, i) for s in (7, 13) for i in range(20)])
def test_pair_check_matches_element_oracle(seed, index):
    """The whole iso report equals the oracle's on each corpus certificate
    and on its variants with one of its first three collapsed edges
    dropped, at depths 2 and 3: 230 reports over both corpora, 22 of which
    fail transport-multiplicative."""
    cert = collapse(corpus(seed)[index])
    variants = [cert] + [drop_collapsed_edge(cert, e.id)
                         for e in cert.collapsed.edges[:3]]
    for variant in variants:
        products = {}
        for depth in (2, 3):
            want = element_level_iso_check(variant, depth, products).render_kv()
            assert pointed_groupoid_iso_check(variant, depth).render_kv() == want


def test_multiplicative_defect_is_reported():
    """Dropping a collapsed edge leaves a loop whose transported products
    disagree: Z(e3.e2,v1) * Z(v1,e3.e2) is the unit at v1 in the collapsed
    graph, but its image composes to Z(e3,e3) in the original."""
    g = Graph(["v1", "v2", "v3"], [("e1", "v1", "v3"), ("e2", "v2", "v1"),
                                   ("e3", "v1", "v2")])
    bad = drop_collapsed_edge(collapse(CollapseSpec(g, ["v2"])), "e1")
    rep = pointed_groupoid_iso_check(bad, 3)
    assert rep.failures() == ["coverage.first-hit-splitting",
                              "multiplicative.transport-multiplicative"]
    assert rep.value("multiplicative", "legs-depth") == "3"
    assert rep.value("multiplicative", "pairs") == "17"
    assert (rep.value("multiplicative", "transport-multiplicative")
            == "fail (Z(e3.e2,v1) then Z(v1,e3.e2))")


def test_first_defect_is_the_least_failing_combination():
    """Two faults, each of its own kind: e4 is left out, so e2 is the only
    edge into v1 in the collapsed graph but not in the original, and e3
    abbreviates e1.  The first failing a is Z(e2,e2.e1).  Its least failing
    b, Z(e2.e1,e2), composes on both sides to pairs whose images differ;
    the next, Z(e2.e3,e2), composes only after transport.  The report names
    the least one, as the oracle does.

    The opposite order has no certificate here.  One-sided combinations
    need two collapsed edges abbreviating one path, and swapping those two
    edges maps each failing combination to a failing one of the same kind;
    no searched certificate had a first failing a with a one-sided b before
    a mismatched one.
    """
    g = Graph(["v1", "v2"], [("e1", "v2", "v2"), ("e2", "v1", "v2"),
                             ("e3", "v2", "v2"), ("e4", "v1", "v2")])
    cert = collapse(CollapseSpec(g, []))
    kept = [g.edge(e) for e in ("e1", "e2", "e3")]
    bad = dataclasses.replace(
        cert, collapsed=Graph(g.vertices, kept),
        edge_paths={"e1": Path(g, ("e1",)), "e2": Path(g, ("e2",)),
                    "e3": Path(g, ("e1",))})
    F = bad.collapsed
    a = PathPair(Path(F, ("e2",)), Path(F, ("e2", "e1")))
    later = PathPair(Path(F, ("e2", "e3")), Path(F, ("e2",)))
    assert compose_pairs(minimal_pair(a), minimal_pair(later)) is None
    assert compose_pairs(phi_pair(bad, a), phi_pair(bad, later)) is not None
    rep = pointed_groupoid_iso_check(bad, 2)
    assert (rep.value("multiplicative", "transport-multiplicative")
            == "fail (Z(e2,e2.e1) then Z(e2.e1,e2))")
    for depth in (2, 3):
        assert (pointed_groupoid_iso_check(bad, depth).render_kv()
                == element_level_iso_check(bad, depth, {}).render_kv())


def test_multiplicative_check_builds_no_elements(outsplit_graph, monkeypatch):
    """Step (d) compares pairs; no algebra element is canonicalized."""
    built = []
    init = SteinbergElement.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    cert = collapse(CollapseSpec(outsplit_graph, ["u"]))
    monkeypatch.setattr(SteinbergElement, "__init__", counting_init)
    rep = pointed_groupoid_iso_check(cert, 5)
    assert rep.ok
    assert rep.value("multiplicative", "pairs") == "98"
    assert built == []


def walked_pairs(window, minimal):
    """The positions of the window pairs step (d) walks on an honest
    certificate whose composites strip nothing: the first pair of each
    plan key of a minimal pair within each source vertex's group."""
    seen, walked = set(), []
    for i, (a, m) in enumerate(zip(window, minimal)):
        key = (a[2], m[1], m[4])
        if key not in seen:
            seen.add(key)
            walked.append(i)
    return walked


def test_multiplicative_check_composes_only_the_pairs_that_meet(outsplit_graph,
                                                                 monkeypatch):
    """Step (d) forms its composites from one plan per distinct source leg
    on each side, and walks a pair's plans only for the first pair of its
    plan key: the flat composition rule is never called, each side's trie
    is walked once per distinct source leg, and the composites formed on
    each side are, with multiplicity, those the rule gives on the
    combinations of each walked pair that compose there."""
    cert = collapse(CollapseSpec(outsplit_graph, ["u"]))
    F = cert.collapsed
    assert not F._sole_edge_range
    window = pairs_to_depth(F, _legs_depth(F, 5))
    minimal = [minimal_pair(a) for a in window]
    images = [minimal_pair(phi_pair(cert, m)) for m in minimal]
    sides = [[_flat(p) for p in side] for side in (minimal, images)]
    walked = walked_pairs([_flat(a) for a in window], sides[0])
    assert (len(window), len(walked)) == (98, 14)
    calls, walks, formed = [], [], []
    module = importlib.import_module("steinalg.collapse")
    kernel = importlib.import_module("steinalg.cylinder")
    compose = kernel._compose

    def counting_compose(p, q):
        calls.append(1)
        return compose(p, q)

    monkeypatch.setattr(kernel, "_compose", counting_compose)
    monkeypatch.setattr(module, "_compose", counting_compose, raising=False)
    monkeypatch.setattr(module, "_RangeLegIndex",
                        recording_range_leg_index(walks, formed))
    rep = pointed_groupoid_iso_check(cert, 5)
    assert rep.ok
    assert rep.value("multiplicative", "pairs") == str(len(minimal))
    assert calls == []
    assert len(walks) == sum(len({(t[1], t[4]) for t in side}) for side in sides)
    assert len(formed) == 2
    for got, side in zip(formed, sides):
        want = Counter(compose(side[i], q) for i in walked for q in side)
        del want[None]
        assert Counter(got) == want


def test_iso_check_builds_the_retained_set_once_per_object(outsplit_graph,
                                                           monkeypatch):
    """The certificate and the spec that re-validates its preconditions
    each build their retained set once, however often it is read."""
    cert = collapse(CollapseSpec(outsplit_graph, ["u"]))
    calls = []
    complement = VertexSubset.complement

    def counting_complement(self):
        calls.append(1)
        return complement(self)

    monkeypatch.setattr(VertexSubset, "complement", counting_complement)
    assert pointed_groupoid_iso_check(cert, 3).ok
    assert 0 < len(calls) <= 2
    assert cert.f0 is cert.f0


def test_coverage_decides_each_leg_once(monkeypatch):
    """Step (c) splits a leg extended by a first hit at the leg's source
    vertex at most once per distinct leg of its window and hit, on honest
    certificates and with a collapsed edge dropped.  Its verdict and
    defect are those of the loop that asks for the collapsed preimage of
    both legs of every pair's pieces in turn."""
    outsplit = load_graph(OUTSPLIT_TEXT)
    certs = [collapse(CollapseSpec(outsplit, t0)) for t0 in (["u"], ["ua", "ub"])]
    certs += [collapse(spec) for spec in corpus(13)]
    certs += [drop_collapsed_edge(c, c.collapsed.edges[0].id)
              for c in certs if c.collapsed.edges]
    module = importlib.import_module("steinalg.collapse")
    split = module._collapsed_edges
    asked = []

    def recording_split(cert, edges):
        asked.append(edges)
        return split(cert, edges)

    monkeypatch.setattr(module, "_collapsed_edges", recording_split)
    for cert in certs:
        g, t0 = cert.original, cert.t0
        window = pairs_to_depth(g, 3, ranges=cert.f0, limit=_COVERAGE_PAIR_CAP)
        first = next((pair for pair in window
                      if any(collapsed_preimage(cert, concat(pair.mu, tau)) is None
                             or collapsed_preimage(cert, concat(pair.nu, tau)) is None
                             for tau in first_hit_extensions(g, t0, pair.source_vertex))),
                     None)
        asked.clear()
        rep = pointed_groupoid_iso_check(cert, 3)
        assert rep.value("coverage", "first-hit-splitting") == (
            "pass" if first is None
            else "fail (piece of %s has no collapsed preimage)" % first.render())
        legs = {leg for pair in window for leg in (pair.mu, pair.nu)}
        allowed = Counter(concat(leg, tau).edges for leg in legs
                          for tau in first_hit_extensions(g, t0, leg.source_vertex))
        assert asked
        assert not Counter(asked) - allowed


def test_coverage_computes_each_leg_verdict_once(monkeypatch):
    """On honest certificates step (c) walks each source vertex's first
    hits once and splits each leg the capped window reaches, extended by
    each of those hits, exactly once: the splits asked for are, with
    multiplicity, one per leg and hit.  A split's path can arise from two
    legs, a leg through a collapsed vertex and its extension to the next
    retained one, so that is a count of legs, not of paths.  The windows
    include one the cap cuts inside a group."""
    outsplit = load_graph(OUTSPLIT_TEXT)
    checks = [(collapse(CollapseSpec(outsplit, t0)), depth)
              for t0 in (["u"], ["ua", "ub"]) for depth in (3, 5)]
    checks += [(collapse(spec), 3) for spec in corpus(13)]
    module = importlib.import_module("steinalg.collapse")
    split, first_hits = module._collapsed_edges, module._first_hits
    asked, walked = [], []

    def recording_split(cert, edges):
        asked.append(edges)
        return split(cert, edges)

    def recording_first_hits(graph, t0, v):
        walked.append(v)
        return first_hits(graph, t0, v)

    monkeypatch.setattr(module, "_collapsed_edges", recording_split)
    monkeypatch.setattr(module, "_first_hits", recording_first_hits)
    cut = 0
    for cert, depth in checks:
        g, t0 = cert.original, cert.t0
        window = pairs_to_depth(g, depth, ranges=cert.f0, limit=_COVERAGE_PAIR_CAP)
        legs = {leg for pair in window for leg in (pair.mu, pair.nu)}
        last = window[-1].source_vertex
        cut += (sum(p.source_vertex == last for p in window)
                < len(_legs_by_source(g, depth, cert.f0)[last]) ** 2)
        want = Counter(concat(leg, tau).edges for leg in legs
                       for tau in first_hit_extensions(g, t0, leg.source_vertex))
        asked.clear()
        walked.clear()
        assert pointed_groupoid_iso_check(cert, depth).ok
        assert Counter(asked) == want
        assert walked == list(dict.fromkeys(p.source_vertex for p in window))
    assert cut


def parallel_pairs(cert):
    """The ordered pairs of distinct collapsed edges with equal endpoints."""
    F = cert.collapsed
    return [(e, o) for e in F.edges for o in F.edges if e is not o
            and (e.range_vertex, e.source_vertex) == (o.range_vertex, o.source_vertex)]


def well_formed_corruption(rng, certs):
    """One of certs with a corruption that well-formedness lets through:
    a collapsed edge dropped, an edge's path duplicated under a new
    parallel edge, or an edge given the path of an edge parallel to it."""
    kind = rng.choice(("drop", "duplicate", "move"))
    if kind == "move":
        certs = [c for c in certs if parallel_pairs(c)]
    cert = rng.choice(certs)
    if kind == "drop":
        return drop_collapsed_edge(cert, rng.choice(cert.collapsed.edges).id)
    if kind == "duplicate":
        return duplicate_collapsed_edge(cert, rng.choice(cert.collapsed.edges))
    return move_collapsed_edge(cert, *rng.choice(parallel_pairs(cert)))


def duplicate_collapsed_edge(cert, e):
    """The certificate with e's path also under a new edge parallel to e."""
    F = cert.collapsed
    return dataclasses.replace(
        cert, collapsed=Graph(F.vertices, F.edges + (("dup", e.range_vertex,
                                                      e.source_vertex),)),
        edge_paths=dict(cert.edge_paths, dup=cert.edge_paths[e.id]))


def move_collapsed_edge(cert, e, other):
    """The certificate with e given the path of other, an edge parallel to e."""
    return dataclasses.replace(
        cert, edge_paths=dict(cert.edge_paths, **{e.id: cert.edge_paths[other.id]}))


def test_path_map_image_matches_the_path_oracle():
    """The report equals the Path-based check's byte for byte: on the
    certificates of four corpora at max-len 0-5, and with one of their
    first two collapsed edges dropped or duplicated, or given a parallel
    edge's path, at max-len 2-4, which fails covers-window, naming the
    first missing path, and injective.  A negative max-len raises on a
    well-formed certificate and is never read on a malformed one."""
    failures = Counter()
    for seed in (1, 7, 13, 21):
        for cert in map(collapse, corpus(seed)):
            edges = cert.collapsed.edges[:2]
            corrupted = ([drop_collapsed_edge(cert, e.id) for e in edges]
                         + [duplicate_collapsed_edge(cert, e) for e in edges]
                         + [move_collapsed_edge(cert, e, other)
                            for e, other in parallel_pairs(cert)[:2]])
            for c, lengths in [(cert, range(6))] + [(c, range(2, 5)) for c in corrupted]:
                for n in lengths:
                    got = check_phi_fin_image(c, n)
                    assert got.render_kv() == path_map_image_report(c, n).render_kv()
                    failures.update(got.failures())
            with pytest.raises(ValueError, match="max_len must be >= 0"):
                check_phi_fin_image(cert, -1)
            malformed = dataclasses.replace(cert, edge_paths={})
            if cert.collapsed.edges:
                assert (check_phi_fin_image(malformed, -1).render_kv()
                        == path_map_image_report(malformed, -1).render_kv())
    assert failures["bijection.covers-window"] > 0 and failures["bijection.injective"] > 0


@given(seeds, st.integers(min_value=2, max_value=5))
@settings(max_examples=150, deadline=None)
def test_images_of_well_formed_certificates_land_in_the_window(seed, max_len):
    """Every kept image of a well-formed certificate is a path between
    retained vertices within the window, however the certificate is
    corrupted, so the lands-in-window row is recorded as a pass."""
    rng = sampling.rng_from_seed(seed)
    certs = [c for c in map(collapse, corpus(7) + corpus(13)) if c.collapsed.edges]
    bad = well_formed_corruption(rng, certs)
    assert _check_well_formed(bad, Report("well-formed"))
    g, f0 = bad.original, bad.f0
    target = {p for p in enumerate_paths(g, max_len=max_len)
              if p.range_vertex in f0 and p.source_vertex in f0}
    for p in enumerate_paths(bad.collapsed, max_len=max_len):
        q = phi_fin(bad, p)
        if len(q) <= max_len:
            assert q in target
    rep = check_phi_fin_image(bad, max_len)
    assert rep.value("bijection", "lands-in-window") == "pass"


CORRUPTIONS = ("drop", "duplicate", "move")


@pytest.mark.parametrize("kind", CORRUPTIONS)
@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_pair_check_matches_element_oracle_on_every_corruption(kind, seed):
    """The whole iso report equals the oracle's at depths 2 and 3 on
    certificates corrupted in each of the three ways well-formedness lets
    through.  well_formed_corruption draws its kind first, so a seed is
    kept when its first draw is this kind."""
    assume(sampling.rng_from_seed(seed).choice(CORRUPTIONS) == kind)
    rng = sampling.rng_from_seed(seed)
    certs = [c for c in map(collapse, corpus(7) + corpus(13)) if c.collapsed.edges]
    bad = well_formed_corruption(rng, certs)
    products = {}
    for depth in (2, 3):
        want = element_level_iso_check(bad, depth, products).render_kv()
        assert pointed_groupoid_iso_check(bad, depth).render_kv() == want


def cut_by_the_cap(cert, depth):
    """Whether the coverage cap ends the window inside a source vertex's
    group of L_v x L_v pairs."""
    counts = [len(legs) ** 2 for legs in _legs_by_source(
        cert.original, depth, cert.f0).values() if legs]
    total = 0
    for n in counts:
        total += n
        if total >= _COVERAGE_PAIR_CAP:
            return total > _COVERAGE_PAIR_CAP
    return False


def test_coverage_defects_the_cap_cuts_match_the_element_oracle():
    """The whole iso report equals the oracle's where the cap cuts the
    coverage window inside a group.  The cap-hole instance of
    collapse_corpus(15, 20), with its edge e6.e5 dropped, is cut at depths
    3-6 and fails coverage at each but depth 3; it is compared at depths
    1-5, and at depths 6-8, where the oracle's probe window alone holds
    millions of pairs, its reports are pinned by a sha256 taken before
    coverage was decided per leg.  Corpora 7 and 13 give each certificate
    with its first collapsed edge dropped or duplicated, or with the first
    edge of its first parallel pair given the other's path; each whose
    window the cap cuts at depth 3 is compared at depths 1-3.  A dropped or moved edge fails
    coverage in a cut window at least once; a duplicated edge only adds
    preimages, so it never fails coverage."""
    hole = drop_collapsed_edge(collapse(corpus(15)[2]), "e6.e5")
    assert [cut_by_the_cap(hole, d) for d in range(1, 7)] == [False] * 2 + [True] * 4
    checks = [(hole, range(1, 6), "hole")]
    for cert in map(collapse, corpus(7) + corpus(13)):
        if cert.collapsed.edges:
            e = cert.collapsed.edges[0]
            bad = {"drop": [drop_collapsed_edge(cert, e.id)],
                   "duplicate": [duplicate_collapsed_edge(cert, e)],
                   "move": [move_collapsed_edge(cert, *pair)
                            for pair in parallel_pairs(cert)[:1]]}
            checks += [(c, range(1, 4), kind) for kind in CORRUPTIONS
                       for c in bad[kind] if cut_by_the_cap(c, 3)]
    assert {kind for _, _, kind in checks} == {"hole", *CORRUPTIONS}
    failing = set()
    for cert, depths, kind in checks:
        products = {}
        for depth in depths:
            rep = pointed_groupoid_iso_check(cert, depth)
            want = element_level_iso_check(cert, depth, products)
            assert rep.render_kv() == want.render_kv()
            cover = rep.value("coverage", "first-hit-splitting")
            if cut_by_the_cap(cert, depth) and cover != "pass":
                failing.add(kind)
    assert failing == {"hole", "drop", "move"}
    assert (report_digest(pointed_groupoid_iso_check(hole, depth) for depth in (6, 7, 8))
            == "8c80c4ff30efc317a0dab219bbb6a2fe3f0051e5fa4312f1fc9fe7829453c2af")


def test_multiplicative_check_minimizes_only_where_the_sides_differ(outsplit_graph,
                                                                     monkeypatch):
    """Collapsing ua and ub leaves no edge that is the only one into its
    range vertex, so step (d) strips no composite.  It then transports each
    leg of the probe window, each window pair and each distinct left plan's
    entries once, and no combination.  It composes the transports unminimized, and the
    transported left composite equals the right one on each of the 18,675
    combinations that compose on both sides, so it minimizes nothing in
    the original graph."""
    cert = collapse(CollapseSpec(outsplit_graph, ["ua", "ub"]))
    F, g = cert.collapsed, cert.original
    assert not F._sole_edge_range
    window = pairs_to_depth(F, _legs_depth(F, 5))
    minimal = [_flat(minimal_pair(a)) for a in window]
    transports = [_flat(phi_pair(cert, minimal_pair(a))) for a in window]
    both = differ = 0
    for m, phi_m in zip(minimal, transports):
        for n, phi_n in zip(minimal, transports):
            left, right = _compose(m, n), _compose(phi_m, phi_n)
            if left is None or right is None:
                continue
            both += 1
            differ += _flat(phi_pair(cert, minimal_pair(_build(F, left)))) != right
    assert (both, differ) == (18675, 0)
    plan_entries = 0
    for key in {(m[1], m[4]) for m in minimal}:
        plan_entries += sum(1 for n in minimal
                            if _compose(((), key[0], None, None, key[1]), n) is not None)

    module = importlib.import_module("steinalg.collapse")
    minimized = Counter()
    transported = []
    minimal_rule, transport_rule = module._minimal, module._transport

    def counting_minimal(graph, t):
        minimized["original" if graph is g else "collapsed"] += 1
        return minimal_rule(graph, t)

    def counting_transport(paths):
        transport = transport_rule(paths)

        def counted(t):
            transported.append(1)
            return transport(t)
        return counted

    monkeypatch.setattr(module, "_minimal", counting_minimal)
    monkeypatch.setattr(module, "_transport", counting_transport)
    rep = pointed_groupoid_iso_check(cert, 5)
    assert rep.ok
    legs = list(enumerate_paths(F, max_len=5))
    assert rep.value("transport", "probes") == str(len(legs) ** 2)
    assert len(transported) == len(legs) + len(window) + plan_entries
    assert minimized == {"collapsed": len(window)}


def test_multiplicative_check_strips_only_composites_that_end_in_a_sole_edge(
        outsplit_graph, monkeypatch):
    """Collapsing ua leaves rb the only edge into ub, so step (d) strips
    some composites.  It minimizes in the collapsed graph each window pair
    and each composite whose two legs end in one such edge, 170 and 112 at
    depth 5, and no other composite.  In the original graph it minimizes
    both sides of each combination whose transported left composite, as
    minimized in the collapsed graph, differs from the right one."""
    cert = collapse(CollapseSpec(outsplit_graph, ["ua"]))
    F, g = cert.collapsed, cert.original
    sole = F._sole_edge_range
    assert sole == {"rb": "ub"}
    window = pairs_to_depth(F, _legs_depth(F, 5))
    minimal = [_flat(minimal_pair(a)) for a in window]
    transports = [_flat(phi_pair(cert, minimal_pair(a))) for a in window]
    strips = differ = 0
    for m, phi_m in zip(minimal, transports):
        for n, phi_n in zip(minimal, transports):
            left, right = _compose(m, n), _compose(phi_m, phi_n)
            if left is None or right is None:
                continue
            strips += bool(left[0] and left[1] and left[0][-1] == left[1][-1]
                           and left[0][-1] in sole)
            differ += _flat(phi_pair(cert, minimal_pair(_build(F, left)))) != right
    assert (len(window), strips, differ) == (170, 112, 112)

    module = importlib.import_module("steinalg.collapse")
    minimized = Counter()
    minimal_rule = module._minimal

    def counting_minimal(graph, t):
        minimized["original" if graph is g else "collapsed"] += 1
        return minimal_rule(graph, t)

    monkeypatch.setattr(module, "_minimal", counting_minimal)
    assert pointed_groupoid_iso_check(cert, 5).ok
    assert minimized == {"collapsed": len(window) + strips, "original": 2 * differ}


def brute_force_injectivity(cert, depth, cap):
    """Step (a)'s rows by the set of transported probes: the probe count
    and whether the first cap probes of the window have distinct images."""
    images = [phi_pair(cert, a) for a in pairs_to_depth(cert.collapsed, depth, limit=cap)]
    return str(len(images)), "pass" if len(set(images)) == len(images) else "fail"


def assert_injectivity_rows(monkeypatch, cert, depth, caps):
    """At every cap, step (a)'s probe count and injectivity verdict are
    those of the brute-force set of transported probes."""
    module = importlib.import_module("steinalg.collapse")
    verdicts = set()
    for cap in caps:
        monkeypatch.setattr(module, "_INJECTIVITY_PROBE_CAP", cap)
        rep = pointed_groupoid_iso_check(cert, depth)
        got = rep.value("transport", "probes"), rep.value("transport", "injective")
        assert got == brute_force_injectivity(cert, depth, cap), cap
        verdicts.add(got[1])
    return verdicts


def test_injectivity_is_decided_per_leg_at_every_cap(rose2, monkeypatch):
    """On the rose2 certificate that gives b the path of a, the images of
    the window's first probes are distinct up to Z(v,a) and repeat from
    Z(v,b) on.  Every cap from 1 to the window's 49 probes, so the cap falls
    inside a row of the one group, gives the brute-force rows."""
    cert = collapse(CollapseSpec(rose2, []))
    a = Path(rose2, ("a",))
    bad = dataclasses.replace(cert, edge_paths={"a": a, "b": a})
    window = len(pairs_to_depth(bad.collapsed, 2))
    assert window == 49
    assert assert_injectivity_rows(
        monkeypatch, bad, 2, range(1, window + 1)) == {"pass", "fail"}


@given(seeds, st.integers(min_value=1, max_value=2))
@settings(max_examples=10, deadline=None)
def test_injectivity_matches_brute_force_on_corruptions(seed, depth):
    """On certificates corrupted in the ways well-formedness lets through,
    every cap from 1 to the window size gives the brute-force rows, the
    caps falling inside groups of several source vertices."""
    rng = sampling.rng_from_seed(seed)
    certs = [c for c in map(collapse, corpus(7) + corpus(13)) if c.collapsed.edges]
    bad = well_formed_corruption(rng, certs)
    window = len(pairs_to_depth(bad.collapsed, depth))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_injectivity_rows(monkeypatch, bad, depth, range(1, window + 1))


def test_injectivity_on_outsplit_where_the_cap_falls_mid_group(outsplit_graph,
                                                                  monkeypatch):
    """Collapsing u leaves two vertices with 63 legs each at depth 5, so
    the window holds 7,938 probes and the cap of 4,000 stops 31 probes into
    the second group.  That cap and caps at and around each group's end
    give the brute-force rows."""
    cert = collapse(CollapseSpec(outsplit_graph, ["u"]))
    assert len(pairs_to_depth(cert.collapsed, 5)) == 7938
    rep = pointed_groupoid_iso_check(cert, 5)
    assert rep.value("transport", "probes") == str(_INJECTIVITY_PROBE_CAP) == "4000"
    caps = (1, 62, 63, 64, 3968, 3969, 3970, _INJECTIVITY_PROBE_CAP, 7937, 7938, 8000)
    assert assert_injectivity_rows(monkeypatch, cert, 5, caps) == {"pass"}


def test_multiplicative_check_walks_each_key_once():
    """Step (d) keeps one verdict per plan key of a minimal pair, within
    the window pair's source vertex group, and walks each key once for it.
    A pair one of whose composites has both legs ending in one edge that is
    the only edge into its range vertex is walked again in full; no other
    pair is.  So the left plans handed out are the first pair of each key
    and each such pair.  In the three-vertex graph e0 and e2 are such
    edges, and the key of the unit at v1 recurs with first legs ending in
    no edge, in e0 and in e2; collapsing ua leaves rb the one edge into ub.
    On outsplit one walk per key and last edge of the first leg hands out
    72 plans at each depth, against 50 here.  The report is the
    element-level oracle's at each depth."""
    g = Graph(["v1", "v2", "v3"], [("e0", "v1", "v1"), ("e1", "v3", "v1"),
                                   ("e2", "v2", "v1")])
    three = collapse(CollapseSpec(g, ["v3"]))
    assert three.collapsed._sole_edge_range == {"e0": "v1", "e2": "v2"}
    outsplit = collapse(CollapseSpec(load_graph(OUTSPLIT_TEXT), ["ua"]))
    module = importlib.import_module("steinalg.collapse")
    handed_out = []
    for cert, depths in ((three, (1, 2, 3)), (outsplit, (3, 5))):
        F = cert.collapsed
        sole = F._sole_edge_range
        for depth in depths:
            window = list(_window(F, _legs_depth(F, depth)))
            minimal = [_minimal(F, a) for a in window]
            keys = [(a[2], m[1], m[4]) for a, m in zip(window, minimal)]
            stripping = [any(c and c[0] and c[1] and c[0][-1] == c[1][-1]
                             and c[0][-1] in sole for c in (_compose(m, n) for n in minimal))
                         for m in minimal]
            first = {}
            for i, key in enumerate(keys):
                first.setdefault(key, i)
            want = Counter(minimal[i] for i in first.values())
            want.update(m for m, strips in zip(minimal, stripping) if strips)
            tags = {(key, m[0][-1:]) for key, m in zip(keys, minimal)}
            assert len(first) < len(tags)
            assert sum(want.values()) < len(window)
            walked = []

            class CountingIndex(_RangeLegIndex):
                def plan(self, p):
                    walked.append((self, p))
                    return super().plan(p)

            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(module, "_RangeLegIndex", CountingIndex)
                rep = pointed_groupoid_iso_check(cert, depth)
            assert rep.ok
            assert rep.render_kv() == element_level_iso_check(cert, depth, {}).render_kv()
            left = walked[0][0]
            assert Counter(p for index, p in walked if index is left) == want
            handed_out.append(sum(want.values()))
    assert handed_out == [9, 21, 39, 50, 50]


def certify_round_checks():
    """The iso checks of one round of perfbench's certify workload:
    morita-check on outsplit at u and at ua,ub at depths 2-5, and collapse
    on each certificate of the acceptance corpus at depth 2 or 3 by its
    position."""
    outsplit = load_graph(OUTSPLIT_TEXT)
    checks = [(collapse(CollapseSpec(outsplit, t0)), depth)
              for t0 in (["u"], ["ua", "ub"]) for depth in (2, 3, 4, 5)]
    return checks + [(collapse(spec), 2 + i % 2) for i, spec in enumerate(corpus(13))]


def test_certify_round_decides_each_key_and_leg_once(monkeypatch):
    """Over one certify round, step (d) hands out 311 left plans of 10,385
    entries: one per plan key in each group, 285 in all, and 26 for the
    pairs walked in full, where one walk per key and last edge of the
    first leg took 842 plans and 33,008 entries.  Step (c) decides 2,663
    window pairs through 403 splits of a leg extended by a first hit, and
    forms no pair: the original graph's window is never generated, and no
    pair is built on a passing round."""
    module = importlib.import_module("steinalg.collapse")
    plans, windows, built = [], [], []
    splits = []
    split, window, build = module._collapsed_edges, module._window, module._build

    class CountingIndex(_RangeLegIndex):
        def plan(self, p):
            entries = super().plan(p)
            plans.append((self, len(entries)))
            return entries

    def counting_split(cert, edges):
        splits.append(edges)
        return split(cert, edges)

    def recording_window(g, depth, ranges=None):
        windows.append(g)
        return window(g, depth, ranges)

    def counting_build(g, t):
        built.append(t)
        return build(g, t)

    monkeypatch.setattr(module, "_RangeLegIndex", CountingIndex)
    monkeypatch.setattr(module, "_collapsed_edges", counting_split)
    monkeypatch.setattr(module, "_window", recording_window)
    monkeypatch.setattr(module, "_build", counting_build)
    walked = entries = pairs = keys = asked = 0
    for cert, depth in certify_round_checks():
        plans.clear()
        windows.clear()
        splits.clear()
        rep = pointed_groupoid_iso_check(cert, depth)
        assert rep.ok
        assert windows == [cert.collapsed]
        F = cert.collapsed
        keys += len({(a[2], m[1], m[4]) for a in _window(F, _legs_depth(F, depth))
                     for m in [_minimal(F, a)]})
        left = [n for index, n in plans if index is plans[0][0]]
        walked += len(left)
        entries += sum(left)
        pairs += int(rep.value("coverage", "pairs"))
        asked += len(splits)
    assert (walked, entries, keys) == (311, 10385, 285)
    assert (pairs, asked) == (2663, 403)
    assert built == []


# -- the memoized transport ----------------------------------------------------------


def honest_certificates():
    outsplit = collapse(CollapseSpec(load_graph(OUTSPLIT_TEXT), ["u"]))
    return [(outsplit, 5)] + [(collapse(spec), 3) for spec in corpus(13)]


def test_transport_matches_phi_pair_on_windows_and_composites():
    """One transport per certificate, as in a check, maps every pair of the
    step (d) window, its minimal pair and every composite of two minimal
    pairs as phi_pair does.  A pair with two equal legs finds its second
    leg in the memo, so both image legs are one tuple."""
    for cert, depth in honest_certificates():
        F = cert.collapsed
        transport = _transport(cert.edge_paths)
        window = pairs_to_depth(F, _legs_depth(F, depth))
        minimal = [_minimal(F, _flat(a)) for a in window]
        for a, m in zip(window, minimal):
            image = transport(_flat(a))
            assert image == _flat(phi_pair(cert, a))
            assert transport(m) == _flat(phi_pair(cert, minimal_pair(a)))
            if a.mu == a.nu and a.mu.edges:
                assert image[0] is image[1]
        for m in minimal:
            for n in minimal:
                c = _compose(m, n)
                if c is not None:
                    assert transport(c) == _flat(phi_pair(cert, _build(F, c)))


def test_right_plans_are_the_transported_left_plans():
    """The fact behind step (d)'s fast path: on a well-formed certificate
    each vertex's edge paths are its first hits, so the path map keeps the
    prefix order of legs, and the plan of each window pair's transport,
    over the transports, equals its left plan with every entry
    transported."""
    certs = honest_certificates()
    certs.append((collapse(CollapseSpec(load_graph(OUTSPLIT_TEXT), ["ua", "ub"])), 5))
    for cert, depth in certs:
        F = cert.collapsed
        transport = _transport(cert.edge_paths)
        minimal = [_minimal(F, _flat(a))
                   for a in pairs_to_depth(F, _legs_depth(F, depth))]
        transported = [transport(m) for m in minimal]
        left_index = _RangeLegIndex(minimal)
        right_index = _RangeLegIndex(transported)
        for m, phi_m in zip(minimal, transported):
            want = [(j, *transport((suffix, leg, None, None, None))[:2], source, leg_range)
                    for j, suffix, leg, source, leg_range in left_index.plan(m)]
            assert right_index.plan(phi_m) == want


def resourced_outsplit():
    """The outsplit collapse at u with the path of ra.sa re-sourced to
    ra.sb: it now ends at ub, where the collapsed edge does not."""
    g = load_graph(OUTSPLIT_TEXT)
    cert = collapse(CollapseSpec(g, ["u"]))
    paths = dict(cert.edge_paths, **{"ra.sa": Path(g, ("ra", "sb"))})
    return dataclasses.replace(cert, edge_paths=paths)


def test_transport_rejects_images_without_a_common_source():
    """A re-sourced edge path gives images of a pair's legs different source
    vertices, so phi_pair raises the ValueError PathPair raises.  The
    well-formedness check, the one validation of a certificate, rejects it
    before anything is transported."""
    bad = resourced_outsplit()
    F = bad.collapsed
    a = PathPair(vertex_path(F, "ua"), Path(F, ("ra.sa",)))
    with pytest.raises(ValueError) as want:
        phi_pair(bad, a)
    assert str(want.value) == "pair Z(ua,ra.sb) needs a common source vertex"
    assert not pointed_groupoid_iso_check(bad, 2).ok
    assert "endpoints disagree" in pointed_groupoid_iso_check(bad, 2).value(
        "well-formed", "edges-abbreviate-paths")


# -- byte identity of the iso check's reports -----------------------------------------


def report_digest(reports):
    return hashlib.sha256("".join(r.render_kv() for r in reports).encode()).hexdigest()


def test_iso_reports_are_pinned():
    """The sha256 of the kv reports of pointed_groupoid_iso_check, taken
    before the check ran on the strip map and the leg memo: outsplit at u
    at depths 2-5, the acceptance corpus at depths 2 and 3, and each corpus
    certificate with its first collapsed edge dropped at depths 2 and 3.
    Four of the dropped reports fail transport-multiplicative with a
    "then" defect."""
    outsplit = collapse(CollapseSpec(load_graph(OUTSPLIT_TEXT), ["u"]))
    assert (report_digest(pointed_groupoid_iso_check(outsplit, d) for d in (2, 3, 4, 5))
            == "807cac773f322bf6ae7559f54081a1bee5e9681f311d7386657bb93a9951242a")
    certs = [collapse(spec) for spec in corpus(13)]
    assert (report_digest(pointed_groupoid_iso_check(c, d) for c in certs for d in (2, 3))
            == "4e75021fb9f415223e9d02e1f94e9798b107427d93d0336e4c356f53839d7a8b")
    dropped = [drop_collapsed_edge(c, c.collapsed.edges[0].id)
               for c in certs if c.collapsed.edges]
    reports = [pointed_groupoid_iso_check(c, d) for c in dropped for d in (2, 3)]
    defects = [r.value("multiplicative", "transport-multiplicative") for r in reports]
    assert sum(" then " in d for d in defects) == 4
    assert (report_digest(reports)
            == "4afba94ad9170744c17cd3df8db52575a3284b9d9b29d35ab7da0ac4fcbbaca7")


def test_iso_reports_on_both_collapsed_outsplit_vertices_are_pinned():
    """The sha256 of the kv reports of pointed_groupoid_iso_check on the
    outsplit fixture with ua and ub collapsed, taken before step (d)
    composed unminimized transports: the certificate at depths 2-5, and
    the certificate with each of its two collapsed edges dropped at depths
    2 and 3.  The dropped reports fail coverage and
    transport-multiplicative, as the element-level oracle's do."""
    cert = collapse(CollapseSpec(load_graph(OUTSPLIT_TEXT), ["ua", "ub"]))
    assert (report_digest(pointed_groupoid_iso_check(cert, d) for d in (2, 3, 4, 5))
            == "191e59560993cc65979d37b5bbbe2fad9c589b42753438f33ac5ba0689d624ac")
    dropped = [drop_collapsed_edge(cert, e.id) for e in cert.collapsed.edges]
    assert len(dropped) == 2
    reports = [pointed_groupoid_iso_check(c, d) for c in dropped for d in (2, 3)]
    assert (report_digest(reports)
            == "c4cd67b991667992846ddffb689dd1105908e9bd4183935785f606d86f2dc1be")
    assert all(r.failures() == ["coverage.first-hit-splitting",
                                "multiplicative.transport-multiplicative"]
               for r in reports)
    for variant in dropped:
        products = {}
        for depth in (2, 3):
            want = element_level_iso_check(variant, depth, products).render_kv()
            assert pointed_groupoid_iso_check(variant, depth).render_kv() == want


def test_iso_reports_on_collapsed_outsplit_ua_are_pinned():
    """The sha256 of the kv reports of pointed_groupoid_iso_check on the
    outsplit fixture with ua collapsed, where rb is the only edge into ub
    and step (d) strips composites, taken before it decided stripping per
    composite: the certificate at depths 2-5, and the certificate with
    each of its three collapsed edges dropped at depths 2 and 3.  Every
    dropped report fails coverage, four of them also
    transport-multiplicative, as the element-level oracle's do."""
    cert = collapse(CollapseSpec(load_graph(OUTSPLIT_TEXT), ["ua"]))
    assert cert.collapsed._sole_edge_range
    assert (report_digest(pointed_groupoid_iso_check(cert, d) for d in (2, 3, 4, 5))
            == "d93205f20e51136bebe59c504e93db429faecf56c7c04f13d74e921ed2be4330")
    dropped = [drop_collapsed_edge(cert, e.id) for e in cert.collapsed.edges]
    assert len(dropped) == 3
    reports = [pointed_groupoid_iso_check(c, d) for c in dropped for d in (2, 3)]
    assert (report_digest(reports)
            == "dea4daed639c6f4a3797cdca18c5090c0ce3287b66b4bac5a2d7976c4aa755f6")
    assert sum("multiplicative.transport-multiplicative" in r.failures()
               for r in reports) == 4
    assert all("coverage.first-hit-splitting" in r.failures() for r in reports)
    for variant in dropped:
        products = {}
        for depth in (2, 3):
            want = element_level_iso_check(variant, depth, products).render_kv()
            assert pointed_groupoid_iso_check(variant, depth).render_kv() == want


def corrupted_certificates():
    """The certificates of the test_corrupt_* tests above, in their order."""
    two_cycle, rose2 = load_graph(TWO_CYCLE_TEXT), load_graph(ROSE2_TEXT)
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    a = Path(rose2, ("a",))
    return [
        dataclasses.replace(cert, edge_paths={}),
        dataclasses.replace(cert, edge_paths={"e1.e2": Path(two_cycle, ("e1",))}),
        dataclasses.replace(
            cert, edge_paths={"e1.e2": Path(two_cycle, ("e1", "e2", "e1", "e2"))}),
        dataclasses.replace(collapse(CollapseSpec(rose2, [])),
                            edge_paths={"a": a, "b": a}),
        dataclasses.replace(cert, collapsed=Graph(["v"], []), edge_paths={}),
    ]


def test_image_reports_are_pinned():
    """The sha256 of the kv reports of check_phi_fin_image at max-len 3-5,
    taken before phi_fin and the transport shared one leg image: outsplit
    at u and at ua,ub, the acceptance corpus, each corpus certificate with
    its first collapsed edge dropped, and the corrupted certificates.  Every
    dropped and corrupted report fails."""
    g = load_graph(OUTSPLIT_TEXT)
    certs = [collapse(spec) for spec in corpus(13)]
    dropped = [drop_collapsed_edge(c, c.collapsed.edges[0].id)
               for c in certs if c.collapsed.edges]
    digests = {
        "90e0e44c719cddb1d8c0d305980dcdba4566229f4b00f4f506cbf7c4c22af34d":
            [collapse(CollapseSpec(g, t0)) for t0 in (["u"], ["ua", "ub"])],
        "a321de40ea8023c0d51c4b4f6511243869c04db255ee048a0cd220a57e137a54": certs,
        "5f4a4267e313f2352562af278a16673c412de68ddb43fd2879a082d3572eec2d": dropped,
        "6bd2c2fae630604a263e3ed228b2a225507594ac1bb93559bf017609cce623f1":
            corrupted_certificates(),
    }
    for digest, group in digests.items():
        reports = [check_phi_fin_image(c, n) for c in group for n in (3, 4, 5)]
        assert report_digest(reports) == digest
    assert len(dropped) == 16
    assert not any(check_phi_fin_image(c, 3).ok
                   for c in dropped + corrupted_certificates())


def test_image_check_maps_only_collapsed_paths_whose_image_fits(monkeypatch):
    """On the acceptance corpus's instance 7 at max-len 5, the collapsed
    graph has 364 paths of at most 5 collapsed edges, and only 12 map into
    the window: its one vertex and 11 edge paths.  The walk extends each of
    the 12 once, reading the collapsed edges into its source once, and no
    path whose image is longer than max-len."""
    cert = collapse(corpus(13)[7])
    F = cert.collapsed
    assert len(enumerate_paths(F, max_len=5)) == 364
    real = Graph.edges_with_range
    extended = []

    def spy(graph, v):
        if graph is F:
            extended.append(v)
        return real(graph, v)

    monkeypatch.setattr(Graph, "edges_with_range", spy)
    rep = check_phi_fin_image(cert, 5)
    assert rep.ok
    assert rep.value("window", "collapsed-paths") == "12"
    assert len(F.vertices) == 1
    assert len(extended) == 12


# -- the checks read edge_paths, not edge names ---------------------------------------


def renamed(cert):
    """The certificate with its collapsed edges renamed x0, x1, ... in
    order, in the collapsed graph and the keys of edge_paths alike."""
    F = cert.collapsed
    name = {e.id: "x%d" % i for i, e in enumerate(F.edges)}
    edges = [(name[e.id], e.range_vertex, e.source_vertex) for e in F.edges]
    return dataclasses.replace(
        cert, collapsed=Graph(F.vertices, edges),
        edge_paths={name[eid]: p for eid, p in cert.edge_paths.items()})


def test_checks_read_edge_paths_not_edge_names():
    """Renamed collapsed edges change no byte of a passing certificate's
    iso and image reports, and collapsed_preimage still inverts phi_fin on
    the collapsed window: the checks find a path's collapsed edge through
    edge_paths, never by its name."""
    g = load_graph(OUTSPLIT_TEXT)
    cases = [(collapse(CollapseSpec(g, t0)), (2, 3, 4, 5))
             for t0 in (["u"], ["ua", "ub"])]
    cases += [(collapse(spec), (2, 3)) for spec in corpus(13)]
    passing = 0
    for cert, depths in cases:
        other = renamed(cert)
        for depth in depths:
            iso = pointed_groupoid_iso_check(cert, depth)
            image = check_phi_fin_image(cert, depth + 2)
            if not (iso.ok and image.ok):
                continue
            passing += 1
            assert pointed_groupoid_iso_check(other, depth).render_kv() == iso.render_kv()
            assert check_phi_fin_image(other, depth + 2).render_kv() == image.render_kv()
            for p in enumerate_paths(other.collapsed, max_len=depth):
                assert collapsed_preimage(other, phi_fin(other, p)) == p
    assert passing == 48


def collapse_pin_groups():
    """The certificates the collapse pins check, by group: outsplit with
    each collapsed set, four collapse corpora, each corpus certificate with
    its first collapsed edge dropped, duplicated or given the path of the
    first edge parallel to it, and the corrupted certificates."""
    g = load_graph(OUTSPLIT_TEXT)
    certs = [collapse(spec) for s in (1, 7, 13, 21) for spec in corpus(s)]
    edged = [c for c in certs if c.collapsed.edges]
    return {
        "outsplit": [collapse(CollapseSpec(g, t0))
                     for t0 in (["u"], ["ua"], ["ub"], ["ua", "ub"])],
        "corpora": certs,
        "dropped": [drop_collapsed_edge(c, c.collapsed.edges[0].id) for c in edged],
        "duplicated": [duplicate_collapsed_edge(c, c.collapsed.edges[0]) for c in edged],
        "moved": [move_collapsed_edge(c, *parallel_pairs(c)[0])
                  for c in certs if parallel_pairs(c)],
        "corrupted": corrupted_certificates(),
    }


def test_collapse_reports_are_pinned():
    """The sha256 of the image reports at max-len 3 and 4 and the iso
    reports at depths 2 and 3 of each group of ``collapse_pin_groups``,
    recorded before the certifier's internals moved to flat paths, with
    each group's size and how many of its reports fail."""
    got = {}
    for name, certs in collapse_pin_groups().items():
        reports = [check_phi_fin_image(c, n) for c in certs for n in (3, 4)]
        reports += [pointed_groupoid_iso_check(c, d) for c in certs for d in (2, 3)]
        got[name] = (len(certs), sum(not r.ok for r in reports), report_digest(reports))
    assert got == COLLAPSE_PINS


COLLAPSE_PINS = {
    "outsplit": (4, 0, "46edf574c344b429ff50c0c113b81ed5a9bb67af81d8c50f324140079d9f6d22"),
    "corpora": (80, 0, "e8408dbc8f4144a22bdb67ab1e428dc7940ed5d93a6a95d8f7dd616593da210d"),
    "dropped": (71, 284, "05999d874e8ed0fbdfa040ef3f61ed7769eb32769c9edb1a493c435b6aedaa85"),
    "duplicated": (71, 284, "4fc4d644b2aa25cc32453ad74e10b1abd7177a6bb5e5d839ef65226a81740b2a"),
    "moved": (42, 168, "e92ba03524efa4885adacc1b48ea21fed463025c17f3848c68f608ca82a59816"),
    "corrupted": (5, 20, "0505b77d789ed4c56a50bdb9037c30688f0c5419ea0701dae5f3e57be9c7e120"),
}


def swap_edge_paths(cert, e, other):
    """The certificate with the paths of two collapsed edges exchanged."""
    paths = cert.edge_paths
    return dataclasses.replace(
        cert, edge_paths=dict(paths, **{e.id: paths[other.id], other.id: paths[e.id]}))


def with_ghost_key(cert, e):
    """The certificate whose edge_paths also holds e's path under a key that
    names no collapsed edge, after e's own, so edge_of_path finds the key."""
    return dataclasses.replace(cert, edge_paths=dict(cert.edge_paths,
                                                     ghost=cert.edge_paths[e.id]))


def test_split_decides_what_the_collapsed_preimage_decides():
    """Step (c)'s flat split gives the edges of the collapsed preimage, or
    None where there is none, for every nonempty path of length <= 3
    between retained vertices: on the pinned certificate groups, and with
    an edge_paths key that names no collapsed edge or two edges' paths
    exchanged, whose ids then do not compose in the collapsed graph."""
    groups = collapse_pin_groups()
    edged = [c for c in groups["corpora"] if c.collapsed.edges]
    certs = [c for group in groups.values() for c in group]
    certs += [with_ghost_key(c, c.collapsed.edges[0]) for c in edged]
    certs += [swap_edge_paths(c, *c.collapsed.edges[:2])
              for c in edged if len(c.collapsed.edges) > 1]
    verdicts = Counter()
    for cert in certs:
        f0 = cert.f0
        for p in enumerate_paths(cert.original, max_len=3):
            if p.edges and p.range_vertex in f0 and p.source_vertex in f0:
                want = collapsed_preimage(cert, p)
                assert _collapsed_edges(cert, p.edges) == (want and want.edges)
                verdicts[want is None] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
