"""The collapse move: preconditions, the path map, windowed certification."""

import dataclasses
import sys

from hypothesis import assume, given, settings, strategies as st

import pytest

from steinalg import (CollapseSpec, Graph, Path, PathPair, VertexSubset,
                      check_phi_fin_image, collapse, collapsed_preimage,
                      enumerate_paths, first_hit_extensions, phi_fin, phi_pair,
                      pointed_groupoid_iso_check, serialize_graph,
                      validate_collapsible, vertex_path)
from steinalg import sampling
from tests.conftest import ROSE2_TEXT, long_line

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


def test_spec_rejects_foreign_subset(loop_graph, rose2):
    with pytest.raises(ValueError):
        CollapseSpec(loop_graph, VertexSubset(rose2, ["v"]))


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
