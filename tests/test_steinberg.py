"""The convolution algebra: canonical forms, the pointwise oracle, grading."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from hypothesis import assume, given, settings, strategies as st

import pytest

from steinalg import (BasicBisection, Graph, GroupoidProbe, InputError,
                      IntegerRing, IntegersMod, Path, PathPair, RationalRing,
                      SteinbergElement, add, compose_pairs, convolve, evaluate,
                      expand, from_terms, grade, graded_component, indicator,
                      load_graph, negate, oracle_convolve_at, pair_contains,
                      pairs_to_depth, ring_from_spec, scale, zero)
from steinalg import cylinder, sampling, steinberg
from steinalg.cylinder import _flat, _RangeLegIndex
from tests.conftest import (OUTSPLIT_TEXT, ROSE2_TEXT, TWO_CYCLE_TEXT,
                            backward_walk, common_depth_terms, forward_walk,
                            partners, prefix, random_bisection,
                            recording_range_leg_index, sweep_graph, vertex_path)

seeds = st.integers(min_value=0, max_value=10 ** 9)
RINGS = (IntegerRing(), RationalRing())


def adequate_depth(*elements):
    """One shared-tail step beyond every stored path pins evaluation."""
    return 1 + max(f.max_path_len() for f in elements)


# -- canonical form -----------------------------------------------------------


def test_complete_fans_contract(loop_graph, zring):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    f = from_terms(loop_graph, zring, [(PathPair(e, e), 1)])
    assert f == indicator(PathPair(v, v), zring)
    assert f.render() == "1 * Z(v,v)"


def test_from_terms_reduces_coefficients(loop_graph, qring):
    v = vertex_path(loop_graph, "v")
    p = PathPair(v, v)
    mod4 = IntegersMod(4)
    assert from_terms(loop_graph, mod4, [(p, 4)]).is_zero()
    assert from_terms(loop_graph, mod4, [(p, 5)]) == \
        from_terms(loop_graph, mod4, [(p, 1)])
    [coeff] = from_terms(loop_graph, qring, [(p, 3)]).terms.values()
    assert type(coeff) is Fraction and coeff == 3
    # Integral Fractions are integers of z and zmod:N.
    [coeff] = from_terms(loop_graph, IntegerRing(), [(p, Fraction(4, 2))]).terms.values()
    assert type(coeff) is int and coeff == 2
    [coeff] = from_terms(loop_graph, mod4, [(p, Fraction(-6))]).terms.values()
    assert type(coeff) is int and coeff == 2


@pytest.mark.parametrize("ring,bad", [
    (IntegerRing(), Fraction(1, 2)), (IntegerRing(), 2.5), (IntegerRing(), 2.0),
    (IntegersMod(4), Fraction(1, 2)), (IntegersMod(4), 3.0), (RationalRing(), 2.5),
    (RationalRing(), "1/2"),
], ids=["z-half", "z-float", "z-integral-float", "zmod4-half", "zmod4-float",
        "q-float", "q-str"])
def test_coefficients_outside_the_ring_are_rejected(loop_graph, ring, bad):
    """No float, and no non-integral Fraction over z or zmod:N, becomes a
    coefficient: from_terms and scale raise instead of storing it."""
    v = vertex_path(loop_graph, "v")
    p = PathPair(v, v)
    with pytest.raises(InputError, match="not in the ring"):
        from_terms(loop_graph, ring, [(p, bad)])
    with pytest.raises(InputError, match="not in the ring"):
        scale(bad, indicator(p, ring))


def test_from_terms_rejects_a_pair_on_another_graph(loop_graph, rose2, zring):
    v = vertex_path(rose2, "v")
    with pytest.raises(ValueError, match="different graph"):
        from_terms(loop_graph, zring, [(PathPair(v, v), 1)])


def test_partial_fans_do_not_contract(rose2, zring):
    a = Path(rose2, ("a",))
    f = from_terms(rose2, zring, [(PathPair(a, a), 1)])
    assert f.render() == "1 * Z(a,a)"


def test_equal_coefficients_merge_across_depths(rose2, zring):
    v = vertex_path(rose2, "v")
    a, b = Path(rose2, ("a",)), Path(rose2, ("b",))
    f = from_terms(rose2, zring, [(PathPair(a, a), 2), (PathPair(b, b), 2)])
    assert f == scale(2, indicator(PathPair(v, v), zring))
    assert f.render() == "2 * Z(v,v)"


def test_mixed_depth_terms_combine(loop_graph, zring):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    f = from_terms(loop_graph, zring,
                   [(PathPair(v, v), 1), (PathPair(e, e), -1)])
    assert f.is_zero()
    assert f.render() == "0"


def test_indicator_with_exclusions(loop_graph, zring):
    v = vertex_path(loop_graph, "v")
    e = Path(loop_graph, ("e",))
    b = BasicBisection(PathPair(v, v), [e])
    # Excluding the whole fan of the lone vertex leaves nothing.
    assert indicator(b, zring).is_zero()


def test_render_is_sorted_and_stable(loop_graph, zring):
    e = Path(loop_graph, ("e",))
    ee = Path(loop_graph, ("e", "e"))
    v = vertex_path(loop_graph, "v")
    f = from_terms(loop_graph, zring, [(PathPair(ee, v), 1),
                                       (PathPair(v, ee), 1),
                                       (PathPair(v, v), 2)])
    assert f.render() == "2 * Z(v,v) + 1 * Z(v,e.e) + 1 * Z(e.e,v)"


def indicator_terms(b, ring):
    """The raw terms indicator() normalizes: the pair minus its branches."""
    minus_one = ring.negate(ring.one())
    return [(b.pair, ring.one())] + [(b.pair.extend(a), minus_one) for a in b.excluded]


def sweep_terms(rng, g, ring):
    """Raw terms: random pairs, pairs nested below earlier ones at mixed
    depths, repeated pairs, exact cancellations (of a term, or of a pair by
    its one-level fan), and the raw terms of indicators with exclusions."""
    raw = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.randrange(6) if raw else 0
        c = ring.sample_nonzero(rng)
        if kind == 0:
            raw.append((sampling.random_pair(rng, g, max_len=2), c))
        elif kind == 1:
            base = rng.choice(raw)[0]
            if base.min_depth <= 3:
                alpha = forward_walk(rng, g, base.source_vertex, 3)
                raw.append((base.extend(alpha), c))
        elif kind == 2:
            raw.append((rng.choice(raw)[0], c))
        elif kind == 3:
            p, c = rng.choice(raw)
            raw.append((p, ring.negate(c)))
        elif kind == 4:
            p, c = rng.choice(raw)
            if p.min_depth <= 4:
                raw.extend((q, ring.negate(c)) for q in expand(p, p.min_depth + 1))
        else:
            raw.extend(indicator_terms(random_bisection(rng, g), ring))
    return raw


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_canonical_terms_match_the_common_depth_oracle(seed):
    """One walk per chain of nested pairs gives the brute-force canonical
    form, coefficient types and renderings included; so does indicator()
    of a bisection with exclusions."""
    rng = sampling.rng_from_seed(seed)
    g = sweep_graph(rng)
    ring = rng.choice(RINGS + (IntegersMod(4),))
    raw = sweep_terms(rng, g, ring)
    got = from_terms(g, ring, raw).terms
    want = common_depth_terms(g, ring, raw)
    assert got == want
    assert ({p: ring.render(c) for p, c in got.items()}
            == {p: ring.render(c) for p, c in want.items()})
    b = random_bisection(rng, g, max_excluded=3)
    assert indicator(b, ring).terms == common_depth_terms(g, ring, indicator_terms(b, ring))


def rendered_terms(f):
    return ["%s %s" % (p.render(), c) for p, c in f.terms.items()]


@pytest.mark.parametrize("order,want", [
    ((0, 1, 2), ["Z(a.a,b.a) 3", "Z(a.b,b.b) 1", "Z(b,a) 5"]),
    ((2, 1, 0), ["Z(a.a,b.a) 3", "Z(a.b,b.b) 1", "Z(b,a) 5"]),
])
def test_two_member_chain_grows_from_a_lone_member(rose2, zring, order, want):
    """Z(a,b), whose last edges differ, is filed alone first; Z(a.a,b.a)
    extends it along the tail a and joins its chain, and Z(b,a) heads a
    chain of its own.  Chains come out in the order their first members
    arrive, with the terms of the parent's canonical form."""
    raw = [(PathPair(Path(rose2, ("a",)), Path(rose2, ("b",))), 1),
           (PathPair(Path(rose2, ("b",)), Path(rose2, ("a",))), 5),
           (PathPair(Path(rose2, ("a", "a")), Path(rose2, ("b", "a"))), 2)]
    raw = [raw[i] for i in order]
    f = from_terms(rose2, zring, raw)
    assert rendered_terms(f) == want
    assert f.terms == common_depth_terms(rose2, zring, raw)


@pytest.mark.parametrize("order,want", [
    ((0, 1, 2), ["Z(a.b.a,b.b.a) 1", "Z(a.b.b,b.b.b) 3",
                 "Z(a.a.a,b.a.a) 5", "Z(a.a.b,b.a.b) 1"]),
    ((0, 2, 1), ["Z(a.a.a,b.a.a) 5", "Z(a.a.b,b.a.b) 1",
                 "Z(a.b.a,b.b.a) 1", "Z(a.b.b,b.b.b) 3"]),
])
def test_chain_keeps_its_members_in_arrival_order(rose2, zring, order, want):
    """The order of a chain's pieces follows the order its members arrive
    in, the first one filed alone included: the parent's output order."""
    def pair(mu, nu):
        return PathPair(Path(rose2, tuple(mu)), Path(rose2, tuple(nu)))

    raw = [(pair("a", "b"), 1), (pair("aaa", "baa"), 4), (pair("abb", "bbb"), 2)]
    raw = [raw[i] for i in order]
    f = from_terms(rose2, zring, raw)
    assert rendered_terms(f) == want
    assert f.terms == common_depth_terms(rose2, zring, raw)


def test_lone_member_keeps_a_tail_of_shared_edges(rose2, zring):
    """A lone pair whose common tail runs through edges that share their
    range vertex is not stripped: Z(a.b.a,b.a) on the rose is itself.  On
    a graph where c is the only edge into w, the tail d.c of Z(a.d.c,d.c)
    loses c but keeps d, which shares v with a and b."""
    p = PathPair(Path(rose2, ("a", "b", "a")), Path(rose2, ("b", "a")))
    f = from_terms(rose2, zring, [(p, 3)])
    assert rendered_terms(f) == ["Z(a.b.a,b.a) 3"]
    assert f.terms == common_depth_terms(rose2, zring, [(p, 3)])
    g = load_graph("vertices: v, w\nedge: a v <- v\nedge: b v <- v\n"
                   "edge: d v <- w\nedge: c w <- v\n")
    p = PathPair(Path(g, ("a", "d", "c")), Path(g, ("d", "c")))
    f = from_terms(g, zring, [(p, 3)])
    assert rendered_terms(f) == ["Z(a.d,d) 3"]
    assert f.terms == common_depth_terms(g, zring, [(p, 3)])


# Graphs for one-level chains under the top Z(a,b), whose legs share the
# source vertex that the branches' fan ranges at.  On "source" the fan is a,
# b, x, and x comes from the source vertex s; on "single" the fan is c
# alone, the only edge into w, so a lone branch strips back to the top.
FAN_GRAPHS = {
    "rose2": ROSE2_TEXT,
    "source": "vertices: v, s\nedge: a v <- v\nedge: b v <- v\nedge: x v <- s\n",
    "single": "vertices: v, w\nedge: a v <- w\nedge: b v <- w\nedge: c w <- v\n",
}


def fan_members(case, fan):
    """The chain's (tail, coefficient) members in arrival order."""
    if case == "uniform":
        return [((), 1)] + [((e,), 2) for e in fan]
    if case == "partial":
        return [((), 1), ((fan[0],), 2)]
    if case == "no-root":
        return [((e,), i + 1) for i, e in enumerate(fan[:2])]
    if case == "cancels":
        return [((), 2)] + [((e,), 2) for e in fan]
    assert case == "root-last"
    return [((fan[0],), 3), ((), 1)]


@pytest.mark.parametrize("graph,case,want", [
    ("rose2", "uniform", ["Z(a,b) 3", "Z(b,a) 3"]),
    ("rose2", "partial", ["Z(a.a,b.a) 3", "Z(a.b,b.b) 1", "Z(b,a) 3"]),
    ("rose2", "no-root", ["Z(a.a,b.a) 1", "Z(a.b,b.b) 2", "Z(b,a) 3"]),
    ("rose2", "cancels", ["Z(b,a) 3"]),
    ("rose2", "root-last", ["Z(a.a,b.a) 4", "Z(a.b,b.b) 1", "Z(b,a) 3"]),
    ("source", "uniform", ["Z(a,b) 3", "Z(b,a) 3"]),
    ("source", "partial", ["Z(a.a,b.a) 3", "Z(a.b,b.b) 1", "Z(a.x,b.x) 1", "Z(b,a) 3"]),
    ("source", "no-root", ["Z(a.a,b.a) 1", "Z(a.b,b.b) 2", "Z(b,a) 3"]),
    ("source", "cancels", ["Z(b,a) 3"]),
    ("source", "root-last", ["Z(a.a,b.a) 4", "Z(a.b,b.b) 1", "Z(a.x,b.x) 1", "Z(b,a) 3"]),
    ("single", "uniform", ["Z(a,b) 3", "Z(b,a) 3"]),
    ("single", "partial", ["Z(a,b) 3", "Z(b,a) 3"]),
    ("single", "no-root", ["Z(a,b) 1", "Z(b,a) 3"]),
    ("single", "cancels", ["Z(b,a) 3"]),
    ("single", "root-last", ["Z(a,b) 4", "Z(b,a) 3"]),
])
def test_one_level_chain_folds_or_splits_in_fan_order(graph, case, want):
    """A chain of the top Z(a,b) and branches one edge below it, with the
    lone pair Z(b,a) arriving second.  A fan whose branches all carry one
    value folds to the top (a fan of one edge always does); otherwise its
    nonzero branches come out in fan order, where the chain's first member
    arrived.  Over zmod:4 the "cancels" chain sums to 0 on every branch."""
    g = load_graph(FAN_GRAPHS[graph])
    ring = ring_from_spec("zmod:4" if case == "cancels" else "z")
    fan = [e.id for e in g.edges_with_range(g.edge("a").source_vertex)]
    raw = [(PathPair(Path(g, ("a",) + tail), Path(g, ("b",) + tail)), c)
           for tail, c in fan_members(case, fan)]
    raw.insert(1, (PathPair(Path(g, ("b",)), Path(g, ("a",))), 3))
    f = from_terms(g, ring, raw)
    assert rendered_terms(f) == want
    assert f.terms == common_depth_terms(g, ring, raw)


@pytest.mark.parametrize("letters,gap", [("ab", 64), ("abc", 40),
                                         ("abcdefghijklmnopqrstuvwxyz", 30)])
def test_deep_nested_pair_has_the_closed_form(letters, gap, zring):
    """Z(v,v) + Z(x,x) on a rose is 1 on every sibling branch of x and 2 on
    Z(x,x): gap * (fan-out - 1) + 1 terms.  Expanding both terms to the
    common depth would build (fan-out)^gap pieces and never finish."""
    g = load_graph("vertices: v\n" + "".join("edge: %s v <- v\n" % a for a in letters))
    x = [random.Random(gap).choice(letters) for _ in range(gap)]
    v = vertex_path(g, "v")
    xx = Path(g, tuple(x))
    f = from_terms(g, zring, [(PathPair(v, v), 1), (PathPair(xx, xx), 1)])
    want = {PathPair(xx, xx): 2}
    for i in range(gap):
        for e in letters:
            if e != x[i]:
                branch = Path(g, tuple(x[:i]) + (e,))
                want[PathPair(branch, branch)] = 1
    assert f.terms == want
    assert len(f.terms) == gap * (len(letters) - 1) + 1


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_canonicalize_is_idempotent(seed):
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f = sampling.random_element(rng, g, IntegerRing())

    def canonicalize(x):
        return from_terms(x.graph, x.ring, x.terms.items())

    assert canonicalize(f) == f
    assert canonicalize(canonicalize(f)).terms == canonicalize(f).terms


# -- module structure ----------------------------------------------------------


def test_vector_operations(loop_graph, qring):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    f = indicator(PathPair(e, v), qring)
    p = indicator(PathPair(v, v), qring)
    assert add(f, negate(f)).is_zero()
    assert f - f == zero(loop_graph, qring)
    assert scale(qring.from_int(3), f) == f + f + f
    assert (f + p) - p == f
    assert -(-f) == f


def test_mixed_graphs_and_rings_rejected(loop_graph, rose2, zring, qring):
    f = indicator(PathPair(vertex_path(loop_graph, "v"),
                           vertex_path(loop_graph, "v")), zring)
    g = indicator(PathPair(vertex_path(rose2, "v"),
                           vertex_path(rose2, "v")), zring)
    with pytest.raises(ValueError):
        add(f, g)
    h = indicator(PathPair(vertex_path(loop_graph, "v"),
                           vertex_path(loop_graph, "v")), qring)
    with pytest.raises(ValueError):
        convolve(f, h)


# -- evaluation ----------------------------------------------------------------


def test_evaluate_frozen_cases(loop_graph, zring):
    e = Path(loop_graph, ("e",))
    ee = Path(loop_graph, ("e", "e"))
    v = vertex_path(loop_graph, "v")
    f = from_terms(loop_graph, zring, [(PathPair(e, v), 2)])
    assert evaluate(f, GroupoidProbe(ee, e)) == 2
    assert evaluate(f, GroupoidProbe(e, v)) == 2
    assert evaluate(f, GroupoidProbe(ee, ee)) == 0


def test_evaluate_shallow_probe_reads_zero(rose2, zring):
    # A probe shallower than every stored pair reads 0 by contract.
    a = Path(rose2, ("a",))
    aa = Path(rose2, ("a", "a"))
    deep = from_terms(rose2, zring, [(PathPair(aa, aa), 1)])
    assert deep.render() == "1 * Z(a.a,a.a)"
    assert evaluate(deep, GroupoidProbe(a, a)) == 0
    assert evaluate(deep, GroupoidProbe(aa, aa)) == 1


def test_evaluate_rejects_a_probe_from_another_graph(loop_graph, zring):
    """Coefficients are looked up by edge id, so a probe on a graph sharing
    the ids would read the unit's 1, and one with an id the element's graph
    lacks would raise KeyError."""
    v = vertex_path(loop_graph, "v")
    unit = from_terms(loop_graph, zring, [(PathPair(v, v), 1)])
    twin = Graph(["v"], [("e", "v", "v")])
    other = Graph(["v"], [("x", "v", "v")])
    x = Path(other, ("x",))
    for probe in (GroupoidProbe(vertex_path(twin, "v"), vertex_path(twin, "v")),
                  GroupoidProbe(x, x)):
        with pytest.raises(ValueError, match="different graphs"):
            evaluate(unit, probe)


def scan_evaluate(f, probe):
    """evaluate by its definition: the ring sum over every containing term."""
    total = f.ring.zero()
    for p, c in f.terms.items():
        if pair_contains(p, probe):
            total = f.ring.add(total, c)
    return total


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_the_term_scan(seed):
    """Looking up the probe's candidate pairs sums the same terms as the
    scan, for probes shallower than, as deep as, and deeper than the terms."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=4, max_edges=8)
    ring = rng.choice(RINGS + (IntegersMod(4),))
    f = sampling.random_element(rng, g, ring, max_terms=4, max_len=3)
    probes = []
    for p in f.terms:
        probes.append(GroupoidProbe(p.mu, p.nu))
        probes.append(sampling.random_adequate_probe(rng, g, p, rng.randint(1, 3)))
        if p.min_depth and p.mu.edges[-1] == p.nu.edges[-1]:
            # One step shallower: both legs drop their common last edge.
            probes.append(GroupoidProbe(prefix(p.mu, len(p.mu) - 1),
                                        prefix(p.nu, len(p.nu) - 1)))
    for _ in range(6):
        p = sampling.random_pair(rng, g, max_len=rng.randint(0, 4))
        probes.append(GroupoidProbe(p.mu, p.nu))
    if not f.is_zero():
        assert any(not ring.is_zero(evaluate(f, pr)) for pr in probes)
    for pr in probes:
        assert evaluate(f, pr) == scan_evaluate(f, pr)


@pytest.mark.parametrize("spec", ["z", "q", "zmod:4"])
@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_evaluate_cuts_the_probe_to_the_element_depth(spec, seed):
    """evaluate starts at the first cut of the probe whose legs fit in the
    element's longest leg, and sums what the scan sums: on probes reaching
    0-12 edges past that depth, on vertex legs, on probes that stop at a
    source vertex, and on an element whose depth is not yet kept."""
    rng = sampling.rng_from_seed(seed)
    g = rng.choice([sampling.random_graph(rng, max_vertices=4, max_edges=8),
                    load_graph(FAN_GRAPHS["source"])])
    ring = ring_from_spec(spec)
    f = sampling.random_element(rng, g, ring, max_terms=5, max_len=3)
    v = vertex_path(g, rng.choice(g.vertices))
    walk = backward_walk(rng, g, v.range_vertex, 2)
    f = f + from_terms(g, ring, [(PathPair(v, v), ring.sample_nonzero(rng)),
                                 (PathPair(walk, v), ring.sample_nonzero(rng))])
    depth = max((max(len(p.mu), len(p.nu)) for p in f.terms), default=0)
    anchors = list(f.terms) + [sampling.random_pair(rng, g, max_len=rng.randint(0, 3))
                               for _ in range(4)]
    probes = []
    for p in anchors:
        reach = depth + rng.randint(0, 12) - max(len(p.mu), len(p.nu))
        probes.append(sampling.random_adequate_probe(rng, g, p, max(reach, 0)))
        probes.append(GroupoidProbe(p.mu, p.nu))
    if not f.is_zero():
        assert any(not ring.is_zero(evaluate(f, pr)) for pr in probes)
    assert f.max_path_len() == depth
    for pr in probes:
        want = scan_evaluate(f, pr)
        assert evaluate(f, pr) == want
        fresh = from_terms(g, ring, f.terms.items())
        assert evaluate(fresh, pr) == want
        assert fresh.max_path_len() == depth


# -- convolution vs the pointwise oracle ---------------------------------------


def test_convolve_frozen(loop_graph, zring):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    s = indicator(PathPair(e, v), zring)
    st_ = indicator(PathPair(v, e), zring)
    p = indicator(PathPair(v, v), zring)
    assert convolve(st_, s) == p
    assert convolve(s, st_) == p
    q = add(s, st_)
    sq = convolve(q, q)
    assert sq.render() == "2 * Z(v,v) + 1 * Z(v,e.e) + 1 * Z(e.e,v)"


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_convolve_matches_oracle(ring, seed):
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f = sampling.random_element(rng, g, ring)
    h = sampling.random_element(rng, g, ring)
    prod = convolve(f, h)
    depth = adequate_depth(f, h, prod)
    for _ in range(8):
        pr = sampling.random_adequate_probe(rng, g, sampling.random_pair(rng, g), depth)
        assert evaluate(prod, pr) == oracle_convolve_at(f, h, pr)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_convolve_bilinear(seed):
    ring = RationalRing()
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f = sampling.random_element(rng, g, ring)
    h = sampling.random_element(rng, g, ring)
    k = sampling.random_element(rng, g, ring)
    c = ring.sample(rng)
    assert convolve(f, add(h, k)) == add(convolve(f, h), convolve(f, k))
    assert convolve(add(f, h), k) == add(convolve(f, k), convolve(h, k))
    assert convolve(scale(c, f), h) == scale(c, convolve(f, h))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_convolve_associative(seed):
    ring = IntegerRing()
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f = sampling.random_element(rng, g, ring)
    h = sampling.random_element(rng, g, ring)
    k = sampling.random_element(rng, g, ring)
    assert convolve(convolve(f, h), k) == convolve(f, convolve(h, k))


def test_zero_annihilates(loop_graph, zring, monkeypatch):
    """A zero factor is the product at once: no element is normalized."""
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    f = indicator(PathPair(e, v), zring)
    z = zero(loop_graph, zring)
    built = []
    init = SteinbergElement.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(SteinbergElement, "__init__", counting_init)
    assert convolve(z, f).is_zero() and convolve(f, z).is_zero()
    assert convolve(z, z).is_zero()
    assert built == []


@pytest.mark.parametrize("ring", [IntegerRing(), RationalRing(), IntegersMod(4)],
                         ids=lambda r: r.name)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=40, deadline=None)
def test_add_all_matches_the_merged_terms(ring, seed):
    """A sum of up to eight elements, zero ones included, equals the
    element of all their terms, and the left fold of two-term sums; over q
    the operands' denominators differ, so their lcm is taken."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=3, max_edges=4)
    elements = [sampling.random_element(rng, g, ring, max_terms=4)
                for _ in range(rng.randint(1, 8))]
    if ring.name == "q":
        elements = [scale(Fraction(1, rng.randint(1, 6)), f) for f in elements]
    want = from_terms(g, ring, [item for f in elements for item in f.terms.items()])
    fold = elements[0]
    for f in elements[1:]:
        fold = add(fold, f)
    assert steinberg.add_all(elements) == want == fold


def test_add_all_of_nothing_is_a_value_error():
    with pytest.raises(ValueError, match="add_all needs at least one element"):
        steinberg.add_all(iter(()))


def test_zero_summand_is_the_other_operand(loop_graph, two_cycle, zring, qring):
    """A zero summand returns the other operand itself, once the operands
    are known to share their graph and ring."""
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    f = indicator(PathPair(e, v), zring)
    z = zero(loop_graph, zring)
    assert add(z, f) is f
    assert add(f, z) is f
    assert add(z, z).is_zero()
    for other in (zero(two_cycle, zring), indicator(PathPair(
            vertex_path(two_cycle, "v"), vertex_path(two_cycle, "v")), zring)):
        with pytest.raises(ValueError, match="different graphs"):
            add(z, other)
        with pytest.raises(ValueError, match="different graphs"):
            add(other, z)
    with pytest.raises(ValueError, match="different rings"):
        add(zero(loop_graph, qring), f)
    with pytest.raises(ValueError, match="different rings"):
        add(f, zero(loop_graph, qring))


def double_loop_convolve(f, g):
    """convolve by its definition: compose every term of f with every term
    of g and keep the composites in that order.  The oracle for the range
    leg index, which must build the same raw terms in the same order."""
    return from_terms(f.graph, f.ring, double_loop_raw_terms(f, g))


def double_loop_raw_terms(f, g):
    """The composites of the double loop, each with c * d in the ring."""
    ring = f.ring
    raw = []
    for p, c in f.terms.items():
        for q, d in g.terms.items():
            composed = compose_pairs(p, q)
            if composed is not None:
                raw.append((composed, ring.mul(c, d)))
    return raw


def dense_element(rng, g, ring, depth):
    """Every pair to the depth, each with a nonzero random coefficient."""
    return from_terms(g, ring, [(p, ring.sample_nonzero(rng))
                                for p in pairs_to_depth(g, depth)])


def composable(p, pairs):
    """The positions of the pairs q that compose_pairs(p, q) composes."""
    return [j for j, q in enumerate(pairs) if compose_pairs(p, q) is not None]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_convolve_matches_the_double_loop_on_dense_elements(seed):
    """Dense elements on graphs with a source vertex, over z, q and zmod:4:
    each product has the double loop's terms in the double loop's order,
    and the index finds exactly the composable pairs, vertex legs
    included."""
    rng = sampling.rng_from_seed(seed)
    g = sweep_graph(rng)
    # Depth 3 windows on these graphs reach thousands of pairs, and the
    # double loop is quadratic in them.
    depths = [d for d in (2, 3) if len(pairs_to_depth(g, d, limit=161)) <= 160]
    assume(depths)
    ring = rng.choice(RINGS + (IntegersMod(4),))
    window = pairs_to_depth(g, depths[-1])
    index = _RangeLegIndex([_flat(p) for p in window])
    for p in window:
        assert partners(index, _flat(p)) == composable(p, window)
    f, h = (dense_element(rng, g, ring, rng.choice(depths)) for _ in range(2))
    # A factor with one term takes no index; sparse factors check that too.
    k = sampling.random_element(rng, g, ring, max_terms=2)
    for x, y in ((f, h), (f, k), (k, h)):
        product = convolve(x, y)
        want = double_loop_convolve(x, y)
        assert product.terms == want.terms
        assert list(product.terms) == list(want.terms)
    index = _RangeLegIndex([_flat(q) for q in h.terms])
    for p in f.terms:
        assert partners(index, _flat(p)) == composable(p, list(h.terms))


def rose(letters):
    return load_graph("vertices: v\n" + "".join("edge: %s v <- v\n" % a for a in letters))


def rose4_dense_factors(ring):
    g = rose("abcd")
    rng = sampling.rng_from_seed(4)
    return tuple(dense_element(rng, g, ring, 2) for _ in range(2))


def test_convolve_composes_only_the_pairs_that_meet(zring, monkeypatch):
    """On a rose4 depth-2 dense product, the composites come from one plan
    per distinct source leg of f: the flat composition rule is never
    called, the trie is walked once per distinct source leg, and the
    composites formed are, with multiplicity, those the rule gives on the
    term pairs that compose."""
    f, h = rose4_dense_factors(zring)
    composites = Counter(steinberg._compose(t, q) for t in f.flat for q in h.flat)
    del composites[None]
    assert 0 < composites.total() < len(f.flat) * len(h.flat)
    calls, walks, formed = [], [], []
    compose = steinberg._compose

    def counting_compose(p, q):
        calls.append(1)
        return compose(p, q)

    monkeypatch.setattr(steinberg, "_compose", counting_compose)
    monkeypatch.setattr(steinberg, "_RangeLegIndex",
                        recording_range_leg_index(walks, formed))
    convolve(f, h)
    assert calls == []
    assert len(walks) == len({(t[1], t[4]) for t in f.flat})
    [formed] = formed
    assert Counter(formed) == composites


def test_convolve_builds_one_pair_per_output_term(zring, monkeypatch):
    """Composites stay flat pairs until the canonical form emits them: the
    rose4 depth-2 dense product builds one PathPair per term it keeps."""
    f, h = rose4_dense_factors(zring)
    built = []
    make = cylinder._pair

    def counting_pair(mu, nu):
        built.append(1)
        return make(mu, nu)

    monkeypatch.setattr(cylinder, "_pair", counting_pair)
    product = convolve(f, h)
    terms = product.terms
    assert len(built) == len(terms) > 0


# Pairwise coprime, and the lcm of any two exceeds 2 ** 64.
BIG_DENOMINATORS = (2 ** 61 - 1, 3 ** 41, 5 ** 28)


def mixed_coefficient(rng, ring):
    """A nonzero coefficient; over q its denominator is 1-12, or now and
    then one of the big ones."""
    if ring != RationalRing():
        return ring.sample_nonzero(rng)
    den = rng.choice(BIG_DENOMINATORS) if rng.random() < 0.2 else rng.randint(1, 12)
    return Fraction(rng.choice([k for k in range(-9, 10) if k]), den)


def cancelling_factors(rng, ring, g, target=0):
    """f = sum x_e Z(v,e) and h = sum y_e Z(e,v) on a rose with
    sum x_e y_e = target in the ring: every composite lands on Z(v,v), and
    the product is target * Z(v,v), by default zero.  Over zmod:n the
    residues are positive, so the unreduced sum is a nonzero multiple of
    n."""
    edges = [e.id for e in g.edges]
    x = [mixed_coefficient(rng, ring) for _ in edges[:-1]] + [ring.one()]
    y = [mixed_coefficient(rng, ring) for _ in edges[:-1]]
    dot = sum(a * b for a, b in zip(x, y))
    y.append(ring.coerce(target - dot))
    v = vertex_path(g, "v")
    f = from_terms(g, ring, [(PathPair(v, Path(g, (e,))), a) for e, a in zip(edges, x)])
    h = from_terms(g, ring, [(PathPair(Path(g, (e,)), v), b) for e, b in zip(edges, y)])
    return f, h


def unit_fan_factors(rng, ring, g):
    """f = sum c u_e Z(e,e) and h = sum u_e Z(e,e) on a rose over zmod:n,
    with c and the u_e units that square to 1: the product's fan is c on
    every branch mod n but c u_e^2, several values, over the integers."""
    units = [u for u in range(1, ring.modulus) if gcd(u, ring.modulus) == 1]
    c = rng.choice(units)
    u = [1, units[-1]] + [rng.choice(units) for _ in g.edges[2:]]
    rng.shuffle(u)
    assert all(a * a % ring.modulus == 1 for a in u)
    loops = [Path(g, (e.id,)) for e in g.edges]
    f = from_terms(g, ring, [(PathPair(p, p), c * a) for p, a in zip(loops, u)])
    h = from_terms(g, ring, [(PathPair(p, p), a) for p, a in zip(loops, u)])
    return f, h, c


def assert_same_product(product, want):
    assert product.terms == want.terms
    assert list(product.terms) == list(want.terms)
    assert ([type(c) for c in product.terms.values()]
            == [type(c) for c in want.terms.values()])


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_int_kernel_matches_the_double_loop(seed):
    """convolve runs on ints; the double loop multiplies ring values.  They
    agree on terms, term order and coefficient types over q with mixed
    denominators (lcms past 2 ** 64 included) and over zmod:4 and zmod:6;
    on products that cancel to zero, on integral products over q (still
    Fractions), and on fans uniform only mod n, which also match the
    brute-force canonical form of the double loop's raw terms."""
    rng = sampling.rng_from_seed(seed)
    ring = rng.choice((RationalRing(), IntegersMod(4), IntegersMod(6)))
    g = sweep_graph(rng)
    depths = [d for d in (2, 3) if len(pairs_to_depth(g, d, limit=161)) <= 160]
    assume(depths)
    f, h = (from_terms(g, ring, [(p, mixed_coefficient(rng, ring))
                                 for p in pairs_to_depth(g, rng.choice(depths))])
            for _ in range(2))
    k = sampling.random_element(rng, g, ring, max_terms=2)
    for x, y in ((f, h), (f, k), (k, h)):
        assert_same_product(convolve(x, y), double_loop_convolve(x, y))
    if ring == RationalRing():
        den_f = lcm(*[c.denominator for c in f.terms.values()])
        integral = scale(den_f, from_terms(g, ring, [(p, rng.randint(1, 9))
                                                     for p in h.terms]))
        product = convolve(f, integral)
        assert_same_product(product, double_loop_convolve(f, integral))
        assert all(type(c) is Fraction and c.denominator == 1
                   for c in product.terms.values())
    r = rose("abcd"[:rng.randint(2, 4)])
    x, y = cancelling_factors(rng, ring, r)
    product = convolve(x, y)
    assert product.is_zero()
    assert_same_product(product, double_loop_convolve(x, y))
    assert common_depth_terms(r, ring, double_loop_raw_terms(x, y)) == {}
    if ring != RationalRing():
        x, y, c = unit_fan_factors(rng, ring, r)
        product = convolve(x, y)
        v = vertex_path(r, "v")
        assert product.terms == {PathPair(v, v): c}
        assert_same_product(product, double_loop_convolve(x, y))
        assert common_depth_terms(r, ring, double_loop_raw_terms(x, y)) == product.terms


# sha256 of terms_digest(f, h, convolve(f, h)) for dense_window_factors:
# term maps, term order and coefficient types must not move with the stored
# form or the composition mechanism.  The rose3 and two-cycle digests were
# taken when elements still stored PathPair -> ring value, the rose4 and
# outsplit ones when convolve still composed each term pair with _compose.
DENSE_TERMS_DIGESTS = {
    ("rose3", "z"):
        "f779661e6a4f2a1e2a8a9f777eddc2c36d2d7ee57ba1cf0ca62a6c719ec56a3c",
    ("rose3", "q"):
        "b5bcf43a3d8e5af0834b6739931ece6200b47d2ec6fb1fdaa00f57ea7cadb8b9",
    ("rose3", "zmod:4"):
        "5f7ff1a5372559ec4e9bee4eaf0fd9f5e738b3db4cc837d120abbab1eae1cf82",
    ("two_cycle", "z"):
        "cc84ff1f7220129ad0038422343727bd18db6bedeb7e4ca196ca1172737f9363",
    ("two_cycle", "q"):
        "b2c3ea255b930e632fa48715743abf27a02df03f1798736ca0be380c57e5a71f",
    ("two_cycle", "zmod:4"):
        "7b381df8cf9b59e4a89724d6370afc9608e3c15c6673cddf503a02a1b6f6c1e3",
    ("rose4", "z"):
        "9629ead4ff6b2af1c14457c09b0cbc4ab6121f4643945bc030d986b5570b5429",
    ("rose4", "q"):
        "2c20067c35972d19734b421a2a5f5c678dc10c0bb9b57f4cd480adc0224c819e",
    ("rose4", "zmod:4"):
        "dc8bdf6a3389d1a5e7a1ce36874d358534d0e2821050c6418afd02a8b6b3310b",
    ("outsplit", "z"):
        "db2eb1a9f76eee759b0a9d27c764324d88edf0b68163233c90c3eab41bd19270",
    ("outsplit", "q"):
        "318063227c3196d27580170ca8c799548a741f8420ec0fd0ef515cc168dbb1b9",
    ("outsplit", "zmod:4"):
        "b16c250eb90676cce3c9a41d081ad77427a020504f711d176edf0e5ae32a4297",
}


def terms_digest(*elements):
    """sha256 over each element's terms: position, pair, coefficient type
    and value, in the order ``.terms`` gives them."""
    h = hashlib.sha256()
    for f in elements:
        for i, (p, c) in enumerate(f.terms.items()):
            h.update(("%d %s %s %s\n" % (i, p.render(), type(c).__name__, c)).encode())
        h.update(b"--\n")
    return h.hexdigest()


DENSE_WINDOWS = {
    "rose3": (lambda: rose("abc"), 2),
    "two_cycle": (lambda: load_graph(TWO_CYCLE_TEXT), 3),
    "rose4": (lambda: rose("abcd"), 2),
    "outsplit": (lambda: load_graph(OUTSPLIT_TEXT), 3),
}


def dense_window_factors(graph, spec):
    """Two dense elements on one of the dense-mul workload's windows (rose3
    and rose4 at depth 2, the two-cycle and the outsplit graph at depth 3);
    over q the coefficients are fractions, some over the big coprime
    denominators."""
    build, depth = DENSE_WINDOWS[graph]
    g = build()
    ring = ring_from_spec(spec)
    rng = sampling.rng_from_seed(12)
    return tuple(from_terms(g, ring, [(p, mixed_coefficient(rng, ring))
                                      for p in pairs_to_depth(g, depth)])
                 for _ in range(2))


@pytest.mark.parametrize("spec", ["z", "q", "zmod:4"])
@pytest.mark.parametrize("graph", ["rose3", "two_cycle", "rose4", "outsplit"])
def test_dense_products_keep_their_terms(graph, spec):
    f, h = dense_window_factors(graph, spec)
    assert terms_digest(f, h, convolve(f, h)) == DENSE_TERMS_DIGESTS[graph, spec]


@pytest.mark.parametrize("ring", [IntegerRing(), RationalRing(), IntegersMod(4)])
def test_convolve_makes_a_ring_value_only_per_output_term(ring, monkeypatch):
    """The rose4 depth-2 dense product multiplies no ring values: products
    and the canonical form run on ints, and a ring value is lifted once
    per term of the product."""
    f, h = rose4_dense_factors(ring)
    calls = Counter()
    for name in ("mul", "add", "negate", "from_int", "coerce", "is_zero", "eq",
                 "zero", "one", "lift"):
        method = getattr(ring, name)

        def counting(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(ring, name, counting)
    product = convolve(f, h)
    terms = product.terms
    assert calls["mul"] == 0
    assert calls["is_zero"] == calls["eq"] == calls["zero"] == 0
    assert calls["lift"] == len(terms) > 0


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_equal_q_elements_compare_and_hash_equal(seed):
    """Over q an element stores numerators over one reduced denominator,
    so equal functions built along different routes compare equal and
    hash equal: a doubled element halved, sums and negations of multiples,
    a rebuild from its terms, and a product whose big coprime denominators
    cancel down to the target's."""
    rng = sampling.rng_from_seed(seed)
    q = RationalRing()
    g = sweep_graph(rng)
    f = from_terms(g, q, [(sampling.random_pair(rng, g, max_len=2), mixed_coefficient(rng, q))
                          for _ in range(rng.randint(1, 6))])
    assert gcd(f.den, *f.flat.values()) == 1
    for x in (scale(Fraction(1, 2), f + f), add(scale(3, f), scale(-2, f)),
              negate(negate(f)), from_terms(g, q, list(f.terms.items()))):
        assert x == f and hash(x) == hash(f)
        assert x.den == f.den and x.flat == f.flat
    assert add(f, negate(f)) == zero(g, q) and hash(f - f) == hash(zero(g, q))
    r = rose("abcd"[:rng.randint(2, 4)])
    target = mixed_coefficient(rng, q)
    product = convolve(*cancelling_factors(rng, q, r, target))
    v = vertex_path(r, "v")
    want = from_terms(r, q, [(PathPair(v, v), target)])
    assert product == want and hash(product) == hash(want)
    assert product.den == target.denominator


@pytest.mark.parametrize("ring", [IntegerRing(), RationalRing(), IntegersMod(4)])
def test_convolve_converts_no_coefficients(ring, monkeypatch):
    """The factors' stored ints go into the product as they are: convolve
    never asks the ring for ints."""
    f, h = rose4_dense_factors(ring)
    calls = []
    as_ints = ring.as_ints

    def counting(terms):
        calls.append(1)
        return as_ints(terms)

    monkeypatch.setattr(ring, "as_ints", counting)
    assert not convolve(f, h).is_zero()
    assert calls == []


@pytest.mark.parametrize("spec", ["z", "q", "zmod:4"])
def test_products_stay_flat_until_terms_is_read(spec, monkeypatch):
    """A product of products builds no PathPair and lifts no ring value;
    reading .terms builds one of each per term, once."""
    f, h = dense_window_factors("two_cycle", spec)
    ring = f.ring
    built, lifted = [], []
    make, lift = cylinder._pair, ring.lift

    def counting_pair(mu, nu):
        built.append(1)
        return make(mu, nu)

    def counting_lift(k, den):
        lifted.append(1)
        return lift(k, den)

    monkeypatch.setattr(cylinder, "_pair", counting_pair)
    monkeypatch.setattr(ring, "lift", counting_lift)
    product = convolve(convolve(f, h), f)
    assert built == lifted == []
    terms = product.terms
    assert len(built) == len(lifted) == len(terms) > 0
    assert product.terms is terms and len(built) == len(terms)


# -- grading --------------------------------------------------------------------


def test_grade_frozen(loop_graph, zring):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    q = add(indicator(PathPair(e, v), zring), indicator(PathPair(v, e), zring))
    sq = convolve(q, q)
    dec = grade(sq)
    assert dec.degrees() == [-2, 0, 2]
    assert dec.component(0).render() == "2 * Z(v,v)"
    assert dec.component(2).render() == "1 * Z(e.e,v)"
    assert dec.component(-2).render() == "1 * Z(v,e.e)"
    assert dec.component(99).is_zero()
    assert graded_component(sq, 2) == dec.component(2)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_grade_components_sum_back(seed):
    ring = IntegersMod(4)
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f = sampling.random_element(rng, g, ring)
    dec = grade(f)
    total = zero(g, ring)
    for n in dec.degrees():
        part = dec.component(n)
        assert set(p.degree for p in part.terms) <= {n}
        total = add(total, part)
    assert total == f


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_homogeneous_products_add_degrees(seed):
    ring = IntegerRing()
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f = sampling.random_element(rng, g, ring)
    h = sampling.random_element(rng, g, ring)
    for n in grade(f).degrees():
        for m in grade(h).degrees():
            prod = convolve(graded_component(f, n), graded_component(h, m))
            assert prod.is_zero() or grade(prod).degrees() == [n + m]
