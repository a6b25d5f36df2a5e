"""The convolution algebra: canonical forms, the pointwise oracle, grading."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from steinalg import (BasicBisection, GroupoidProbe, IntegerRing, IntegersMod,
                      Path, PathPair, RationalRing, add, canonicalize,
                      convolve, evaluate, from_terms, grade, graded_component,
                      indicator, negate, oracle_convolve_at, scale,
                      vertex_path, zero)
from steinalg import sampling
from steinalg.steinberg import _contract

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


def test_contraction_collision_is_an_internal_error(rose2, zring):
    """The fan under Z(v,v) would contract onto a live Z(v,v); canonical
    input never does that, and the guard is a raise that python -O keeps."""
    v = vertex_path(rose2, "v")
    a, b = Path(rose2, ("a",)), Path(rose2, ("b",))
    terms = {PathPair(v, v): 1, PathPair(a, a): 1, PathPair(b, b): 1}
    with pytest.raises(RuntimeError, match="collided"):
        _contract(rose2, zring, terms)


def test_from_terms_reduces_coefficients(loop_graph, qring):
    v = vertex_path(loop_graph, "v")
    p = PathPair(v, v)
    mod4 = IntegersMod(4)
    assert from_terms(loop_graph, mod4, [(p, 4)]).is_zero()
    assert from_terms(loop_graph, mod4, [(p, 5)]) == \
        from_terms(loop_graph, mod4, [(p, 1)])
    [coeff] = from_terms(loop_graph, qring, [(p, 3)]).terms.values()
    assert type(coeff) is Fraction and coeff == 3


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


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_canonicalize_is_idempotent(seed):
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    f = sampling.random_element(rng, g, IntegerRing())
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


def test_zero_annihilates(loop_graph, zring):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    f = indicator(PathPair(e, v), zring)
    z = zero(loop_graph, zring)
    assert convolve(z, f).is_zero() and convolve(f, z).is_zero()


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
