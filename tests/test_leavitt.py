"""Generator words: parsing, evaluation, relations, spanning."""

import itertools

from hypothesis import given, settings, strategies as st

import pytest

from steinalg import (BasicBisection, IntegerRing, IntegersMod, Path,
                      PathPair, RationalRing, WordSyntaxError, add,
                      check_ck_relations, convolve, eval_word, generator,
                      indicator, indicator_as_word, parse_word, scale,
                      vertex_path)
from steinalg import sampling

seeds = st.integers(min_value=0, max_value=10 ** 9)
RINGS = (IntegerRing(), RationalRing(), IntegersMod(4))


# -- parsing and rendering -----------------------------------------------------


@pytest.mark.parametrize("text", [
    "p(v)",
    "s(e) * st(e)",
    "p(v) + -(2) * s(e) + -(st(e) * (s(e) + p(v)))",
    "-(s(e))",
    "2 * s(e) * st(e) + s(e)",
    "(p(v) + s(e)) * st(e)",
])
def test_render_parse_roundtrip(text, loop_graph, zring):
    word = parse_word(text)
    again = parse_word(word.render())
    assert again == word
    assert eval_word(loop_graph, again, zring) == eval_word(loop_graph, word, zring)


def test_parse_precedence(loop_graph, zring):
    # * binds tighter than +, parens override.
    flat = eval_word(loop_graph, "s(e) * st(e) + p(v)", zring)
    direct = add(convolve(eval_word(loop_graph, "s(e)", zring),
                          eval_word(loop_graph, "st(e)", zring)),
                 eval_word(loop_graph, "p(v)", zring))
    assert flat == direct
    grouped = eval_word(loop_graph, "st(e) * (s(e) * st(e) + p(v))", zring)
    assert grouped != flat or True  # shape differs; value checked below
    assert grouped == convolve(eval_word(loop_graph, "st(e)", zring), flat)


def test_binary_minus_is_negated_term(loop_graph, zring):
    assert (eval_word(loop_graph, "p(v) - s(e)", zring)
            == eval_word(loop_graph, "p(v) + -(s(e))", zring))


@pytest.mark.parametrize("text,fragment", [
    ("", "empty word"),
    ("p(v) )", "trailing input"),
    ("p(v", "unclosed symbol"),
    ("p()", "empty symbol name"),
    ("q(v)", "expected p(...), s(...), or st(...)"),
    ("p(v) + ", "unexpected end of word"),
    ("(p(v)", "missing closing parenthesis"),
    ("p(v) @ s(e)", "unexpected character"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text)
    assert fragment in str(err.value)


def test_sum_factors_keep_parens_when_rendered(rose2, zring):
    word = parse_word("(p(v) + s(a)) * st(b)")
    assert word.render() == "(p(v) + s(a)) * st(b)"
    assert parse_word(word.render()) == word


# -- generators ------------------------------------------------------------------


def test_generator_frozen_elements(loop_graph, zring):
    e = Path(loop_graph, ("e",))
    v = vertex_path(loop_graph, "v")
    assert generator(loop_graph, "p(v)", zring) == indicator(PathPair(v, v), zring)
    assert generator(loop_graph, "s(e)", zring) == indicator(PathPair(e, v), zring)
    assert generator(loop_graph, "st(e)", zring) == indicator(PathPair(v, e), zring)


def test_generator_rejects_unknown_names(loop_graph, zring):
    with pytest.raises(ValueError):
        generator(loop_graph, "p(nope)", zring)
    with pytest.raises(ValueError):
        generator(loop_graph, "s(nope)", zring)
    with pytest.raises(ValueError):
        generator(loop_graph, "p(v) + p(v)", zring)


# -- scalar handling --------------------------------------------------------------


def test_scalars_fold_into_coefficients(loop_graph, zring):
    p = eval_word(loop_graph, "p(v)", zring)
    assert eval_word(loop_graph, "2 * p(v)", zring) == scale(2, p)
    assert eval_word(loop_graph, "-2 * p(v)", zring) == scale(-2, p)
    assert eval_word(loop_graph, "(1 + 1) * p(v)", zring) == scale(2, p)
    assert eval_word(loop_graph, "s(e) * -3 * st(e)", zring) == scale(-3, p)
    assert eval_word(loop_graph, "2 * 3 * p(v)", zring) == scale(6, p)


def test_scalars_respect_the_ring(loop_graph):
    ring = IntegersMod(4)
    p = eval_word(loop_graph, "p(v)", ring)
    assert eval_word(loop_graph, "6 * p(v)", ring) == scale(ring.from_int(6), p)
    assert eval_word(loop_graph, "4 * p(v)", ring).is_zero()


@pytest.mark.parametrize("text", ["5", "2 * 3", "-(2)", "1 + 2", "-(1 + -(1))"])
def test_bare_scalars_rejected(text, loop_graph, zring):
    with pytest.raises(ValueError, match="bare scalar"):
        eval_word(loop_graph, text, zring)


def test_scalar_mixed_into_sum_rejected(loop_graph, zring):
    # Without a unit there is no element for the lone scalar term to mean.
    with pytest.raises(ValueError, match="bare scalar"):
        eval_word(loop_graph, "s(e) + 1", zring)


# -- relations ---------------------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("fixture", ["loop_graph", "two_cycle", "rose2", "line_graph"])
def test_ck_relations_on_fixtures(fixture, ring, request):
    g = request.getfixturevalue(fixture)
    rep = check_ck_relations(g, ring)
    assert rep.ok, rep.failures()


def test_ck_relations_vacuous_at_sources(line_graph, zring):
    rep = check_ck_relations(line_graph, zring)
    assert rep.ok
    assert rep.value("resolutions", "p(c)") == "vacuous (receives no edge)"
    assert rep.value("resolutions", "p(a)") == "pass"


def test_fan_resolution_direct(rose2, zring):
    lhs = eval_word(rose2, "s(a) * st(a) + s(b) * st(b)", zring)
    assert lhs == eval_word(rose2, "p(v)", zring)
    half = eval_word(rose2, "s(a) * st(a)", zring)
    assert half != eval_word(rose2, "p(v)", zring)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_ck_relations_hold_on_random_graphs(seed):
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    assert check_ck_relations(g, IntegerRing()).ok


# -- spanning ----------------------------------------------------------------------


def test_indicator_as_word_frozen(rose2, zring):
    a = Path(rose2, ("a",))
    b = Path(rose2, ("b",))
    v = vertex_path(rose2, "v")
    word = indicator_as_word(PathPair(a, b))
    assert word.render() == "s(a) * st(b)"
    excl = BasicBisection(PathPair(v, v), [a])
    word = indicator_as_word(excl)
    assert word.render() == "p(v) + -(s(a) * st(a))"
    assert eval_word(rose2, word, zring) == indicator(excl, zring)


def test_indicator_as_word_star_order(two_cycle, zring):
    # nu = e1.e2 must be undone innermost-first: st(e2) then st(e1).
    e12 = Path(two_cycle, ("e1", "e2"))
    v = vertex_path(two_cycle, "v")
    word = indicator_as_word(PathPair(v, e12))
    assert word.render() == "st(e2) * st(e1)"
    assert eval_word(two_cycle, word, zring) == indicator(PathPair(v, e12), zring)


def test_indicator_as_word_unit_pair(rose2, zring):
    v = vertex_path(rose2, "v")
    word = indicator_as_word(PathPair(v, v))
    assert word.render() == "p(v)"


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_indicator_as_word_exhaustive_small(rose2, ring):
    from steinalg import enumerate_paths
    paths = enumerate_paths(rose2, max_len=2)
    for mu, nu in itertools.product(paths, paths):
        pair = PathPair(mu, nu)
        assert eval_word(rose2, indicator_as_word(pair), ring) == indicator(pair, ring)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_indicator_as_word_random(seed):
    ring = IntegersMod(4)
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng)
    b = sampling.random_bisection(rng, g)
    assert eval_word(g, indicator_as_word(b), ring) == indicator(b, ring)
