"""Generator words: parsing, evaluation, relations, spanning."""

import dataclasses
import itertools

from hypothesis import given, settings, strategies as st

import pytest

from steinalg import (BasicBisection, InputError, IntegerRing, IntegersMod,
                      Path, PathPair, RationalRing, WordSyntaxError, add,
                      check_ck_relations, convolve, eval_word, generator,
                      indicator, indicator_as_word, load_graph, parse_word,
                      scale, vertex_path)
from steinalg import leavitt, sampling
from steinalg.leavitt import (MAX_NESTING, NegWord, ProductWord, ScalarWord,
                              SumWord, SymbolWord, _tokenize)
from tests.conftest import (OUTSPLIT_TEXT, ROSE2_TEXT, TWO_CYCLE_TEXT,
                            element_level_eval_word, random_bisection)

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


def test_scalars_are_decimal_digits():
    """A scalar is a run of the digits int() reads: a superscript is not
    one, and is rejected as a syntax error; other decimal digits read."""
    for text in ("s(a) * \u00b2", "s(a) * 3\u00b2", "\u00b9 * p(v)"):
        with pytest.raises(WordSyntaxError):
            parse_word(text)
    assert parse_word("\u0663 * p(v)") == ProductWord((ScalarWord(3), SymbolWord("p", "v")))
    assert _tokenize("1\u0662") == [12]


def recursive_parse(text):
    """Recursive descent over the same grammar, one call per nesting level:
    the oracle for the parser's explicit stack on shallow words."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def factor():
        tok = peek()
        if tok == "-":
            take()
            return NegWord(factor())
        if tok == "(":
            take()
            inner = sum_()
            if take() != ")":
                raise WordSyntaxError("missing closing parenthesis")
            return inner
        if isinstance(tok, int):
            take()
            return ScalarWord(tok)
        if isinstance(tok, SymbolWord):
            take()
            return tok
        if tok is None:
            raise WordSyntaxError("unexpected end of word")
        raise WordSyntaxError("unexpected token %r" % (tok,))

    def product():
        factors = [factor()]
        while peek() == "*":
            take()
            factors.append(factor())
        return factors[0] if len(factors) == 1 else ProductWord(tuple(factors))

    def sum_():
        terms = [product()]
        while peek() in ("+", "-"):
            terms.append(product() if take() == "+" else NegWord(product()))
        return terms[0] if len(terms) == 1 else SumWord(tuple(terms))

    if not tokens:
        raise WordSyntaxError("empty word")
    word = sum_()
    if peek() is not None:
        raise WordSyntaxError("trailing input from token %r" % (peek(),))
    return word


def parse_outcome(parse, text):
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return "error: %s" % exc


@given(st.lists(st.sampled_from(["p(v)", "s(e)", "st(e)", "2", "3", " * ", "*",
                                 " + ", "+", "-", " - ", "(", ")"]),
                max_size=14).map("".join))
@settings(max_examples=400, deadline=None)
def test_parser_matches_recursive_descent(text):
    """The same tree, or the same error message, as the recursive parser."""
    assert parse_outcome(parse_word, text) == parse_outcome(recursive_parse, text)


@pytest.mark.parametrize("shape", [("(", ")"), ("-", ""), ("s(e) * (p(v) + ", ")"),
                                   ("s(e) - s(e) * (", ")"), ("-(", ")")],
                         ids=["parens", "minus", "alternating", "binary-minus", "both"])
def test_nesting_is_bounded(shape, loop_graph, zring):
    """MAX_NESTING counts open parentheses and pending minus signs; one
    level more is a syntax error, found before any recursion."""
    opening, closing = shape
    per_level = 2 if opening == "-(" else 1

    def word(levels):
        return opening * levels + "s(e)" + closing * levels

    deepest = MAX_NESTING // per_level
    assert eval_word(loop_graph, word(deepest), zring) is not None
    with pytest.raises(WordSyntaxError, match="nests deeper than %d" % MAX_NESTING):
        parse_word(word(deepest + 1))


def test_sum_factors_keep_parens_when_rendered(rose2, zring):
    word = parse_word("(p(v) + s(a)) * st(b)")
    assert word.render() == "(p(v) + s(a)) * st(b)"
    assert parse_word(word.render()) == word


# The word classes as frozen dataclasses whose equality, hash, repr and
# render recurse into the children: the oracle for the explicit-stack walks
# on shallow words.
def _recursive_product_render(self):
    return " * ".join("(%s)" % f.render() if isinstance(f, RECURSIVE["SumWord"])
                      else f.render() for f in self.factors)


RECURSIVE = {cls.__name__: cls for cls in (
    dataclasses.make_dataclass(
        "SymbolWord", [("kind", str), ("name", str)], frozen=True,
        namespace={"render": lambda self: "%s(%s)" % (self.kind, self.name)}),
    dataclasses.make_dataclass(
        "ScalarWord", [("value", int)], frozen=True,
        namespace={"render": lambda self: str(self.value)}),
    dataclasses.make_dataclass(
        "ProductWord", [("factors", tuple)], frozen=True,
        namespace={"render": _recursive_product_render}),
    dataclasses.make_dataclass(
        "SumWord", [("terms", tuple)], frozen=True,
        namespace={"render": lambda self: " + ".join(t.render() for t in self.terms)}),
    dataclasses.make_dataclass(
        "NegWord", [("inner", object)], frozen=True,
        namespace={"render": lambda self: "-(%s)" % self.inner.render()}),
)}


LIBRARY = {cls.__name__: cls for cls in (SymbolWord, ScalarWord, ProductWord, SumWord,
                                         NegWord)}


def copy_word(word, classes):
    """The same tree built from the given classes (by name)."""
    cls = classes[type(word).__name__]
    if isinstance(word, SymbolWord):
        return cls(word.kind, word.name)
    if isinstance(word, ScalarWord):
        return cls(word.value)
    if isinstance(word, NegWord):
        return cls(copy_word(word.inner, classes))
    children = word.factors if isinstance(word, ProductWord) else word.terms
    return cls(tuple(copy_word(c, classes) for c in children))


WORDS = st.recursive(
    st.builds(SymbolWord, st.sampled_from(["p", "s", "st"]), st.sampled_from(["v", "e"]))
    | st.builds(ScalarWord, st.integers(min_value=0, max_value=3)),
    lambda inner: (st.builds(NegWord, inner)
                   | st.lists(inner, min_size=1, max_size=3).map(tuple).map(ProductWord)
                   | st.lists(inner, min_size=1, max_size=3).map(tuple).map(SumWord)),
    max_leaves=12)


@given(WORDS, WORDS)
@settings(max_examples=300, deadline=None)
def test_word_walks_match_recursive_dataclasses(word, other):
    """render, repr, == and hash agree with the recursive dataclasses."""
    ref, other_ref = copy_word(word, RECURSIVE), copy_word(other, RECURSIVE)
    assert word.render() == ref.render()
    assert repr(word) == repr(ref)
    assert (word == other) == (ref == other_ref)
    again = copy_word(word, LIBRARY)
    assert again == word and hash(again) == hash(word)
    if word == other:
        assert hash(word) == hash(other)


def test_deep_word_tree_walks_without_recursion():
    """A word at the nesting bound renders, compares, hashes and reprs
    without reaching the recursion limit (each raised RecursionError when
    the word classes recursed into their children)."""
    def text(leaf):
        return "s(a) * (p(v) + " * MAX_NESTING + leaf + ")" * MAX_NESTING

    word, again, other = parse_word(text("s(a)")), parse_word(text("s(a)")), \
        parse_word(text("s(b)"))
    assert word.render() == text("s(a)")
    assert word == again and hash(word) == hash(again)
    assert word != other
    shown = repr(word)
    assert shown.startswith("ProductWord(factors=(SymbolWord(kind='s', name='a'), "
                            "SumWord(terms=(SymbolWord(kind='p', name='v'), ")
    assert shown.count("SumWord(terms=") == MAX_NESTING


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


def outcome(evaluate, graph, word, ring):
    """The element a word evaluates to, or the message of its InputError."""
    try:
        return evaluate(graph, word, ring)
    except InputError as exc:
        return "error: %s" % exc


EVAL_GRAPHS = {name: load_graph(text) for name, text in (
    ("rose2", ROSE2_TEXT), ("two-cycle", TWO_CYCLE_TEXT), ("outsplit", OUTSPLIT_TEXT))}


def graph_words(graph):
    """Words over the graph's symbols, with an unknown vertex and edge now
    and then, scalar factors 0, 2 and -1, negations, and sums nested inside
    products; products run long enough for runs to vanish partway."""
    symbols = [SymbolWord("p", v) for v in graph.vertices]
    symbols += [SymbolWord(kind, e.id) for e in graph.edges for kind in ("s", "st")]
    leaves = (st.sampled_from(symbols)
              | st.sampled_from([ScalarWord(0), ScalarWord(2), ScalarWord(-1)])
              | st.sampled_from([SymbolWord("p", "zz"), SymbolWord("s", "zz")]))
    return st.recursive(
        leaves,
        lambda inner: (st.builds(NegWord, inner)
                       | st.lists(inner, min_size=2, max_size=6).map(tuple).map(ProductWord)
                       | st.lists(inner, min_size=1, max_size=3).map(tuple).map(SumWord)),
        max_leaves=14)


@given(st.data(), st.sampled_from(sorted(EVAL_GRAPHS)), st.sampled_from(RINGS))
@settings(max_examples=300, deadline=None)
def test_eval_word_matches_element_level_fold(data, name, ring):
    """Composing runs of symbols as pairs gives the element, or the first
    InputError, of the left fold of generators and convolutions."""
    graph = EVAL_GRAPHS[name]
    word = data.draw(graph_words(graph))
    assert outcome(eval_word, graph, word, ring) == \
        outcome(element_level_eval_word, graph, word, ring)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("text", [
    "s(e1) * s(e1)",
    "s(e1) * s(e1) * st(e2) * 2",
    "s(e1) * s(e2) * s(e2) * (p(v) + s(e1))",
    "-(s(e1)) * 2 * st(e1) * -1 * (s(e1) + p(w)) * s(e2) * st(e2)",
    "0 * s(e1) * st(e1)",
    "s(e1) * s(e1) * p(zz)",
    "s(e1) * s(e1) * (p(v) + s(zz))",
    "s(e1) * s(e1) * s(zz) * p(zz)",
    "s(e1) * (s(e1) + 1)",
])
def test_vanishing_runs_match_element_level_fold(text, ring):
    """A run that vanishes partway makes the product zero, and a later
    unknown symbol or bare scalar still raises the fold's InputError."""
    graph = EVAL_GRAPHS["two-cycle"]
    assert outcome(eval_word, graph, text, ring) == \
        outcome(element_level_eval_word, graph, text, ring)


def test_generator_products_build_no_generator_elements(monkeypatch):
    """A product of generators is composed as flat pairs: it neither
    builds a generator's indicator nor convolves."""
    graph = EVAL_GRAPHS["rose2"]
    texts = ["s(a) * st(b) * s(b) * -2 * st(a)", "-(s(a))", "p(v) * s(b) * st(a)",
             "s(a) * s(b) * st(a)"]
    want = [element_level_eval_word(graph, text, RationalRing()) for text in texts]

    def refuse(*args):
        raise AssertionError("generator product left the pair kernel")

    monkeypatch.setattr(leavitt, "convolve", refuse)
    monkeypatch.setattr(leavitt, "generator", refuse)
    assert [eval_word(graph, text, RationalRing()) for text in texts] == want


def rose2_terms(rng, n):
    """n words c * s(x) * st(y) on rose2, x and y paths of length 0-4 and c
    in -2..2 (p(v) stands in for two empty paths), so that terms nest,
    repeat and cancel."""
    terms = []
    for _ in range(n):
        x, y = ("".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
                for _ in range(2))
        factors = [SymbolWord("s", a) for a in x] + [SymbolWord("st", a) for a in reversed(y)]
        factors = factors or [SymbolWord("p", "v")]
        terms.append(ProductWord((ScalarWord(rng.randint(-2, 2)), *factors)))
    return terms


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("n", [1, 2, 120])
def test_sums_match_element_level_fold(n, ring):
    """A sum canonicalized once equals the left fold of two-term sums."""
    graph = EVAL_GRAPHS["rose2"]
    rng = sampling.rng_from_seed(n)
    for _ in range(3):
        word = SumWord(tuple(rose2_terms(rng, n)))
        assert eval_word(graph, word, ring) == element_level_eval_word(graph, word, ring)


def test_a_sum_builds_one_element_beyond_its_terms(monkeypatch):
    """Summing 400 terms builds one element beyond those the terms build
    on their own; a running sum would build one per term."""
    graph = EVAL_GRAPHS["rose2"]
    ring = RationalRing()
    terms = [t for t in rose2_terms(sampling.rng_from_seed(400), 600)
             if t.factors[0].value][:400]
    assert len(terms) == 400
    built = []
    init = leavitt.SteinbergElement.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(leavitt.SteinbergElement, "__init__", counting_init)
    for t in terms:
        eval_word(graph, t, ring)
    alone = len(built)
    del built[:]
    total = eval_word(graph, SumWord(tuple(terms)), ring)
    assert len(built) == alone + 1
    assert not total.is_zero()


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
    b = random_bisection(rng, g)
    assert eval_word(g, indicator_as_word(b), ring) == indicator(b, ring)
