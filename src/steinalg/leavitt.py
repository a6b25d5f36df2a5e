"""The generator family of a graph inside its convolution algebra.

Each vertex v contributes an idempotent p(v), each edge e a generator s(e)
and its adjoint st(e); words over these symbols with integer scalars
evaluate to algebra elements.  ``check_ck_relations`` certifies the
standard relations on a concrete graph, and ``indicator_as_word`` writes
any basic bisection indicator as a word, witnessing that the generators
span the whole algebra.

Word syntax accepted by the parser: ``p(v)``, ``s(e)``, ``st(e)``, ``*``,
``+``, ``-``, integer scalars, and parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cylinder import PathPair, as_bisection
from .errors import InputError
from .graph import Path, concat, vertex_path
from .report import Report
from .steinberg import SteinbergElement, add, convolve, indicator, negate, scale, zero


# -- word syntax trees ----------------------------------------------------


@dataclass(frozen=True)
class SymbolWord:
    kind: str   # "p", "s", or "st"
    name: str

    def render(self):
        return "%s(%s)" % (self.kind, self.name)


@dataclass(frozen=True)
class ScalarWord:
    value: int

    def render(self):
        return str(self.value)


@dataclass(frozen=True)
class ProductWord:
    factors: tuple

    def render(self):
        # Sums bind looser than products, so sum factors keep their parens.
        return " * ".join("(%s)" % f.render() if isinstance(f, SumWord)
                          else f.render() for f in self.factors)


@dataclass(frozen=True)
class SumWord:
    terms: tuple

    def render(self):
        return " + ".join(t.render() for t in self.terms)


@dataclass(frozen=True)
class NegWord:
    inner: object

    def render(self):
        return "-(%s)" % self.inner.render()


class WordSyntaxError(InputError):
    pass


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "*+-()":
            tokens.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            head = text[i:j]
            if j >= len(text) or text[j] != "(" or head not in ("p", "s", "st"):
                raise WordSyntaxError("expected p(...), s(...), or st(...) at %r" % text[i:])
            k = text.find(")", j)
            if k < 0:
                raise WordSyntaxError("unclosed symbol at %r" % text[i:])
            name = text[j + 1:k].strip()
            if not name:
                raise WordSyntaxError("empty symbol name at %r" % text[i:])
            tokens.append(SymbolWord(head, name))
            i = k + 1
        else:
            raise WordSyntaxError("unexpected character %r" % c)
    return tokens


def parse_word(text):
    """Parse word text into a syntax tree."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def parse_factor():
        tok = peek()
        if tok == "-":
            take()
            return NegWord(parse_factor())
        if tok == "(":
            take()
            inner = parse_sum()
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

    def parse_product():
        factors = [parse_factor()]
        while peek() == "*":
            take()
            factors.append(parse_factor())
        return factors[0] if len(factors) == 1 else ProductWord(tuple(factors))

    def parse_sum():
        terms = [parse_product()]
        while peek() in ("+", "-"):
            if take() == "+":
                terms.append(parse_product())
            else:
                terms.append(NegWord(parse_product()))
        return terms[0] if len(terms) == 1 else SumWord(tuple(terms))

    if not tokens:
        raise WordSyntaxError("empty word")
    word = parse_sum()
    if peek() is not None:
        raise WordSyntaxError("trailing input from token %r" % (peek(),))
    return word


# -- generators and evaluation ---------------------------------------------


def generator(graph, symbol, ring) -> SteinbergElement:
    """The algebra element of a single generator symbol.

    p(v) is the indicator of the unit set at v; s(e) moves along e, so its
    set pairs the edge with its source vertex, and st(e) is the inverse set.
    """
    if isinstance(symbol, str):
        parsed = parse_word(symbol)
        if not isinstance(parsed, SymbolWord):
            raise InputError("%r is not a single generator symbol" % (symbol,))
        symbol = parsed
    if symbol.kind == "p":
        if not graph.has_vertex(symbol.name):
            raise InputError("unknown vertex %r" % (symbol.name,))
        v = vertex_path(graph, symbol.name)
        return indicator(PathPair(v, v), ring)
    if symbol.kind in ("s", "st"):
        try:
            e = graph.edge(symbol.name)
        except KeyError:
            raise InputError("unknown edge %r" % (symbol.name,)) from None
        edge = Path(graph, (e.id,))
        src = vertex_path(graph, e.source_vertex)
        pair = PathPair(edge, src) if symbol.kind == "s" else PathPair(src, edge)
        return indicator(pair, ring)
    raise InputError("unknown symbol kind %r" % (symbol.kind,))


def _scalar_value(word):
    """The integer a symbol-free word denotes, or None if symbols occur."""
    if isinstance(word, ScalarWord):
        return word.value
    if isinstance(word, NegWord):
        inner = _scalar_value(word.inner)
        return None if inner is None else -inner
    if isinstance(word, ProductWord):
        total = 1
        for f in word.factors:
            v = _scalar_value(f)
            if v is None:
                return None
            total *= v
        return total
    if isinstance(word, SumWord):
        total = 0
        for t in word.terms:
            v = _scalar_value(t)
            if v is None:
                return None
            total += v
        return total
    return None


def eval_word(graph, word, ring) -> SteinbergElement:
    """Evaluate a word (or word text) to an algebra element."""
    if isinstance(word, str):
        word = parse_word(word)
    if _scalar_value(word) is not None:
        # The algebra has no unit in general, so scalars only make sense as
        # multipliers of a symbol-bearing subword.
        raise InputError("a bare scalar is not an algebra element; multiply it by a symbol")
    if isinstance(word, SymbolWord):
        return generator(graph, word, ring)
    if isinstance(word, NegWord):
        return negate(eval_word(graph, word.inner, ring))
    if isinstance(word, SumWord):
        total = zero(graph, ring)
        for t in word.terms:
            total = add(total, eval_word(graph, t, ring))
        return total
    if isinstance(word, ProductWord):
        scalar = 1
        element = None
        for f in word.factors:
            v = _scalar_value(f)
            if v is not None:
                scalar *= v
                continue
            part = eval_word(graph, f, ring)
            element = part if element is None else convolve(element, part)
        return scale(ring.from_int(scalar), element) if scalar != 1 else element
    raise TypeError("not a word: %r" % (word,))


# -- spanning words ---------------------------------------------------------


def path_word_factors(mu: Path):
    if not mu.edges:
        return (SymbolWord("p", mu.vertex),)
    return tuple(SymbolWord("s", e) for e in mu.edges)


def star_path_word_factors(nu: Path):
    if not nu.edges:
        return (SymbolWord("p", nu.vertex),)
    return tuple(SymbolWord("st", e) for e in reversed(nu.edges))


def indicator_as_word(b):
    """A word evaluating exactly to the indicator of the basic bisection.

    The pair contributes the path word times the reversed starred path
    word; each excluded branch subtracts the same shape extended by it.
    """
    b = as_bisection(b)

    def pair_product(mu, nu):
        # A vertex leg adds no motion, so its unit factor only appears when
        # the whole pair is a unit; s(e) alone already encodes Z(e, s(e)).
        factors = path_word_factors(mu) if mu.edges else ()
        factors += star_path_word_factors(nu) if nu.edges else ()
        if not factors:
            return SymbolWord("p", mu.vertex)
        return factors[0] if len(factors) == 1 else ProductWord(factors)

    terms = [pair_product(b.pair.mu, b.pair.nu)]
    for alpha in b.excluded:
        terms.append(NegWord(pair_product(concat(b.pair.mu, alpha),
                                          concat(b.pair.nu, alpha))))
    return terms[0] if len(terms) == 1 else SumWord(tuple(terms))


# -- relation certification --------------------------------------------------


def check_ck_relations(graph, ring) -> Report:
    """Certify the generator relations exactly, instance by instance.

    (a) vertex idempotents are orthogonal idempotents,
    (b) range and source idempotents absorb each generator and its adjoint,
    (c) adjoints compose with generators to source idempotents,
    (d) at every vertex that receives an edge, the received generators
        resolve the vertex idempotent.
    """
    rep = Report("generator relations")
    p = {v: generator(graph, SymbolWord("p", v), ring) for v in graph.vertices}
    s = {e.id: generator(graph, SymbolWord("s", e.id), ring) for e in graph.edges}
    st = {e.id: generator(graph, SymbolWord("st", e.id), ring) for e in graph.edges}

    for v in graph.vertices:
        for w in graph.vertices:
            want = p[v] if v == w else zero(graph, ring)
            rep.check("idempotents", "p(%s)*p(%s)" % (v, w),
                      convolve(p[v], p[w]) == want)
    for e in graph.edges:
        rep.check("absorption", "p(%s)*s(%s)" % (e.range_vertex, e.id),
                  convolve(p[e.range_vertex], s[e.id]) == s[e.id])
        rep.check("absorption", "s(%s)*p(%s)" % (e.id, e.source_vertex),
                  convolve(s[e.id], p[e.source_vertex]) == s[e.id])
        rep.check("absorption", "p(%s)*st(%s)" % (e.source_vertex, e.id),
                  convolve(p[e.source_vertex], st[e.id]) == st[e.id])
        rep.check("absorption", "st(%s)*p(%s)" % (e.id, e.range_vertex),
                  convolve(st[e.id], p[e.range_vertex]) == st[e.id])
    for e in graph.edges:
        for f in graph.edges:
            want = p[e.source_vertex] if e.id == f.id else zero(graph, ring)
            rep.check("adjoint-products", "st(%s)*s(%s)" % (e.id, f.id),
                      convolve(st[e.id], s[f.id]) == want)
    for v in graph.vertices:
        received = graph.edges_with_range(v)
        if not received:
            rep.check("resolutions", "p(%s)" % v, "vacuous", "receives no edge")
            continue
        total = zero(graph, ring)
        for e in received:
            total = add(total, convolve(s[e.id], st[e.id]))
        rep.check("resolutions", "p(%s)" % v, total == p[v])
    return rep
