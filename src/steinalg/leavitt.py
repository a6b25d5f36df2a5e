"""The generator family of a graph inside its convolution algebra.

Each vertex v contributes an idempotent p(v), each edge e a generator s(e)
and its adjoint st(e); words over these symbols with integer scalars
evaluate to algebra elements.  ``check_ck_relations`` certifies the
standard relations on a concrete graph, and ``indicator_as_word`` writes
any basic bisection indicator as a word, witnessing that the generators
span the whole algebra.

Word syntax accepted by the parser: ``p(v)``, ``s(e)``, ``st(e)``, ``*``,
``+``, ``-``, integer scalars, and parentheses, nested at most
``MAX_NESTING`` levels deep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .cylinder import _compose, _invert, as_bisection
from .errors import InputError
from .report import Report
from .rings import int_of_text, int_text
from .steinberg import SteinbergElement, add_all, convolve, negate, scale, zero


# -- word syntax trees ----------------------------------------------------


class _Word:
    """Rendering, repr, equality and hashing for word trees.

    Words nest as deep as the parser allows, so rendering and repr walk the
    tree on an explicit stack instead of recursing into its children.  A
    repr spells out the whole tree, so two words are equal exactly when
    their reprs are.
    """

    __slots__ = ()

    def render(self):
        return _walk(self, "_render_parts")

    def __repr__(self):
        return _walk(self, "_repr_parts")

    def _repr_parts(self):
        """The pieces of the dataclass repr, with child words unexpanded."""
        out = [type(self).__name__ + "("]
        for f in fields(self):
            value = getattr(self, f.name)
            out.append(("" if len(out) == 1 else ", ") + f.name + "=")
            if isinstance(value, tuple):
                # One-element tuples keep their comma.
                out += ["("] + _joined(value, ", ") + [",)" if len(value) == 1 else ")"]
            else:
                out.append(value if isinstance(value, _Word) else repr(value))
        out.append(")")
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))


def _walk(word, parts):
    """Concatenate the text pieces of a tree; each node's ``parts`` method
    lists strings and child words in output order."""
    out = []
    stack = [word]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(getattr(item, parts)()))
    return "".join(out)


def _joined(items, sep):
    """items with sep between consecutive ones."""
    out = []
    for item in items:
        if out:
            out.append(sep)
        out.append(item)
    return out


@dataclass(frozen=True, eq=False, repr=False)
class SymbolWord(_Word):
    kind: str   # "p", "s", or "st"
    name: str

    def _render_parts(self):
        return ["%s(%s)" % (self.kind, self.name)]


@dataclass(frozen=True, eq=False, repr=False)
class ScalarWord(_Word):
    value: int

    def _render_parts(self):
        return [int_text(self.value)]

    def _repr_parts(self):
        return ["ScalarWord(value=", int_text(self.value), ")"]


@dataclass(frozen=True, eq=False, repr=False)
class ProductWord(_Word):
    factors: tuple

    def _render_parts(self):
        # Sums bind looser than products, so sum factors keep their parens.
        out = []
        for f in self.factors:
            if out:
                out.append(" * ")
            out.extend(("(", f, ")") if isinstance(f, SumWord) else (f,))
        return out


@dataclass(frozen=True, eq=False, repr=False)
class SumWord(_Word):
    terms: tuple

    def _render_parts(self):
        return _joined(self.terms, " + ")


@dataclass(frozen=True, eq=False, repr=False)
class NegWord(_Word):
    inner: object

    def _render_parts(self):
        return ["-(", self.inner, ")"]


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
        elif c.isdecimal():
            # isdecimal accepts exactly the digits int() reads; isdigit
            # also accepts superscripts such as '\u00b2', which int() rejects.
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(int_of_text(text[i:j]))
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


# Deeper words are rejected: eval_word recurses up to twice per nesting
# level, which keeps it well inside the default recursion limit of 1000.
MAX_NESTING = 300


class _OpenSum:
    """A sum being parsed: its finished terms, the factors of its current
    product, the unary minus signs waiting for the next factor, and whether
    the current product follows a binary minus."""

    __slots__ = ("terms", "factors", "negs", "minus")

    def __init__(self):
        self.terms, self.factors, self.negs, self.minus = [], [], 0, False

    def end_product(self):
        factors = self.factors
        product = factors[0] if len(factors) == 1 else ProductWord(tuple(factors))
        self.terms.append(NegWord(product) if self.minus else product)
        self.factors = []

    def close(self):
        self.end_product()
        return self.terms[0] if len(self.terms) == 1 else SumWord(tuple(self.terms))


def parse_word(text):
    """Parse word text into a syntax tree.

    Open parentheses are kept on an explicit stack.  The nesting depth
    counts open parentheses and pending unary minus signs; a word nesting
    deeper than MAX_NESTING is a WordSyntaxError.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise WordSyntaxError("empty word")
    stack = [_OpenSum()]
    depth = 0
    want_factor = True
    for tok in tokens + [None]:
        cur = stack[-1]
        if want_factor:
            if tok in ("-", "("):
                depth += 1
                if depth > MAX_NESTING:
                    raise WordSyntaxError("word nests deeper than %d levels" % MAX_NESTING)
                if tok == "-":
                    cur.negs += 1
                else:
                    stack.append(_OpenSum())
                continue
            if isinstance(tok, int):
                word = ScalarWord(tok)
            elif isinstance(tok, SymbolWord):
                word = tok
            elif tok is None:
                raise WordSyntaxError("unexpected end of word")
            else:
                raise WordSyntaxError("unexpected token %r" % (tok,))
        elif tok == "*":
            want_factor = True
            continue
        elif tok in ("+", "-"):
            cur.end_product()
            cur.minus = tok == "-"
            want_factor = True
            continue
        elif tok == ")" and len(stack) > 1:
            stack.pop()
            depth -= 1
            word = cur.close()
            cur = stack[-1]
        elif len(stack) > 1:
            raise WordSyntaxError("missing closing parenthesis")
        elif tok is None:
            return cur.close()
        else:
            raise WordSyntaxError("trailing input from token %s"
                                  % (int_text(tok) if isinstance(tok, int) else repr(tok)))
        # A factor is complete: wrap it in the minus signs before it.
        for _ in range(cur.negs):
            word = NegWord(word)
        depth -= cur.negs
        cur.negs = 0
        cur.factors.append(word)
        want_factor = False


# -- generators and evaluation ---------------------------------------------


def _symbol_pair(graph, symbol):
    """The flat pair (see ``cylinder``) of a generator symbol's set.

    p(v) is the unit set at v; s(e) moves along e, so its set pairs the
    edge with its source vertex, and st(e) is the inverse set.  An unknown
    vertex or edge is an InputError.
    """
    kind, name = symbol.kind, symbol.name
    if kind == "p":
        if not graph.has_vertex(name):
            raise InputError("unknown vertex %r" % (name,))
        return ((), (), name, name, name)
    if kind in ("s", "st"):
        try:
            e = graph.edge(name)
        except KeyError:
            raise InputError("unknown edge %r" % (name,)) from None
        t = ((e.id,), (), e.source_vertex, e.range_vertex, e.source_vertex)
        return t if kind == "s" else _invert(t)
    raise InputError("unknown symbol kind %r" % (kind,))


def generator(graph, symbol, ring) -> SteinbergElement:
    """The algebra element of a single generator symbol: the indicator of
    its set (see ``_symbol_pair``)."""
    if isinstance(symbol, str):
        parsed = parse_word(symbol)
        if not isinstance(parsed, SymbolWord):
            raise InputError("%r is not a single generator symbol" % (symbol,))
        symbol = parsed
    return _run_element(graph, ring, _symbol_pair(graph, symbol))


def _strip_negations(word):
    """The word under a chain of negations, and whether their number is odd,
    so that a minus chain costs no recursion."""
    odd = False
    while isinstance(word, NegWord):
        odd = not odd
        word = word.inner
    return word, odd


def _scalar_value(word):
    """The integer a symbol-free word denotes, or None if symbols occur."""
    word, odd = _strip_negations(word)
    if isinstance(word, ScalarWord):
        total = word.value
    elif isinstance(word, ProductWord):
        total = 1
        for f in word.factors:
            v = _scalar_value(f)
            if v is None:
                return None
            total *= v
    elif isinstance(word, SumWord):
        total = 0
        for t in word.terms:
            v = _scalar_value(t)
            if v is None:
                return None
            total += v
    else:
        return None
    return -total if odd else total


def _run_element(graph, ring, t) -> SteinbergElement:
    """The indicator of the flat pair t: one term, coefficient one."""
    return SteinbergElement(graph, ring, [(t, 1)], 1)


def eval_word(graph, word, ring) -> SteinbergElement:
    """Evaluate a word (or word text) to an algebra element.

    A run of generator symbols in a product is composed as flat pairs, and
    its element is built once, as the indicator of the composite with
    coefficient ``ring.one()``; a run with no composite makes the product
    zero.  This is exact: the product of the indicators of two basic sets
    is the indicator of their product set, a single pair or empty
    (``cylinder.compose_pairs``), the canonical form of one indicator is
    its minimal pair, and one is not zero in any ring here, since zmod
    needs a modulus of at least 2.  Negations and scalar factors are
    folded into one integer scalar.  Symbols are still checked left to
    right, after a run vanishes too, so the first unknown vertex or edge
    raises as it would in a left fold of generators and convolutions.  The
    terms of a sum are evaluated left to right and summed by ``add_all``,
    which canonicalizes once, so a sum of n terms costs one canonical form
    of their merged terms rather than n - 1 running sums.
    """
    if isinstance(word, str):
        word = parse_word(word)
    if _scalar_value(word) is not None:
        # The algebra has no unit in general, so scalars only make sense as
        # multipliers of a symbol-bearing subword.
        raise InputError("a bare scalar is not an algebra element; multiply it by a symbol")
    word, odd = _strip_negations(word)
    if isinstance(word, SymbolWord):
        element = _run_element(graph, ring, _symbol_pair(graph, word))
    elif isinstance(word, SumWord):
        # A loop, not a comprehension, adds no stack frame per nesting level.
        terms = []
        for t in word.terms:
            terms.append(eval_word(graph, t, ring))
        element = add_all(terms)
    elif isinstance(word, ProductWord):
        scalar = 1
        parts = []          # the elements of the factors and of closed runs
        run = None          # the composite of the open run of symbols
        vanished = False
        for f in word.factors:
            v = _scalar_value(f)
            if v is not None:
                scalar *= v
                continue
            f, negated = _strip_negations(f)
            if negated:
                scalar = -scalar
            if isinstance(f, SymbolWord):
                t = _symbol_pair(graph, f)
                if not vanished:
                    run = t if run is None else _compose(run, t)
                    vanished = run is None
                continue
            if run is not None:
                parts.append(_run_element(graph, ring, run))
                run = None
            parts.append(eval_word(graph, f, ring))
        if vanished:
            element = zero(graph, ring)
        else:
            if run is not None:
                parts.append(_run_element(graph, ring, run))
            element = parts[0]
            for part in parts[1:]:
                element = convolve(element, part)
        if scalar != 1:
            element = scale(ring.from_int(scalar), element)
    else:
        raise TypeError("not a word: %r" % (word,))
    return negate(element) if odd else element


# -- spanning words ---------------------------------------------------------


def indicator_as_word(b):
    """A word evaluating exactly to the indicator of the basic bisection.

    The pair contributes the path word times the reversed starred path
    word; each excluded branch subtracts the same shape extended by it.
    """
    b = as_bisection(b)
    mu, nu, v = b.pair.mu.edges, b.pair.nu.edges, b.pair.source_vertex

    def pair_product(mu, nu):
        # A vertex leg adds no motion, so its unit factor only appears when
        # the whole pair is a unit; s(e) alone already encodes Z(e, s(e)).
        factors = tuple(SymbolWord("s", e) for e in mu)
        factors += tuple(SymbolWord("st", e) for e in reversed(nu))
        if not factors:
            return SymbolWord("p", v)
        return factors[0] if len(factors) == 1 else ProductWord(factors)

    terms = [pair_product(mu, nu)]
    for alpha in b.excluded:
        terms.append(NegWord(pair_product(mu + alpha.edges, nu + alpha.edges)))
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
        total = add_all(convolve(s[e.id], st[e.id]) for e in received)
        rep.check("resolutions", "p(%s)" % v, total == p[v])
    return rep
