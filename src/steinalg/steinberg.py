"""The convolution algebra of a graph's path groupoid, with exact arithmetic.

An element is a finite R-linear combination of indicator functions of basic
pair sets.  Internally every element is kept in a canonical normal form:

  1. stored pairs are refined on demand into pairwise disjoint pieces.  Two
     basic pairs meet only when one lies inside the other, which happens
     exactly when it is the other extended along a common tail; so only the
     pairs that contain another stored pair are split, one level at a time
     along the chain towards the nested pair, and each piece carries its own
     coefficient plus those of the stored pairs containing it.  Pairs that
     nest in nothing stay as they are, whatever their depths.
  2. complete equal-coefficient fans (mu e, nu e) over every edge e ranging
     at the source vertex are merged back into (mu, nu), deepest parents
     first, until no merge applies.

Step 2 makes the normal form depth-minimal and unique, so two elements are
equal as functions exactly when their term maps coincide.  Without it,
equal functions built along different routes could normalize to different
pieces (for a single loop e at v, 1 at Z(ee,ee) and 1 at Z(v,v) are the
same function), and term comparison would wrongly separate them.  The cost
of both steps is polynomial in the number of terms, their depth and the
fan-out; it does not grow with the depth gap between unrelated terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cylinder import (GroupoidProbe, _RangeLegIndex, _pair, as_bisection,
                       compose_pairs, expand)
from .graph import concat, strip_prefix


class SteinbergElement:
    """A canonical-form element; construct via the module functions."""

    __slots__ = ("graph", "ring", "terms")

    def __init__(self, graph, ring, raw_terms):
        self.graph = graph
        self.ring = ring
        self.terms = _canonical_terms(graph, ring, raw_terms)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def max_path_len(self):
        return max((max(len(p.mu), len(p.nu)) for p in self.terms), default=0)

    def render(self):
        if not self.terms:
            return "0"
        bits = ["%s * %s" % (self.ring.render(c), p.render())
                for p, c in self.sorted_terms()]
        return " + ".join(bits)

    def __repr__(self):
        return self.render()

    def __eq__(self, other):
        if not isinstance(other, SteinbergElement):
            return NotImplemented
        return (self.graph is other.graph and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.graph), self.ring,
                     frozenset((p, repr(c)) for p, c in self.terms.items())))

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, negate(other))

    def __neg__(self):
        return negate(self)

    def __mul__(self, other):
        return convolve(self, other)


def _canonical_terms(graph, ring, raw_terms):
    merged = {}
    for pair, coeff in raw_terms:
        acc = merged.get(pair)
        coeff = coeff if acc is None else ring.add(acc, coeff)
        merged[pair] = coeff
    merged = {p: c for p, c in merged.items() if not ring.is_zero(c)}
    if not merged:
        return merged
    if len(merged) > 1:
        merged = _refine(ring, merged)
    return _contract(graph, ring, merged)


def _common_tail(mu, nu):
    """How many trailing edges the two edge tuples share."""
    n = min(len(mu), len(nu))
    k = 0
    while k < n and mu[-1 - k] == nu[-1 - k]:
        k += 1
    return k


def _refine(ring, merged):
    """Disjoint pieces of the merged terms with the coefficient sums of the
    terms covering each piece; zero pieces are dropped.

    Each pair is filed under the top of its parent chain (both legs with
    their common tail cut off) and keyed there by that tail, so a pair
    contains another exactly when both share a top and its tail is a prefix
    of the other's.  Every ancestor of a pair up to its highest merged
    ancestor is a split node and is replaced by its one-level fan; a fan
    child that is no split node is a piece.  The coefficient of a split
    node's merged ancestors is summed once, down the chain.
    """
    chains = {}
    for p, c in merged.items():
        mu, nu = p.mu.edges, p.nu.edges
        k = _common_tail(mu, nu)
        # The range vertex tells apart tops whose legs are both vertices.
        top = (mu[:len(mu) - k], nu[:len(nu) - k], p.mu.range_vertex)
        chains.setdefault(top, {})[mu[len(mu) - k:]] = (p, c)
    out = {}
    for members in chains.values():
        split = {}      # tail of a split node -> (a pair below it, levels up)
        if len(members) > 1:
            for tail, (p, _) in members.items():
                high = next((i for i in range(len(tail)) if tail[:i] in members), None)
                if high is None:
                    continue
                # A split node already found has its whole chain up to the
                # same highest merged ancestor recorded.
                for j in range(len(tail) - 1, high - 1, -1):
                    if tail[:j] in split:
                        break
                    split[tail[:j]] = (p, len(tail) - j)
        above = {}      # tail of a split node -> the sum over it and its ancestors
        for tail in sorted(split, key=len):
            p, up = split[tail]
            node = _pair(p.mu.prefix(len(p.mu.edges) - up),
                         p.nu.prefix(len(p.nu.edges) - up))
            # The highest split node of a chain is merged itself, and a
            # split node's merged ancestors are all split nodes.
            own = members.get(tail)
            acc = above.get(tail[:-1]) if tail else None
            if acc is None:
                acc = own[1]
            elif own is not None:
                acc = ring.add(acc, own[1])
            above[tail] = acc
            for child in expand(node, node.min_depth + 1):
                kid = tail + child.mu.edges[-1:]
                if kid not in split:
                    own = members.get(kid)
                    out[child] = acc if own is None else ring.add(acc, own[1])
        for tail, (p, c) in members.items():
            # Pairs below a split node came out as fan children above.
            if tail not in split and not (tail and tail[:-1] in split):
                out[p] = c
    return {p: c for p, c in out.items() if not ring.is_zero(c)}


def _contract(graph, ring, terms):
    """Merge complete equal-coefficient fans in one bottom-up pass.

    Each term is filed once under its parent pair.  Parents are visited
    deepest first, so every child a merge can produce is in place before
    its parent's fan is judged; a merged parent joins its own parent's fan.
    """
    fans = {}           # parent -> the live terms directly below it
    by_depth = {}       # len(parent.mu) -> parents
    size = len(terms)

    def join(p):
        mu, nu = p.mu, p.nu
        if not (mu.edges and nu.edges and mu.edges[-1] == nu.edges[-1]):
            return
        # Merges only shrink the term map, so a wider fan never completes.
        if len(graph.edges_with_range(graph.edge(mu.edges[-1]).range_vertex)) > size:
            return
        # Both legs drop the same last edge, so they keep a common source.
        parent = _pair(mu.prefix(len(mu.edges) - 1), nu.prefix(len(nu.edges) - 1))
        kids = fans.get(parent)
        if kids is None:
            fans[parent] = kids = []
            by_depth.setdefault(len(parent.mu.edges), []).append(parent)
        kids.append(p)

    for p in terms:
        join(p)
    for depth in range(max(by_depth, default=-1), -1, -1):
        for parent in by_depth.pop(depth, ()):
            kids = fans.pop(parent)
            if len(kids) != len(graph.edges_with_range(parent.source_vertex)):
                continue
            first = terms[kids[0]]
            if not all(ring.eq(first, terms[k]) for k in kids[1:]):
                continue
            if parent in terms:
                raise RuntimeError("contraction of %s collided with a live term"
                                   % parent.render())
            for k in kids:
                del terms[k]
            terms[parent] = first
            join(parent)
    return terms


# -- constructors ----------------------------------------------------------


def zero(graph, ring) -> SteinbergElement:
    return SteinbergElement(graph, ring, [])


def indicator(b, ring) -> SteinbergElement:
    """1 on the basic bisection, 0 elsewhere.

    Excluded branches are pairwise disjoint subsets of the pair, so the
    indicator is the pair's indicator minus the branch indicators; an empty
    bisection cancels to the zero element during normalization.
    """
    b = as_bisection(b)
    raw = [(b.pair, ring.one())]
    minus_one = ring.negate(ring.one())
    for alpha in b.excluded:
        raw.append((b.pair.extend(alpha), minus_one))
    return SteinbergElement(b.graph, ring, raw)


def from_terms(graph, ring, pairs_and_coeffs) -> SteinbergElement:
    """The element sum c * 1_Z(p) over (p, c) pairs.

    Each pair must live on the graph, and each coefficient is reduced into
    the ring (a residue mod n, a Fraction over q), so equal functions
    compare equal whatever form their coefficients were given in; a
    coefficient outside the ring raises InputError.
    """
    raw = []
    for p, c in pairs_and_coeffs:
        if p.graph is not graph:
            raise ValueError("term pair on a different graph")
        raw.append((p, ring.coerce(c)))
    return SteinbergElement(graph, ring, raw)


# -- module operations -----------------------------------------------------


def _check_compatible(f, g):
    if f.graph is not g.graph:
        raise ValueError("elements live on different graphs")
    if f.ring != g.ring:
        raise ValueError("elements live over different rings")


def add(f, g) -> SteinbergElement:
    _check_compatible(f, g)
    return SteinbergElement(f.graph, f.ring,
                            list(f.terms.items()) + list(g.terms.items()))


def negate(f) -> SteinbergElement:
    ring = f.ring
    return SteinbergElement(f.graph, ring,
                            [(p, ring.negate(c)) for p, c in f.terms.items()])


def scale(r, f) -> SteinbergElement:
    """r times f; a scalar outside the ring raises InputError."""
    ring = f.ring
    r = ring.coerce(r)
    return SteinbergElement(f.graph, ring,
                            [(p, ring.mul(r, c)) for p, c in f.terms.items()])


def convolve(f, g) -> SteinbergElement:
    """The convolution product.

    On basic bisections convolution is composition of the underlying sets,
    so the product distributes over the term pairs that compose.  When both
    factors have several terms, the terms of g are indexed by range leg
    once and each distinct source leg of f looks up its partners once, so
    compose_pairs runs only on the pairs that meet; with a single term on
    either side no lookup would share the index's cost, and every pair is
    tried.  Either way the composites come in the order of the double loop
    over f's and g's terms.  A zero factor is itself the product.
    """
    _check_compatible(f, g)
    if not f.terms:
        return f
    if not g.terms:
        return g
    ring = f.ring
    right = list(g.terms.items())
    index = None
    if len(f.terms) > 1 and len(right) > 1:
        index = _RangeLegIndex(g.terms)
    raw = []
    for p, c in f.terms.items():
        for j in index.partners(p.nu) if index is not None else range(len(right)):
            q, d = right[j]
            composed = compose_pairs(p, q)
            if composed is not None:
                raw.append((composed, ring.mul(c, d)))
    return SteinbergElement(f.graph, ring, raw)


def canonicalize(f) -> SteinbergElement:
    """Re-run normalization; a fixed point for elements built by this module."""
    return SteinbergElement(f.graph, f.ring, list(f.terms.items()))


def evaluate(f, probe: GroupoidProbe):
    """The coefficient sum over terms containing the probe (at most one term
    in canonical form).  Probes too shallow to meet any stored pair read 0.

    A pair contains the probe (mu x, nu x) exactly when it is the probe's
    two truncations with a common tail cut off, so the candidates are looked
    up, shortest common tail first, instead of scanning every term.
    """
    ring = f.ring
    terms = f.terms
    total = ring.zero()
    mu, nu = probe.mu_full, probe.nu_full
    k, j = len(mu.edges), len(nu.edges)
    while True:
        c = terms.get(_pair(mu.prefix(k), nu.prefix(j)))
        if c is not None:
            total = ring.add(total, c)
        if not k or not j or mu.edges[k - 1] != nu.edges[j - 1]:
            return total
        k -= 1
        j -= 1


def oracle_convolve_at(f, g, probe: GroupoidProbe):
    """Pointwise convolution by direct factorization enumeration.

    Sums f(alpha) g(alpha^{-1} gamma) over the factorizations of the probe
    gamma: each term of f whose range path prefixes the probe's determines
    exactly one candidate alpha by prefix matching, and duplicates coming
    from different terms are counted once.  This is the independent check
    for convolve and deliberately shares none of its canonical-form
    machinery.
    """
    _check_compatible(f, g)
    ring = f.ring
    total = ring.zero()
    seen = set()
    for p in f.terms:
        tail = strip_prefix(probe.mu_full, p.mu)
        if tail is None:
            continue
        mid = concat(p.nu, tail)
        if mid in seen:
            continue
        seen.add(mid)
        alpha = GroupoidProbe(probe.mu_full, mid)
        beta = GroupoidProbe(mid, probe.nu_full)
        total = ring.add(total, ring.mul(evaluate(f, alpha), evaluate(g, beta)))
    return total


# -- grading ---------------------------------------------------------------


@dataclass(frozen=True)
class GradedDecomposition:
    """The splitting of an element by degree |mu| - |nu|."""

    element: SteinbergElement
    components: dict

    def degrees(self):
        return sorted(self.components)

    def component(self, n) -> SteinbergElement:
        got = self.components.get(n)
        return got if got is not None else zero(self.element.graph, self.element.ring)


def graded_component(f, n) -> SteinbergElement:
    picked = [(p, c) for p, c in f.terms.items() if p.degree == n]
    return SteinbergElement(f.graph, f.ring, picked)


def grade(f) -> GradedDecomposition:
    degrees = sorted({p.degree for p in f.terms})
    return GradedDecomposition(f, {n: graded_component(f, n) for n in degrees})
