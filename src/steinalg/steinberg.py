"""The convolution algebra of a graph's path groupoid, with exact arithmetic.

An element is a finite R-linear combination of indicator functions of basic
pair sets.  Internally every element is kept in a canonical normal form,
built in one walk per chain:

  1. two basic pairs meet only when one lies inside the other, which
     happens exactly when it is the other extended along a common tail.  So
     the stored pairs fall into chains that share a top (both legs with the
     common tail cut off), and the tails of a chain's pairs, with their
     prefixes, form a tree.  Coefficients are summed down that tree: a
     node's sum is its value on every branch of its fan that no stored pair
     reaches.
  2. going back up, a node is uniform when every branch of its fan carries
     one value, and then it stands for its whole fan; under a node that
     stays mixed, each uniform branch with a nonzero value is a piece.  A
     chain with a single pair is that pair's minimal pair.

Step 2 makes the normal form depth-minimal and unique, so two elements are
equal as functions exactly when their term maps coincide.  Without it,
equal functions built along different routes could normalize to different
pieces (for a single loop e at v, 1 at Z(ee,ee) and 1 at Z(v,v) are the
same function), and term comparison would wrongly separate them.  The walk
visits the stored pairs' tails, their prefixes and the fans below them, so
its cost is polynomial in the number of terms, their depth and the
fan-out; it does not grow with the depth gap between unrelated terms.

The normal form runs on flat pairs, the edge-id tuples of the pair kernel
in ``cylinder``, and on int coefficients.  Raw terms are merged on flat
pairs (a raw term given as a PathPair is flattened first), chains are filed
and walked on them, and a PathPair is built only for a term the normal form
emits; a PathPair that comes in and is emitted unchanged is emitted as
itself.  Coefficients are ints over one denominator D (``ring.as_ints``),
added in ``ring.int_ring()``, where zero is ``not c`` and equality is
``==``; a ring value is made (``ring.lift``) only for an emitted term.
``convolve`` composes flat pairs and merges the products of the factors'
ints with plain int arithmetic; it hands over the flat pairs as they are
and each merged sum normalized in ``ring.int_ring()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cylinder import (GroupoidProbe, PathPair, _build, _compose, _flat,
                       _minimal, _pair, _RangeLegIndex, as_bisection)
from .graph import concat, strip_prefix


class SteinbergElement:
    """A canonical-form element; construct via the module functions."""

    __slots__ = ("graph", "ring", "terms")

    def __init__(self, graph, ring, raw_terms, den=None):
        self.graph = graph
        self.ring = ring
        self.terms = _canonical_terms(graph, ring, raw_terms, den)

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


def _canonical_terms(graph, ring, raw_terms, den=None):
    # A raw term's pair is a PathPair or a flat pair; both merge on the
    # flat pair, and a PathPair emitted unchanged is emitted as itself.
    # Coefficients are ring values, or, with den, normalized values of
    # ring.int_ring() that stand for themselves over den.
    if not raw_terms:
        return {}
    if den is None:
        raw_terms, den = ring.as_ints(raw_terms)
    merged = {}
    given = {}
    for pair, coeff in raw_terms:
        if pair.__class__ is PathPair:
            t = _flat(pair)
            given.setdefault(t, pair)
        else:
            t = pair
        acc = merged.get(t)
        merged[t] = coeff if acc is None else ring.int_ring().add(acc, coeff)
    # A chain is the pairs with one top (both legs with the common tail cut
    # off), each filed by its tail: two pairs meet only when they share a
    # top and one tail is a prefix of the other.  The range vertex tells
    # apart tops whose legs are both vertices.
    chains = {}
    for t, c in merged.items():
        if not c:
            continue
        mu, nu = t[0], t[1]
        k, n = 0, min(len(mu), len(nu))
        while k < n and mu[-1 - k] == nu[-1 - k]:
            k += 1
        top = (mu[:len(mu) - k], nu[:len(nu) - k], t[3])
        chains.setdefault(top, {})[mu[len(mu) - k:]] = (t, c)
    out = {}
    lift = ring.lift

    def emit(t, c):
        out[given.get(t) or _build(graph, t)] = lift(c, den)

    for top, members in chains.items():
        if len(members) == 1:
            [(t, c)] = members.values()
            emit(_minimal(graph, t), c)
        else:
            _walk_chain(graph, ring.int_ring(), top, members, emit)
    return out


_MIXED = object()       # the value of a node whose fan carries several


def _walk_chain(graph, walk, top, members, emit):
    """Emit the canonical pieces of one chain, its members (flat pair,
    coefficient) filed by tail; coefficients are ints of the ring walk.

    The tree holds the member tails and their prefixes.  A node's sum is
    the total over the members at it and above it; it is the value on
    every branch of the node's fan that no member reaches.  Going up, a
    node takes the one value that every branch of its fan carries, or is
    mixed.  Only a mixed node emits pieces: its branches with a nonzero
    value (a mixed branch has emitted its own).  The root is emitted when
    its value is nonzero.
    """
    top_mu, top_nu, mu_range = top
    first, (t, _) = next(iter(members.items()))
    nu_range = t[4]
    edge = graph.edge
    root_source = edge(first[0]).range_vertex if first else t[2]

    def source(tail):
        return edge(tail[-1]).source_vertex if tail else root_source

    def piece(tail):
        got = members.get(tail)
        if got is not None:
            return got[0]
        return (top_mu + tail, top_nu + tail, source(tail), mu_range, nu_range)

    sums = {}
    for tail in members:
        for i in range(len(tail), -1, -1):
            if tail[:i] in sums:
                break
            sums[tail[:i]] = 0
    order = sorted(sums, key=len)
    add = walk.add
    for t in order:
        acc = sums[t[:-1]] if t else 0
        own = members.get(t)
        if own is not None:
            acc = add(acc, own[1]) if acc else own[1]
        sums[t] = acc
    below = {}          # node -> {edge id: the value of that branch}
    for t in reversed(order):
        value = total = sums[t]
        kids = below.pop(t, None)
        if kids is not None:
            fan = graph.edges_with_range(source(t))
            values = list(kids.values())
            if len(kids) < len(fan):
                values.append(total)
            value = values[0]
            if value is _MIXED or values.count(value) < len(values):
                value = _MIXED
                for e in fan:
                    v = kids.get(e.id, total)
                    if v is not _MIXED and v:
                        emit(piece(t + (e.id,)), v)
        if t:
            below.setdefault(t[:-1], {})[t[-1]] = value
        elif value is not _MIXED and value:
            emit(piece(t), value)


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
    only the pairs that meet are composed; with a single term on either
    side no lookup would share the index's cost, and every pair is tried.
    Either way the composites come in the order of the double loop over f's
    and g's terms.  They are composed and merged as flat pairs, and the
    canonical form builds a PathPair only for each term of the product.  A
    zero factor is itself the product.

    Coefficients run on ints: each factor's values become ints over one
    denominator once (D_f and D_g; ``ring.as_ints``), each composite's int
    is the plain sum of its c * d, and the canonical form walks those sums
    over D_f * D_g and makes a ring value only for each term of the
    product.  Over q the ints are numerators, and dividing by D_f * D_g is
    a bijection that keeps sums, zero and equality, so canonicalizing the
    numerators and then dividing gives the same terms in the same order.
    Over zmod:n each merged sum is reduced mod n before the walk, which
    must come first: 2 * 2 + 2 * 2 = 8 is zero mod 4, and a fan can be
    uniform mod n but not over the integers.
    """
    _check_compatible(f, g)
    if not f.terms:
        return f
    if not g.terms:
        return g
    ring = f.ring
    left, den_f = ring.as_ints(f.terms.items())
    right, den_g = ring.as_ints(g.terms.items())
    right = [(_flat(q), d) for q, d in right]
    index = None
    if len(f.terms) > 1 and len(right) > 1:
        index = _RangeLegIndex([q for q, _ in right])
    merged = {}
    for p, c in left:
        t = _flat(p)
        for j in index.partners(t) if index is not None else range(len(right)):
            q, d = right[j]
            composed = _compose(t, q)
            if composed is not None:
                merged[composed] = merged.get(composed, 0) + c * d
    normal = ring.int_ring().from_int
    for t, c in merged.items():
        merged[t] = normal(c)
    return SteinbergElement(f.graph, ring, merged.items(), den_f * den_g)


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
