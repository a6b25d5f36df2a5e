"""The convolution algebra of a graph's path groupoid, with exact arithmetic.

An element is a finite R-linear combination of indicator functions of basic
pair sets.  Internally every element is kept in a canonical normal form:

  1. all stored pairs are expanded to a common reference depth (the largest
     min depth among the terms; source-terminated pairs stay as they are),
     which makes the stored pairs pairwise disjoint, and then
  2. complete equal-coefficient fans (mu e, nu e) over every edge e ranging
     at the source vertex are merged back into (mu, nu) until no merge
     applies.

Step 2 makes the normal form depth-minimal and unique, so two elements are
equal as functions exactly when their term maps coincide.  Without it,
equal functions built along different routes can normalize at different
reference depths (for a single loop e at v, 1 at Z(ee,ee) and 1 at Z(v,v)
are the same function), and term comparison would wrongly separate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cylinder import (GroupoidProbe, PathPair, as_bisection, compose_pairs,
                       expand, pair_contains)
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
        if pair.graph is not graph:
            raise ValueError("term pair on a different graph")
        acc = merged.get(pair)
        coeff = coeff if acc is None else ring.add(acc, coeff)
        merged[pair] = coeff
    merged = {p: c for p, c in merged.items() if not ring.is_zero(c)}
    if not merged:
        return {}
    depth = max(p.min_depth for p in merged)
    flat = {}
    for pair, coeff in merged.items():
        for piece in expand(pair, depth):
            acc = flat.get(piece)
            flat[piece] = coeff if acc is None else ring.add(acc, coeff)
    flat = {p: c for p, c in flat.items() if not ring.is_zero(c)}
    return _contract(graph, ring, flat)


def _contract(graph, ring, terms):
    """Merge complete equal-coefficient fans bottom-up until none remain."""
    changed = True
    while changed:
        changed = False
        by_parent = {}
        for p in terms:
            if p.mu.edges and p.nu.edges and p.mu.edges[-1] == p.nu.edges[-1]:
                parent = PathPair(p.mu.prefix(len(p.mu) - 1),
                                  p.nu.prefix(len(p.nu) - 1))
                by_parent.setdefault(parent, []).append(p)
        for parent, kids in by_parent.items():
            fan = graph.edges_with_range(parent.source_vertex)
            if not fan or len(kids) != len(fan):
                continue
            coeffs = [terms[k] for k in kids]
            first = coeffs[0]
            if not all(ring.eq(first, c) for c in coeffs[1:]):
                continue
            if parent in terms:
                raise RuntimeError("contraction of %s collided with a live term"
                                   % parent.render())
            for k in kids:
                del terms[k]
            terms[parent] = first
            changed = True
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

    Each coefficient is first reduced into the ring by adding it to zero
    (a residue mod n, a Fraction over q), so equal functions compare equal
    whatever form their coefficients were given in.
    """
    z = ring.zero()
    return SteinbergElement(graph, ring,
                            [(p, ring.add(z, c)) for p, c in pairs_and_coeffs])


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
    ring = f.ring
    return SteinbergElement(f.graph, ring,
                            [(p, ring.mul(r, c)) for p, c in f.terms.items()])


def convolve(f, g) -> SteinbergElement:
    """The convolution product.

    On basic bisections convolution is composition of the underlying sets,
    so the product distributes into one compose_pairs call per term pair.
    """
    _check_compatible(f, g)
    ring = f.ring
    raw = []
    for p, c in f.terms.items():
        for q, d in g.terms.items():
            composed = compose_pairs(p, q)
            if composed is not None:
                raw.append((composed, ring.mul(c, d)))
    return SteinbergElement(f.graph, ring, raw)


def canonicalize(f) -> SteinbergElement:
    """Re-run normalization; a fixed point for elements built by this module."""
    return SteinbergElement(f.graph, f.ring, list(f.terms.items()))


def evaluate(f, probe: GroupoidProbe):
    """The coefficient sum over terms containing the probe (at most one term
    in canonical form).  Probes too shallow to meet any stored pair read 0."""
    ring = f.ring
    total = ring.zero()
    for p, c in f.terms.items():
        if pair_contains(p, probe):
            total = ring.add(total, c)
    return total


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
