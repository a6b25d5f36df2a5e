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
Most chains skip the walk: a lone pair with no common tail is its own top
and its own piece, and a chain whose tails have at most one edge, a root
and some branches of one fan, is folded or split in one pass.

An element stores its normal form in one shape: ``flat``, a dict from flat
pair (the edge-id tuples of the pair kernel in ``cylinder``) to int, over
one denominator ``den``; term t stands for ``ring.lift(flat[t], den)``.
The ints are summed and multiplied plainly and reduced mod ``ring.modulus``
when that is nonzero (zero is ``not c``, equality is ``==``), and den is
reduced: gcd(den, *ints) == 1.  Over z and zmod:n the ints are the values
and den is 1; over q they are numerators over the lcm of the
denominators.  So equal functions have equal stored forms, and equality,
hashing, sums, products, evaluation and grading run on them.  Evaluation
looks up only the cuts of a probe whose legs fit in the element's longest
stored leg (``max_path_len``, kept after its first call), so it costs
lookups in the element's depth, not in the probe's length.  ``terms``,
the element as {PathPair: ring value} in stored order, is built on first
read and kept; rendering and the pointwise oracle read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import itemgetter

from .cylinder import (GroupoidProbe, _build, _compose, _flat, _minimal,
                       _RangeLegIndex, as_bisection)
from .graph import concat, strip_prefix


_mu, _nu = itemgetter(0), itemgetter(1)      # a flat pair's legs


class SteinbergElement:
    """A canonical-form element; construct via the module functions."""

    __slots__ = ("graph", "ring", "flat", "den", "_terms", "_depth")

    def __init__(self, graph, ring, raw_terms, den):
        self.graph = graph
        self.ring = ring
        self.flat, self.den = _canonical_terms(graph, ring, raw_terms, den)
        self._terms = None
        self._depth = None

    @property
    def terms(self):
        """{PathPair: ring value} in stored order; built on first read."""
        if self._terms is None:
            graph, lift, den = self.graph, self.ring.lift, self.den
            self._terms = {_build(graph, t): lift(c, den) for t, c in self.flat.items()}
        return self._terms

    def is_zero(self):
        return not self.flat

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def max_path_len(self):
        """The longest leg of a stored pair; computed on first call and kept."""
        if self._depth is None:
            self._depth = max(max(map(len, map(_mu, self.flat)), default=0),
                              max(map(len, map(_nu, self.flat)), default=0))
        return self._depth

    def render(self):
        if not self.flat:
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
                and self.den == other.den and self.flat == other.flat)

    def __hash__(self):
        return hash((id(self.graph), self.ring, self.den, frozenset(self.flat.items())))

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, negate(other))

    def __neg__(self):
        return negate(self)

    def __mul__(self, other):
        return convolve(self, other)


def _canonical_terms(graph, ring, raw_terms, den):
    """The normal form of raw terms, (flat pair -> int, reduced den).  Raw
    terms are (flat pair, int) pairs, each flat pair at most once, whose
    ints over den are reduced mod ``ring.modulus`` when that is nonzero."""
    if not raw_terms:
        return {}, 1
    # A chain is the pairs with one top, the flat pair of both legs with
    # the common tail cut off, each filed by its tail: two pairs meet only
    # when they share a top and one tail is a prefix of the other.  Most
    # chains have one member.  A pair with no common tail is its own top
    # and is filed under itself as its bare int; a lone pair with a tail is
    # filed as (tail, pair, int).  The chain becomes a dict by tail when a
    # second member arrives.
    chains = {}
    edge = graph.edge
    for t, c in raw_terms:
        if not c:
            continue
        mu, nu = t[0], t[1]
        if mu and nu and mu[-1] == nu[-1]:
            k, n = 1, min(len(mu), len(nu))
            while k < n and mu[-1 - k] == nu[-1 - k]:
                k += 1
            top = (mu[:-k], nu[:-k], edge(mu[-k]).range_vertex, t[3], t[4])
            tail = mu[-k:]
            members = chains.get(top)
            if members is None:
                chains[top] = (tail, t, c)
            elif members.__class__ is tuple:
                chains[top] = {members[0]: members[1:], tail: (t, c)}
            elif members.__class__ is dict:
                members[tail] = (t, c)
            else:       # the root, filed as its bare int
                chains[top] = {(): (top, members), tail: (t, c)}
        else:
            members = chains.get(t)
            if members is None:
                chains[t] = c
            elif members.__class__ is tuple:
                chains[t] = {members[0]: members[1:], (): (t, c)}
            else:
                members[()] = (t, c)
    out = {}
    for top, members in chains.items():
        if members.__class__ is tuple:
            # A lone pair with a common tail strips it while its edges are
            # the only ones into their range vertices.
            out[_minimal(graph, members[1])] = members[2]
        elif members.__class__ is dict:
            _walk_chain(graph, ring.modulus, top, members, out)
        else:
            out[top] = members
    # den > 1 only over q, where the ints are numerators: dividing them and
    # den by their common factor keeps every value.
    common = gcd(den, *out.values())
    if common != 1:
        out = {t: c // common for t, c in out.items()}
        den //= common
    return out, den


def _merge(terms, m):
    """The (flat pair, int) terms as a dict in first-seen order, the ints
    of equal pairs summed and then reduced mod m (see ``_reduce``)."""
    merged = {}
    get = merged.get
    for t, c in terms:
        merged[t] = get(t, 0) + c
    return _reduce(merged, m)


def _reduce(ints, m):
    """The dict ints with each value reduced mod m when m is nonzero."""
    if m:
        for t, c in ints.items():
            ints[t] = c % m
    return ints


_MIXED = object()       # the value of a node whose fan carries several


def _walk_chain(graph, m, top, members, out):
    """Put one chain's canonical pieces into out; top is the chain's root
    as a flat pair, its members (flat pair, coefficient) are filed by tail,
    coefficients are ints reduced mod m when m is nonzero.

    The tree holds the member tails and their prefixes.  A node's sum is
    the total over the members at it and above it; it is the value on
    every branch of the node's fan that no member reaches.  Going up, a
    node takes the one value that every branch of its fan carries, or is
    mixed.  Only a mixed node emits pieces: its branches with a nonzero
    value (a mixed branch has emitted its own).  The root is emitted when
    its value is nonzero.
    """
    if max(map(len, members)) < 2:
        _walk_fan(graph, m, top, members, out)
        return
    top_mu, top_nu, root_source, mu_range, nu_range = top
    edge = graph.edge

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
    for t in order:
        acc = sums[t[:-1]] if t else 0
        own = members.get(t)
        if own is not None:
            acc += own[1]
            if m:
                acc %= m
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
                        out[piece(t + (e.id,))] = v
        if t:
            below.setdefault(t[:-1], {})[t[-1]] = value
        elif value is not _MIXED and value:
            out[piece(t)] = value


def _walk_fan(graph, m, top, members, out):
    """``_walk_chain`` for a chain whose tails have at most one edge: the
    root and some branches of its one fan.  A branch's value is the root's
    sum plus its own int; the chain folds to the root when every branch of
    the fan carries one value, and otherwise emits its nonzero branches in
    fan order."""
    root = members.get(())
    total = root[1] if root is not None else 0
    kids = {}
    for tail, (_, c) in members.items():
        if tail:
            c += total
            kids[tail[0]] = c % m if m else c
    fan = graph.edges_with_range(top[2])
    values = set(kids.values())
    if len(kids) < len(fan):
        values.add(total)
    if len(values) == 1:
        value = values.pop()
        if value:
            out[top] = value
        return
    top_mu, top_nu, _, mu_range, nu_range = top
    for e in fan:
        got = members.get((e.id,))
        if got is not None:
            value = kids[e.id]
            if value:
                out[got[0]] = value
        elif total:
            out[(top_mu + (e.id,), top_nu + (e.id,), e.source_vertex,
                 mu_range, nu_range)] = total


# -- constructors ----------------------------------------------------------


def zero(graph, ring) -> SteinbergElement:
    return SteinbergElement(graph, ring, [], 1)


def indicator(b, ring) -> SteinbergElement:
    """1 on the basic bisection, 0 elsewhere.

    Excluded branches are pairwise disjoint subsets of the pair, so the
    indicator is the pair's indicator minus the branch indicators; an empty
    bisection cancels to the zero element during normalization.
    """
    b = as_bisection(b)
    one = ring.one()
    minus_one = ring.negate(one)
    return from_terms(b.graph, ring, [(b.pair, one)] + [
        (b.pair.extend(alpha), minus_one) for alpha in b.excluded])


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
        raw.append((_flat(p), ring.coerce(c)))
    return _from_flat(graph, ring, raw)


def _from_flat(graph, ring, raw):
    """The element of (flat pair, coefficient) terms of the graph, each
    coefficient already a value of the ring: ``from_terms`` past its checks."""
    flat_terms, den = ring.as_ints(raw)
    return SteinbergElement(graph, ring, _merge(flat_terms, ring.modulus).items(), den)


# -- module operations -----------------------------------------------------


def _check_compatible(f, g):
    if f.graph is not g.graph:
        raise ValueError("elements live on different graphs")
    if f.ring != g.ring:
        raise ValueError("elements live over different rings")


def add(f, g) -> SteinbergElement:
    """f + g, the two-operand case of ``add_all``."""
    return add_all((f, g))


def add_all(elements) -> SteinbergElement:
    """The sum of one or more elements, canonicalized once.

    Every operand's stored ints are brought over the lcm of the
    denominators and merged into one raw term list, so a sum of n elements
    builds one element, not n - 1 running sums.  Zero operands add
    nothing: when at most one operand is nonzero, that operand (or the
    last, when all are zero) is the sum itself.  An empty input raises
    ValueError.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("add_all needs at least one element")
    first = elements[0]
    for f in elements[1:]:
        _check_compatible(first, f)
    nonzero = [f for f in elements if f.flat]
    if len(nonzero) <= 1:
        return nonzero[0] if nonzero else elements[-1]
    den = lcm(*(f.den for f in nonzero))
    raw = [(t, c * (den // f.den)) for f in nonzero for t, c in f.flat.items()]
    return SteinbergElement(first.graph, first.ring,
                            _merge(raw, first.ring.modulus).items(), den)


def negate(f) -> SteinbergElement:
    return scale(-1, f)


def scale(r, f) -> SteinbergElement:
    """r times f; a scalar outside the ring raises InputError."""
    ring = f.ring
    [(_, k)], den = ring.as_ints([(None, ring.coerce(r))])
    raw = _reduce({t: k * c for t, c in f.flat.items()}, ring.modulus)
    return SteinbergElement(f.graph, ring, raw.items(), den * f.den)


def convolve(f, g) -> SteinbergElement:
    """The convolution product.

    On basic bisections convolution is composition of the underlying sets,
    so the product distributes over the term pairs that compose.  When both
    factors have several terms, the terms of g are indexed by range leg
    once, and each distinct source leg of f gets one plan, which lists the
    terms of g it composes with and the parts of each composite: a
    composite is then one concatenation and one tuple, with no prefix
    compared again.  With a single term on either side no plan would share
    the index's cost, and every pair is tried with the composition rule.
    Either way the composites come in the order of the double loop over f's
    and g's terms.  They are formed and merged as the stored flat pairs,
    and no PathPair is built.  A zero factor is itself the product.

    Coefficients are the stored ints: each composite's int is the plain sum
    of its c * d, and the canonical form walks those sums over
    f.den * g.den.  Over q the ints are numerators, and dividing by
    f.den * g.den is a bijection that keeps sums, zero and equality, so
    canonicalizing the numerators and then dividing gives the same terms in
    the same order.  Over zmod:n each merged sum is reduced mod n before
    the walk, which must come first: 2 * 2 + 2 * 2 = 8 is zero mod 4, and a
    fan can be uniform mod n but not over the integers.  Over z and q the
    sums are already the stored ints.
    """
    _check_compatible(f, g)
    if not f.flat:
        return f
    if not g.flat:
        return g
    merged = {}
    get = merged.get
    if len(f.flat) > 1 and len(g.flat) > 1:
        index = _RangeLegIndex(list(g.flat))
        right = list(g.flat.values())
        for t, c in f.flat.items():
            mu, mu_range = t[0], t[3]
            for j, suffix, leg, source, leg_range in index.plan(t):
                composed = (mu + suffix, leg, source, mu_range, leg_range)
                merged[composed] = get(composed, 0) + c * right[j]
    else:
        right = g.flat.items()
        for t, c in f.flat.items():
            for q, d in right:
                composed = _compose(t, q)
                if composed is not None:
                    merged[composed] = get(composed, 0) + c * d
    _reduce(merged, f.ring.modulus)
    return SteinbergElement(f.graph, f.ring, merged.items(), f.den * g.den)


def evaluate(f, probe: GroupoidProbe):
    """The coefficient sum over terms containing the probe (at most one term
    in canonical form).  Probes too shallow to meet any stored pair read 0.

    A pair contains the probe (mu x, nu x) exactly when it is the probe's
    two truncations with a common tail cut off, so the candidates are looked
    up as flat pairs instead of scanning every term.  A stored leg is at
    most ``f.max_path_len()`` long, so the cuts start at the first one whose
    legs both fit in that length, when the tail cut off there is common to
    both legs; the lookups are bounded by the element's depth, not the
    probe's length.  The sum is lifted to a ring value once.
    """
    mu, nu = probe.mu_full, probe.nu_full
    if mu.graph is not f.graph:
        raise ValueError("probe and element live on different graphs")
    flat, edge, ring = f.flat, f.graph.edge, f.ring
    mu_edges, nu_edges = mu.edges, nu.edges
    k, j = len(mu_edges), len(nu_edges)
    cut = max(k, j) - f.max_path_len()
    if cut > 0:
        if cut > k or cut > j or mu_edges[k - cut:] != nu_edges[j - cut:]:
            return ring.lift(0, f.den)
        k -= cut
        j -= cut
        v = edge(mu_edges[k]).range_vertex
    else:
        v = mu.source_vertex
    mu_range, nu_range = mu.range_vertex, nu.range_vertex
    total = 0
    while True:
        c = flat.get((mu_edges[:k], nu_edges[:j], v, mu_range, nu_range))
        if c is not None:
            total += c
        if not k or not j or mu_edges[k - 1] != nu_edges[j - 1]:
            if ring.modulus:
                total %= ring.modulus
            return ring.lift(total, f.den)
        k -= 1
        j -= 1
        v = edge(mu_edges[k]).range_vertex


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
    picked = [(t, c) for t, c in f.flat.items() if len(t[0]) - len(t[1]) == n]
    return SteinbergElement(f.graph, f.ring, picked, f.den)


def grade(f) -> GradedDecomposition:
    degrees = sorted({len(t[0]) - len(t[1]) for t in f.flat})
    return GradedDecomposition(f, {n: graded_component(f, n) for n in degrees})
