"""Exact calculus of basic compact open sets of a graph's path groupoid.

A ``PathPair`` (mu, nu) with a common source vertex stands for the set of
groupoid elements (mu x, |mu| - |nu|, nu x) where x runs over boundary
paths continuing from that vertex.  A ``BasicBisection`` removes from such a
set the elements whose continuation starts with one of finitely many
excluded paths.  All operations below are symbolic and exact; nothing
infinite is ever materialized.  ``GroupoidProbe`` truncations stand in for
actual groupoid elements in membership tests.

Inside the package a pair is flat, a tuple of edge ids and vertices (see
``_flat``): ``_compose`` is the composition rule, ``_invert`` the inverse,
``_minimal`` the minimal-pair rule, and ``_RangeLegIndex`` files flat pairs
by range leg.  Its plan for a source leg lists the pairs that compose with
it and the parts of each composite, so ``convolve`` and the collapse move's
multiplicative check form composites without calling ``_compose``; the
check decides most plan keys from ``comparable`` alone, with no plan.  The
pair window (``_window``) is the product of each source vertex's legs
(``_legs_by_source``), which the checks that decide per leg read directly.

``PathPair``, ``BasicBisection`` and ``GroupoidProbe`` are the API's view.
Their constructors check that both legs live on one graph and share their
source vertex, where a value enters from a caller; program code builds a
``PathPair`` with the trusting ``_build`` only for a value a public
function returns or a report renders.  ``compose_pairs`` and
``pairs_to_depth`` wrap ``_compose`` and ``_window``.  The boundary
classes, ``expand``, ``pair_contains`` and ``boundary_tails`` work on
``Path`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from operator import itemgetter

from .graph import Graph, Path, _flat_paths, _path, concat, is_prefix, strip_prefix


class PathPair:
    """The basic set Z(mu, nu); requires source(mu) == source(nu).

    Immutable: assigning to ``mu`` or ``nu`` raises AttributeError.
    """

    __slots__ = ("mu", "nu")

    def __init__(self, mu: Path, nu: Path):
        if mu.graph is not nu.graph:
            raise ValueError("paths live on different graphs")
        if mu.source_vertex != nu.source_vertex:
            raise ValueError("pair Z(%s,%s) needs a common source vertex"
                             % (mu.render(), nu.render()))
        _set_mu(self, mu)
        _set_nu(self, nu)

    def __setattr__(self, name, value):
        raise AttributeError("PathPair is immutable")

    def __delattr__(self, name):
        raise AttributeError("PathPair is immutable")

    def __reduce__(self):
        return (PathPair, (self.mu, self.nu))

    # Both legs of a pair live on one graph and end at one source vertex,
    # so the edge sequences and that vertex decide equality of the legs.

    def __eq__(self, other):
        if other.__class__ is not PathPair:
            return NotImplemented
        mu, other_mu = self.mu, other.mu
        return (mu.graph is other_mu.graph and mu.edges == other_mu.edges
                and self.nu.edges == other.nu.edges
                and mu.source_vertex == other_mu.source_vertex)

    def __hash__(self):
        return hash((self.mu.edges, self.nu.edges, self.mu.source_vertex))

    @property
    def graph(self) -> Graph:
        return self.mu.graph

    @property
    def source_vertex(self):
        return self.mu.source_vertex

    @property
    def degree(self):
        return len(self.mu.edges) - len(self.nu.edges)

    @property
    def min_depth(self):
        return min(len(self.mu.edges), len(self.nu.edges))

    def is_source_terminated(self):
        return self.graph.is_source(self.source_vertex)

    def extend(self, tau: Path) -> "PathPair":
        return _pair(concat(self.mu, tau), concat(self.nu, tau))

    def sort_key(self):
        return (len(self.mu), self.mu.sort_key(), self.nu.sort_key())

    def render(self):
        return "Z(%s,%s)" % (self.mu.render(), self.nu.render())

    def __repr__(self):
        return self.render()


_new_pair = object.__new__
_set_mu = PathPair.mu.__set__
_set_nu = PathPair.nu.__set__


def _pair(mu: Path, nu: Path) -> PathPair:
    """A pair whose legs are known to share their graph and source vertex;
    nothing is checked."""
    p = _new_pair(PathPair)
    _set_mu(p, mu)
    _set_nu(p, nu)
    return p


@dataclass(frozen=True)
class BasicBisection:
    """Z((mu, nu) \\ F): the pair minus the branches continuing into F.

    The excluded paths all range at the pair's source vertex, have positive
    length, and form an antichain under the prefix order (a longer excluded
    path inside a shorter one is redundant and is dropped on construction).
    """

    pair: PathPair
    excluded: tuple

    def __init__(self, pair, excluded=()):
        excluded = list(excluded)
        for alpha in excluded:
            if alpha.graph is not pair.graph:
                raise ValueError("excluded path on a different graph")
            if len(alpha) < 1:
                raise ValueError("excluded paths must have positive length")
            if alpha.range_vertex != pair.source_vertex:
                raise ValueError(
                    "excluded path %r does not continue the pair" % (alpha,))
        reduced = []
        for alpha in sorted(excluded, key=Path.sort_key):
            if not any(is_prefix(b, alpha) for b in reduced):
                reduced.append(alpha)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "excluded", tuple(reduced))

    @property
    def graph(self) -> Graph:
        return self.pair.graph

    def sort_key(self):
        return self.pair.sort_key() + (tuple(a.sort_key() for a in self.excluded),)

    def render(self):
        if not self.excluded:
            return self.pair.render()
        inner = ",".join(a.render() for a in self.excluded)
        return "Z((%s,%s) \\ {%s})" % (self.pair.mu.render(), self.pair.nu.render(), inner)

    def __repr__(self):
        return self.render()


def as_bisection(p) -> BasicBisection:
    return p if isinstance(p, BasicBisection) else BasicBisection(p, ())


@dataclass(frozen=True)
class GroupoidProbe:
    """A truncated groupoid element (mu_full . x, degree, nu_full . x).

    Both truncations share their source vertex so they admit the same
    generic continuation x, and the degree is forced by the truncation
    lengths because the continuation cancels.
    """

    mu_full: Path
    nu_full: Path

    def __post_init__(self):
        if self.mu_full.graph is not self.nu_full.graph:
            raise ValueError("probe paths live on different graphs")
        if self.mu_full.source_vertex != self.nu_full.source_vertex:
            raise ValueError("probe truncations need a common source vertex")

    @property
    def degree(self):
        return len(self.mu_full) - len(self.nu_full)

    def sort_key(self):
        return (self.mu_full.sort_key(), self.nu_full.sort_key())

    def render(self):
        return "(%s, %d, %s)" % (self.mu_full.render(), self.degree, self.nu_full.render())

    def __repr__(self):
        return self.render()


# -- pair-level case analysis ---------------------------------------------


# A flat pair is (mu's edge ids, nu's edge ids, the source vertex, mu's
# range vertex, nu's range vertex).  The first three decide the pair, as
# they decide PathPair equality; the range vertices ride along so that the
# PathPair can be built without a lookup.


def _flat(p: PathPair):
    """The flat form of a pair."""
    mu, nu = p.mu, p.nu
    return (mu.edges, nu.edges, mu.source_vertex, mu.range_vertex, nu.range_vertex)


def _build(graph: Graph, t) -> PathPair:
    """The pair of a flat pair on the graph; nothing is checked."""
    mu, nu, v, mu_range, nu_range = t
    return _pair(_path(graph, mu, mu_range, v), _path(graph, nu, nu_range, v))


def _compose(p, q):
    """``compose_pairs`` on flat pairs: the flat composite, or None."""
    p_mu, p_nu, p_source, p_mu_range, p_nu_range = p
    q_mu, q_nu, q_source, q_mu_range, q_nu_range = q
    if p_nu_range != q_mu_range:
        return None
    n = len(p_nu)
    if q_mu[:n] == p_nu:
        return (p_mu + q_mu[n:], q_nu, q_source, p_mu_range, q_nu_range)
    n = len(q_mu)
    if p_nu[:n] == q_mu:
        return (p_mu, q_nu + p_nu[n:], p_source, p_mu_range, q_nu_range)
    return None


def _invert(t):
    """The inverse of a flat pair: its legs swapped."""
    return (t[1], t[0], t[2], t[4], t[3])


def compose_pairs(p: PathPair, q: PathPair):
    """The set product Z(p) . Z(q), a single pair or None when empty.

    Elements compose exactly when the source path of p and the range path
    of q agree after extension by a common remainder tau, which slides tau
    onto the outer paths; the degree of the result is the sum of degrees.
    """
    if p.graph is not q.graph:
        raise ValueError("pairs live on different graphs")
    t = _compose(_flat(p), _flat(q))
    return None if t is None else _build(p.graph, t)


class _RangeLegIndex:
    """A list of flat pairs, looked up by range leg.

    ``_compose(p, q)`` is a pair exactly when p's source leg and q's range
    leg range at one vertex and one of them is a prefix of the other.  The
    range legs (``q[0]``, at ``q[3]``) are filed in a trie with one root per
    range vertex and one level per edge id, so the nodes are the legs'
    prefixes.  ``plan(p)`` walks the edges of p's source leg (``p[1]``, at
    ``p[4]``) once: the legs ending at a node above it are shorter, and the
    legs passing through its node equal or extend it.  The walk already
    knows which case holds and where the shorter leg stops, so the plan
    holds the composites' parts and no prefix is compared again.  Each
    distinct source leg is walked once.
    """

    __slots__ = ("_pairs", "_roots", "_plans")

    def __init__(self, pairs):
        # A node is (children by edge id, the positions of the legs ending
        # there, the positions of the legs ending there or passing through).
        roots = {}
        for i, q in enumerate(pairs):
            node = roots.get(q[3])
            if node is None:
                node = roots[q[3]] = ({}, [], [])
            node[2].append(i)
            for e in q[0]:
                children = node[0]
                node = children.get(e)
                if node is None:
                    node = children[e] = ({}, [], [])
                node[2].append(i)
            node[1].append(i)
        self._pairs = pairs
        self._roots = roots
        self._plans = {}

    def plan(self, p):
        """One entry ``(j, mu_suffix, second_leg, source, second_range)``
        per filed pair q = pairs[j] that composes with p, j ascending; the
        composite ``_compose(p, q)`` is ``(p[0] + mu_suffix, second_leg,
        source, p[3], second_range)``.  A q whose range leg equals or
        extends p's source leg nu adds its own continuation past nu to p's
        range leg; a q whose range leg stops short of nu leaves p's range
        leg as it is and takes the rest of nu onto its source leg.  The
        plan depends only on nu and its range vertex, so it is built on
        the first call for that key and cached under it; the list is
        shared between calls and is not to be changed."""
        nu = p[1]
        key = (nu, p[4])
        plan = self._plans.get(key)
        if plan is None:
            pairs = self._pairs
            reaching, shorter = (), []
            node = self._roots.get(p[4])
            if node is not None:
                for i, e in enumerate(nu):
                    for j in node[1]:
                        q = pairs[j]
                        shorter.append((j, (), q[1] + nu[i:], p[2], q[4]))
                    node = node[0].get(e)
                    if node is None:
                        break
                else:
                    reaching = node[2]
            n = len(nu)
            plan = []
            for j in reaching:
                q = pairs[j]
                plan.append((j, q[0][n:], q[1], q[2], q[4]))
            if shorter:
                plan = sorted(plan + shorter, key=itemgetter(0))
            self._plans[key] = plan
        return plan

    def comparable(self, leg, vertex):
        """The filed pairs whose range leg at vertex is comparable with leg
        (one a prefix of the other), which are the pairs ``plan`` lists for
        a pair whose source leg is leg at vertex, read off one walk of
        leg's trie path: the number of range legs that stop short of leg,
        the number that equal or extend it, and the positions, ascending,
        of those that equal it.  The list is the trie's own and is not to
        be changed."""
        node = self._roots.get(vertex)
        if node is None:
            return 0, 0, ()
        shorter = 0
        for e in leg:
            shorter += len(node[1])
            node = node[0].get(e)
            if node is None:
                return shorter, 0, ()
        return shorter, len(node[2]), node[1]


def _minimal(graph: Graph, t):
    """The least flat pair with the same basic set as the flat pair t of
    the graph; t itself when no edge is stripped.

    Z(mu e, nu e) equals Z(mu, nu) exactly when e is the only edge ranging
    at its range vertex, so the common last edge of both legs is stripped
    for as long as that holds.  A basic set is never empty, and this pair
    is the one term of its indicator's canonical form.

    The graph maps each edge that is the only edge into its range vertex
    to that vertex, so a strip step is one lookup of the common last edge,
    and the vertex found is the new source.  A pair with an empty leg, with
    different last edges, or whose last edge is not in the map is returned
    at once.
    """
    mu, nu = t[0], t[1]
    if not mu or not nu or mu[-1] != nu[-1]:
        return t
    sole = graph._sole_edge_range
    v = sole.get(mu[-1])
    if v is None:
        return t
    k, n = 1, min(len(mu), len(nu))
    while k < n:
        e = mu[-1 - k]
        if e != nu[-1 - k] or (w := sole.get(e)) is None:
            break
        v = w
        k += 1
    return (mu[:-k], nu[:-k], v, t[3], t[4])


def expand(p: PathPair, target_depth: int):
    """Split Z(p) into the disjoint union over one-edge continuations until
    every piece has min depth target_depth or is source terminated.

    One expansion step replaces a pair by its extensions along every edge
    ranging at the source vertex; at a source vertex the pair is already a
    single truncated element and stays as it is.  Splitting one level at a
    time, edges in declaration order, yields the pieces in sort_key order.

    The canonical form does not call this.  It stays as public API, as the
    expansion behind the tests' brute-force canonical form, and as an entry
    point that perfbench's tracer times.
    """
    if target_depth < p.min_depth:
        raise ValueError("target depth %d below pair depth %d" % (target_depth, p.min_depth))
    done = []
    level = [p]
    while level:
        deeper = []
        for cur in level:
            if cur.min_depth >= target_depth or cur.is_source_terminated():
                done.append(cur)
                continue
            g = cur.graph
            for e in g.edges_with_range(cur.source_vertex):
                deeper.append(cur.extend(
                    _path(g, (e.id,), e.range_vertex, e.source_vertex)))
        level = deeper
    return done


# -- membership -----------------------------------------------------------


def pair_contains(p: PathPair, probe: GroupoidProbe) -> bool:
    tail_mu = strip_prefix(probe.mu_full, p.mu)
    if tail_mu is None:
        return False
    tail_nu = strip_prefix(probe.nu_full, p.nu)
    return tail_nu is not None and tail_mu == tail_nu


def boundary_tails(g: Graph, v, depth: int):
    """Continuation truncations from v: length == depth, or source terminated."""
    return [_path(g, edges, v, source)
            for edges, _, source in _flat_paths(g, depth, [v])
            if len(edges) == depth or g.is_source(source)]


# -- the pair window --------------------------------------------------------


def pairs_to_depth(g: Graph, depth: int, ranges=None, limit=None):
    """Every pair Z(mu, nu) with legs of length <= depth, canonically ordered.

    The ``PathPair`` form of the flat window (``_window``), for callers
    outside the kernel: the pairs are the window's, in its order, with
    ``ranges`` as there; with ``limit`` the list stops after that many
    pairs, and the pairs past it are never built.  Each leg's ``Path`` is
    built once and shared by the pairs that hold it, as a leg recurs in
    every pair of its group.
    """
    leg = cache(partial(_path, g))
    return [_pair(leg(mu, mu_range, v), leg(nu, nu_range, v))
            for mu, nu, v, mu_range, nu_range in islice(_window(g, depth, ranges), limit)]


def _legs_by_source(g: Graph, depth: int, ranges=None):
    """The legs of the pair window: every path of length <= depth as (its
    edge ids, its range vertex), grouped by source vertex in declaration
    order and listed in ``enumerate_paths`` order within a group.  With
    ``ranges`` only paths ranging at those vertices are kept, and a group
    may be empty; without it each group holds at least its vertex's empty
    path.  Every path of length <= depth is listed."""
    by_source = {v: [] for v in g.vertices}
    for edges, leg_range, v in _flat_paths(g, depth):
        if ranges is None or leg_range in ranges:
            by_source[v].append((edges, leg_range))
    return by_source


def _window(g: Graph, depth: int, ranges=None):
    """The pair window, flat: every flat pair (mu, nu, v, mu's range, nu's
    range) whose legs have length <= depth, yielded in canonical order.

    Each group of ``_legs_by_source`` pairs every leg with every leg in
    lexicographic order, so the window is the product L_v x L_v of each
    source vertex's legs.  The windowed checks of the collapse move read
    this generator and build a ``PathPair`` only to render a defect.  With
    ``ranges`` only legs ranging at those vertices are paired.  Pairs are
    made as they are read, but the legs are listed before the first pair
    is yielded, so stopping early bounds the pairs but not that listing.
    """
    for v, group in _legs_by_source(g, depth, ranges).items():
        for a, a_range in group:
            for b, b_range in group:
                yield (a, b, v, a_range, b_range)
