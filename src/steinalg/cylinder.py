"""Exact calculus of basic compact open sets of a graph's path groupoid.

A ``PathPair`` (mu, nu) with a common source vertex stands for the set of
groupoid elements (mu x, |mu| - |nu|, nu x) where x runs over boundary
paths continuing from that vertex.  A ``BasicBisection`` removes from such a
set the elements whose continuation starts with one of finitely many
excluded paths.  All operations below are symbolic and exact; nothing
infinite is ever materialized.  ``GroupoidProbe`` truncations stand in for
actual groupoid elements in membership tests.

Validation happens once, at the boundary.  The public ``PathPair`` and
``GroupoidProbe`` constructors check that both legs live on one graph and
share their source vertex.  Operations on valid pairs (``compose_pairs``,
``PathPair.extend``, ``minimal_pair``, ``invert_pair``, ``expand``) and the
pair window (``pairs_to_depth``) build their results with the private
``_pair``, which checks nothing: each result shares its source by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .graph import (Graph, Path, _path, concat, enumerate_paths, is_prefix,
                    strip_prefix)


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

    def invert(self) -> "GroupoidProbe":
        return GroupoidProbe(self.nu_full, self.mu_full)

    def sort_key(self):
        return (self.mu_full.sort_key(), self.nu_full.sort_key())

    def render(self):
        return "(%s, %d, %s)" % (self.mu_full.render(), self.degree, self.nu_full.render())

    def __repr__(self):
        return self.render()


# -- pair-level case analysis ---------------------------------------------


def compose_pairs(p: PathPair, q: PathPair):
    """The set product Z(p) . Z(q), a single pair or None when empty.

    Elements compose exactly when the source path of p and the range path
    of q agree after extension by a common remainder tau, which slides tau
    onto the outer paths; the degree of the result is the sum of degrees.
    """
    tau = strip_prefix(q.mu, p.nu)
    if tau is not None:
        return _pair(concat(p.mu, tau), q.nu)
    tau = strip_prefix(p.nu, q.mu)
    if tau is not None:
        return _pair(p.mu, concat(q.nu, tau))
    return None


class _RangeLegIndex:
    """The positions of a list of pairs, looked up by range leg.

    ``compose_pairs(p, q)`` is a pair exactly when one of p's source leg and
    q's range leg is a prefix of the other.  The range legs are filed in a
    trie with one root per range vertex and one level per edge, so the
    nodes are the legs' prefixes.  ``partners(nu)`` walks nu's edges once:
    the legs ending at a node above nu's are shorter than nu, and the legs
    passing through nu's node equal or extend it.  Each distinct nu is
    walked once.
    """

    __slots__ = ("_roots", "_found")

    def __init__(self, pairs):
        # A node is (children by edge id, the positions of the legs ending
        # there, the positions of the legs ending there or passing through).
        roots = {}
        for i, q in enumerate(pairs):
            mu = q.mu
            node = roots.get(mu.range_vertex)
            if node is None:
                node = roots[mu.range_vertex] = ({}, [], [])
            node[2].append(i)
            for e in mu.edges:
                children = node[0]
                node = children.get(e)
                if node is None:
                    node = children[e] = ({}, [], [])
                node[2].append(i)
            node[1].append(i)
        self._roots = roots
        self._found = {}

    def partners(self, nu):
        """The positions, ascending, of the pairs q for which
        ``compose_pairs(p, q)`` is not None when p's source leg is nu; the
        list is shared between calls and is not to be changed."""
        key = (nu.edges, nu.range_vertex)
        found = self._found.get(key)
        if found is None:
            found, shorter = [], []
            node = self._roots.get(nu.range_vertex)
            if node is not None:
                for e in nu.edges:
                    shorter += node[1]
                    node = node[0].get(e)
                    if node is None:
                        break
                else:
                    found = node[2]
            if shorter:
                found = sorted(found + shorter)
            self._found[key] = found
        return found


def minimal_pair(p: PathPair) -> PathPair:
    """The least pair with the same basic set as p.

    Z(mu e, nu e) equals Z(mu, nu) exactly when e is the only edge ranging
    at its range vertex, so the common last edge of both legs is stripped
    for as long as that holds.  A basic set is never empty, and this pair
    is the one term of its indicator's canonical form.
    """
    mu, nu = p.mu.edges, p.nu.edges
    graph = p.mu.graph
    edge, into = graph.edge, graph.edges_with_range
    k, n = 0, min(len(mu), len(nu))
    while k < n:
        e = mu[-1 - k]
        if e != nu[-1 - k] or len(into(edge(e).range_vertex)) != 1:
            break
        k += 1
    if not k:
        return p
    return _pair(p.mu.prefix(len(mu) - k), p.nu.prefix(len(nu) - k))


def invert_pair(p: PathPair) -> PathPair:
    return _pair(p.nu, p.mu)


def invert(b):
    """Pointwise inversion; swaps the pair and keeps the exclusions."""
    if isinstance(b, PathPair):
        return invert_pair(b)
    return BasicBisection(invert_pair(b.pair), b.excluded)


def expand(p: PathPair, target_depth: int):
    """Split Z(p) into the disjoint union over one-edge continuations until
    every piece has min depth target_depth or is source terminated.

    One expansion step replaces a pair by its extensions along every edge
    ranging at the source vertex; at a source vertex the pair is already a
    single truncated element and stays as it is.  Splitting one level at a
    time, edges in declaration order, yields the pieces in sort_key order.
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


def member(b, probe: GroupoidProbe) -> bool:
    """Probe membership: the pair matches with a shared tail, the degree
    agrees, and no excluded path is a prefix of the tail."""
    b = as_bisection(b)
    if probe.degree != b.pair.degree:
        return False
    tail = strip_prefix(probe.mu_full, b.pair.mu)
    if tail is None:
        return False
    other = strip_prefix(probe.nu_full, b.pair.nu)
    if other is None or tail != other:
        return False
    return not any(is_prefix(a, tail) for a in b.excluded)


def boundary_tails(g: Graph, v, depth: int):
    """Continuation truncations from v: length == depth, or source terminated."""
    out = []
    for w in enumerate_paths(g, from_range=v, max_len=depth):
        if len(w) == depth or g.is_source(w.source_vertex):
            out.append(w)
    return out


def probes_in(b, depth: int):
    """The probes of Z((mu,nu) \\ F) whose shared tail has the given depth."""
    b = as_bisection(b)
    out = []
    for w in boundary_tails(b.graph, b.pair.source_vertex, depth):
        probe = GroupoidProbe(concat(b.pair.mu, w), concat(b.pair.nu, w))
        if member(b, probe):
            out.append(probe)
    return out


# -- the pair window --------------------------------------------------------


def pairs_to_depth(g: Graph, depth: int, ranges=None, limit=None):
    """Every pair Z(mu, nu) with legs of length <= depth, canonically ordered.

    Paths are grouped by source vertex in declaration order, and each group
    pairs every leg with every leg in lexicographic order.  The windowed
    checks of the collapse move and the context report all read this list.
    With ``ranges`` only legs ranging at those vertices are paired; with
    ``limit`` the list stops after that many pairs, and the pairs past it
    are never built.
    """
    return list(islice(_pair_window(g, depth, ranges), limit))


def _pair_window(g: Graph, depth: int, ranges):
    by_source = {}
    for p in enumerate_paths(g, max_len=depth):
        if ranges is None or p.range_vertex in ranges:
            by_source.setdefault(p.source_vertex, []).append(p)
    for v in g.vertices:
        group = by_source.get(v, ())
        # Legs of one group share their source vertex.
        for a in group:
            for b in group:
                yield _pair(a, b)


def enumerate_probes(g: Graph, max_len: int, limit=None):
    """All probes with truncations of length <= max_len, canonically ordered,
    or the first ``limit`` of them."""
    return [GroupoidProbe(p.mu, p.nu) for p in pairs_to_depth(g, max_len, limit=limit)]
