"""Collapsing an acyclic region of a graph onto its retained vertices.

Pick a set of vertices to collapse whose induced subgraph is acyclic and
contains no source of the ambient graph.  The retained vertices form a new
graph whose edges are the original paths that run between retained vertices
through collapsed ones; the path map sending a new edge to the path it
abbreviates induces a bijection on paths between retained vertices and an
isomorphism of the pointed path groupoids.  ``collapse`` produces a
certificate carrying all of that data, and the check functions certify it
on bounded windows, so a corrupted certificate is caught rather than
trusted.

The checks read the path map, both ways, from ``edge_paths`` and never parse
an edge name.  A new edge is named by its path's render; where ids with "."
make two paths render alike, the later takes the first free render~k, k >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import islice

from .cylinder import _build, _legs_by_source, _minimal, _RangeLegIndex, _window
from .graph import (Edge, Graph, Path, VertexSubset, _flat_paths, _path, concat,
                    is_acyclic, sources, subgraph, vertex_path)
from .report import Report

# Deterministic work caps for the windowed checks; enumeration order is
# canonical, so capping keeps reports reproducible.
_COVERAGE_PAIR_CAP = 500
_INJECTIVITY_PROBE_CAP = 4000
_MULTIPLICATIVE_COMBO_BUDGET = 65536


@dataclass(frozen=True)
class CollapseSpec:
    """A graph together with the vertex set chosen for collapsing."""

    graph: Graph
    t0: VertexSubset

    def __init__(self, graph, t0):
        if not isinstance(t0, VertexSubset):
            t0 = VertexSubset(graph, t0)
        if t0.graph is not graph:
            raise ValueError("vertex subset belongs to a different graph")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "t0", t0)

    @cached_property
    def f0(self) -> VertexSubset:
        """The retained vertices."""
        return self.t0.complement()


def validate_collapsible(spec: CollapseSpec) -> Report:
    """Certify that the chosen vertex set admits the collapse move."""
    rep = Report("collapse preconditions")
    g, t0, f0 = spec.graph, spec.t0, spec.f0
    rep.add("shape", "collapsed", t0.render() or "(none)")
    rep.add("shape", "retained", f0.render() or "(none)")
    rep.check("shape", "retained-nonempty", len(f0) > 0,
              "" if len(f0) > 0 else "every vertex was collapsed")
    rep.check("shape", "collapsed-acyclic", is_acyclic(subgraph(g, t0)))
    stray = [v for v in sources(g) if v not in f0]
    rep.check("shape", "sources-retained", not stray,
              "" if not stray else "collapsed source %s" % stray[0])
    # The remaining classical preconditions constrain infinite emitters and
    # infinite collapsed paths; on a finite graph with an acyclic collapsed
    # region neither can occur.
    rep.check("finiteness", "finite-emission", "vacuous",
              "every vertex of a finite graph emits finitely many edges")
    rep.check("finiteness", "no-infinite-collapsed-paths", "vacuous",
              "a finite acyclic region carries no infinite path")
    return rep


def first_hit_extensions(graph: Graph, t0: VertexSubset, v):
    """Continuations from v up to their first retained vertex.

    The empty path when v is already retained; otherwise every path ranging
    at v whose interior stays collapsed and whose source is the first
    retained vertex reached.  Needs the collapsed region acyclic and free
    of graph sources, which bounds the walk.
    """
    if v not in t0:
        return [vertex_path(graph, v)]
    bound = len(graph.vertices) + 1
    out = []
    # Depth first on an explicit stack of edge-id tuples, so long collapsed
    # paths do not reach the recursion limit; each hit becomes a Path once.
    stack = [(e.id,) for e in reversed(graph.edges_with_range(v))]
    while stack:
        edges = stack.pop()
        u = graph.edge(edges[-1]).source_vertex
        if u not in t0:
            out.append(Path(graph, edges))
            continue
        if len(edges) >= bound:
            raise ValueError("collapsed region contains a cycle through %r" % (u,))
        stack.extend(edges + (e.id,) for e in reversed(graph.edges_with_range(u)))
    out.sort(key=Path.sort_key)
    return out


@dataclass(frozen=True)
class CollapseCertificate:
    """The collapsed graph plus the path each new edge abbreviates.

    The constructor performs no validation on purpose: the check functions
    below are the arbiters, and tests feed them corrupted certificates.
    """

    original: Graph
    t0: VertexSubset
    collapsed: Graph
    edge_paths: dict

    @cached_property
    def f0(self) -> VertexSubset:
        """The retained vertices, built on first use."""
        return self.t0.complement()

    @cached_property
    def edge_of_path(self) -> dict:
        """Collapsed edge id by its path's edge-id tuple, built on first use."""
        return {p.edges: eid for eid, p in self.edge_paths.items()}


def collapse(spec: CollapseSpec) -> CollapseCertificate:
    """Perform the collapse move; requires a valid spec."""
    rep = validate_collapsible(spec)
    if not rep.ok:
        raise ValueError("collapse preconditions failed: %s" % ", ".join(rep.failures()))
    g, t0, f0 = spec.graph, spec.t0, spec.f0
    paths = []
    for f in f0:
        for e in g.edges_with_range(f):
            head = Path(g, (e.id,))
            for tau in first_hit_extensions(g, t0, head.source_vertex):
                paths.append(concat(head, tau))
    paths.sort(key=Path.sort_key)
    # No suffixed name is a render, so a render only one path has is kept.
    renders = {p.render() for p in paths}
    edge_paths = {}
    for p in paths:
        name = base = p.render()
        k = 1
        while name in edge_paths or (name != base and name in renders):
            k += 1
            name = "%s~%d" % (base, k)
        edge_paths[name] = p
    edges = [Edge(name, p.range_vertex, p.source_vertex) for name, p in edge_paths.items()]
    return CollapseCertificate(g, t0, Graph(list(f0), edges), edge_paths)


def _leg_image(paths, edges):
    """A nonempty collapsed leg's image under the path map ``paths``: its
    edges' paths end to end, with the first's range and the last's source."""
    return (sum([paths[e].edges for e in edges], ()),
            paths[edges[0]].range_vertex, paths[edges[-1]].source_vertex)


def collapsed_preimage(cert: CollapseCertificate, epath: Path):
    """The collapsed path mapping to epath under the path map, or None.

    A path between retained vertices splits uniquely at its retained-vertex
    visits; each segment is looked up in the certificate's edge_of_path.
    """
    F = cert.collapsed
    f0 = cert.f0
    if epath.range_vertex not in f0 or epath.source_vertex not in f0:
        return None
    if not epath.edges:
        return vertex_path(F, epath.vertex) if F.has_vertex(epath.vertex) else None
    g, edge_of_path = cert.original, cert.edge_of_path
    ids = []
    start = 0
    for i, e in enumerate(epath.edges, start=1):
        if g.edge(e).source_vertex in f0:
            eid = edge_of_path.get(epath.edges[start:i])
            if eid is None:
                return None
            ids.append(eid)
            start = i
    try:
        return Path(F, tuple(ids))
    except ValueError:
        return None


def _check_well_formed(cert: CollapseCertificate, rep: Report) -> bool:
    """Structural sanity of a certificate; shared by the check functions."""
    g, f0, t0 = cert.original, cert.f0, cert.t0
    rep.check("well-formed", "vertices-retained",
              cert.collapsed.vertices == f0.members)
    bad = None
    for fe in cert.collapsed.edges:
        p = cert.edge_paths.get(fe.id)
        if p is None or p.graph is not g or len(p) < 1:
            bad = "edge %s has no path" % fe.id
            break
        if p.range_vertex != fe.range_vertex or p.source_vertex != fe.source_vertex:
            bad = "edge %s endpoints disagree with its path" % fe.id
            break
        if p.range_vertex not in f0 or p.source_vertex not in f0:
            bad = "edge %s path not between retained vertices" % fe.id
            break
        if any(g.edge(e).source_vertex not in t0 for e in p.edges[:-1]):
            bad = "edge %s path leaves the collapsed region" % fe.id
            break
    rep.check("well-formed", "edges-abbreviate-paths", bad is None, bad or "")
    return rep.ok


def check_phi_fin_image(cert: CollapseCertificate, max_len: int) -> Report:
    """Certify the path map is a bijection onto the paths between retained
    vertices, windowed at the given original-graph path length.

    Both sides are flat: a path is keyed by its edge ids, a vertex path by
    its vertex, and a collapsed path's image is its leg image
    (``_leg_image``).  A ``Path`` is built only for the paths the images
    miss, to name the least one.  A negative max_len raises ValueError.
    """
    rep = Report("path map image")
    if not _check_well_formed(cert, rep):
        return rep
    g, f0, paths = cert.original, cert.f0, cert.edge_paths
    # The paths between retained vertices, each under its key.
    target = {edges or v: (edges, v, source)
              for edges, v, source in _flat_paths(g, max_len, f0)
              if source in f0}
    # Collapsed edges never shorten, so collapsed paths beyond the window
    # map outside it and can be skipped outright.
    images = []
    for edges, v, _ in _flat_paths(cert.collapsed, max_len):
        if not edges:
            images.append(v)
        elif len(image := _leg_image(paths, edges)[0]) <= max_len:
            images.append(image)
    rep.add("window", "max-len", max_len)
    rep.add("window", "collapsed-paths", len(images))
    rep.add("window", "target-paths", len(target))
    hit = set(images)
    rep.check("bijection", "injective", len(images) == len(hit))
    missing = sorted((_path(g, *target[k]) for k in target.keys() - hit),
                     key=Path.sort_key)
    rep.check("bijection", "covers-window", not missing,
              "" if not missing else "first missing %s" % missing[0].render())
    # Every kept image lies in the target: well-formedness makes the
    # vertices retained and each edge's path a path between retained
    # vertices, so an image is a path between retained vertices, and it
    # was kept only when at most max_len long.
    rep.check("bijection", "lands-in-window", True)
    return rep


def pointed_groupoid_iso_check(cert: CollapseCertificate, depth: int) -> Report:
    """Certify the collapsed groupoid sits inside the original one.

    Four windowed checks: the probe transport is well defined and pointed,
    it is injective, every basic set based at retained vertices is covered
    by transported pieces (splitting each continuation at its first
    retained-vertex visit), and indicator convolution commutes with the
    transport, which is decided on the pairs themselves (see step (d)).
    Step (c) checks only that each piece has a collapsed preimage; that the
    pieces partition the set follows from the preconditions (and is tested).
    """
    rep = Report("pointed groupoid isomorphism")
    if not _check_well_formed(cert, rep):
        return rep
    pre = validate_collapsible(CollapseSpec(cert.original, cert.t0))
    if not rep.check("well-formed", "preconditions", pre.ok,
                     "" if pre.ok else ", ".join(pre.failures())):
        return rep
    g, F, f0, t0 = cert.original, cert.collapsed, cert.f0, cert.t0

    # (a) transport of probes is defined and fixes the pointed units.  It is
    # defined on every probe: well-formedness gives each collapsed edge a
    # path with the edge's own endpoints, so both legs' images start at the
    # pair's source.  The probes (mu, |mu| - |nu|, nu) of the collapsed
    # graph are the flat pairs (mu, nu) of its window, in window order up to
    # the cap, and a probe's image is its two legs' images (see step (d)).
    # One transport serves steps (a) and (d).
    transport = _transport(cert.edge_paths)
    probes, injective = 0, True
    for v, legs in _legs_by_source(F, depth).items():
        # (b) injectivity on the probe window.  Images of probes from
        # different groups never collide, as every image starts at its
        # probe's source vertex.  A group's probes are L_v x L_v in row
        # order, so its first take probes have as second legs the first
        # min(n, take) of its n legs, and as first legs only legs among
        # those: a second row starts only after the first is complete.  The
        # first row pairs one image with each of theirs, so the probes have
        # distinct images exactly when those legs do.  A leg's image is read
        # off its pair with the unit at v, once per leg.
        take = min(len(legs) ** 2, _INJECTIVITY_PROBE_CAP - probes)
        used = legs[:take]
        injective = injective and len(
            {transport((a, (), v, a_range, v)) for a, a_range in used}) == len(used)
        probes += take
    rep.add("transport", "probes", probes)
    rep.check("transport", "defined", True)
    # It fixes the units: the path map sends the unit at v to the unit at
    # v, an original vertex by vertices-retained.
    rep.check("transport", "units-fixed", True)
    rep.check("transport", "injective", injective)

    # (c) every basic set with retained ranges splits into the pieces
    # Z(mu tau, nu tau), tau a first hit at its source vertex, and each piece
    # needs a collapsed preimage on both legs.  The preconditions make the
    # pieces a partition: the hits are nonempty, none extends another (each
    # stops at its first retained vertex), and each continuation passes one.
    # A pair is covered exactly when both its legs are: a leg is covered
    # when every first hit at its source vertex extends it to a path with
    # a collapsed preimage.  Legs recur across the window, so each source
    # vertex's first hits and each leg's verdict are found once per check.
    pairs = list(islice(_window(g, depth, f0), _COVERAGE_PAIR_CAP))
    rep.add("coverage", "pairs", len(pairs))
    hits = cache(partial(first_hit_extensions, g, t0))

    @cache
    def leg_covered(edges, v, leg_range):
        leg = _path(g, edges, leg_range, v)
        return all(collapsed_preimage(cert, concat(leg, tau)) is not None
                   for tau in hits(v))

    cover_defect = None
    for t in pairs:
        if not (leg_covered(t[0], t[2], t[3]) and leg_covered(t[1], t[2], t[4])):
            cover_defect = "piece of %s has no collapsed preimage" % _build(g, t).render()
            break
    rep.check("coverage", "first-hit-splitting", cover_defect is None,
              cover_defect or "")

    # (d) indicator convolution commutes with the transport.  Every ordered
    # combination of basic pairs in the window is checked, incomposable ones
    # included (both sides must then vanish); the leg depth backs off from
    # the requested window only as far as needed to fit the combination
    # budget, so small graphs are covered exhaustively.
    #
    # The check runs on pairs and decides exactly what comparing the
    # canonical elements transport(1_a * 1_b) and transport(1_a) *
    # transport(1_b) decides, where transport sends each term Z(p) of a
    # canonical form to Z(phi p).  Three facts make every element here a
    # single pair: the product of two basic-pair indicators is the
    # indicator of their composite pair, or zero when compose_pairs finds
    # none; a basic set is never empty, so an indicator is never zero; and
    # the canonical form of one indicator is its minimal pair with
    # coefficient 1 (cylinder._minimal).  So transport(1_a) is the
    # indicator of phi(m), m the minimal pair of a, each side is zero or one
    # such indicator, and the sides agree when both are zero or both are
    # indicators of one basic set.
    #
    # The right side composes the transports phi(m) as they are, never
    # minimized in the original graph, and that is exact for every
    # certificate, honest or corrupt: minimizing keeps a pair's basic set,
    # and the product of two indicators depends only on their two sets.
    # So phi(m) and its minimal pair compose with the same partners, into
    # composites with the same basic set, and "composes on one side only"
    # and "the two composites have different minimal pairs" decide what
    # they decide on minimized transports.
    #
    # The window, its minimal pairs, their transports and the composites are
    # flat pairs (edge-id tuples, see cylinder._flat), and a PathPair is
    # built only to render the defect text from the window's own pairs.  The
    # minimal window and its transports are indexed by range leg, so for
    # each a only the b that compose on at least one side are visited, in
    # ascending order: the first defect is the least b that composes on one
    # side only or whose two composites disagree, as in the loop over every
    # combination.  The two sides' plans for a (see _RangeLegIndex.plan)
    # are walked in lockstep by position, and each composite is formed from
    # its plan entry, so no combination calls the composition rule.
    #
    # A combination transports a leg only where the collapsed graph strips
    # its composite, and minimizes in the original graph only where its two
    # sides differ.  Both are decided per composite:
    # - phi on a leg is the concatenation of its edges' abbreviated paths
    #   (_leg_image), so phi(mu + suffix) = phi(mu) + phi(suffix), and the
    #   well-formedness check above gives each collapsed edge's path the
    #   edge's own endpoints, so a transported pair keeps the collapsed
    #   pair's vertices.  So phi of the left composite of a plan entry (j,
    #   suffix, leg, source, leg_range) is (phi(m[0]) + phi(suffix),
    #   phi(leg), source, m[3], leg_range).  Each left plan is transported
    #   once, into the entries (j, phi(suffix), phi(leg), source,
    #   leg_range), which are kept by the plan's key: like the plan they
    #   depend only on m's source leg and its range vertex.
    # - _minimal strips a composite in the collapsed graph exactly when both
    #   legs end in one edge that is the only edge into its range vertex
    #   there, and the legs end where suffix (or m[0]) and leg end.  So each
    #   plan entry decides it, and only a composite that strips is formed.
    # - equal pairs have equal minimal pairs, so the two sides are compared
    #   as they are, and both are minimized only when they differ.  Where
    #   the composite strips nothing, both sides' first legs start with
    #   phi(m[0]) and range at m[3], so the sides are equal exactly when
    #   the transported entry equals the right plan's entry, and neither
    #   side is formed.
    # - that comparison ends almost every combination of a well-formed
    #   certificate.  There the edge paths from each vertex are its first
    #   hits, a prefix-free set, so phi keeps the prefix order of legs and
    #   the right plan of phi(m) equals the transported left plan entry for
    #   entry.
    mult_depth = _legs_depth(F, depth)
    fpairs = list(_window(F, mult_depth))
    rep.add("multiplicative", "legs-depth", mult_depth)
    rep.add("multiplicative", "pairs", len(fpairs))

    flat_minimal = [_minimal(F, a) for a in fpairs]
    transported = [transport(m) for m in flat_minimal]
    left_index = _RangeLegIndex(flat_minimal)
    right_index = _RangeLegIndex(transported)
    sole = F._sole_edge_range
    transported_plans = {}

    # The window is grouped by source vertex, and a plan's key (m's source
    # leg and its range vertex) recurs in a later group only where the
    # collapsed graph strips a pair.  So both indexes' plan caches, the
    # transported plans and the clean tags are dropped when a group starts,
    # and the check holds one group's plans at a time; a key that recurs
    # is planned again, to the same entries.
    #
    # A walk that ends every entry at tx == y, strips nothing and leaves no
    # rest finds no defect, and it read m only through its plan key and
    # the last edge of m[0]: the plans, the left images and the one-sided
    # test are functions of the key, and the strip test reads m only
    # through m[0][-1:].  phi_m[0] and m[3] are read only after a walk has
    # left the tx == y path.  So such a walk's tag (the key and that last
    # edge) is kept in clean, and a later pair with the same tag is not
    # walked again.
    clean = set()
    mult_defect = None
    group = None
    for i, a in enumerate(fpairs):
        if a[2] != group:
            group = a[2]
            left_index._plans.clear()
            right_index._plans.clear()
            transported_plans.clear()
            clean.clear()
        m, phi_m = flat_minimal[i], transported[i]
        key = (m[1], m[4])
        tag = (key, m[0][-1:])
        if tag in clean:
            continue
        left = left_index.plan(m)
        left_images = transported_plans.get(key)
        if left_images is None:
            left_images = transported_plans[key] = [
                (j, *transport((suffix, leg, None, None, None))[:2], source, leg_range)
                for j, suffix, leg, source, leg_range in left]
        right = right_index.plan(phi_m)
        b = None
        fast = True
        for x, tx, y in zip(left, left_images, right):
            if x[0] != y[0]:
                b = min(x[0], y[0])     # it composes on one side only
                break
            if sole and x[2] and x[2][-1] in sole and (x[1] or m[0])[-1:] == x[2][-1:]:
                _, suffix, leg, source, leg_range = x
                lhs = transport(_minimal(F, (m[0] + suffix, leg, source, m[3], leg_range)))
            elif tx == y:
                continue
            else:
                lhs = (phi_m[0] + tx[1], tx[2], tx[3], m[3], tx[4])
            fast = False
            _, suffix, leg, source, leg_range = y
            rhs = (phi_m[0] + suffix, leg, source, phi_m[3], leg_range)
            if lhs != rhs and _minimal(g, lhs) != _minimal(g, rhs):
                b = x[0]
                break
        else:
            rest = left[len(right):] or right[len(left):]
            if rest:
                b = rest[0][0]      # it composes on the longer side only
            elif fast:
                clean.add(tag)
        if b is not None:
            mult_defect = "%s then %s" % (_build(F, a).render(), _build(F, fpairs[b]).render())
            break
    rep.check("multiplicative", "transport-multiplicative", mult_defect is None,
              mult_defect or "")
    return rep


def _transport(paths):
    """The path map on both legs of a flat pair of a well-formed
    certificate's collapsed graph, as a function from flat pair to flat
    pair (see _leg_image).

    Each distinct leg is mapped once: its image is memoized by the leg
    tuple, so equal image legs are one shared tuple.  The memo lives as
    long as the returned function, one check.
    """
    legs = {}

    def transport(t):
        mu, nu, v, mu_range, nu_range = t
        if mu:
            mu, mu_range, v = legs.get(mu) or legs.setdefault(mu, _leg_image(paths, mu))
        if nu:
            nu, nu_range, v = legs.get(nu) or legs.setdefault(nu, _leg_image(paths, nu))
        return (mu, nu, v, mu_range, nu_range)

    return transport


def _legs_depth(graph: Graph, depth: int) -> int:
    """The deepest leg length up to depth whose pair window fits the
    combination budget, or 0.

    The window at leg length k holds the sum over vertices v of n_v(k)^2
    pairs, where n_v(k) counts the paths of length <= k with source v.
    The counts grow one length at a time, and the window only grows with
    k, so the first length over budget ends the search without a pair
    being built.  Once no path of length k exists the window stops
    growing, so the search ends there with the whole depth.
    """
    ending = {v: 1 for v in graph.vertices}     # paths of length k, by source
    total = dict(ending)                        # paths of length <= k
    best = 0
    for k in range(1, depth + 1):
        longer = dict.fromkeys(graph.vertices, 0)
        for e in graph.edges:
            longer[e.source_vertex] += ending[e.range_vertex]
        ending = longer
        for v, n in ending.items():
            total[v] += n
        if sum(n * n for n in total.values()) ** 2 > _MULTIPLICATIVE_COMBO_BUDGET:
            break
        best = k
        if not any(ending.values()):
            return depth
    return best
