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
Paths are flat (see ``graph``): one walk finds the first hits and one
split maps a path back; a ``Path`` is built only for ``edge_paths``, the
result of ``first_hit_extensions`` and a path that a report names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cylinder import _build, _legs_by_source, _minimal, _RangeLegIndex, _window
from .graph import (Edge, Graph, VertexSubset, _as_subset, _flat_paths, _path,
                    _require_vertex, is_acyclic, sources, subgraph)
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
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "t0", _as_subset(graph, t0))

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


def first_hit_extensions(graph: Graph, t0, v):
    """Continuations from v up to their first retained vertex.

    The empty path when v is already retained; otherwise every path ranging
    at v whose interior stays collapsed and whose source is the first
    retained vertex reached.  Needs the collapsed region acyclic and free
    of graph sources, which bounds the walk.
    """
    _require_vertex(graph, v)
    return [_path(graph, edges, v, source)
            for edges, source in _first_hits(graph, _as_subset(graph, t0), v)]


def _first_hits(graph: Graph, t0: VertexSubset, v):
    """``first_hit_extensions`` flat: (edge ids, source vertex) per hit.
    An explicit stack keeps long paths off the recursion limit; children go
    on it last edge first, so the hits pop in edge-index order."""
    bound = len(graph.vertices) + 1
    out, stack = [], [((), v)]
    while stack:
        edges, u = stack.pop()
        if u not in t0:
            out.append((edges, u))
        elif len(edges) >= bound:
            raise ValueError("collapsed region contains a cycle through %r" % (u,))
        else:
            stack.extend((edges + (e.id,), e.source_vertex)
                         for e in reversed(graph.edges_with_range(u)))
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
    # Edges into f0 in order, each with its first hits: edge-index order.
    paths = [((e.id,) + hit, e.range_vertex, source)
             for e in g.edges if e.range_vertex in f0
             for hit, source in _first_hits(g, t0, e.source_vertex)]
    # No suffixed name is a render, so a render only one path has is kept.
    renders = {".".join(edges) for edges, _, _ in paths}
    edge_paths = {}
    for edges, range_vertex, source in paths:
        name = base = ".".join(edges)
        k = 1
        while name in edge_paths or (name != base and name in renders):
            k += 1
            name = "%s~%d" % (base, k)
        edge_paths[name] = _path(g, edges, range_vertex, source)
    edges = [Edge(name, p.range_vertex, p.source_vertex) for name, p in edge_paths.items()]
    return CollapseCertificate(g, t0, Graph(list(f0), edges), edge_paths)


def _leg_image(paths, edges):
    """A nonempty collapsed leg's image under the path map ``paths``: its
    edges' paths end to end, with the first's range and the last's source."""
    return (sum([paths[e].edges for e in edges], ()),
            paths[edges[0]].range_vertex, paths[edges[-1]].source_vertex)


def _collapsed_edges(cert: CollapseCertificate, edges):
    """The collapsed preimage of a nonempty path between retained vertices,
    as collapsed edge ids, or None.  The path splits at its retained-vertex
    visits; each segment's id in ``edge_of_path`` must be a collapsed edge
    that composes with the one before."""
    g, f0, by_id = cert.original, cert.f0, cert.collapsed._by_id
    edge_of_path = cert.edge_of_path
    found, start = [], 0
    for i, e in enumerate(edges, start=1):
        if g._by_id[e].source_vertex in f0:
            fe = by_id.get(edge_of_path.get(edges[start:i]))
            if fe is None or (found and found[-1].source_vertex != fe.range_vertex):
                return None
            found.append(fe)
            start = i
    return tuple(fe.id for fe in found)


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
    its vertex, and a collapsed path's image is its edges' paths end to
    end, extended by one edge's path at each step of the walk.  The
    collapsed graph is walked only as far as the images fit in the window,
    and each path is mapped once.  A ``Path`` is built only to name the
    least path the images miss.  A negative max_len raises ValueError.
    """
    rep = Report("path map image")
    if not _check_well_formed(cert, rep):
        return rep
    g, f0, paths = cert.original, cert.f0, cert.edge_paths
    # The paths between retained vertices, each under its key.
    target = {edges or v: (edges, v, source)
              for edges, v, source in _flat_paths(g, max_len, f0)
              if source in f0}
    # Every collapsed edge maps to a nonempty path, so an image is longer
    # than the image of each prefix: the walk carries its image and ends a
    # branch once the image would leave the window.
    F = cert.collapsed
    images = list(F.vertices)
    stack = [((), v) for v in F.vertices]
    while stack:
        image, source = stack.pop()
        for e in F.edges_with_range(source):
            step = paths[e.id].edges
            if len(image) + len(step) <= max_len:
                longer = image + step
                images.append(longer)
                stack.append((longer, e.source_vertex))
    rep.add("window", "max-len", max_len)
    rep.add("window", "collapsed-paths", len(images))
    rep.add("window", "target-paths", len(target))
    hit = set(images)
    rep.check("bijection", "injective", len(images) == len(hit))
    # The least missing path in Path.sort_key order.
    idx = g._edge_index
    missing = min(target.keys() - hit, default=None,
                  key=lambda k: (tuple(idx[e] for e in target[k][0]),
                                 -1 if target[k][0] else g.vertex_index(k)))
    rep.check("bijection", "covers-window", missing is None,
              "" if missing is None else
              "first missing %s" % _path(g, *target[missing]).render())
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
    Steps (b) and (c) decide each leg the capped window reaches once and
    form no pair.  Step (d) decides each plan key of a source vertex once,
    by counting on both sides the window pairs whose range legs are
    comparable with the key's source leg, and walks a pair's plans only
    where that verdict leaves the pair open.
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
    # a collapsed preimage.  An extended leg runs between retained vertices.
    # An empty one has the collapsed graph's vertex as its preimage, by
    # vertices-retained.
    #
    # The window is L_v x L_v for each source vertex v, L_v its legs that
    # range at retained vertices, in row order up to the cap, so coverage
    # is decided per leg as step (b) decides injectivity.  A group's first
    # take pairs reach as second legs its first min(n, take) legs, and as
    # first legs only legs among those.  So its first failing pair is
    # (its first leg, the first uncovered leg among those), and each of
    # those legs' verdicts is found once, in order, up to the first
    # uncovered one; no pair is formed.
    pairs, cover_defect = 0, None
    for v, legs in _legs_by_source(g, depth, f0).items():
        take = min(len(legs) ** 2, _COVERAGE_PAIR_CAP - pairs)
        pairs += take
        if cover_defect is None and take:
            hits = _first_hits(g, t0, v)
            bad = next((leg for leg in legs[:take]
                        if any(_collapsed_edges(cert, leg[0] + hit) is None
                               for hit, _ in hits)), None)
            if bad is not None:
                first = _build(g, (legs[0][0], bad[0], v, legs[0][1], bad[1]))
                cover_defect = "piece of %s has no collapsed preimage" % first.render()
    rep.add("coverage", "pairs", pairs)
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
    #   phi(leg), source, m[3], leg_range).  The transported entry tx = (j,
    #   phi(suffix), phi(leg), source, leg_range) depends, like the plan,
    #   only on the plan's key, m's source leg and its range vertex.
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
    # - on an honest certificate that comparison ends every combination
    #   whose composite strips nothing.  There the edge paths from each
    #   vertex are its first hits, a prefix-free set, so phi keeps the
    #   prefix order of legs and the right plan of phi(m) equals the
    #   transported left plan entry for entry.  So each key is clean
    #   (below), and only the pairs with a composite that strips are walked.
    mult_depth = _legs_depth(F, depth)
    fpairs = list(_window(F, mult_depth))
    rep.add("multiplicative", "legs-depth", mult_depth)
    rep.add("multiplicative", "pairs", len(fpairs))

    flat_minimal = [_minimal(F, a) for a in fpairs]
    transported = [transport(m) for m in flat_minimal]
    left_index = _RangeLegIndex(flat_minimal)
    right_index = _RangeLegIndex(transported)
    sole = F._sole_edge_range

    # The window is grouped by source vertex, and a plan's key (m's source
    # leg and its range vertex) recurs in a later group only where the
    # collapsed graph strips a pair.  So both indexes' plan caches, the
    # transported plans and the key verdicts are dropped when a group
    # starts, and the check holds one group's plans at a time; a key that
    # recurs is decided again, to the same verdict.
    #
    # A pair's walk reads m through its plan key, except in two places: the
    # strip test of an entry with an empty suffix reads m[0][-1:], and the
    # sides formed once an entry leaves the tx == y path read phi_m[0] and
    # m[3].  The plans, their lengths, the left images and the one-sided
    # test are functions of the key.  So a key is called clean when its two
    # plans have equal length, every entry has tx == y, and no entry with a
    # nonempty suffix strips; its verdict also keeps the last edges through
    # which an entry with an empty suffix strips.  A pair of a clean key
    # whose m[0][-1:] is not among those edges walks every entry to
    # tx == y, strips nothing and leaves no rest, so it finds no defect and
    # is not walked.
    #
    # The verdict is read off the two tries; no plan is formed for it.
    # Past _check_well_formed, phi concatenates on edge tuples, phi(x + s) =
    # phi(x) + phi(s) (_leg_image), maps each edge to a nonempty path and
    # keeps each pair's vertices.  So for a range leg x comparable with the
    # key's source leg nu (one a prefix of the other), phi(x) is comparable
    # with phi(nu) the same way, and the left plan entry of x's pair,
    # transported, is the right plan's entry of that pair.  So the left
    # plan's positions are among the right plan's, and the plans match
    # entry for entry exactly when the left trie files as many pairs
    # comparable with nu as the right trie files comparable with phi(nu)
    # (_RangeLegIndex.comparable).
    #
    # Only an entry whose second leg ends in a sole edge (the only edge into
    # its range vertex) can strip, so a graph with none skips the strip
    # part.  A pair filed at nu's node has an empty suffix and its own
    # second leg: it adds that leg's last edge to the strips.  One filed
    # below has a nonempty suffix ending where its range leg ends, so it
    # strips only when its two legs end in one sole edge, and a minimal
    # pair never does (_minimal would have stripped that edge).  An entry of a
    # shorter range leg has an empty suffix and a second leg ending in
    # nu[-1], so one test of nu[-1] decides them all.  Plans are handed out
    # only for the pairs walked in full, those of unclean keys and those
    # that strip, and only for those is a key's left plan transported into
    # a list, once per key.
    verdicts = {}
    transported_plans = {}
    mult_defect = None
    group = None
    for i, a in enumerate(fpairs):
        if a[2] != group:
            group = a[2]
            left_index._plans.clear()
            right_index._plans.clear()
            transported_plans.clear()
            verdicts.clear()
        m, phi_m = flat_minimal[i], transported[i]
        key = (m[1], m[4])
        if key not in verdicts:
            verdicts[key] = _key_verdict(left_index, right_index, flat_minimal, sole, m, phi_m)
        strips = verdicts[key]
        if strips is not None and m[0][-1:] not in strips:
            continue
        left = left_index.plan(m)
        left_images = transported_plans.get(key)
        if left_images is None:
            left_images = transported_plans[key] = [
                (j, *transport((suffix, leg, None, None, None))[:2], source, leg_range)
                for j, suffix, leg, source, leg_range in left]
        right = right_index.plan(phi_m)
        b = None
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
            _, suffix, leg, source, leg_range = y
            rhs = (phi_m[0] + suffix, leg, source, phi_m[3], leg_range)
            if lhs != rhs and _minimal(g, lhs) != _minimal(g, rhs):
                b = x[0]
                break
        else:
            rest = left[len(right):] or right[len(left):]
            if rest:
                b = rest[0][0]      # it composes on the longer side only
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


def _key_verdict(left_index, right_index, minimal, sole, m, phi_m):
    """The verdict of step (d) on the plan key of m, whose transport is
    phi_m, read off the two range leg indexes (see step (d)): None when the
    key is not clean, else the last edges (as 1-tuples) through which an
    entry with an empty suffix strips.  The left index files the pairs
    minimal, and sole maps each edge that is the only edge into its range
    vertex in the collapsed graph to that vertex."""
    nu = m[1]
    shorter, reaching, ending = left_index.comparable(nu, m[4])
    right_shorter, right_reaching, _ = right_index.comparable(phi_m[1], phi_m[4])
    if shorter + reaching != right_shorter + right_reaching:
        return None
    strips = set()
    if not sole:
        return strips
    if shorter and nu[-1] in sole:
        strips.add(nu[-1:])
    for j in ending:
        second = minimal[j][1]
        if second and second[-1] in sole:
            strips.add(second[-1:])
    return strips


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
