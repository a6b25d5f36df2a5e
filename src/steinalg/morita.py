"""Matrix calculus over a retained vertex set, with surjectivity witnesses.

Fix a set of retained vertices meeting every orbit of the path groupoid.
A ``Transversal`` tests this by reverse reachability, which is sufficient
but not necessary (see ``Transversal.unreachable``).  Basic pairs then sort
into a 2x2 block pattern by whether the range vertices of the two legs are
retained; the pattern lives in ``Corner``, whose values are the blocks'
support rules, and a ``LinkingElement`` holds one algebra element per block.
Block (1,1) constrains both legs, the off-diagonal blocks constrain one leg
each, and block (2,2) constrains nothing, so the blocks overlap as supports
even though ``corner_of`` classifies each single pair into exactly one cell.
Convolution becomes 2x2 matrix multiplication, ``psi`` and ``phi`` are the
off-diagonal products landing in the diagonal blocks, and
``surjectivity_witness`` factors any single-pair indicator through the
off-diagonal blocks, so the diagonal algebras form a surjective context.
The witness checks each factorisation on pairs alone: a product of two
basic-pair indicators is the indicator of their composite or zero, an
indicator's canonical form is its minimal pair, and the coefficient one is
nonzero in every ring, so comparing minimal pairs decides every product.
Connectors and witness rows are flat (see ``graph`` and ``cylinder``); a
``Path`` or ``PathPair`` is built only for a value a function returns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import sampling
from .collapse import CollapseSpec, collapse, pointed_groupoid_iso_check
from .cylinder import (PathPair, _build, _compose, _flat, _invert, _legs_by_source,
                       _minimal, compose_pairs, pairs_to_depth)
from .graph import Graph, VertexSubset, _as_subset, _path
from .report import Report
from .rings import int_text
from .steinberg import SteinbergElement, add, convolve, zero


class CornerSupportError(ValueError):
    """An element or pair fails its block's support pattern."""


class LinkingInvariantError(RuntimeError):
    """A matrix product left its block pattern; indicates an internal bug."""


class Corner(enum.Enum):
    """A block, in block order f11, f12, f21, f22.  The value is (first leg
    retained?, second leg retained?): it is the cell of the pairs answering
    so, and as a support rule True means that leg must be retained."""

    GG = (True, True)
    GZ = (True, False)
    ZG = (False, True)
    HH = (False, False)

    def render(self):
        return self.name


_BLOCK_NAMES = dict(zip(Corner, ("f11", "f12", "f21", "f22")))


@dataclass(frozen=True)
class Transversal:
    """A graph with a retained vertex set acting as the orbit transversal.

    The least connectors into the retained set are computed once here; they
    follow from the other two fields, so equality and hashing ignore them.
    """

    graph: Graph
    f0: VertexSubset
    _connectors: dict = field(compare=False, repr=False)

    def __init__(self, graph, f0):
        f0 = _as_subset(graph, f0)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "_connectors", least_connectors(graph, f0))

    @property
    def unreachable(self):
        """The vertices with no path into the retained set, in declaration
        order; when this is empty the retained set meets every orbit.

        A vertex with a connector lands its orbit over the retained set:
        shift any boundary path to a visited vertex and prepend the connector.
        The converse fails: a vertex without a connector can still have all
        its orbits meet the retained set, as v does on ``vertices: v, u``
        with ``edge: e v <- u`` and u retained, where the pair (e, u)
        carries v's one boundary path e to the unit at u.
        """
        return tuple(v for v in self.graph.vertices if self._connectors[v] is None)


def least_connectors(graph: Graph, f0):
    """For each vertex v, the least path with source v ranging at a retained
    vertex, or None; least means shortest, then lexicographic.

    One breadth-first pass out from the retained set: a vertex first
    reached at length k takes the least one-edge extension of the
    connectors found at length k - 1.  A least connector with its last edge
    e cut off is a connector of e's range vertex of length k - 1, and every
    connector of that vertex is that long or longer, so it is that vertex's
    least one.  The pass is flat, a connector compared by its edge indexes,
    and each vertex's ``Path`` is built once, at the end.
    """
    idx = graph._edge_index
    best = {v: ((), (), v) for v in _as_subset(graph, f0)}
    layer = list(best)
    while layer:
        found = {}
        for u in layer:
            edges, key, root = best[u]
            for e in graph.edges_with_range(u):
                v = e.source_vertex
                if v in best:
                    continue
                cand = (edges + (e.id,), key + (idx[e.id],), root)
                cur = found.get(v)
                if cur is None or cand[1] < cur[1]:
                    found[v] = cand
        best.update(found)
        layer = list(found)
    return {v: _path(graph, best[v][0], best[v][2], v) if v in best else None
            for v in graph.vertices}


# -- corners ----------------------------------------------------------------


def corner_of(p: PathPair, f0) -> Corner:
    """The unique cell of a basic pair."""
    f0 = _as_subset(p.graph, f0, "pair")
    return Corner((p.mu.range_vertex in f0, p.nu.range_vertex in f0))


def _first_outside(flat_pairs, f0, corner: Corner):
    """The first flat pair breaking the corner's support rule, or None."""
    row_req, col_req = corner.value
    return next((t for t in flat_pairs
                 if (row_req and t[3] not in f0) or (col_req and t[4] not in f0)),
                None)


def element_supported_in(f: SteinbergElement, f0, corner: Corner) -> bool:
    return _first_outside(f.flat, _as_subset(f.graph, f0, "element"), corner) is None


def _require_support(f: SteinbergElement, f0, corner: Corner, role):
    # .terms follows .flat's order, so this names the first term outside.
    t = _first_outside(f.flat, _as_subset(f.graph, f0, role), corner)
    if t is not None:
        raise CornerSupportError(
            "%s term %s violates the %s support pattern"
            % (role, _build(f.graph, t).render(), corner.render()))


# -- the 2x2 matrix algebra --------------------------------------------------


@dataclass(frozen=True)
class LinkingElement:
    """Four block-supported algebra elements forming one matrix element; a
    block left out is zero, and each block given is checked."""

    transversal: Transversal
    ring: object
    f11: SteinbergElement = None
    f12: SteinbergElement = None
    f21: SteinbergElement = None
    f22: SteinbergElement = None

    def __post_init__(self):
        g, f0, ring = self.transversal.graph, self.transversal.f0, self.ring
        for corner, name in _BLOCK_NAMES.items():
            f = getattr(self, name)
            if f is None:
                object.__setattr__(self, name, zero(g, ring))
            elif f.graph is not g or f.ring != ring:
                raise ValueError("block %s lives on a different graph or ring" % name)
            else:
                _require_support(f, f0, corner, "block %s" % name)

    def blocks(self):
        return (self.f11, self.f12, self.f21, self.f22)

    def is_zero(self):
        return all(f.is_zero() for f in self.blocks())

    def render(self):
        return "[[%s | %s] [%s | %s]]" % tuple(f.render() for f in self.blocks())

    def __repr__(self):
        return self.render()


def _check_linking_compatible(a: LinkingElement, b: LinkingElement):
    if a.transversal.graph is not b.transversal.graph or a.ring != b.ring:
        raise ValueError("matrix elements live over different algebras")
    if a.transversal.f0.members != b.transversal.f0.members:
        raise ValueError("matrix elements use different retained sets")


def linking_convolve(a: LinkingElement, b: LinkingElement) -> LinkingElement:
    """2x2 matrix product with entrywise convolution.

    Convolution concatenates at the inner legs and keeps the outer range
    vertices, so each product entry lands in its block; a violation cannot
    come from user input and is raised as an internal invariant failure.
    """
    _check_linking_compatible(a, b)
    f11 = add(convolve(a.f11, b.f11), convolve(a.f12, b.f21))
    f12 = add(convolve(a.f11, b.f12), convolve(a.f12, b.f22))
    f21 = add(convolve(a.f21, b.f11), convolve(a.f22, b.f21))
    f22 = add(convolve(a.f21, b.f12), convolve(a.f22, b.f22))
    try:
        return LinkingElement(a.transversal, a.ring,
                              f11=f11, f12=f12, f21=f21, f22=f22)
    except CornerSupportError as exc:
        raise LinkingInvariantError(str(exc)) from exc


# -- the context maps --------------------------------------------------------


def psi(transversal, m: SteinbergElement, n: SteinbergElement) -> SteinbergElement:
    """The balanced product of a (1,2)-block and a (2,1)-block element."""
    f0 = transversal.f0
    _require_support(m, f0, Corner.GZ, "psi left factor")
    _require_support(n, f0, Corner.ZG, "psi right factor")
    out = convolve(m, n)
    if not element_supported_in(out, f0, Corner.GG):
        raise LinkingInvariantError("psi product left its block")
    return out


def phi(transversal, n: SteinbergElement, m: SteinbergElement) -> SteinbergElement:
    """The balanced product in the other order, landing in block (2,2)."""
    f0 = transversal.f0
    _require_support(n, f0, Corner.ZG, "phi left factor")
    _require_support(m, f0, Corner.GZ, "phi right factor")
    return convolve(n, m)


def eq_ops_check(transversal, m, m_prime, n, n_prime) -> bool:
    """Both compatibility identities between psi and phi, checked exactly.

    Each factor is checked against its block once; in their blocks
    psi(m, n) is m n and phi(n, m) is n m, so n' psi(m, n) = phi(n', m) n
    and m' phi(n, m) = psi(m', n) m are associativity of convolution.
    """
    f0 = transversal.f0
    _require_support(m, f0, Corner.GZ, "m")
    _require_support(m_prime, f0, Corner.GZ, "m'")
    _require_support(n, f0, Corner.ZG, "n")
    _require_support(n_prime, f0, Corner.ZG, "n'")
    first = convolve(n_prime, convolve(m, n)) == convolve(convolve(n_prime, m), n)
    second = convolve(m_prime, convolve(n, m)) == convolve(convolve(m_prime, n), m)
    return first and second


# -- surjectivity witnesses ---------------------------------------------------


@dataclass(frozen=True)
class MoritaWitness:
    """The off-diagonal factor pair reconstructing a single-pair indicator.

    The psi side multiplies v * n and the phi side n * v, v meant for the
    (1,2) block and n for the (2,1) block.  ``pieces`` is ((v, n),), or ()
    when the target is out of the side's reach or, on the phi side, when
    the connector starts at another vertex than the target's source: v's
    first leg would be the connector, so v would be no pair.  The report's
    ``factors.piece-1-blocks`` row fails then, when n is None because v
    does not compose with the target, and when the connector ranges outside
    the retained set, which puts v outside block (1,2).
    """

    side: str
    target: PathPair
    pieces: tuple
    report: Report

    @property
    def ok(self):
        return self.report.ok


def surjectivity_witness(transversal, ring, pair: PathPair, side: str) -> MoritaWitness:
    """Factor the indicator of one basic pair through the off-diagonal blocks.

    The psi side covers the range unit set of the pair by itself (already
    over the retained set); the phi side routes through the least connector
    from the pair's source vertex into the retained set, which exists
    whenever that vertex is not among the transversal's unreachable ones.

    Every row is decided once, on flat pairs, by ``_witness_rows``, which
    ``morita_report`` also reads; this function renders those decisions
    into a report and builds the factor pair.  No algebra element is
    built.  See ``_witness_rows`` for why the decisions are exact and the
    same for every ring.
    """
    if side not in ("psi", "phi"):
        raise ValueError("side must be 'psi' or 'phi'")
    if pair.graph is not transversal.graph:
        raise ValueError("target pair lives on a different graph")
    f0 = transversal.f0
    rep = Report("surjectivity witness (%s side)" % side)
    rep.add("target", "pair", pair.render())
    rep.add("target", "cell", corner_of(pair, f0).render())
    g = pair.graph
    rows = _witness_rows(transversal, g, _flat(pair), side)
    if side == "psi":
        if not rep.check("target", "supported", rows is not None,
                         "" if rows is not None else
                         "psi targets need both legs retained"):
            return MoritaWitness(side, pair, (), rep)
    else:
        if not rep.check("target", "connector-exists", rows is not None,
                         "" if rows is not None else
                         "vertex %s cannot reach the retained set"
                         % pair.source_vertex):
            return MoritaWitness(side, pair, (), rep)
        conn = transversal._connectors[pair.source_vertex]
        rep.add("target", "connector", conn.render())
    fv, defect, unit_cover, reconstructs = rows
    rep.check("factors", "piece-1-blocks", not defect, defect)
    rep.check("factors", "pieces-disjoint", "vacuous", "single piece")
    rep.check("verification", "unit-cover", unit_cover)
    rep.check("verification", "reconstructs", reconstructs)
    rep.check("verification", "matrix-reconstructs", reconstructs)
    if side == "phi" and conn.source_vertex != pair.source_vertex:
        # v's first leg would be a connector that starts elsewhere: no pair.
        return MoritaWitness(side, pair, (), rep)
    # n = v^-1 t or t v^-1 by compose_pairs, which the benchmark's tracer counts.
    v_inv = _build(g, _invert(fv))
    n = compose_pairs(v_inv, pair) if side == "psi" else compose_pairs(pair, v_inv)
    return MoritaWitness(side, pair, ((_build(g, fv), n),), rep)


def _witness_rows(transversal, graph, t, side):
    """The rows of the witness of the flat target t on one side, each
    decided once on flat pairs of the graph.

    None when the target is out of the side's reach: on the psi side a leg
    ranges outside the retained set, on the phi side its source vertex has
    no connector.  Otherwise ``(v, blocks defect, unit-cover,
    reconstructs)``: the flat (1,2) factor v, the ``piece-1-blocks`` defect
    text ("" when v and the (2,1) factor n sit in their blocks), and two
    verification verdicts.  The unit set of the (1,2) factor is the
    matching unit set of the target: range units on the psi side, source
    units on the phi side.

    The verdicts are exact and the same in every ring: the product of two
    basic-pair indicators is the indicator of their composite, or zero when
    they do not compose; an indicator's canonical form is its minimal pair
    with coefficient one, which no ring makes zero; so two indicators are
    equal exactly when their minimal pairs are.

    The connector decides the blocks.  ``_compose(p, q)`` ranges its legs
    where p's first leg and q's second leg range.  On the psi side v ranges
    its first leg at t[3], n = v^-1 t its second at t[4], and v n at both,
    all retained by the guard.  On the phi side v's first leg is the
    connector, n = t v^-1 ranges its second leg where the connector does,
    and n v lands in block (2,2), which constrains no leg.  So both factors
    sit in their blocks exactly when v's first leg ranges in the retained
    set, and ``matrix-reconstructs``, which multiplies an f12-only by an
    f21-only matrix element into the one block v n or n v, equals
    ``reconstructs``.  Defects are named in order: a connector that starts
    at another vertex than t (v is then no pair), a missing n, and v
    outside block (1,2).

    Every row but a defect's text reads t only through its source vertex,
    so one target decides the rows of all targets sharing its source
    vertex.  On the psi side n = v^-1 t = t, v n = t and v v^-1 = v: every
    row holds on every target whose legs range in the retained set.  On the
    phi side n = (t's first leg, connector), n v = t and v^-1 v is the unit
    at t's second leg: the rows read t only through the connector of t[2].
    ``morita_report`` decides each source vertex once that way.
    """
    f0 = transversal.f0
    if side == "psi":
        if t[3] not in f0 or t[4] not in f0:
            return None
        v = (t[0], t[0], t[2], t[3], t[3])
        defect = ""
        n = _compose(_invert(v), t)
        direct = None if n is None else _compose(v, n)
    else:
        conn = transversal._connectors.get(t[2])
        if conn is None:
            return None
        v = (conn.edges, t[1], t[2], conn.range_vertex, t[4])
        defect = ("" if conn.source_vertex == t[2] else
                  "connector %s does not start at %s" % (conn.render(), t[2]))
        n = _compose(t, _invert(v))
        direct = None if n is None else _compose(n, v)
    if not defect and n is None:
        defect = "no second factor"
    elif not defect and v[3] not in f0:
        defect = "%s violates the GZ support pattern" % _build(graph, v).render()
    if side == "psi":
        unit, unit_target = _compose(v, _invert(v)), v
    else:
        unit, unit_target = _compose(_invert(v), v), (v[1], v[1], v[2], v[4], v[4])
    unit_cover = unit is not None and _minimal(graph, unit) == _minimal(graph, unit_target)
    reconstructs = direct is not None and _minimal(graph, direct) == _minimal(graph, t)
    return v, defect, unit_cover, reconstructs


def _holds(rows):
    """Whether every row of a witness holds, given its ``_witness_rows``."""
    return rows is not None and not rows[1] and rows[2] and rows[3]


def _first_witness_failure(transversal, ring, groups, depth, side):
    """The ``<side>-verified`` failure text of ``morita_report``: the first
    failing target and its witness's failed rows, or None when every target
    has a witness.

    ``groups`` maps each source vertex v to the legs of the side's targets,
    in ``_legs_by_source`` order; the targets are the window's pairs, the
    product L_v x L_v of each group in turn.  One ``_witness_rows`` call on
    a group's first target (l, l), l its first leg, decides every target of
    the group, so each source vertex with a target is decided exactly once,
    and when it fails, that first target is the first failing one.
    """
    graph = transversal.graph
    seen = 0
    for v, group in groups.items():
        if not group:
            continue
        leg, leg_range = group[0]
        if not _holds(_witness_rows(transversal, graph,
                                    (leg, leg, v, leg_range, leg_range), side)):
            # The window's pair at position seen is that target.
            ranges = transversal.f0 if side == "psi" else None
            pair = pairs_to_depth(graph, depth, ranges, limit=seen + 1)[-1]
            w = surjectivity_witness(transversal, ring, pair, side)
            return "%s: %s" % (pair.render(), ", ".join(w.report.failures()))
        seen += len(group) ** 2
    return None


# -- the end-to-end report -----------------------------------------------------


def morita_report(graph: Graph, t0, ring, depth=2, seed=0, eq_samples=20) -> Report:
    """The full pipeline certifying the context over a collapse instance.

    Requires the collapse preconditions (raised otherwise); transversal
    failure is reported, not raised, because it is a certified negative
    answer rather than bad input.

    The corners are counted from the legs per source vertex, and the window
    is never listed.  Each side witnesses every target of the window,
    deciding each source vertex with a target once, on the vertex's first
    target (see ``_first_witness_failure``).  ``eq_samples`` random tuples
    test the psi/phi identities; with none the row is vacuous.  A negative
    depth or count raises ValueError before any work.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0, got %s" % int_text(depth))
    if eq_samples < 0:
        raise ValueError("eq_samples must be >= 0, got %d" % eq_samples)
    spec = CollapseSpec(graph, t0)
    cert = collapse(spec)
    f0 = spec.f0
    transversal = Transversal(graph, f0)
    rep = Report("morita context")
    rep.add("setup", "graph", "%d vertices, %d edges"
            % (len(graph.vertices), len(graph.edges)))
    rep.add("setup", "collapsed", spec.t0.render() or "(none)")
    rep.add("setup", "retained", f0.render())
    rep.add("setup", "ring", ring.name)
    rep.add("setup", "depth", depth)
    rep.add("setup", "seed", seed)

    unreachable = transversal.unreachable
    rep.check("transversal", "meets-every-orbit", not unreachable,
              "unreachable: %s" % ",".join(unreachable) if unreachable else "")

    # The window is never listed.  A window pair is two legs with one
    # source vertex, so with a_v legs from v ranging in f0 and b_v outside,
    # a cell counts the sum over v of a_v^2, a_v b_v, b_v a_v or b_v^2.
    # legs holds (b_v, a_v) per v, indexed by whether a leg is retained, as
    # the corner's value is.
    by_source = _legs_by_source(graph, depth)
    kept = {v: [leg for leg in group if leg[1] in f0] for v, group in by_source.items()}
    legs = [(len(group) - len(kept[v]), len(kept[v])) for v, group in by_source.items()]
    cells = {c: sum(n[c.value[0]] * n[c.value[1]] for n in legs) for c in Corner}
    for c in Corner:
        rep.add("corners", c.render(), cells[c])

    if not unreachable:
        # The psi targets are the GG pairs, the product of each vertex's
        # retained legs; the phi targets every pair.
        for side, groups, total in (("psi", kept, cells[Corner.GG]),
                                    ("phi", by_source, sum(cells.values()))):
            rep.add("witnesses", "%s-targets" % side, "%d of %d" % (total, total))
            bad = _first_witness_failure(transversal, ring, groups, depth, side)
            rep.check("witnesses", "%s-verified" % side, bad is None, bad or "")
    else:
        rep.check("witnesses", "skipped", "vacuous", "transversal failed")

    rng = sampling.rng_from_seed(seed)
    tuples = 0
    eq_bad = None
    for _ in range(eq_samples):
        m1 = sampling.random_corner_element(rng, graph, ring, f0, Corner.GZ)
        m2 = sampling.random_corner_element(rng, graph, ring, f0, Corner.GZ)
        n1 = sampling.random_corner_element(rng, graph, ring, f0, Corner.ZG)
        n2 = sampling.random_corner_element(rng, graph, ring, f0, Corner.ZG)
        tuples += 1
        if not eq_ops_check(transversal, m1, m2, n1, n2):
            eq_bad = "tuple %d" % tuples
            break
    rep.add("eq-ops", "tuples", tuples)
    if tuples:
        rep.check("eq-ops", "identities", eq_bad is None, eq_bad or "")
    else:
        rep.check("eq-ops", "identities", "vacuous", "no tuples sampled")

    rep.add("collapse", "collapsed-graph", "%d vertices, %d edges"
            % (len(cert.collapsed.vertices), len(cert.collapsed.edges)))
    iso = pointed_groupoid_iso_check(cert, depth)
    rep.check("collapse", "groupoid-isomorphism", iso.ok,
              "" if iso.ok else ", ".join(iso.failures()))

    verdict = rep.ok
    rep.check("context", "surjective-morita-context", verdict)
    return rep
