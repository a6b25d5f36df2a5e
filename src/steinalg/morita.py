"""Matrix calculus over a retained vertex set, with surjectivity witnesses.

Fix a set of retained vertices meeting every orbit of the path groupoid.
A ``Transversal`` tests this by reverse reachability: when its
``unreachable`` vertices are empty the set meets every orbit.  The test is
sufficient, not necessary: on ``vertices: v, u`` with ``edge: e v <- u``
and u retained, v has no path into the retained set, yet its one boundary
path e lies in the orbit of the unit at u.  Basic pairs then sort into a
2x2 block pattern by whether the range vertices of the two legs are
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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .collapse import CollapseSpec, collapse, pointed_groupoid_iso_check
from .cylinder import (PathPair, _build, _compose, _flat, _invert, _minimal,
                       compose_pairs, invert_pair, pairs_to_depth)
from .graph import Graph, Path, VertexSubset, concat, vertex_path
from .report import Report
from .steinberg import SteinbergElement, add, convolve, zero

# Every witness target of the goldens and of the benchmark's cells fits
# under this cap (the largest window, outsplit at depth 5, has 833); it is
# never lowered to save time.
_WITNESS_CAP = 1024


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
        if not isinstance(f0, VertexSubset):
            f0 = VertexSubset(graph, f0)
        if f0.graph is not graph:
            raise ValueError("vertex subset belongs to a different graph")
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
    least one.
    """
    best = {v: vertex_path(graph, v) for v in f0}
    layer = list(best)
    while layer:
        found = {}
        for u in layer:
            for e in graph.edges_with_range(u):
                v = e.source_vertex
                if v in best:
                    continue
                cand = concat(best[u], Path(graph, (e.id,)))
                cur = found.get(v)
                if cur is None or cand.sort_key() < cur.sort_key():
                    found[v] = cand
        best.update(found)
        layer = list(found)
    return {v: best.get(v) for v in graph.vertices}


# -- corners ----------------------------------------------------------------


def corner_of(p: PathPair, f0) -> Corner:
    """The unique cell of a basic pair."""
    return Corner((p.mu.range_vertex in f0, p.nu.range_vertex in f0))


def _first_outside(flat_pairs, f0, corner: Corner):
    """The first flat pair breaking the corner's support rule, or None."""
    row_req, col_req = corner.value
    return next((t for t in flat_pairs
                 if (row_req and t[3] not in f0) or (col_req and t[4] not in f0)),
                None)


def element_supported_in(f: SteinbergElement, f0, corner: Corner) -> bool:
    return _first_outside(f.flat, f0, corner) is None


def _require_support(f: SteinbergElement, f0, corner: Corner, role):
    # .terms follows .flat's order, so this names the first term outside.
    t = _first_outside(f.flat, f0, corner)
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

    The left factors multiply through one map and the right factors through
    the other; agreement is associativity of the matrix convolution.
    """
    f0 = transversal.f0
    _require_support(m, f0, Corner.GZ, "m")
    _require_support(m_prime, f0, Corner.GZ, "m'")
    _require_support(n, f0, Corner.ZG, "n")
    _require_support(n_prime, f0, Corner.ZG, "n'")
    first = convolve(n_prime, psi(transversal, m, n)) == \
        convolve(phi(transversal, n_prime, m), n)
    second = convolve(m_prime, phi(transversal, n, m)) == \
        convolve(psi(transversal, m_prime, n), m)
    return first and second


# -- surjectivity witnesses ---------------------------------------------------


@dataclass(frozen=True)
class MoritaWitness:
    """The off-diagonal factor pair reconstructing a single-pair indicator.

    ``pieces`` is ((v, n),) with v in the (1,2) block and n in the (2,1)
    block, or () when the target admits no factorisation; the psi side
    multiplies v * n and the phi side n * v.  The report's
    ``factors.piece-1-blocks`` row fails when a factor leaves its block,
    when n is None because v does not compose with the target, or on the
    phi side when the connector does not start at the target's source
    vertex.
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
        rep.add("target", "connector",
                transversal._connectors[pair.source_vertex].render())
    fv, defect, unit_cover, reconstructs, matrix = rows
    rep.check("factors", "piece-1-blocks", not defect, defect)
    rep.check("factors", "pieces-disjoint", "vacuous", "single piece")
    rep.check("verification", "unit-cover", unit_cover)
    rep.check("verification", "reconstructs", reconstructs)
    rep.check("verification", "matrix-reconstructs", matrix)
    v = _build(g, fv)
    n = (compose_pairs(invert_pair(v), pair) if side == "psi"
         else compose_pairs(pair, invert_pair(v)))
    return MoritaWitness(side, pair, ((v, n),), rep)


def _witness_rows(transversal, graph, t, side):
    """The rows of the witness of the flat target t on one side, each
    decided once on flat pairs of the graph.

    None when the target is out of the side's reach: on the psi side a leg
    ranges outside the retained set, on the phi side its source vertex has
    no connector.  Otherwise ``(v, blocks defect, unit-cover, reconstructs,
    matrix-reconstructs)``: the flat (1,2) factor v, the ``piece-1-blocks``
    defect text ("" when v and the (2,1) factor n sit in their blocks; n is
    missing when v does not compose with the target; on the phi side v's
    first leg is the connector, which must start at the target's source
    vertex), and the three verification verdicts.

    This is exact: the product of two basic-pair indicators is the
    indicator of their composite, or zero when they do not compose; the
    canonical form of an indicator is its minimal pair with coefficient
    one; and one is nonzero in every coefficient ring, so two indicators
    are equal exactly when their minimal pairs are, and no indicator is
    zero.  The rows are therefore the same for every ring.  A product of
    an f12-only and an f21-only matrix element has one nonzero block,
    f11 = v * n or f22 = n * v, so the matrix row holds when that product
    reconstructs the target inside the diagonal block's support rule.  The
    unit set of the (1,2) factor is the matching unit set of the target:
    range units on the psi side, source units on the phi side.
    """
    f0 = transversal.f0
    if side == "psi":
        if t[3] not in f0 or t[4] not in f0:
            return None
        v = (t[0], t[0], t[2], t[3], t[3])
        defect = ""
        n = _compose(_invert(v), t)
        unit, unit_target = _compose(v, _invert(v)), v
        direct = None if n is None else _compose(v, n)
        diagonal = Corner.GG
    else:
        conn = transversal._connectors.get(t[2])
        if conn is None:
            return None
        v = (conn.edges, t[1], t[2], conn.range_vertex, t[4])
        defect = ("" if conn.source_vertex == t[2] else
                  "connector %s does not start at %s" % (conn.render(), t[2]))
        n = _compose(t, _invert(v))
        unit, unit_target = _compose(_invert(v), v), (t[1], t[1], t[2], t[4], t[4])
        direct = None if n is None else _compose(n, v)
        diagonal = Corner.HH
    unit_cover = unit is not None and _minimal(graph, unit) == _minimal(graph, unit_target)
    reconstructs = direct is not None and _minimal(graph, direct) == _minimal(graph, t)
    matrix = reconstructs and _first_outside((direct,), f0, diagonal) is None
    defect = defect or _blocks_defect(graph, f0, v, n)
    return v, defect, unit_cover, reconstructs, matrix


def _holds(rows):
    """Whether every row of a witness holds, given its ``_witness_rows``;
    ``matrix-reconstructs`` holds only where ``reconstructs`` does."""
    return rows is not None and not rows[1] and rows[2] and rows[4]


def _blocks_defect(graph, f0, v, n):
    """Why the flat factor pair (v, n) does not sit in blocks (1,2) and
    (2,1), or "" when it does."""
    if n is None:
        return "no second factor"
    for t, corner in ((v, Corner.GZ), (n, Corner.ZG)):
        if _first_outside((t,), f0, corner) is not None:
            return "%s violates the %s support pattern" % (
                _build(graph, t).render(), corner.render())
    return ""


# -- the end-to-end report -----------------------------------------------------


def morita_report(graph: Graph, t0, ring, depth=2, seed=0, eq_samples=20) -> Report:
    """The full pipeline certifying the context over a collapse instance.

    Requires the collapse preconditions (raised otherwise); transversal
    failure is reported, not raised, because it is a certified negative
    answer rather than bad input.
    """
    from . import sampling

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

    pairs = pairs_to_depth(graph, depth)
    cells = {c: [] for c in Corner}
    for p in pairs:
        cells[corner_of(p, f0)].append(p)
    for c in Corner:
        rep.add("corners", c.render(), len(cells[c]))

    if not unreachable:
        for side, targets in (("psi", cells[Corner.GG]), ("phi", pairs)):
            capped = targets[:_WITNESS_CAP]
            rep.add("witnesses", "%s-targets" % side,
                    "%d of %d" % (len(capped), len(targets)))
            # Only whether every row holds is read here; the first failing
            # target's witness report names its failed rows.
            bad = None
            for p in capped:
                if not _holds(_witness_rows(transversal, graph, _flat(p), side)):
                    w = surjectivity_witness(transversal, ring, p, side)
                    bad = "%s: %s" % (p.render(), ", ".join(w.report.failures()))
                    break
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
    rep.check("eq-ops", "identities", eq_bad is None, eq_bad or "")

    rep.add("collapse", "collapsed-graph", "%d vertices, %d edges"
            % (len(cert.collapsed.vertices), len(cert.collapsed.edges)))
    iso = pointed_groupoid_iso_check(cert, depth)
    rep.check("collapse", "groupoid-isomorphism", iso.ok,
              "" if iso.ok else ", ".join(iso.failures()))

    verdict = rep.ok
    rep.check("context", "surjective-morita-context", verdict)
    return rep
