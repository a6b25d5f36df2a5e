"""Matrix calculus over a retained vertex set, with surjectivity witnesses.

Fix a set of retained vertices meeting every orbit of the path groupoid.
A ``Transversal`` tests this by reverse reachability: when its
``unreachable`` vertices are empty the set meets every orbit.  The test is
sufficient, not necessary: on ``vertices: v, u`` with ``edge: e v <- u``
and u retained, v has no path into the retained set, yet its one boundary
path e lies in the orbit of the unit at u.  Basic pairs then sort into a
2x2 block pattern by whether the range vertices of the two legs are
retained, and a ``LinkingElement`` holds one algebra element per block.
Block (1,1) constrains both legs, the off-diagonal blocks constrain one leg
each, and block (2,2) constrains nothing, so the blocks overlap as supports
even though ``corner_of`` classifies each single pair into exactly one cell.
Convolution becomes 2x2 matrix multiplication, ``psi`` and ``phi`` are the
off-diagonal products landing in the diagonal blocks, and
``surjectivity_witness`` factors any single-pair indicator through the
off-diagonal blocks, so the diagonal algebras form a surjective context.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .collapse import CollapseSpec, collapse, pointed_groupoid_iso_check
from .cylinder import PathPair, compose_pairs, invert_pair, pairs_to_depth
from .graph import Graph, Path, VertexSubset, concat, vertex_path
from .report import Report
from .steinberg import SteinbergElement, add, convolve, indicator, zero

_WITNESS_CAP = 200


class CornerSupportError(ValueError):
    """An element or pair fails its block's support pattern."""


class LinkingInvariantError(RuntimeError):
    """A matrix product left its block pattern; indicates an internal bug."""


class Corner(enum.Enum):
    GG = "GG"   # both range vertices retained
    GZ = "GZ"   # first leg retained only
    ZG = "ZG"   # second leg retained only
    HH = "HH"   # neither retained

    def render(self):
        return self.value


# Cell lookup by (first leg retained?, second leg retained?); the same flags
# read as block support requirements: True means that leg must be retained.
_CELLS = {(True, True): Corner.GG, (True, False): Corner.GZ,
          (False, True): Corner.ZG, (False, False): Corner.HH}
_REQUIRES = {c: flags for flags, c in _CELLS.items()}


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
    return _CELLS[(p.mu.range_vertex in f0, p.nu.range_vertex in f0)]


def pair_supported_in(p: PathPair, f0, corner: Corner) -> bool:
    row_req, col_req = _REQUIRES[corner]
    return ((not row_req or p.mu.range_vertex in f0)
            and (not col_req or p.nu.range_vertex in f0))


def element_supported_in(f: SteinbergElement, f0, corner: Corner) -> bool:
    return all(pair_supported_in(p, f0, corner) for p in f.terms)


def _require_support(f: SteinbergElement, f0, corner: Corner, role):
    for p in f.terms:
        if not pair_supported_in(p, f0, corner):
            raise CornerSupportError(
                "%s term %s violates the %s support pattern"
                % (role, p.render(), corner.render()))


# -- the 2x2 matrix algebra --------------------------------------------------


_BLOCK_CORNERS = {"f11": Corner.GG, "f12": Corner.GZ,
                  "f21": Corner.ZG, "f22": Corner.HH}


class LinkingElement:
    """Four block-supported algebra elements forming one matrix element."""

    __slots__ = ("transversal", "ring", "f11", "f12", "f21", "f22")

    def __init__(self, transversal, ring, f11=None, f12=None, f21=None, f22=None):
        g, f0 = transversal.graph, transversal.f0
        for name, f in (("f11", f11), ("f12", f12), ("f21", f21), ("f22", f22)):
            if f is None:
                f = zero(g, ring)
            elif f.graph is not g or f.ring != ring:
                raise ValueError("block %s lives on a different graph or ring" % name)
            _require_support(f, f0, _BLOCK_CORNERS[name], "block %s" % name)
            object.__setattr__(self, name, f)
        object.__setattr__(self, "transversal", transversal)
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("LinkingElement is immutable")

    def blocks(self):
        return (self.f11, self.f12, self.f21, self.f22)

    def is_zero(self):
        return all(f.is_zero() for f in self.blocks())

    def __eq__(self, other):
        if not isinstance(other, LinkingElement):
            return NotImplemented
        return (self.transversal == other.transversal and self.ring == other.ring
                and self.blocks() == other.blocks())

    def __hash__(self):
        return hash((self.transversal, self.ring, self.blocks()))

    def render(self):
        return "[[%s | %s] [%s | %s]]" % tuple(f.render() for f in self.blocks())

    def __repr__(self):
        return self.render()


def embed(transversal, f: SteinbergElement, which: Corner) -> LinkingElement:
    """Place a diagonal-block element into the matrix algebra."""
    if which == Corner.GG:
        return LinkingElement(transversal, f.ring, f11=f)
    if which == Corner.HH:
        return LinkingElement(transversal, f.ring, f22=f)
    raise CornerSupportError("embed targets a diagonal block, not %s" % which.render())


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
    multiplies v * n and the phi side n * v.
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
    """
    if side not in ("psi", "phi"):
        raise ValueError("side must be 'psi' or 'phi'")
    f0 = transversal.f0
    rep = Report("surjectivity witness (%s side)" % side)
    rep.add("target", "pair", pair.render())
    rep.add("target", "cell", corner_of(pair, f0).render())
    if side == "psi":
        if not rep.check("target", "supported", corner_of(pair, f0) == Corner.GG,
                         "psi targets need both legs retained"):
            return MoritaWitness(side, pair, (), rep)
        v = PathPair(pair.mu, pair.mu)
        n = compose_pairs(invert_pair(v), pair)
    else:
        conn = transversal._connectors.get(pair.source_vertex)
        if not rep.check("target", "connector-exists", conn is not None,
                         "vertex %s cannot reach the retained set"
                         % pair.source_vertex):
            return MoritaWitness(side, pair, (), rep)
        rep.add("target", "connector", conn.render())
        v = PathPair(conn, pair.nu)
        n = compose_pairs(pair, invert_pair(v))

    rep.check("factors", "piece-1-blocks",
              pair_supported_in(v, f0, Corner.GZ)
              and pair_supported_in(n, f0, Corner.ZG))
    rep.check("factors", "pieces-disjoint", "vacuous", "single piece")

    # The unit set of the (1,2) factor is the matching unit set of the
    # target: range units on the psi side, source units on the phi side.
    v_ind, v_inv, n_ind = (indicator(v, ring), indicator(invert_pair(v), ring),
                           indicator(n, ring))
    target = indicator(pair, ring)
    if side == "psi":
        unit, direct = convolve(v_ind, v_inv), convolve(v_ind, n_ind)
        unit_target = PathPair(pair.mu, pair.mu)
    else:
        unit, direct = convolve(v_inv, v_ind), convolve(n_ind, v_ind)
        unit_target = PathPair(pair.nu, pair.nu)
    rep.check("verification", "unit-cover", unit == indicator(unit_target, ring))
    rep.check("verification", "reconstructs", direct == target)

    mv = LinkingElement(transversal, ring, f12=v_ind)
    mn = LinkingElement(transversal, ring, f21=n_ind)
    prod = linking_convolve(mv, mn) if side == "psi" else linking_convolve(mn, mv)
    want = embed(transversal, target, Corner.GG if side == "psi" else Corner.HH)
    rep.check("verification", "matrix-reconstructs", prod == want)
    return MoritaWitness(side, pair, ((v, n),), rep)


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
    cells = {c: 0 for c in Corner}
    for p in pairs:
        cells[corner_of(p, f0)] += 1
    for c in Corner:
        rep.add("corners", c.render(), cells[c])

    if not unreachable:
        for side in ("psi", "phi"):
            targets = [p for p in pairs
                       if side == "phi" or corner_of(p, f0) == Corner.GG]
            capped = targets[:_WITNESS_CAP]
            rep.add("witnesses", "%s-targets" % side,
                    "%d of %d" % (len(capped), len(targets)))
            bad = None
            for p in capped:
                w = surjectivity_witness(transversal, ring, p, side)
                if not w.ok:
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
