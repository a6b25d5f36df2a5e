"""Shared fixtures: the named small graphs, the shipped rings, and the
seeded corpora the randomized tests draw from; the ring axioms each ring is
checked against; the brute-force canonical form the canonical-form tests
compare against; the pair rules on Path objects that the flat pair kernel
is compared against, and the kernel's minimal pair and the path map on
Path and PathPair objects; the path map's image check on Path objects; the
range leg index that records its trie walks and the composites of its
plans, and the plan walk that step (d)'s key verdict is compared against;
probe membership and probe windows, the set semantics the pair operations
are compared against; the relaxation that least connectors are compared
against; the block rule on single pairs and the diagonal embedding; the
element-level surjectivity witness that the pair-level one is compared
against, and the per-target witness loop that the report's per-vertex one
is compared against; the Path walks that the flat samplers are compared
against; the element-level word evaluator that the run rule of
``eval_word`` is compared against; the line-by-line graph file reader that
the loader's errors are compared against, and the large generated graph
texts; and the random bisections and transversals the tests draw; and the
API helpers only tests read: the vertex path, the inverse of a pair, and
the collapsed preimage that step (c)'s flat split is compared against."""

import random

import pytest

from steinalg import (BasicBisection, Corner, CornerSupportError, Graph,
                      GroupoidProbe, InputError, IntegerRing, IntegersMod,
                      LinkingElement, MoritaWitness, Path, PathPair,
                      RationalRing, Report, Transversal, VertexSubset, add,
                      as_bisection, boundary_tails, compose_pairs, concat,
                      convolve, corner_of, enumerate_paths, expand, from_terms,
                      generator, indicator, is_prefix,
                      linking_convolve, load_graph, negate, pairs_to_depth,
                      parse_word, scale, strip_prefix, surjectivity_witness,
                      zero)
from steinalg import sampling
from steinalg.collapse import _check_well_formed, _leg_image
from steinalg.cylinder import _build, _flat, _minimal, _RangeLegIndex
from steinalg.graph import _path
from steinalg.morita import _holds, _witness_rows
from steinalg.leavitt import (ProductWord, SumWord, SymbolWord, _scalar_value,
                              _strip_negations)

LOOP_TEXT = "vertices: v\nedge: e v <- v\n"
TWO_CYCLE_TEXT = "vertices: v, w\nedge: e1 v <- w\nedge: e2 w <- v\n"
OUTSPLIT_TEXT = ("vertices: u, ua, ub\n"
                 "edge: ra ua <- u\nedge: rb ub <- u\n"
                 "edge: sa u <- ua\nedge: sb u <- ub\n")
LINE_TEXT = "vertices: a, b, c\nedge: f1 a <- b\nedge: f2 b <- c\n"
ROSE2_TEXT = "vertices: v\nedge: a v <- v\nedge: b v <- v\n"


def random_graph_text(seed, n_edges, edges_per_vertex=8):
    """A graph of n_edges random edges over n_edges / 8 vertices, drawn the
    way the benchmark's parse-deep workload draws its validate inputs."""
    rng = random.Random(seed)
    vertices = ["v%d" % i for i in range(max(1, n_edges // edges_per_vertex))]
    lines = ["vertices: " + ", ".join(vertices)]
    lines += ["edge: e%d %s <- %s" % (i, rng.choice(vertices), rng.choice(vertices))
              for i in range(n_edges)]
    return "\n".join(lines) + "\n"


def reference_graph_file_error(data):
    """The error a graph file of these bytes must be rejected with, as
    (message, line number or None), or None for a valid graph.  The lines
    are read one at a time, and each vertex and edge is checked as it is
    read, so the first fault in file order is the one named."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        return "graph file is not UTF-8 text: %s" % exc, None
    declared = seen = None
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        if declared is None:
            if not line.startswith("vertices:"):
                return "expected 'vertices:' declaration first", n
            declared, seen = set(), set()
            for v in line[len("vertices:"):].split(","):
                v = v.strip()
                if not v:
                    continue
                if v.split() != [v]:
                    return "bad vertex id %r" % (v,), n
                if v in declared:
                    return "duplicate vertex id %r" % (v,), n
                declared.add(v)
            continue
        if not line.startswith("edge:"):
            return "expected 'edge:' declaration", n
        fields = line[len("edge:"):].split()
        if len(fields) != 4 or fields[2] != "<-":
            return "edge syntax is 'edge: <id> <range> <- <source>'", n
        eid, rv, _, sv = fields
        if eid in seen:
            return "duplicate edge id %r" % (eid,), n
        for v in (rv, sv):
            if v not in declared:
                return "edge %r uses undeclared vertex %r" % (eid, v), n
        seen.add(eid)
    if declared is None:
        return "missing 'vertices:' declaration", None
    return None


def long_line(n):
    """Vertices x0 <- x1 <- ... <- x(n-1); only x(n-1) is a source."""
    vertices = ["x%d" % i for i in range(n)]
    edges = [("f%d" % i, vertices[i], vertices[i + 1]) for i in range(n - 1)]
    return Graph(vertices, edges)


def ring_axioms_hold(ring, rng):
    """Check the commutative-ring axioms on sampled triples; returns False
    at the first round where an axiom fails, True otherwise, so the check
    also runs under -O."""
    for _ in range(200):
        a, b, c = (ring.sample(rng) for _ in range(3))
        axioms = (
            (ring.add(a, b), ring.add(b, a)),
            (ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))),
            (ring.add(a, ring.zero()), a),
            (ring.add(a, ring.negate(a)), ring.zero()),
            (ring.mul(a, b), ring.mul(b, a)),
            (ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))),
            (ring.mul(a, ring.one()), a),
            (ring.mul(a, ring.add(b, c)),
             ring.add(ring.mul(a, b), ring.mul(a, c))),
        )
        if not all(ring.eq(lhs, rhs) for lhs, rhs in axioms):
            return False
    return True


def vertex_path(graph, v):
    """The path of length zero at v, which must be a declared vertex."""
    return Path(graph, (), v)


def invert_pair(p):
    """The pair with its legs swapped: Z(nu, mu) for Z(mu, nu)."""
    return PathPair(p.nu, p.mu)


def collapsed_preimage(cert, epath):
    """The collapsed path mapping to epath under the path map, or None: the
    ``Path`` form of the split that step (c) of the iso check decides.

    A path between retained vertices splits uniquely at its retained-vertex
    visits; each segment is looked up in the certificate's edge_of_path,
    and the validating ``Path`` constructor checks that the ids are edges
    of the collapsed graph that compose there.
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


def prefix(path, n):
    """The first n edges of a path as a path (the vertex path at its range
    for n == 0)."""
    if n == 0:
        return vertex_path(path.graph, path.range_vertex)
    return Path(path.graph, path.edges[:n])


def common_depth_terms(graph, ring, raw_terms):
    """The canonical form by brute force: expand every merged term to the
    deepest term's min depth, which makes the pieces disjoint, add up the
    pieces, then merge complete equal-coefficient fans pass after pass
    until no pass merges anything.  Exponential in the depth gap; a test
    oracle only."""
    merged = {}
    for pair, coeff in raw_terms:
        acc = merged.get(pair)
        merged[pair] = coeff if acc is None else ring.add(acc, coeff)
    merged = {p: c for p, c in merged.items() if not ring.is_zero(c)}
    if not merged:
        return {}
    depth = max(p.min_depth for p in merged)
    terms = {}
    for pair, coeff in merged.items():
        for piece in expand(pair, depth):
            acc = terms.get(piece)
            terms[piece] = coeff if acc is None else ring.add(acc, coeff)
    terms = {p: c for p, c in terms.items() if not ring.is_zero(c)}
    changed = True
    while changed:
        changed = False
        by_parent = {}
        for p in terms:
            if p.mu.edges and p.nu.edges and p.mu.edges[-1] == p.nu.edges[-1]:
                parent = PathPair(prefix(p.mu, len(p.mu) - 1), prefix(p.nu, len(p.nu) - 1))
                by_parent.setdefault(parent, []).append(p)
        for parent, kids in by_parent.items():
            coeffs = [terms[k] for k in kids]
            if (len(kids) == len(graph.edges_with_range(parent.source_vertex))
                    and all(ring.eq(coeffs[0], c) for c in coeffs[1:])):
                for k in kids:
                    del terms[k]
                terms[parent] = coeffs[0]
                changed = True
    return terms


def reference_compose_pairs(p, q):
    """Pair composition on Path objects: the remainder tau of the longer of
    p's source leg and q's range leg slides onto the other outer leg."""
    tau = strip_prefix(q.mu, p.nu)
    if tau is not None:
        return PathPair(concat(p.mu, tau), q.nu)
    tau = strip_prefix(p.nu, q.mu)
    if tau is not None:
        return PathPair(p.mu, concat(q.nu, tau))
    return None


def reference_minimal_pair(p):
    """The minimal pair on Path objects: strip the common last edge of both
    legs while it is the only edge ranging at its range vertex."""
    mu, nu = p.mu.edges, p.nu.edges
    graph = p.graph
    k, n = 0, min(len(mu), len(nu))
    while k < n:
        e = mu[-1 - k]
        if e != nu[-1 - k] or len(graph.edges_with_range(graph.edge(e).range_vertex)) != 1:
            break
        k += 1
    if not k:
        return p
    return PathPair(prefix(p.mu, len(mu) - k), prefix(p.nu, len(nu) - k))


def minimal_pair(p):
    """The flat kernel's minimal pair (``cylinder._minimal``) on a
    PathPair; p itself when no edge is stripped."""
    t = _flat(p)
    m = _minimal(p.graph, t)
    return p if m is t else _build(p.graph, m)


def phi_fin(cert, fpath):
    """The path map: expand each collapsed edge to the path it abbreviates.
    Trusts the certificate to be well formed, as the checks establish."""
    if not fpath.edges:
        return vertex_path(cert.original, fpath.vertex)
    return _path(cert.original, *_leg_image(cert.edge_paths, fpath.edges))


def path_map_image_report(cert, max_len):
    """``check_phi_fin_image`` on ``Path`` objects, as it was before both
    sides went flat: every path of each graph is enumerated, every
    collapsed path mapped by ``phi_fin``, and the sets compared as paths."""
    rep = Report("path map image")
    if not _check_well_formed(cert, rep):
        return rep
    g, f0 = cert.original, cert.f0
    target = set(p for p in enumerate_paths(g, max_len=max_len)
                 if p.range_vertex in f0 and p.source_vertex in f0)
    images = []
    for p in enumerate_paths(cert.collapsed, max_len=max_len):
        q = phi_fin(cert, p)
        if len(q) <= max_len:
            images.append(q)
    rep.add("window", "max-len", max_len)
    rep.add("window", "collapsed-paths", len(images))
    rep.add("window", "target-paths", len(target))
    rep.check("bijection", "injective", len(images) == len(set(images)))
    missing = sorted(target - set(images), key=Path.sort_key)
    rep.check("bijection", "covers-window", not missing,
              "" if not missing else "first missing %s" % missing[0].render())
    rep.check("bijection", "lands-in-window", True)
    return rep


def phi_pair(cert, pair):
    """The path map of a collapse certificate on both legs of a pair."""
    return PathPair(phi_fin(cert, pair.mu), phi_fin(cert, pair.nu))


def partners(index, p):
    """The positions, ascending, of the pairs filed in the range leg index
    that compose with the flat pair p: the positions in its plan."""
    return [entry[0] for entry in index.plan(p)]


def plan_composites(p, plan):
    """The composites of the flat pair p that the entries of
    ``_RangeLegIndex.plan(p)`` stand for, in plan order."""
    return [(p[0] + suffix, leg, source, p[3], leg_range)
            for _, suffix, leg, source, leg_range in plan]


def plan_walk_key_verdict(left, right, transport, sole):
    """Step (d)'s verdict on a plan key from its two plans, walked entry by
    entry: None when the key is not clean, else the last edges (as
    1-tuples) through which an entry with an empty suffix strips.  A key is
    clean when the plans have equal length, each entry of the left plan,
    transported, equals the right plan's entry, and no entry with a
    nonempty suffix has both legs end in one edge of sole, the edges that
    are the only edge into their range vertex."""
    if len(left) != len(right):
        return None
    strips = set()
    for (j, suffix, leg, source, leg_range), y in zip(left, right):
        if (j, source, leg_range) != (y[0], y[3], y[4]) or (
                transport((suffix, leg, None, None, None))[:2] != y[1:3]):
            return None
        if sole and leg and leg[-1] in sole:
            if not suffix:
                strips.add(leg[-1:])
            elif suffix[-1] == leg[-1]:
                return None
    return strips


class _CountedRoots(dict):
    """A trie's roots that log the lookup each walk starts with."""

    def __init__(self, roots, walks):
        super().__init__(roots)
        self.walks = walks

    def get(self, key, default=None):
        self.walks.append(key)
        return super().get(key, default)


def recording_range_leg_index(walks, composites):
    """A ``_RangeLegIndex`` class to put in place of the real one: every
    trie walk of an instance appends its range vertex to walks, and each
    instance appends to composites one list, which collects the composites
    of every plan the instance hands out."""

    class RecordingRangeLegIndex(_RangeLegIndex):
        def __init__(self, pairs):
            super().__init__(pairs)
            self._roots = _CountedRoots(self._roots, walks)
            self.formed = []
            composites.append(self.formed)

        def plan(self, p):
            entries = super().plan(p)
            self.formed += plan_composites(p, entries)
            return entries

    return RecordingRangeLegIndex


def member(b, probe):
    """Probe membership in a pair or bisection: the pair matches with a
    shared tail, the degree agrees, and no excluded path is a prefix of the
    tail."""
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


def probes_in(b, depth):
    """The probes of Z((mu,nu) \\ F) whose shared tail has the given depth."""
    b = as_bisection(b)
    out = []
    for w in boundary_tails(b.graph, b.pair.source_vertex, depth):
        probe = GroupoidProbe(concat(b.pair.mu, w), concat(b.pair.nu, w))
        if member(b, probe):
            out.append(probe)
    return out


def probe_window(g, max_len):
    """Every probe with truncations of length <= max_len, in the order of
    the pair window: the probe (mu, |mu| - |nu|, nu) for each pair Z(mu, nu)."""
    return [GroupoidProbe(p.mu, p.nu) for p in pairs_to_depth(g, max_len)]


def relaxed_connectors(graph, f0):
    """The least connectors by relaxation: extend each connector found so
    far by every edge ranging at its source, and keep the least candidate
    per vertex (shortest, then lexicographic), until nothing improves."""
    best = {v: vertex_path(graph, v) for v in f0}

    def key(p):
        return (len(p), p.sort_key())

    changed = True
    while changed:
        changed = False
        for e in graph.edges:
            upstream = best.get(e.range_vertex)
            if upstream is None or len(upstream) >= len(graph.vertices):
                continue
            cand = concat(upstream, Path(graph, (e.id,)))
            cur = best.get(e.source_vertex)
            if cur is None or key(cand) < key(cur):
                best[e.source_vertex] = cand
                changed = True
    return {v: best.get(v) for v in graph.vertices}


def pair_supported_in(p, f0, corner):
    """Whether the pair meets the corner's support rule: each leg the rule
    constrains ranges in the retained set f0."""
    row_req, col_req = corner.value
    return ((not row_req or p.mu.range_vertex in f0)
            and (not col_req or p.nu.range_vertex in f0))


def embed(transversal, f, which):
    """Place a diagonal-block element into the matrix algebra."""
    if which not in (Corner.GG, Corner.HH):
        raise CornerSupportError("embed targets a diagonal block, not %s" % which.render())
    block = "f11" if which is Corner.GG else "f22"
    return LinkingElement(transversal, f.ring, **{block: f})


def element_level_surjectivity_witness(transversal, ring, pair, side):
    """``surjectivity_witness`` as it was when every row compared canonical
    elements: the oracle for the pair-level rows.

    Each row builds the indicators of the factors and of the target,
    convolves them, and compares canonical forms; the matrix row multiplies
    two ``LinkingElement``s, whose constructors raise ``CornerSupportError``
    when a factor leaves its block, so ``piece-1-blocks`` is recorded as a
    pass.  A check's detail is shown only when the check fails.
    """
    if side not in ("psi", "phi"):
        raise ValueError("side must be 'psi' or 'phi'")
    f0 = transversal.f0
    rep = Report("surjectivity witness (%s side)" % side)
    rep.add("target", "pair", pair.render())
    cell = corner_of(pair, f0)
    rep.add("target", "cell", cell.render())
    if side == "psi":
        ok = cell == Corner.GG
        if not rep.check("target", "supported", ok,
                         "" if ok else "psi targets need both legs retained"):
            return MoritaWitness(side, pair, (), rep)
        v = PathPair(pair.mu, pair.mu)
        n = compose_pairs(invert_pair(v), pair)
    else:
        conn = transversal._connectors.get(pair.source_vertex)
        if not rep.check("target", "connector-exists", conn is not None,
                         "" if conn is not None else
                         "vertex %s cannot reach the retained set"
                         % pair.source_vertex):
            return MoritaWitness(side, pair, (), rep)
        rep.add("target", "connector", conn.render())
        v = PathPair(conn, pair.nu)
        n = compose_pairs(pair, invert_pair(v))
    rep.check("factors", "piece-1-blocks", True)
    rep.check("factors", "pieces-disjoint", "vacuous", "single piece")

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


def per_target_witness_rows(transversal, ring, depth):
    """The ``witnesses`` rows of ``morita_report`` (transversal met) as they
    were when every target was decided: each side lists its targets with
    ``pairs_to_depth``, flattens each with ``_flat`` and decides its rows
    with ``_witness_rows``, and the first failing target's witness report
    names the failed rows."""
    graph, f0 = transversal.graph, transversal.f0
    window = pairs_to_depth(graph, depth)
    rows = []
    for side in ("psi", "phi"):
        targets = [p for p in window if side == "phi" or corner_of(p, f0) is Corner.GG]
        rows.append(("%s-targets" % side, "%d of %d" % (len(targets), len(targets))))
        bad = None
        for p in targets:
            if not _holds(_witness_rows(transversal, graph, _flat(p), side)):
                w = surjectivity_witness(transversal, ring, p, side)
                bad = "%s: %s" % (p.render(), ", ".join(w.report.failures()))
                break
        rows.append(("%s-verified" % side, "pass" if bad is None else "fail (%s)" % bad))
    return rows


def forward_walk(rng, g, start, max_len):
    """A random path ranging at start, extended at the source end: the
    ``Path`` walk the flat sampler is compared against."""
    p = vertex_path(g, start)
    for _ in range(rng.randint(0, max_len)):
        es = g.edges_with_range(p.source_vertex)
        if not es:
            break
        p = Path(g, p.edges + (rng.choice(es).id,))
    return p


def backward_walk(rng, g, end, max_len):
    """A random path with source end, extended at the range end."""
    p = vertex_path(g, end)
    for _ in range(rng.randint(0, max_len)):
        es = g.edges_with_source(p.range_vertex)
        if not es:
            break
        p = Path(g, (rng.choice(es).id,) + p.edges)
    return p


def path_walk_pair(rng, g, max_len=2, row_in=None, col_in=None):
    """``sampling.random_pair`` on ``Path`` walks, as it was before the
    sampler went flat: the same draws in the same order."""
    for name, allowed in (("row_in", row_in), ("col_in", col_in)):
        if allowed is not None and not tuple(allowed):
            raise ValueError("%s is empty: no leg can range there" % name)
    for _ in range(40):
        roots = tuple(row_in) if row_in is not None else g.vertices
        mu = forward_walk(rng, g, rng.choice(roots), max_len)
        nu = None
        for _ in range(20):
            cand = backward_walk(rng, g, mu.source_vertex, max_len)
            if col_in is None or cand.range_vertex in col_in:
                nu = cand
                break
        if nu is not None:
            return PathPair(mu, nu)
    units = [v for v in row_in or col_in or g.vertices if col_in is None or v in col_in]
    if not units:
        raise ValueError("no pair was drawn with its legs ranging in row_in "
                         "and col_in, and they share no vertex for a unit pair")
    unit = vertex_path(g, units[0])
    return PathPair(unit, unit)


def path_walk_element(rng, g, ring, max_terms=3, max_len=2):
    """``sampling.random_element`` on ``Path`` walks and ``from_terms``."""
    terms = [(path_walk_pair(rng, g, max_len), ring.sample(rng))
             for _ in range(rng.randint(0, max_terms))]
    return from_terms(g, ring, terms)


def path_walk_corner_element(rng, g, ring, f0, corner, max_terms=2, max_len=2):
    """``sampling.random_corner_element`` on ``Path`` walks and ``from_terms``."""
    row_req, col_req = corner.value
    if (row_req or col_req) and not tuple(f0):
        return zero(g, ring)
    row_in = f0 if row_req else None
    col_in = f0 if col_req else None
    terms = [(path_walk_pair(rng, g, max_len, row_in, col_in), ring.sample(rng))
             for _ in range(rng.randint(0, max_terms))]
    return from_terms(g, ring, terms)


def element_level_eval_word(graph, word, ring):
    """``eval_word`` as a left fold of generators and convolutions: every
    symbol is its generator's element, every factor is convolved onto the
    product so far, and scalar factors scale the product at the end.  The
    oracle for the run rule, which composes runs of symbols as pairs."""
    if isinstance(word, str):
        word = parse_word(word)
    if _scalar_value(word) is not None:
        raise InputError("a bare scalar is not an algebra element; multiply it by a symbol")
    word, odd = _strip_negations(word)
    if isinstance(word, SymbolWord):
        element = generator(graph, word, ring)
    elif isinstance(word, SumWord):
        element = zero(graph, ring)
        for t in word.terms:
            element = add(element, element_level_eval_word(graph, t, ring))
    elif isinstance(word, ProductWord):
        scalar = 1
        element = None
        for f in word.factors:
            v = _scalar_value(f)
            if v is not None:
                scalar *= v
                continue
            part = element_level_eval_word(graph, f, ring)
            element = part if element is None else convolve(element, part)
        if scalar != 1:
            element = scale(ring.from_int(scalar), element)
    else:
        raise TypeError("not a word: %r" % (word,))
    return negate(element) if odd else element


def random_bisection(rng, g, max_len=2, max_excluded=2):
    """A random pair minus up to max_excluded random continuations."""
    pair = sampling.random_pair(rng, g, max_len)
    excluded = []
    for _ in range(rng.randint(0, max_excluded)):
        alpha = forward_walk(rng, g, pair.source_vertex, max_len)
        if len(alpha) == 0:
            es = g.edges_with_range(pair.source_vertex)
            if not es:
                break
            alpha = Path(g, (rng.choice(es).id,))
        excluded.append(alpha)
    return BasicBisection(pair, excluded)


def random_transversal(rng, g):
    """A retained vertex set that every vertex can reach; the full vertex
    set is the always-valid fallback."""
    for _ in range(20):
        k = rng.randint(1, len(g.vertices))
        t = Transversal(g, rng.sample(g.vertices, k))
        if not t.unreachable:
            return t.f0
    return VertexSubset(g, g.vertices)


def sweep_graph(rng):
    """A random graph plus a source s (it receives no edge) and a vertex t
    whose whole fan is one edge, both wired into the random part."""
    g = sampling.random_graph(rng, max_vertices=3, max_edges=4)
    vs = list(g.vertices)
    edges = [(e.id, e.range_vertex, e.source_vertex) for e in g.edges]
    edges += [("fs", rng.choice(vs), "s"), ("ft", "t", rng.choice(vs)),
              ("fo", rng.choice(vs), "t")]
    return Graph(vs + ["s", "t"], edges)



@pytest.fixture
def loop_graph():
    """One vertex, one loop."""
    return load_graph(LOOP_TEXT)


@pytest.fixture
def two_cycle():
    """Two vertices on a 2-cycle; collapsing w leaves a single loop."""
    return load_graph(TWO_CYCLE_TEXT)


@pytest.fixture
def outsplit_graph():
    """The intermediate graph between a 2-rose and its outsplit form:
    collapsing u gives the complete graph on two vertices, collapsing
    {ua, ub} gives the 2-rose."""
    return load_graph(OUTSPLIT_TEXT)


@pytest.fixture
def line_graph():
    """A 2-edge line; c receives nothing, so paths terminate there."""
    return load_graph(LINE_TEXT)


@pytest.fixture
def rose2():
    """One vertex, two loops."""
    return load_graph(ROSE2_TEXT)


@pytest.fixture
def zring():
    return IntegerRing()


@pytest.fixture
def qring():
    return RationalRing()


@pytest.fixture
def z4():
    return IntegersMod(4)


@pytest.fixture
def all_rings(zring, qring, z4):
    return (zring, qring, z4)


@pytest.fixture(scope="session")
def graph_corpus():
    return sampling.corpus_graphs(7, 20)


@pytest.fixture(scope="session")
def collapse_specs():
    return sampling.collapse_corpus(13, 20)
