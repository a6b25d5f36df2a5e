"""The acceptance gate: each criterion prints one verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check is exact, and randomness is pinned by explicit seeds.
"""

import functools
import itertools
import time

from steinalg import (Corner, IntegerRing, IntegersMod, PathPair,
                      RationalRing, Transversal, add, check_ck_relations,
                      check_phi_fin_image, collapse, convolve, corner_of,
                      enumerate_paths, eq_ops_check, eval_word, evaluate, grade,
                      graded_component, indicator, indicator_as_word,
                      morita_report, oracle_convolve_at, pairs_to_depth,
                      pointed_groupoid_iso_check, serialize_graph,
                      surjectivity_witness, zero)
from steinalg import cli, sampling
from tests.conftest import (TWO_CYCLE_TEXT, probe_window, random_bisection,
                            random_transversal)

RINGS = (IntegerRing(), RationalRing(), IntegersMod(4))
FIXTURE_GRAPHS = ("loop_graph", "two_cycle", "outsplit_graph", "line_graph",
                  "rose2")


def criterion(num, label):
    """Print one verdict line per criterion, pass or fail."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                reason = str(exc).splitlines()[0][:120] if str(exc) \
                    else type(exc).__name__
                print("acceptance %d (%s): FAIL (%s)" % (num, label, reason))
                raise
            print("acceptance %d (%s): pass" % (num, label))
        return wrapper
    return deco


def adequate_depth(*elements):
    return 1 + max(f.max_path_len() for f in elements)


@criterion(1, "convolution against the pointwise oracle")
def test_criterion_1(graph_corpus):
    start = time.monotonic()
    assert len(graph_corpus) >= 20
    assert all(len(g.vertices) <= 6 and len(g.edges) <= 10
               for g in graph_corpus)
    for ring in RINGS:
        rng = sampling.rng_from_seed(101)
        for i in range(500):
            g = graph_corpus[i % len(graph_corpus)]
            f = sampling.random_element(rng, g, ring)
            h = sampling.random_element(rng, g, ring)
            prod = convolve(f, h)
            depth = adequate_depth(f, h, prod)
            for _ in range(50):
                anchor = sampling.random_pair(rng, g)
                pr = sampling.random_adequate_probe(rng, g, anchor, depth)
                assert evaluate(prod, pr) == oracle_convolve_at(f, h, pr)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, "oracle sweep took %.1fs" % elapsed


@criterion(2, "associativity and distributivity")
def test_criterion_2(graph_corpus):
    for ring in RINGS:
        rng = sampling.rng_from_seed(202)
        for i in range(200):
            g = graph_corpus[i % len(graph_corpus)]
            f = sampling.random_element(rng, g, ring)
            h = sampling.random_element(rng, g, ring)
            k = sampling.random_element(rng, g, ring)
            assert convolve(convolve(f, h), k) == convolve(f, convolve(h, k))
            assert convolve(f, add(h, k)) == add(convolve(f, h), convolve(f, k))
            assert convolve(add(f, h), k) == add(convolve(f, k), convolve(h, k))


@criterion(3, "grading by degree")
def test_criterion_3(graph_corpus):
    sums = products = 0
    rng = sampling.rng_from_seed(303)
    while sums < 200 or products < 200:
        ring = RINGS[sums % len(RINGS)]
        g = graph_corpus[sums % len(graph_corpus)]
        f = sampling.random_element(rng, g, ring)
        h = sampling.random_element(rng, g, ring)
        dec = grade(f)
        total = zero(g, ring)
        for n in dec.degrees():
            part = dec.component(n)
            assert {p.degree for p in part.terms} <= {n}
            total = add(total, part)
        assert total == f
        sums += 1
        for n in grade(f).degrees():
            for m in grade(h).degrees():
                prod = convolve(graded_component(f, n), graded_component(h, m))
                assert prod.is_zero() or grade(prod).degrees() == [n + m]
                products += 1


@criterion(4, "generator relations and word spanning")
def test_criterion_4(graph_corpus, request):
    for g in graph_corpus:
        for ring in RINGS:
            rep = check_ck_relations(g, ring)
            assert rep.ok, rep.failures()

    ring = IntegerRing()

    def groups(g, depth):
        by_source = {}
        for p in enumerate_paths(g, max_len=depth):
            by_source.setdefault(p.source_vertex, []).append(p)
        return by_source.values()

    # Exclusion-free bisections with legs <= 3, exhaustively, on every
    # corpus graph.
    for g in graph_corpus:
        for group in groups(g, 3):
            for a, b in itertools.product(group, group):
                pair = PathPair(a, b)
                assert (eval_word(g, indicator_as_word(pair), ring)
                        == indicator(pair, ring))

    # On the fixture graphs, also every subset of the one-step fan as the
    # excluded set; larger exclusion sets are sampled below, since the full
    # family is exponential in the path count.
    from steinalg import BasicBisection, Path
    for name in FIXTURE_GRAPHS:
        g = request.getfixturevalue(name)
        for group in groups(g, 3):
            for a, b in itertools.product(group, group):
                pair = PathPair(a, b)
                fan = [Path(g, (e.id,))
                       for e in g.edges_with_range(pair.source_vertex)]
                for r in range(len(fan) + 1):
                    for excl in itertools.combinations(fan, r):
                        bis = BasicBisection(pair, excl)
                        assert (eval_word(g, indicator_as_word(bis), ring)
                                == indicator(bis, ring))

    rng = sampling.rng_from_seed(404)
    for g in graph_corpus:
        for _ in range(25):
            bis = random_bisection(rng, g, max_len=3)
            assert (eval_word(g, indicator_as_word(bis), ring)
                    == indicator(bis, ring))


@criterion(5, "single-loop model")
def test_criterion_5(loop_graph):
    ring = IntegerRing()
    p = eval_word(loop_graph, "p(v)", ring)
    s = eval_word(loop_graph, "s(e)", ring)
    st = eval_word(loop_graph, "st(e)", ring)
    assert convolve(st, s) == p
    assert convolve(s, st) == p

    q = add(s, st)
    sq = convolve(q, q)
    expansion = add(add(convolve(s, s), convolve(s, st)),
                    add(convolve(st, s), convolve(st, st)))
    assert sq == expansion

    dec = grade(sq)
    expected = {-2: "1 * Z(v,e.e)", 0: "2 * Z(v,v)", 2: "1 * Z(e.e,v)"}
    assert dec.degrees() == sorted(expected)
    for n, text in expected.items():
        assert dec.component(n).render() == text

    # Pointwise cross-check on every probe deep enough to pin the answer.
    probes = [pr for pr in probe_window(loop_graph, 3)
              if max(len(pr.mu_full), len(pr.nu_full)) >= 3]
    assert probes
    for pr in probes:
        want = oracle_convolve_at(q, q, pr)
        assert evaluate(sq, pr) == want
        for n in dec.degrees():
            part = evaluate(dec.component(n), pr)
            assert part == (want if n == pr.degree else ring.zero())


@criterion(6, "collapse certification")
def test_criterion_6(collapse_specs, two_cycle):
    assert len(collapse_specs) >= 20
    for spec in collapse_specs:
        cert = collapse(spec)
        img = check_phi_fin_image(cert, max_len=5)
        assert img.ok, img.failures()
        iso = pointed_groupoid_iso_check(cert, depth=3)
        assert iso.ok, iso.failures()

    from steinalg import CollapseSpec
    cert = collapse(CollapseSpec(two_cycle, ["w"]))
    assert serialize_graph(cert.collapsed) == "vertices: v\nedge: e1.e2 v <- v\n"
    assert check_phi_fin_image(cert, max_len=5).ok
    iso = pointed_groupoid_iso_check(cert, depth=3)
    assert iso.ok, iso.failures()
    # The budget is not hit here, so multiplicativity ran on every in-range
    # combination at the full window depth.
    assert iso.value("multiplicative", "legs-depth") == "3"


@criterion(7, "surjectivity witnesses and context identities")
def test_criterion_7(graph_corpus):
    ring = IntegerRing()
    rng = sampling.rng_from_seed(707)
    transversals = []
    psi_count = phi_count = 0
    for g in graph_corpus:
        f0 = random_transversal(rng, g)
        transversals.append((g, f0))
        t = Transversal(g, f0)
        for pair in pairs_to_depth(g, 2):
            w = surjectivity_witness(t, ring, pair, "phi")
            assert w.ok, (pair.render(), w.report.failures())
            phi_count += 1
            if corner_of(pair, f0) == Corner.GG:
                w = surjectivity_witness(t, ring, pair, "psi")
                assert w.ok, (pair.render(), w.report.failures())
                psi_count += 1
    assert psi_count > 0 and phi_count > 0

    for ring in RINGS:
        rng = sampling.rng_from_seed(717)
        for i in range(200):
            g, f0 = transversals[i % len(transversals)]
            t = Transversal(g, f0)
            m1, m2 = (sampling.random_corner_element(rng, g, ring, f0, Corner.GZ)
                      for _ in range(2))
            n1, n2 = (sampling.random_corner_element(rng, g, ring, f0, Corner.ZG)
                      for _ in range(2))
            assert eq_ops_check(t, m1, m2, n1, n2)


@criterion(8, "full pipeline on the fixture instances")
def test_criterion_8(two_cycle, outsplit_graph):
    instances = ((two_cycle, ("w",)), (outsplit_graph, ("u",)),
                 (outsplit_graph, ("ua", "ub")))
    for g, t0 in instances:
        for ring in RINGS:
            rep = morita_report(g, t0, ring, depth=2, seed=8)
            assert rep.ok, (t0, ring.name, rep.failures())


@criterion(9, "seeded determinism")
def test_criterion_9(two_cycle, tmp_path, capsys):
    one = morita_report(two_cycle, ["w"], IntegersMod(4), depth=2, seed=9)
    two = morita_report(two_cycle, ["w"], IntegersMod(4), depth=2, seed=9)
    assert one.render_text() == two.render_text()
    assert one.render_kv() == two.render_kv()

    path = tmp_path / "graph.txt"
    path.write_text(TWO_CYCLE_TEXT)
    for argv in (
        ["morita-check", "--graph", str(path), "--t0", "w", "--ring", "zmod:4",
         "--depth", "2", "--seed", "9"],
        ["collapse", "--graph", str(path), "--t0", "w", "--format", "kv"],
    ):
        code_a = cli.main(argv)
        out_a = capsys.readouterr()
        code_b = cli.main(argv)
        out_b = capsys.readouterr()
        assert code_a == code_b == 0
        assert out_a == out_b
