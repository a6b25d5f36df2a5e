"""Reports pinned byte for byte against files captured from an earlier release.

Each case runs the command line with ``--format kv`` on a graph written to
disk and compares stdout with ``tests/data/<case>.kv``.  The outsplit
fixture covers ``morita-check`` over both collapse sets, two depths and
every shipped ring; ``collapse`` runs on the fixture and on two instances of
the seeded acceptance corpus, whose graphs are stored next to the reports.
Both commands also run on the fixture at depth 5, where the collapse
check's probe cap and its legs-depth back-off bind, and ``morita-check``
runs over both collapse sets at depths 4 and 5 in every shipped ring.
``grade`` and ``mul`` run on rose words whose terms lie several levels apart
(depth gaps 6 and 10 on the 2-rose, 5 on the 3-rose) and on one mixed-degree
word with scalars of both signs, in every shipped ring: they pin the
canonical form of elements with nested terms.  ``relations`` runs on the
2-rose and on the fixture in every shipped ring.  ``validate`` runs on two
generated graphs of 1,000 and 4,000 edges, in both report formats, and with
a collapse set on a corpus graph.  A change that passes this test leaves
these reports unchanged.
"""

from pathlib import Path

import pytest

from steinalg import cli
from tests.conftest import OUTSPLIT_TEXT, ROSE2_TEXT, random_graph_text

DATA = Path(__file__).parent / "data"

CORPUS_GRAPHS = {"corpus-1": "v1,v3", "corpus-7": "v1,v3,v4"}
# Sizes of the generated graphs ``validate`` runs on; each is its own seed.
RANDOM_GRAPH_EDGES = (1000, 4000)
GRAPH_TEXTS = {"outsplit": OUTSPLIT_TEXT, "rose2": ROSE2_TEXT,
               "rose3": ROSE2_TEXT + "edge: c v <- v\n",
               **{"random-%d" % n: random_graph_text(n, n) for n in RANDOM_GRAPH_EDGES}}
RINGS = (("z", "z"), ("q", "q"), ("zmod:4", "zmod4"))
# (graph, name, x): grade p(v) + s(x) st(x) and multiply s(x) by st(x) + p(v).
DEEP_WORDS = (("rose2", "g6", "abbaba"), ("rose2", "g10", "aababbbaba"),
              ("rose3", "g5", "acbca"))
MIXED_WORD = ("p(v) - 2 * s(a) * s(b) * st(b) * st(a) + 3 * s(b) * s(a) * s(a)"
              " - s(a) * st(b) * st(b) * st(a) + -1 * s(b) * st(b)")


def _cases():
    cases = {}
    for t0, t0_name in (("u", "u"), ("ua,ub", "ua-ub")):
        for depth in (2, 3):
            for ring, ring_name in RINGS:
                name = "morita-outsplit-%s-d%d-%s" % (t0_name, depth, ring_name)
                cases[name] = ("outsplit", ["morita-check", "--t0", t0, "--ring", ring,
                                            "--depth", str(depth)])
    cases["collapse-outsplit-u-d3"] = ("outsplit", ["collapse", "--t0", "u", "--depth", "3"])
    # At depth 5 the probe cap and the legs-depth back-off both bind.
    cases["collapse-outsplit-u-d5"] = ("outsplit", ["collapse", "--t0", "u", "--depth", "5"])
    # Depths 4 and 5 are the benchmark's larger certify cells; at depth 5
    # the phi window has 833 targets.  With depths 2 and 3 above, every
    # (t0, depth, ring) cell the benchmark runs is pinned.
    for t0, t0_name in (("u", "u"), ("ua,ub", "ua-ub")):
        for depth in (4, 5):
            for ring, ring_name in RINGS:
                cases["morita-outsplit-%s-d%d-%s" % (t0_name, depth, ring_name)] = (
                    "outsplit", ["morita-check", "--t0", t0, "--ring", ring,
                                 "--depth", str(depth)])
    for graph, t0 in CORPUS_GRAPHS.items():
        cases["collapse-%s-d3" % graph] = (graph, ["collapse", "--t0", t0, "--depth", "3"])
    for ring, ring_name in RINGS:
        for graph, gap, x in DEEP_WORDS:
            up = " * ".join("s(%s)" % a for a in x)
            down = " * ".join("st(%s)" % a for a in reversed(x))
            cases["grade-%s-%s-%s" % (graph, gap, ring_name)] = (
                graph, ["grade", "--ring", ring, "p(v) + %s * %s" % (up, down)])
            cases["mul-%s-%s-%s" % (graph, gap, ring_name)] = (
                graph, ["mul", "--ring", ring, up, down + " + p(v)"])
        cases["grade-rose2-mixed-%s" % ring_name] = (
            "rose2", ["grade", "--ring", ring, MIXED_WORD])
        cases["mul-rose2-mixed-%s" % ring_name] = (
            "rose2", ["mul", "--ring", ring, MIXED_WORD, "s(b) * st(a) - 2 * p(v)"])
        for graph in ("rose2", "outsplit"):
            cases["relations-%s-%s" % (graph, ring_name)] = (
                graph, ["relations", "--ring", ring])
    for n in RANDOM_GRAPH_EDGES:
        for fmt in ("kv", "text"):
            cases["validate-random-%d-%s" % (n, fmt)] = (
                "random-%d" % n, ["validate", "--format", fmt])
    cases["validate-corpus-7"] = ("corpus-7", ["validate", "--t0", CORPUS_GRAPHS["corpus-7"]])
    return cases


CASES = _cases()


def run_case(name, tmp_path):
    """The exit code and stdout of one case, run in-process; a case's own
    ``--format`` comes after the default kv and wins."""
    graph, argv = CASES[name]
    text = GRAPH_TEXTS.get(graph) or (DATA / ("%s.graph" % graph)).read_text()
    path = tmp_path / "graph.txt"
    path.write_text(text)
    return cli.main(argv[:1] + ["--graph", str(path), "--format", "kv"] + argv[1:])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    code = run_case(name, tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / ("%s.kv" % name)).read_text()
