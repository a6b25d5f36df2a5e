"""Reports pinned byte for byte against files captured from an earlier release.

Each case runs the command line with ``--format kv`` on a graph written to
disk and compares stdout with ``tests/data/<case>.kv``.  The outsplit
fixture covers ``morita-check`` over both collapse sets, two depths and
every shipped ring; ``collapse`` runs on the fixture and on two instances of
the seeded acceptance corpus, whose graphs are stored next to the reports.
A change that passes this test leaves these reports unchanged.
"""

from pathlib import Path

import pytest

from steinalg import cli
from tests.conftest import OUTSPLIT_TEXT

DATA = Path(__file__).parent / "data"

CORPUS_GRAPHS = {"corpus-1": "v1,v3", "corpus-7": "v1,v3,v4"}


def _cases():
    cases = {}
    for t0, t0_name in (("u", "u"), ("ua,ub", "ua-ub")):
        for depth in (2, 3):
            for ring, ring_name in (("z", "z"), ("q", "q"), ("zmod:4", "zmod4")):
                name = "morita-outsplit-%s-d%d-%s" % (t0_name, depth, ring_name)
                cases[name] = ("outsplit", ["morita-check", "--t0", t0, "--ring", ring,
                                            "--depth", str(depth)])
    cases["collapse-outsplit-u-d3"] = ("outsplit", ["collapse", "--t0", "u", "--depth", "3"])
    for graph, t0 in CORPUS_GRAPHS.items():
        cases["collapse-%s-d3" % graph] = (graph, ["collapse", "--t0", t0, "--depth", "3"])
    return cases


CASES = _cases()


def run_case(name, tmp_path):
    """The exit code and stdout of one case, run in-process."""
    graph, argv = CASES[name]
    text = OUTSPLIT_TEXT if graph == "outsplit" else (DATA / ("%s.graph" % graph)).read_text()
    path = tmp_path / "graph.txt"
    path.write_text(text)
    return cli.main(argv[:1] + ["--graph", str(path), "--format", "kv"] + argv[1:])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    code = run_case(name, tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / ("%s.kv" % name)).read_text()
