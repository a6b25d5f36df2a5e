"""Shared fixtures: the named small graphs, the shipped rings, and the
seeded corpora the randomized tests draw from."""

import pytest

from steinalg import Graph, IntegerRing, IntegersMod, RationalRing, load_graph
from steinalg import sampling

LOOP_TEXT = "vertices: v\nedge: e v <- v\n"
TWO_CYCLE_TEXT = "vertices: v, w\nedge: e1 v <- w\nedge: e2 w <- v\n"
OUTSPLIT_TEXT = ("vertices: u, ua, ub\n"
                 "edge: ra ua <- u\nedge: rb ub <- u\n"
                 "edge: sa u <- ua\nedge: sb u <- ub\n")
LINE_TEXT = "vertices: a, b, c\nedge: f1 a <- b\nedge: f2 b <- c\n"
ROSE2_TEXT = "vertices: v\nedge: a v <- v\nedge: b v <- v\n"


def long_line(n):
    """Vertices x0 <- x1 <- ... <- x(n-1); only x(n-1) is a source."""
    vertices = ["x%d" % i for i in range(n)]
    edges = [("f%d" % i, vertices[i], vertices[i + 1]) for i in range(n - 1)]
    return Graph(vertices, edges)


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
