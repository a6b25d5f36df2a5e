"""The benchmark's three workloads: seeded inputs, the ops that use them,
and the check each op's output must pass.

A workload is a fixed list of ops, one *round*.  The seed fills in the
content of every op (coefficients, letters, eq-ops samples, graph
edges, the order of the round) but not its shape, so every seed asks the
program for about the same amount of work and run-to-run spread stays small.

Ops call the program through module attributes (``cli.main``,
``steinberg.convolve``) so that the traced run, which patches those
attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable

from steinalg import cli, sampling, steinberg
from steinalg.graph import load_graph, serialize_graph
from steinalg.morita import pairs_to_depth
from steinalg.rings import ring_from_spec

RINGS = ("z", "q", "zmod:4")

OUTSPLIT_TEXT = ("vertices: u, ua, ub\n"
                 "edge: ra ua <- u\nedge: rb ub <- u\n"
                 "edge: sa u <- ua\nedge: sb u <- ub\n")
TWO_CYCLE_TEXT = "vertices: v, w\nedge: e1 v <- w\nedge: e2 w <- v\n"


def rose_text(letters):
    return "vertices: v\n" + "".join("edge: %s v <- v\n" % a for a in letters)


@dataclass
class Op:
    """One unit of work: ``run`` is timed, ``check`` judges its output.
    A product op keeps the probes its oracle check evaluates."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    probes: tuple = ()


@dataclass
class Round:
    """A workload's op list in seeded order, plus the op that warms it up."""

    ops: list
    warmup: Op


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# -- CLI ops -------------------------------------------------------------------


def call_cli(argv):
    """Run ``steinalg`` in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_op(kind, argv, check):
    return Op(kind, lambda: call_cli(argv), check)


def kv_rows(text):
    """A ``--format kv`` report as {(section, key): value}; later rows win."""
    rows = {}
    section = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif " = " in line:
            key, value = line.split(" = ", 1)
            rows[(section, key)] = value
    return rows


def passing_kv(result):
    """The rows of a kv report that exited 0 and says ``ok = true``, else None."""
    code, text = result
    if code != 0:
        return None
    rows = kv_rows(text)
    return rows if rows.get(("report", "ok")) == "true" else None


class SameReport:
    """Passes a passing kv report whose bytes equal its op's first run."""

    def __init__(self):
        self.first = None

    def __call__(self, result):
        if passing_kv(result) is None:
            return False
        if self.first is None:
            self.first = result[1]
        return result[1] == self.first


def _terms(row):
    return set(row.split(" + ")) if row is not None else None


# -- certify -------------------------------------------------------------------

# The acceptance suite's collapse corpus.  It is fixed rather than drawn
# from the seed: report cost varies about 5x between corpora of one size,
# which would swamp every end-to-end figure.
COLLAPSE_CORPUS = (13, 20)


def certify(seed, size, workdir):
    """morita-check on the outsplit fixture and collapse on the corpus.

    Every (t0, depth) cell runs once per round, its ring cycling through
    RINGS by position: rings differ in cost by up to 1.5x, so a seeded ring
    would move the round's cost and its median op with the seed.  The seed
    picks each morita-check's ``--seed`` and the order of the round.  Each
    corpus instance runs once, at depth 2 or 3 by its position.
    """
    rng = random.Random(seed)
    outsplit = _write(workdir, "outsplit.txt", OUTSPLIT_TEXT)
    depths = (2, 3, 4, 5) if size == "full" else (2,)
    ops = []
    for t0 in ("u", "ua,ub"):
        for depth in depths:
            ring = RINGS[len(ops) % len(RINGS)]
            argv = ["morita-check", "--graph", outsplit, "--t0", t0,
                    "--depth", str(depth), "--ring", ring,
                    "--seed", str(rng.randrange(1000)), "--format", "kv"]
            ops.append(cli_op("morita-check", argv, SameReport()))
    corpus_seed, count = COLLAPSE_CORPUS
    specs = sampling.collapse_corpus(corpus_seed, count)
    if size != "full":
        specs = specs[:2]
    for i, spec in enumerate(specs):
        path = _write(workdir, "collapse%02d.txt" % i, serialize_graph(spec.graph))
        argv = ["collapse", "--graph", path, "--t0", ",".join(spec.t0),
                "--depth", str(2 + i % 2), "--format", "kv"]
        ops.append(cli_op("collapse", argv, SameReport()))
    warmup = cli_op("morita-check",
                    ["morita-check", "--graph", outsplit, "--t0", "u",
                     "--depth", "2", "--ring", "z", "--format", "kv"],
                    SameReport())
    rng.shuffle(ops)
    return Round(ops, warmup)


# -- dense-mul -----------------------------------------------------------------

# (name, graph text, depth of the pairs every element holds)
DENSE_GRAPHS = (("outsplit", OUTSPLIT_TEXT, 3), ("two-cycle", TWO_CYCLE_TEXT, 3),
                ("rose3", rose_text("abc"), 2), ("rose4", rose_text("abcd"), 2))
PROBES_PER_PRODUCT = 8


class SameProduct:
    """Passes a product that agreed with the oracle on every probe and
    whose terms equal the first oracle-checked run of its op."""

    def __init__(self):
        self.first = None

    def __call__(self, result):
        product, agrees = result
        if not agrees:
            return False
        if self.first is None:
            self.first = dict(product.terms)
        return product.terms == self.first


def product_op(f, h, probes):
    """convolve(f, h), then evaluate the product against the independent
    pointwise oracle at each probe."""

    def run():
        product = steinberg.convolve(f, h)
        agrees = all(steinberg.evaluate(product, probe)
                     == steinberg.oracle_convolve_at(f, h, probe)
                     for probe in probes)
        return product, agrees

    return Op("convolve", run, SameProduct(), tuple(probes))


def dense_mul(seed, size, workdir):
    """One product of two dense elements per (graph, ring).

    Each element holds every pair to the graph's depth with a nonzero
    seeded coefficient.  Probes reach one edge past twice the summed leg
    lengths of the factors, which bounds every leg of the canonical
    product, so pointwise evaluation is exact at each probe.
    """
    rng = random.Random(seed)
    graphs = DENSE_GRAPHS if size == "full" else DENSE_GRAPHS[:2]
    ops = []
    for _, text, depth in graphs:
        g = load_graph(text)
        pairs = pairs_to_depth(g, depth)
        for spec in RINGS:
            ring = ring_from_spec(spec)
            f, h = (steinberg.from_terms(g, ring, [(p, ring.sample_nonzero(rng))
                                                   for p in pairs])
                    for _ in range(2))
            reach = 1 + 2 * (f.max_path_len() + h.max_path_len())
            probes = [sampling.random_adequate_probe(
                          rng, g, sampling.random_pair(rng, g), reach)
                      for _ in range(PROBES_PER_PRODUCT)]
            ops.append(product_op(f, h, probes))
    warmup = ops[0]
    rng.shuffle(ops)
    return Round(ops, warmup)


# -- parse-deep ----------------------------------------------------------------

EDGES_PER_VERTEX = 8
# Pieces grow as (edges at v)^gap, so rose3 stops at gap 8 (about rose2's 13).
WORD_GAPS = (("rose2", "ab", (8, 9, 10, 11, 12, 13)), ("rose3", "abc", (7, 8)))


def random_graph_text(rng, n_edges):
    vertices = ["v%d" % i for i in range(max(1, n_edges // EDGES_PER_VERTEX))]
    lines = ["vertices: " + ", ".join(vertices)]
    lines += ["edge: e%d %s <- %s" % (i, rng.choice(vertices), rng.choice(vertices))
              for i in range(n_edges)]
    return "\n".join(lines) + "\n"


def validate_check(n_edges):
    def check(result):
        rows = passing_kv(result)
        return rows is not None and rows.get(("graph", "edges")) == str(n_edges)
    return check


def grade_check(letters, x):
    """The closed form of p(v) + s(x) st(x) on a rose: 1 on every sibling
    branch Z(x[:i] e, x[:i] e) with e != x[i], and 2 on Z(x, x)."""
    want = {"1 * Z(%s,%s)" % (p, p)
            for p in (".".join(x[:i] + [e]) for i in range(len(x))
                      for e in letters if e != x[i])}
    want.add("2 * Z(%s,%s)" % (".".join(x), ".".join(x)))

    def check(result):
        rows = passing_kv(result)
        return (rows is not None
                and rows.get(("element", "components-sum-back")) == "pass"
                and _terms(rows.get(("element", "canonical"))) == want)
    return check


def mul_check(x):
    """s(x) times (st(x) + p(v)) is Z(x, x) + Z(x, v)."""
    path = ".".join(x)
    want = {"1 * Z(%s,v)" % path, "1 * Z(%s,%s)" % (path, path)}

    def check(result):
        rows = passing_kv(result)
        return rows is not None and _terms(rows.get(("product", "canonical"))) == want
    return check


def parse_deep(seed, size, workdir):
    """validate on large generated graph files; grade and mul on long words.

    The seed draws each graph's edges and each word's letters; the sizes,
    the depth gaps and each word's ring (cycling through RINGS) are fixed.
    """
    rng = random.Random(seed)
    sizes = (1000, 2000, 4000) if size == "full" else (100,)
    gaps = WORD_GAPS if size == "full" else (("rose2", "ab", (4,)), ("rose3", "abc", (3,)))
    ops = []
    for n_edges in sizes:
        path = _write(workdir, "graph%d.txt" % n_edges, random_graph_text(rng, n_edges))
        ops.append(cli_op("validate", ["validate", "--graph", path, "--format", "kv"],
                          validate_check(n_edges)))
    for name, letters, depth_gaps in gaps:
        path = _write(workdir, name + ".txt", rose_text(letters))
        for gap in depth_gaps:
            x = [rng.choice(letters) for _ in range(gap)]
            up = ["s(%s)" % a for a in x]
            down = ["st(%s)" % a for a in reversed(x)]
            ring = RINGS[len(ops) % len(RINGS)]
            ops.append(cli_op("grade", ["grade", "--graph", path, "--ring", ring,
                                        "--format", "kv",
                                        "p(v) + " + " * ".join(up + down)],
                              grade_check(letters, x)))
            ops.append(cli_op("mul", ["mul", "--graph", path, "--ring", ring,
                                      "--format", "kv", " * ".join(up),
                                      " * ".join(down) + " + p(v)"],
                              mul_check(x)))
    warmup = ops[len(sizes) - 1]    # the largest graph: loading shows in set-up
    rng.shuffle(ops)
    return Round(ops, warmup)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str, str], Round]
    # The highest percentile with at least 10 samples beyond it at the
    # benchmark's run length; a run lasts until it has that many.
    tail_percentile: float


WORKLOADS = {
    "certify": Workload(certify, 80.0),
    # p75 would fall exactly between the 9 cheaper products of a round and
    # the 3 rose4 ones, which cost 3-5x more, and follow whichever side of
    # that gap the noise favoured; p80 lies among the rose4 products.
    "dense-mul": Workload(dense_mul, 80.0),
    "parse-deep": Workload(parse_deep, 85.0),
}
