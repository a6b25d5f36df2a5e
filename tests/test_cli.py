"""End-to-end runs of the command line, exit code by exit code."""

import pathlib
import shlex
import subprocess
import sys
import weakref

import pytest

from steinalg import (InputError, IntegerRing, Path, VertexSubset, cli,
                      enumerate_paths, eval_word, generator, load_graph,
                      parse_word, ring_from_spec, vertex_path)
from tests.conftest import LOOP_TEXT, OUTSPLIT_TEXT, ROSE2_TEXT, TWO_CYCLE_TEXT


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="graph.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading):
    """The body of the first fenced block after a README heading."""
    after = README.read_text().split(heading + "\n", 1)[1]
    return after.split("```", 2)[1].split("\n", 1)[1]


# -- exit code 0: passing runs ---------------------------------------------------


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Every command line in the README exits 0 on examples.txt, which is
    the README's own two-cycle graph file."""
    (tmp_path / "examples.txt").write_text(readme_block("### Graph files"))
    lines = [line for line in readme_block("## Command line").splitlines()
             if line.startswith("steinalg ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        assert out


def test_validate_plain(graph_file, capsys):
    code, out, err = run(capsys, "validate", "--graph", graph_file(LOOP_TEXT))
    assert code == 0 and err == ""
    assert out.startswith("validate: pass\n")
    assert "vertices: v" in out


def test_validate_with_collapse_set(graph_file, capsys):
    code, out, _ = run(capsys, "validate", "--graph", graph_file(TWO_CYCLE_TEXT),
                       "--t0", "w")
    assert code == 0
    assert "retained-nonempty: pass" in out
    assert "sources-retained: pass" in out


def test_mul_reports_product_and_degrees(graph_file, capsys):
    code, out, _ = run(capsys, "mul", "--graph", graph_file(LOOP_TEXT),
                       "s(e) + st(e)", "s(e) + st(e)")
    assert code == 0
    assert "canonical: 2 * Z(v,v) + 1 * Z(v,e.e) + 1 * Z(e.e,v)" in out
    assert "degree -2: 1 * Z(v,e.e)" in out
    assert "degree 2: 1 * Z(e.e,v)" in out


def test_grade_checks_components(graph_file, capsys):
    code, out, _ = run(capsys, "grade", "--graph", graph_file(LOOP_TEXT),
                       "--ring", "q", "s(e) * st(e) + st(e)")
    assert code == 0
    assert "components-sum-back: pass" in out


def test_relations_pass(graph_file, capsys):
    code, out, _ = run(capsys, "relations", "--graph", graph_file(OUTSPLIT_TEXT),
                       "--ring", "zmod:4")
    assert code == 0
    assert out.startswith("relations: pass\n")


def test_collapse_sections(graph_file, capsys):
    code, out, _ = run(capsys, "collapse", "--graph", graph_file(TWO_CYCLE_TEXT),
                       "--t0", "w", "--depth", "2")
    assert code == 0
    assert "== collapsed-graph ==" in out
    assert "e1.e2: v <- v" in out
    assert "== paths.bijection ==" in out
    assert "== groupoid.multiplicative ==" in out


def test_morita_check_passes(graph_file, capsys):
    code, out, _ = run(capsys, "morita-check", "--graph", graph_file(TWO_CYCLE_TEXT),
                       "--t0", "w", "--ring", "z", "--depth", "2", "--seed", "5")
    assert code == 0
    assert "surjective-morita-context: pass" in out


@pytest.mark.parametrize("command", ["collapse", "morita-check"])
def test_dotted_edge_ids_collapse(command, graph_file, capsys):
    """The edge a.b and the collapsed path a.b of the other two edges get
    distinct collapsed edge names, and the instance certifies."""
    text = "vertices: v, w, x\nedge: a v <- w\nedge: b w <- x\nedge: a.b v <- x\n"
    code, out, err = run(capsys, command, "--graph", graph_file(text), "--t0", "w",
                         "--format", "kv")
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "ok = true"
    if command == "collapse":
        assert "a.b = v <- x\na.b~2 = v <- x\n" in out


def test_kv_format(graph_file, capsys):
    code, out, _ = run(capsys, "validate", "--graph", graph_file(LOOP_TEXT),
                       "--format", "kv")
    assert code == 0
    assert out.startswith("[report]\ntitle = validate\nok = true\n")


# -- exit code 1: usage ------------------------------------------------------------


def test_unknown_subcommand(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1 and out == ""
    assert "usage error" in err


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("command", ["collapse", "morita-check"])
def test_negative_depth_is_a_usage_error(command, graph_file, capsys):
    code, out, err = run(capsys, command, "--graph", graph_file(TWO_CYCLE_TEXT),
                         "--t0", "w", "--depth", "-1")
    assert code == 1 and out == ""
    assert "usage error" in err and "depth must be >= 0" in err


def test_wrong_word_count(graph_file, capsys):
    code, _, err = run(capsys, "mul", "--graph", graph_file(LOOP_TEXT), "p(v)")
    assert code == 1


# -- exit code 2: bad input ---------------------------------------------------------


def test_missing_graph_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--graph", str(tmp_path / "absent.txt"))
    assert code == 2
    assert "error" in err


def test_malformed_graph_file(graph_file, capsys):
    code, _, err = run(capsys, "validate",
                       "--graph", graph_file("vertices: v\nedge: e v <- nope\n"))
    assert code == 2
    assert "undeclared" in err


@pytest.mark.parametrize("argv", [
    ["validate"], ["mul", "p(v)", "p(v)"], ["grade", "p(v)"], ["relations"],
    ["collapse"], ["morita-check"],
], ids=lambda argv: argv[0])
def test_graph_file_that_is_not_utf8(argv, tmp_path, capsys):
    """Undecodable bytes are malformed graph text (exit 2), not an
    internal error."""
    path = tmp_path / "graph.txt"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, argv[0], "--graph", str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: graph file is not UTF-8 text")


def test_graph_file_with_a_byte_order_mark(tmp_path, capsys):
    """A UTF-8 file that starts with a byte-order mark is read as the text
    after the mark."""
    path = tmp_path / "graph.txt"
    path.write_bytes(b"\xef\xbb\xbf" + TWO_CYCLE_TEXT.encode())
    code, out, err = run(capsys, "validate", "--graph", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("validate: pass\n")


def test_bad_word(graph_file, capsys):
    code, _, err = run(capsys, "grade", "--graph", graph_file(LOOP_TEXT), "q(v)")
    assert code == 2


def test_superscript_scalar_is_an_input_error(graph_file, capsys):
    """int() reads no superscript digit, so the word is a syntax error
    (exit 2), not an internal one; an Arabic-Indic three reads as 3."""
    path = graph_file(ROSE2_TEXT)
    code, out, err = run(capsys, "grade", "--graph", path, "s(a) * \u00b2")
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    code, out, _ = run(capsys, "grade", "--graph", path, "\u0663 * s(a)")
    assert code == 0
    assert "\ncanonical: 3 * Z(a,v)\n" in out


def test_grade_of_a_unit_plus_a_deep_pair(graph_file, capsys):
    """p(v) + s(a)^64 st(a)^64 on the 2-rose: 1 on each sibling branch
    a^i.b and 2 on Z(a^64, a^64), found without expanding p(v) 64 levels."""
    word = "p(v) + " + " * ".join(["s(a)"] * 64 + ["st(a)"] * 64)
    code, out, _ = run(capsys, "grade", "--graph", graph_file(ROSE2_TEXT), word)
    assert code == 0
    branches = [".".join(["a"] * i + ["b"]) for i in range(64)]
    deep = ".".join(["a"] * 64)
    terms = ["1 * Z(%s,%s)" % (b, b) for b in branches]
    # Terms sort by length, then edge order: a^64 precedes a^63.b.
    terms.insert(63, "2 * Z(%s,%s)" % (deep, deep))
    canonical = " + ".join(terms)
    assert "\ncanonical: %s\n" % canonical in out
    assert "components-sum-back: pass" in out


def nested_words(n):
    """Words nesting n levels: parentheses, a minus chain, and parentheses
    alternating with products and sums."""
    return {"parens": "(" * n + "s(a)" + ")" * n,
            "minus": "-" * n + "s(a)",
            "alternating": "s(a) * (p(v) + " * n + "s(a)" + ")" * n}


@pytest.mark.parametrize("shape", ["parens", "minus", "alternating"])
def test_deeply_nested_word_is_an_input_error(shape, graph_file, capsys):
    word = nested_words(sys.getrecursionlimit() + 200)[shape]
    code, out, err = run(capsys, "grade", "--graph", graph_file(ROSE2_TEXT), "--", word)
    assert code == 2 and out == ""
    assert "nests deeper than" in err


@pytest.mark.parametrize("shape", ["parens", "minus", "alternating"])
def test_nested_word_within_the_bound_evaluates(shape, graph_file, capsys):
    """300 levels evaluate: s(a) under parentheses or an even minus chain,
    and s(a) + s(a)^2 + ... + s(a)^301 for the alternating word."""
    word = nested_words(300)[shape]
    code, out, _ = run(capsys, "grade", "--graph", graph_file(ROSE2_TEXT), "--", word)
    assert code == 0
    powers = range(1, 302) if shape == "alternating" else [1]
    canonical = " + ".join("1 * Z(%s,v)" % ".".join(["a"] * k) for k in powers)
    assert "\ncanonical: %s\n" % canonical in out


def test_word_starting_with_a_dash_after_double_dash(graph_file, capsys):
    """A word that starts with "-" reads as an option unless "--" ends the
    options before it (README, Command line)."""
    path = graph_file(LOOP_TEXT)
    code, _, err = run(capsys, "grade", "--graph", path, "-s(e)")
    assert code == 1 and "required: word" in err
    code, out, err = run(capsys, "grade", "--graph", path, "--", "-s(e)")
    assert (code, err) == (0, "")
    assert "\ncanonical: -1 * Z(e,v)\n" in out


def test_bad_ring_spec(graph_file, capsys):
    code, _, err = run(capsys, "relations", "--graph", graph_file(LOOP_TEXT),
                       "--ring", "gf:9")
    assert code == 2
    assert "unknown ring spec" in err


def test_unknown_vertex_in_t0(graph_file, capsys):
    code, _, err = run(capsys, "validate", "--graph", graph_file(LOOP_TEXT),
                       "--t0", "zz")
    assert code == 2


@pytest.mark.parametrize("reject", [
    lambda g: ring_from_spec("gf:9"),
    lambda g: ring_from_spec("zmod:x"),
    lambda g: ring_from_spec("zmod:1"),
    lambda g: VertexSubset(g, ["zz"]),
    lambda g: vertex_path(g, "zz"),
    lambda g: Path(g, ("nope",)),
    lambda g: enumerate_paths(g, from_range="zz", max_len=1),
    lambda g: load_graph("vertices: v\nedge: e v <- nope\n"),
    lambda g: parse_word("q(v)"),
    lambda g: eval_word(g, "p(zz)", IntegerRing()),
    lambda g: eval_word(g, "s(nope)", IntegerRing()),
    lambda g: eval_word(g, "3", IntegerRing()),
    lambda g: generator(g, "p(v) + p(v)", IntegerRing()),
], ids=["ring-spec", "modulus-text", "modulus-value", "subset-vertex",
        "path-vertex", "edge-id", "enumerate-vertex", "graph-text", "word",
        "word-vertex", "word-edge", "bare-scalar", "symbol"])
def test_rejected_input_is_an_input_error(reject):
    """Every site that rejects caller input raises InputError, the one
    error the command line reports as invalid input (exit 2)."""
    with pytest.raises(InputError):
        reject(load_graph(LOOP_TEXT))


# -- exit code 3: certified failures ---------------------------------------------------


def test_cyclic_collapse_set_fails(graph_file, capsys):
    code, out, _ = run(capsys, "validate", "--graph", graph_file(LOOP_TEXT),
                       "--t0", "v")
    assert code == 3
    assert "collapsed-acyclic: fail" in out


def test_collapse_stops_at_failed_preconditions(graph_file, capsys):
    code, out, _ = run(capsys, "collapse", "--graph", graph_file(LOOP_TEXT),
                       "--t0", "v")
    assert code == 3
    assert "collapsed-graph" not in out


def test_morita_check_transversal_failure(graph_file, capsys):
    text = "vertices: v, u\nedge: e v <- u\n"
    code, out, _ = run(capsys, "morita-check", "--graph", graph_file(text),
                       "--t0", "v", "--depth", "2")
    assert code == 3
    assert "meets-every-orbit: fail (unreachable: v)" in out
    assert "surjective-morita-context: fail" in out


# -- exit code 4: internal invariant failures -------------------------------------------


def test_internal_error_exit_code(graph_file, capsys, monkeypatch):
    def boom(config):
        raise RuntimeError("invariant broke")
    monkeypatch.setitem(cli._COMMANDS, "validate", boom)
    code, out, err = run(capsys, "validate", "--graph", graph_file(LOOP_TEXT))
    assert code == 4 and out == ""
    assert "internal error: invariant broke" in err


def test_other_value_errors_are_internal(graph_file, capsys, monkeypatch):
    """A ValueError that is not an InputError is a bug, not bad input."""
    def boom(args):
        raise ValueError("boom")
    monkeypatch.setitem(cli._COMMANDS, "validate", boom)
    code, out, err = run(capsys, "validate", "--graph", graph_file(LOOP_TEXT))
    assert code == 4 and out == ""
    assert "internal error: boom" in err


@pytest.mark.parametrize("error", [MemoryError, SystemError])
@pytest.mark.parametrize("argv,want", [
    (["collapse", "--t0", "w", "--depth", "20"],
     "internal error: collapse ran out of memory; try a smaller --depth than 20\n"),
    (["mul", "s(e1)", "s(e2)"], "internal error: mul ran out of memory\n"),
])
def test_running_out_of_memory_exits_4(error, argv, want, graph_file, capsys,
                                       monkeypatch):
    """A MemoryError, or the SystemError CPython raises when an allocation
    fails inside a call, is an internal failure: exit 4 and one stderr line
    that names the subcommand and, where it has one, its --depth.  The
    line is printed after the failed run's frames, and what they hold, are
    let go."""
    class Payload:
        pass

    payloads, freed = [], []

    def boom(args):
        payload = Payload()
        payloads.append(weakref.ref(payload))
        raise error()

    def spy(*items, **kwargs):
        freed.append(payloads[0]() is None)
        print(*items, **kwargs)

    monkeypatch.setitem(cli._COMMANDS, argv[0], boom)
    monkeypatch.setattr(cli, "print", spy, raising=False)
    code, out, err = run(capsys, argv[0], "--graph", graph_file(TWO_CYCLE_TEXT), *argv[1:])
    assert (code, out, err) == (4, "", want)
    assert freed == [True]


# -- determinism and packaging -----------------------------------------------------------


def test_repeated_runs_are_byte_identical(graph_file, capsys):
    argv = ["morita-check", "--graph", graph_file(TWO_CYCLE_TEXT), "--t0", "w",
            "--ring", "zmod:4", "--depth", "2", "--seed", "9", "--format", "kv"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_reused_parser_keeps_no_state(graph_file, capsys, monkeypatch):
    """One parser serves every call in a process: a run mixing subcommands,
    optional flags and a usage error prints, byte for byte, what a freshly
    built parser per call prints."""
    path = graph_file("vertices: v, x\nedge: e v <- x\nedge: f x <- v\n")
    calls = [["validate", "--graph", path, "--t0", "x"],
             ["validate", "--graph", path],
             ["validate", "--t0", "x"],
             ["morita-check", "--graph", path, "--t0", "x", "--depth", "2"],
             ["validate", "--graph", path, "--format", "kv"]]
    assert cli._shared_parser() is cli._shared_parser()
    shared = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0]
    assert "collapsed: x" in shared[0][1]
    assert "== shape ==" not in shared[1][1]
    assert "collapsed" not in shared[4][1]


def test_console_entry_point(graph_file):
    proc = subprocess.run(
        [sys.executable, "-m", "steinalg.cli", "validate",
         "--graph", graph_file(LOOP_TEXT)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("validate: pass")
