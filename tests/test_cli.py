"""End-to-end runs of the command line, exit code by exit code."""

import pathlib
import re
import shlex
import subprocess
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from steinalg import (Graph, InputError, IntegerRing, Path, VertexSubset, cli,
                      enumerate_paths, eval_word, generator, load_graph,
                      parse_word, ring_from_spec, sampling, serialize_graph)
from tests.conftest import (LOOP_TEXT, OUTSPLIT_TEXT, ROSE2_TEXT,
                            TWO_CYCLE_TEXT, reference_graph_file_error,
                            vertex_path)


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
    for value in ("-1", "-30", "-0", "-" + "0" * 5000 + "1"):
        code, out, err = run(capsys, command, "--graph", graph_file(TWO_CYCLE_TEXT),
                             "--t0", "w", "--depth", value)
        assert code == 1 and out == ""
        assert err == "usage error: argument --depth: depth must be >= 0, got %s\n" % value


@pytest.mark.parametrize("flag,value,row", [
    ("--depth", "0" * 5000 + "2", "depth = 2"),
    ("--depth", "\u0663", "depth = 3"),
    ("--seed", "-5", "seed = -5"),
    ("--seed", "0" * 40 + "7", "seed = 7"),
    ("--seed", "9" * 5000, "seed = " + "9" * 5000),
    ("--seed", "-" + "9" * 5000, "seed = -" + "9" * 5000)])
def test_depth_and_seed_read_any_digit_run(flag, value, row, graph_file, capsys):
    """A run of decimal digits of any length is read whole, and its row
    names it: a zero-padded depth of 5,000 digits runs at depth 2, and a
    seed of 5,000 digits is rendered, not refused by int()'s digit
    limit."""
    code, out, err = run(capsys, "morita-check", "--graph", graph_file(TWO_CYCLE_TEXT),
                         "--t0", "w", "--format", "kv", flag + "=" + value)
    assert (code, err) == (0, "")
    assert row in out.splitlines()


ACYCLIC_TEXT = "vertices: v, w\nedge: e w <- v\n"


def test_a_depth_past_the_int_text_digit_limit_is_rendered_in_full(graph_file, capsys):
    """On a graph with no cycle the window is finite at any depth, so a
    depth of 5,000 nines runs, and each row that holds it, or a figure
    read from it, is rendered whole rather than refused by int()'s
    4,300-digit limit."""
    depth = "9" * 5000
    path = graph_file(ACYCLIC_TEXT)
    code, out, err = run(capsys, "morita-check", "--graph", path, "--t0", "w",
                         "--depth", depth, "--format", "kv")
    assert code in (0, 3) and err == ""
    assert "depth = " + depth in out.splitlines()
    code, out, err = run(capsys, "collapse", "--graph", path, "--t0", "w",
                         "--depth", depth, "--format", "kv")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert "max-len = 1" + "0" * 4999 + "1" in rows
    assert "legs-depth = " + depth in rows


@pytest.mark.parametrize("flag", ["--depth", "--seed"])
@pytest.mark.parametrize("value", ["2_0", " 2", "2 ", "+2", "1_000", "", "x", "2.0",
                                   "-2_0", "--2"])
def test_depth_and_seed_refuse_what_is_not_a_digit_run(flag, value, graph_file, capsys):
    """A depth or seed is a nonempty run of decimal digits, as a zmod:
    modulus is, and a seed may start with one "-": the blanks, underscores
    and "+" that int() would take are usage errors."""
    code, out, err = run(capsys, "morita-check", "--graph", graph_file(TWO_CYCLE_TEXT),
                         "--t0", "w", flag + "=" + value)
    assert (code, out) == (1, "")
    assert err == "usage error: argument %s: invalid int value: %r\n" % (flag, value)


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


# Faults drawn into a graph file; each takes two drawn integers that pick
# where it goes and what it copies.
LOADER_FAULTS = ("repeated-id", "undeclared-endpoint", "broken-syntax",
                 "blank-line", "comment-line", "byte-order-mark", "not-utf8")
BROKEN_LINES = ("bogus line", "edge: x v1 -> v1", "edge: x v1 <-", "edge:",
                "vertices: v1", "edge: x v1 <- v1 v1", "edge:x v1 <- v1",
                "\ufeffedge: x v1 <- v1")
BLANK_LINES = ("", "   ", "\t", "\f")
COMMENT_LINES = ("# a comment", "   # indented", "#", "edge: c v1 <- v1 # trailing")


def is_edge_line(line):
    fields = line.split()
    return len(fields) == 5 and fields[0] == "edge:" and fields[3] == "<-"


def with_faults(text, faults):
    """The bytes of a graph text with each (kind, i, j) fault applied in
    turn; i picks a line or byte, j what is put there.  Bytes are inserted
    after the line faults, and flipped last."""
    lines = text.splitlines()
    head = b""
    tail, flips = [], []
    for kind, i, j in faults:
        edges = [k for k, line in enumerate(lines) if is_edge_line(line)]
        if kind == "repeated-id" and edges:
            src, dst = lines[edges[j % len(edges)]], edges[i % len(edges)]
            fields = lines[dst].split()
            fields[1] = src.split()[1]
            lines[dst] = " ".join(fields)
        elif kind == "undeclared-endpoint" and edges:
            dst = edges[i % len(edges)]
            fields = lines[dst].split()
            fields[2 if j % 2 else 4] = "nowhere"
            lines[dst] = " ".join(fields)
        elif kind in ("broken-syntax", "blank-line", "comment-line"):
            choices = {"broken-syntax": BROKEN_LINES, "blank-line": BLANK_LINES,
                       "comment-line": COMMENT_LINES}[kind]
            lines.insert(i % (len(lines) + 1), choices[j % len(choices)])
        elif kind == "drop-line" and lines:
            del lines[i % len(lines)]
        elif kind == "repeat-line" and lines:
            lines.insert(i % len(lines), lines[i % len(lines)])
        elif kind == "byte-order-mark":
            head += "\ufeff".encode()
        elif kind == "not-utf8":
            tail.append((i, (b"\xff", b"\xc3(", b"\xe2\x82", b"\x80")[j % 4]))
        elif kind == "flip-byte":
            flips.append((i, 1 + j % 255))
    data = head + ("\n".join(lines) + "\n").encode()
    for i, junk in tail:
        at = i % (len(data) + 1)
        data = data[:at] + junk + data[at:]
    for i, mask in flips:
        at = i % len(data)
        data = data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    return data


@given(seed=st.integers(min_value=0, max_value=10 ** 9),
       faults=st.lists(st.tuples(st.sampled_from(LOADER_FAULTS),
                                 st.integers(min_value=0, max_value=10 ** 6),
                                 st.integers(min_value=0, max_value=10 ** 6)),
                       max_size=3))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_validate_rejects_faulty_graph_files_as_a_line_reader_does(seed, faults,
                                                                   tmp_path, capsys):
    """``validate`` on a small random graph file with up to three faults
    exits 0 exactly when a line-by-line reader accepts the file, and
    otherwise exits 2 with one stderr line that names the reader's first
    fault and its line, and nothing on stdout.  Two runs print the same."""
    rng = sampling.rng_from_seed(seed)
    text = serialize_graph(sampling.random_graph(rng, max_vertices=5, max_edges=8))
    data = with_faults(text, faults)
    path = tmp_path / "graph.txt"
    path.write_bytes(data)
    first = run(capsys, "validate", "--graph", str(path))
    assert run(capsys, "validate", "--graph", str(path)) == first
    code, out, err = first
    want = reference_graph_file_error(data)
    if want is None:
        assert (code, err) == (0, "")
        assert out.startswith("validate: pass\n")
    else:
        message, line = want
        if line is not None:
            message = "line %d: %s" % (line, message)
        assert (code, out, err) == (2, "", "error: %s\n" % message)


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


@pytest.mark.parametrize("ring", ["z", "q", "zmod:7"])
def test_coefficients_past_the_int_text_digit_limit(ring, graph_file, capsys):
    """Coefficients longer than CPython's 4,300-digit int <-> str limit
    parse and render exactly, and the process-wide limit is untouched: a
    5,000-digit scalar, a product of two 4,000-digit ones, and the same
    scalar after other tokens."""
    path = graph_file("vertices: v\n")
    limit = sys.get_int_max_str_digits()
    n5, n4 = "9" * 5000, "9" * 4000
    # (10^4000 - 1)^2 = 10^8000 - 2 * 10^4000 + 1.  Mod 7, 10^6 = 1, so
    # 10^5000 - 1 = 10^2 - 1 = 1 and 10^4000 - 1 = 10^4 - 1 = 3, squared 2.
    square = "9" * 3999 + "8" + "0" * 3999 + "1"
    want = {"z": (n5, square), "q": (n5, square), "zmod:7": ("1", "2")}[ring]
    for word, value in (("%s * p(v)" % n5, want[0]), ("%s * %s * p(v)" % (n4, n4), want[1])):
        code, out, err = run(capsys, "grade", "--graph", path, "--ring", ring, word)
        assert (code, err) == (0, "")
        assert "\ncanonical: %s * Z(v,v)\n" % value in out
        assert "\ncomponents-sum-back: pass\n" in out
    code, out, err = run(capsys, "grade", "--graph", path, "--ring", ring, "p(v) " + n5)
    assert (code, out, err) == (2, "", "error: trailing input from token %s\n" % n5)
    assert sys.get_int_max_str_digits() == limit


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


@pytest.mark.parametrize("spec", ["zmod:1_0", "zmod: 5", "zmod:+7", "zmod:5 ", "zmod:5\n"])
def test_modulus_is_a_run_of_decimal_digits(spec, graph_file, capsys):
    """A modulus int() would read, but that is not a nonempty run of decimal
    digits, is invalid input; the digits alone are a ring."""
    path = graph_file(LOOP_TEXT)
    code, out, err = run(capsys, "relations", "--graph", path, "--ring", spec)
    assert (code, out, err) == (2, "", "error: bad modulus in %r\n" % spec)
    digits = "".join(c for c in spec[len("zmod:"):] if c.isdecimal())
    code, out, _ = run(capsys, "relations", "--graph", path, "--ring", "zmod:" + digits,
                       "--format", "kv")
    assert code == 0 and "ring = zmod:%d\n" % int(digits) in out


def test_unknown_vertex_in_t0(graph_file, capsys):
    code, _, err = run(capsys, "validate", "--graph", graph_file(LOOP_TEXT),
                       "--t0", "zz")
    assert code == 2


@pytest.mark.parametrize("reject", [
    lambda g: ring_from_spec("gf:9"),
    lambda g: ring_from_spec("zmod:x"),
    lambda g: ring_from_spec("zmod:1"),
    lambda g: ring_from_spec("zmod:+7"),
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
], ids=["ring-spec", "modulus-text", "modulus-value", "modulus-sign", "subset-vertex",
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


# -- the certifier end to end ----------------------------------------------------------


T0_NOISE = ("nowhere", "", " ", "v1")


@given(seed=st.integers(min_value=0, max_value=10 ** 9),
       faults=st.lists(st.tuples(st.sampled_from(LOADER_FAULTS),
                                 st.integers(min_value=0, max_value=10 ** 6),
                                 st.integers(min_value=0, max_value=10 ** 6)),
                       max_size=2),
       command=st.sampled_from(["collapse", "morita-check"]),
       t0=st.none() | st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=4),
       depth=st.integers(min_value=0, max_value=3),
       ring=st.sampled_from(["z", "q", "zmod:4", "zmod:x"]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_certifier_keeps_its_exit_code_contract(seed, faults, command, t0, depth, ring,
                                                tmp_path, capsys):
    """``collapse`` and ``morita-check`` on a small random graph file with up
    to two faults and a --t0 list that may name unknown, repeated or empty
    vertices exit 0, 2 or 3.  Only exit 2 writes to stderr, one line and no
    traceback, and then nothing to stdout.  Two runs print the same bytes,
    and the kv and text reports agree on ok.  A wrong certified FAIL (exit
    3) on a valid instance is a known defect of the orbit test, so exit 3
    is not judged further."""
    rng = sampling.rng_from_seed(seed)
    g = sampling.random_graph(rng, max_vertices=4, max_edges=6)
    path = tmp_path / "graph.txt"
    path.write_bytes(with_faults(serialize_graph(g), faults))
    argv = [command, "--graph", str(path), "--depth", str(depth)]
    if t0 is not None:
        names = g.vertices + T0_NOISE
        argv += ["--t0", ",".join(names[i % len(names)] for i in t0)]
    if command == "morita-check":
        argv += ["--ring", ring]
    code, out, err = run(capsys, *argv, "--format", "kv")
    assert run(capsys, *argv, "--format", "kv") == (code, out, err)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
        return
    assert err == ""
    text_code, text, _ = run(capsys, *argv, "--format", "text")
    assert text_code == code
    assert ("ok = true" in out.splitlines()[:3]) == (": pass" in text.splitlines()[0])
    assert (code == 0) == ("ok = true" in out.splitlines()[:3])


# Flag noise for validate and morita-check.  A long digit run is mostly
# zeros before a small depth, so it is a depth of at most 3 at any length,
# past int()'s 4,300-digit limit too, except LONG_DEPTH, which is run on
# the graph's edges that climb the vertex order, a graph with no cycle and
# so a finite window; a seed of any length runs.
LONG_DEPTH = "9" * 5000
DEPTH_NOISE = ("0", "1", "2", "3", "-1", "-30", "x", "", "2.0", "0x2", "2_0", " 2",
               "+2", "1_000", "0" * 40 + "3", "0" * 4299 + "2", "0" * 4300 + "2",
               "0" * 5000 + "1", "0" * 5000 + "2", LONG_DEPTH)
SEED_NOISE = ("0", "7", "-5", "x", "", "1e3", "1_000", " 2", "+2", "9" * 40,
              "9" * 4300, "9" * 5000, "-" + "9" * 5000)


@given(seed=st.integers(min_value=0, max_value=10 ** 9),
       command=st.sampled_from(["validate", "morita-check"]),
       t0=st.none() | st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=4),
       depth=st.none() | st.sampled_from(DEPTH_NOISE),
       run_seed=st.none() | st.sampled_from(SEED_NOISE))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_validate_and_morita_check_keep_their_exit_code_contract(
        seed, command, t0, depth, run_seed, tmp_path, capsys):
    """``validate`` and ``morita-check`` on a small random graph file, with a
    --t0 list that may name unknown, repeated, blank or empty vertices, and
    for morita-check a --depth and a --seed that may be negative,
    non-numeric, empty or long digit runs, exit 0, 1, 2 or 3.  A usage
    error or invalid input writes one stderr line, no traceback, and
    nothing to stdout; the other exits write nothing to stderr.  Two runs
    print the same bytes."""
    g = sampling.random_graph(sampling.rng_from_seed(seed), max_vertices=4, max_edges=6)
    if depth == LONG_DEPTH:
        up = g.vertices.index
        g = Graph(g.vertices, [e for e in g.edges if up(e.source_vertex) < up(e.range_vertex)])
    path = tmp_path / "graph.txt"
    path.write_text(serialize_graph(g))
    argv = [command, "--graph", str(path), "--format", "kv"]
    if t0 is not None:
        names = g.vertices + T0_NOISE
        argv += ["--t0", ",".join(names[i % len(names)] for i in t0)]
    if command == "morita-check":
        # "=" keeps a value that starts with "-" a value.
        argv += ["--depth=" + depth] if depth is not None else []
        argv += ["--seed=" + run_seed] if run_seed is not None else []
    code, out, err = run(capsys, *argv)
    assert run(capsys, *argv) == (code, out, err)
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code in (1, 2):
        assert out == "" and err.count("\n") == 1
        assert err.startswith("usage error: " if code == 1 else "error: ")
    else:
        assert err == "" and out


# Noise for the input commands.  A rename puts a character the formats
# reserve (word syntax, the graph format's separators and comment mark, a
# non-breaking space) into one id wherever the id occurs; the other faults
# act on a line or on the file's bytes.
INPUT_FAULTS = ("drop-line", "repeat-line", "flip-byte", "byte-order-mark", "not-utf8")
RESERVED_CHARS = (",", "#", "(", ")", "*", "+", "-", ".", ":", "<-", "\u00a0", "\u0663")
WORD_NOISE = ("*", " * ", "+", " - ", "-", "(", ")", " ", "@", "p()", "q(v1)",
              "p(nowhere)", "s(", "\u0663", "\u00b2", "0", "07")
DIGIT_RUNS = (1, 2, 40, 4300, 4301, 5000)
GOOD_RING_SPECS = ("z", "q", "zmod:2", "zmod:4", "zmod:7", "zmod:" + "9" * 5000)
# A modulus is a nonempty run of decimal digits: int() would also take a
# sign, blanks around it and underscores between digits.
BAD_RING_SPECS = ("zmod:", "zmod:x", "zmod:1", "zmod:0", "zmod:-3", "zmod:1_0",
                  "zmod: 5", "zmod:+7", "zmod:5 ", "gf:9", "", "Z", "q ")
RING_SPECS = GOOD_RING_SPECS + BAD_RING_SPECS


def renamed_text(g, renames):
    """g's text with one id renamed per (i, j), i picking the id and j the
    reserved character put into it, and the ids after the renames, as
    (vertices, edge ids)."""
    text = serialize_graph(g)
    vertices, edges = list(g.vertices), list(g.edge_ids)
    for i, j in renames:
        ids = vertices if i % 2 else edges
        k = (i // 2) % len(ids)
        old = ids[k]
        ids[k] = old[:1] + RESERVED_CHARS[j % len(RESERVED_CHARS)] + old[1:]
        text = re.sub(r"(?<!\w)%s(?!\w)" % re.escape(old), ids[k], text)
    return text, (vertices, edges)


word_pieces = st.lists(
    st.sampled_from(WORD_NOISE)
    | st.tuples(st.sampled_from(("p", "s", "st")), st.integers(min_value=0, max_value=12))
    | st.sampled_from(DIGIT_RUNS).map(lambda n: "9" * n),
    min_size=1, max_size=6)


def noisy_word(pieces, ids):
    """The word of the drawn pieces: a (kind, i) piece names the i-th
    vertex (p) or edge (s, st) when there is one, else an unknown id."""
    vertices, edges = ids
    out = []
    for piece in pieces:
        if isinstance(piece, tuple):
            kind, i = piece
            names = vertices if kind == "p" else edges
            piece = "%s(%s)" % (kind, names[i] if i < len(names) else "nowhere")
        out.append(piece)
    return "".join(out)


@given(seed=st.integers(min_value=0, max_value=10 ** 9),
       renames=st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                                  st.integers(min_value=0, max_value=10 ** 6)),
                        max_size=2),
       faults=st.lists(st.tuples(st.sampled_from(INPUT_FAULTS),
                                 st.integers(min_value=0, max_value=10 ** 6),
                                 st.integers(min_value=0, max_value=10 ** 6)),
                       max_size=3),
       command=st.sampled_from(["validate", "mul", "grade", "relations"]),
       words=st.tuples(word_pieces, word_pieces),
       ring=st.sampled_from(RING_SPECS))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_input_commands_keep_their_exit_code_contract(seed, renames, faults, command,
                                                      words, ring, tmp_path, capsys):
    """``validate``, ``mul``, ``grade`` and ``relations`` on a small random
    graph file with up to two renamed ids and three faults, noisy words with digit runs past
    the int <-> str digit limit, and good and malformed ring specs exit 0, 2
    or 3.  Exit 2 writes one stderr line, no traceback, and nothing to
    stdout; the other exits write nothing to stderr.  Two runs print the
    same bytes, and the kv and text reports agree on ok."""
    rng = sampling.rng_from_seed(seed)
    text, ids = renamed_text(sampling.random_graph(rng, max_vertices=4, max_edges=6),
                             renames)
    path = tmp_path / "graph.txt"
    path.write_bytes(with_faults(text, faults))
    argv = [command, "--graph", str(path)]
    if command != "validate":
        argv += ["--ring", ring]
    nwords = {"mul": 2, "grade": 1}.get(command, 0)
    # "--" ends the options, so a word may start with "-".
    tail = ["--", *(noisy_word(w, ids) for w in words[:nwords])] if nwords else []
    code, out, err = run(capsys, *argv, "--format", "kv", *tail)
    assert run(capsys, *argv, "--format", "kv", *tail) == (code, out, err)
    assert code in (0, 2, 3), err
    if command != "validate" and ring in BAD_RING_SPECS:
        assert code == 2, (ring, out)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
        return
    assert err == ""
    text_code, text, _ = run(capsys, *argv, "--format", "text", *tail)
    assert text_code == code
    assert ("ok = true" in out.splitlines()[:3]) == (": pass" in text.splitlines()[0])
    assert (code == 0) == ("ok = true" in out.splitlines()[:3])


def test_the_certifier_builds_no_validating_path(graph_file, capsys, monkeypatch):
    """``morita-check`` and ``collapse`` on the outsplit fixture read paths
    flat: the validating ``Path`` constructor never runs, while each
    ``Path`` the reports need is built by the trusting ``_path``."""
    path = graph_file(OUTSPLIT_TEXT)
    calls = []
    init = Path.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Path, "__init__", counting_init)
    for argv in (["morita-check", "--t0", "u"], ["collapse", "--t0", "ua,ub"]):
        code, out, err = run(capsys, *argv, "--graph", path, "--depth", "3")
        assert (code, err) == (0, "")
    assert calls == []
    Path(load_graph(OUTSPLIT_TEXT), ("ra",))
    assert len(calls) == 1


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
