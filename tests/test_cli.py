"""End-to-end runs of the command line, exit code by exit code."""

import subprocess
import sys

import pytest

from steinalg import cli
from tests.conftest import LOOP_TEXT, OUTSPLIT_TEXT, TWO_CYCLE_TEXT


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


# -- exit code 0: passing runs ---------------------------------------------------


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


def test_bad_word(graph_file, capsys):
    code, _, err = run(capsys, "grade", "--graph", graph_file(LOOP_TEXT), "q(v)")
    assert code == 2


def test_bad_ring_spec(graph_file, capsys):
    code, _, err = run(capsys, "relations", "--graph", graph_file(LOOP_TEXT),
                       "--ring", "gf:9")
    assert code == 2
    assert "unknown ring spec" in err


def test_unknown_vertex_in_t0(graph_file, capsys):
    code, _, err = run(capsys, "validate", "--graph", graph_file(LOOP_TEXT),
                       "--t0", "zz")
    assert code == 2


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


# -- determinism and packaging -----------------------------------------------------------


def test_repeated_runs_are_byte_identical(graph_file, capsys):
    argv = ["morita-check", "--graph", graph_file(TWO_CYCLE_TEXT), "--t0", "w",
            "--ring", "zmod:4", "--depth", "2", "--seed", "9", "--format", "kv"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_console_entry_point(graph_file):
    proc = subprocess.run(
        [sys.executable, "-m", "steinalg.cli", "validate",
         "--graph", graph_file(LOOP_TEXT)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("validate: pass")
