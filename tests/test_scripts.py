"""The example scripts and the benchmark's tracer still run against the
package API."""

import importlib
import importlib.util
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("name, argv", [
    ("corpus_sweep.py", ["--count", "3", "--depth", "2"]),
    ("outsplit_demo.py", ["--depth", "2", "--format", "kv"]),
])
def test_script_main_passes(name, argv, capsys):
    script = runpy.run_path(str(SCRIPTS / name))
    assert script["main"](argv) == 0
    assert capsys.readouterr().out


def test_traced_benchmark_entry_points_resolve():
    """``perfbench/run.py --trace 1`` wraps every name of its tracer's
    ENTRY_POINTS in that ``steinalg`` module; each must still be a
    callable there."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    for module_name, names in tracing.ENTRY_POINTS:
        module = importlib.import_module("steinalg." + module_name)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (module_name, name)
