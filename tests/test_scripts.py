"""The example scripts and the benchmark's tracer still run against the
package API, and no module imports a name it never uses."""

import ast
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


def unused_imports(path):
    """The names a module binds by import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_import_no_unused_names():
    """Every package module but ``__init__``, which re-exports, every test
    module and every script reads each name it imports."""
    modules = [p for p in (ROOT / "src" / "steinalg").glob("*.py")
               if p.name != "__init__.py"]
    modules += (ROOT / "tests").glob("*.py")
    modules += SCRIPTS.glob("*.py")
    unused = {str(p.relative_to(ROOT)): names
              for p in sorted(modules) if (names := unused_imports(p))}
    assert unused == {}
