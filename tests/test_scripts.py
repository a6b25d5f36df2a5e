"""The example scripts and the benchmark's tracer still run against the
package API, no module imports a name it never uses, and every public name
of the package has a caller outside the tests."""

import ast
import importlib
import importlib.util
import pathlib
import re
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


def test_package_modules_import_only_at_module_level():
    """No package module imports inside a function or method: an import
    put off to call time is how a cycle between modules hides."""
    nested = []
    for p in sorted((ROOT / "src" / "steinalg").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += ["%s:%d" % (p.name, inner.lineno) for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []


def public_definitions(path):
    """(qualified name, name) of each public module-level function and
    class of a module, and of each public method of its classes."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [("%s.%s" % (node.name, item.name), item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def referenced_names(path, strings=False):
    """The names a module reads, imports or reads as an attribute, and with
    ``strings`` also its string constants."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_program_caller():
    """Every name ``steinalg`` exports, and every public function, class and
    method of its modules, is read by program code: the package modules
    but ``__init__``, the scripts, or the benchmark, whose string constants
    name the entry points its tracer wraps.  A name the README shows in
    backticks counts as documented API.  Tests do not count, so a helper
    only tests use belongs in ``tests/conftest.py``.  A method counts as
    read when any attribute of that name is."""
    package = ROOT / "src" / "steinalg"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    seen = set()
    for p in modules + sorted(SCRIPTS.glob("*.py")):
        seen |= referenced_names(p)
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        seen |= referenced_names(p, strings=True)
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        seen.update(re.findall(r"[A-Za-z_]\w*", span))
    init = ast.parse((package / "__init__.py").read_text())
    exported = [a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    wanted = [("__init__." + name, name) for name in exported]
    wanted += [("%s.%s" % (p.stem, qualified), name)
               for p in modules for qualified, name in public_definitions(p)]
    assert sorted({qualified for qualified, name in wanted if name not in seen}) == []


# The object helpers: the validating Path and the operations and windows on
# Path and PathPair objects.  Inside the package a path or pair is flat.
OBJECT_HELPERS = {"Path", "concat", "strip_prefix", "is_prefix", "vertex_path",
                  "enumerate_paths", "compose_pairs", "pairs_to_depth"}
# The modules that may read them, and which: cylinder's boundary classes,
# steinberg's pointwise oracle, and morita's compose_pairs and
# pairs_to_depth, which the benchmark reads as attributes of morita.
BOUNDARY_READS = {
    "cylinder": {"Path", "concat", "is_prefix", "strip_prefix"},
    "steinberg": {"concat", "strip_prefix"},
    "morita": {"compose_pairs", "pairs_to_depth"},
}


def test_object_helpers_are_read_only_at_the_boundary():
    """No package module but ``__init__``, which re-exports, and ``graph``,
    which defines most of them, imports an object helper or reads one as an
    attribute beyond its entry in BOUNDARY_READS."""
    outside = {}
    for p in sorted((ROOT / "src" / "steinalg").glob("*.py")):
        if p.stem in ("__init__", "graph"):
            continue
        names = set()
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        extra = (names & OBJECT_HELPERS) - BOUNDARY_READS.get(p.stem, set())
        if extra:
            outside[p.stem] = sorted(extra)
    assert outside == {}


def test_only_steinberg_reads_the_range_leg_index():
    """``cylinder._RangeLegIndex`` serves ``convolve`` alone: no other
    package module imports it or reads it as an attribute, so a second
    index-based path cannot grow back into the collapse move's checks."""
    readers = sorted(p.stem for p in (ROOT / "src" / "steinalg").glob("*.py")
                     if p.stem != "cylinder"
                     and "_RangeLegIndex" in referenced_names(p))
    assert readers == ["steinberg"]
