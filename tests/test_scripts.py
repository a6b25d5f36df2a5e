"""The example scripts still run against the package API."""

import pathlib
import runpy

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name, argv", [
    ("corpus_sweep.py", ["--count", "3", "--depth", "2"]),
    ("outsplit_demo.py", ["--depth", "2", "--format", "kv"]),
])
def test_script_main_passes(name, argv, capsys):
    script = runpy.run_path(str(SCRIPTS / name))
    assert script["main"](argv) == 0
    assert capsys.readouterr().out
