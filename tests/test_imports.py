"""Which modules a command loads, and the package's lazy exports."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skdiag
from skdiag.fixtures import fixture_text as bundled_text

SRC = Path(skdiag.__file__).resolve().parent.parent

# imports the CLI in a fresh interpreter and runs the command given, if
# any, then prints the skdiag modules loaded, and on the last line every
# module loaded that a bare interpreter (and its ``site``) had not loaded
PROBE = """
import sys
bare = set(sys.modules)
import skdiag.cli
if sys.argv[1:]:
    skdiag.cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("skdiag"))))
print(" ".join(sorted(set(sys.modules) - bare)))
"""

SCAN_AND_MOVES = {"skdiag.moves", "skdiag.explorer", "skdiag.crossing"}


def probe(*argv: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def loaded_by(*argv: str) -> set[str]:
    return set(probe(*argv)[-2].split())


def newly_loaded_by(*argv: str) -> set[str]:
    """Every module the command loads beyond those of a bare interpreter."""
    return set(probe(*argv)[-1].split())


@pytest.fixture
def trefoil_path(tmp_path):
    p = tmp_path / "trefoil.skd"
    p.write_text(bundled_text("trefoil.skd"))
    return str(p)


def test_importing_the_cli_loads_no_layer():
    assert loaded_by() == {"skdiag", "skdiag.cli", "skdiag.errors"}


@pytest.mark.parametrize("command", ["validate", "census", "trace", "fingerprint",
                                     "schematic"])
def test_read_path_commands_skip_the_move_engine_and_the_scan(command, trefoil_path):
    loaded = loaded_by(command, trefoil_path)
    assert "skdiag.formats" in loaded
    assert not loaded & SCAN_AND_MOVES


# start-up cost: ``dataclasses`` loads ``inspect`` (and ``ast``, ``dis``,
# ``tokenize``) for about 10 ms, ``logging`` about 4 ms, ``hashlib`` 3.7 ms
SCAN_AND_READ = ("du-bound", "enumerate", "validate", "census", "trace",
                 "fingerprint", "schematic")
NO_HASHING = ("validate", "census", "trace", "schematic")


@pytest.mark.parametrize("command", [
    *SCAN_AND_READ, "check-exchangeable", "check-dd", "crossing-change", "apply"])
def test_start_up_loads_only_what_the_command_needs(command, trefoil_path):
    argv = [command, trefoil_path]
    if command == "du-bound":
        argv += ["--oracle", str(SRC / "skdiag" / "fixtures" / "trefoil.oracle.skd")]
    elif command == "apply":
        argv.append(str(SRC.parent / "tests" / "fixtures" / "trefoil_seq.skm"))
    loaded = newly_loaded_by(*argv)
    assert "logging" not in loaded
    if command in SCAN_AND_READ:
        assert not loaded & {"dataclasses", "inspect"}
    if command in NO_HASHING:
        assert "hashlib" not in loaded


def test_every_export_resolves_to_its_defining_module():
    assert skdiag.__all__ == sorted(set(skdiag.__all__))
    for name in skdiag.__all__:
        module = importlib.import_module(f"skdiag.{skdiag._MODULE_OF[name]}")
        value = getattr(skdiag, name)
        assert value is getattr(module, name), name
        if isinstance(value, type) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
    assert set(dir(skdiag)) >= set(skdiag.__all__)


def test_unknown_attribute_and_submodules():
    with pytest.raises(AttributeError):
        skdiag.no_such_name  # noqa: B018
    assert skdiag.moves is importlib.import_module("skdiag.moves")
    from skdiag import fixtures
    assert fixtures.trefoil().triple_points
