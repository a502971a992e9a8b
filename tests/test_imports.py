"""Which modules a command loads, and the package's lazy exports."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skdiag
from skdiag.cli import COMMANDS
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
    try:
        skdiag.cli.main(sys.argv[1:])
    except SystemExit:  # --help
        pass
print(" ".join(sorted(m for m in sys.modules if m.startswith("skdiag"))))
print(" ".join(sorted(set(sys.modules) - bare)))
"""

SCAN_AND_MOVES = {"skdiag.moves", "skdiag.explorer", "skdiag.crossing"}
# how a complex derived by a move patches its parent's views: only a move loads it
EDIT = "skdiag.edit"
# what only some commands run, each in a module of its own: the `.skm`
# reader, the `.skd` rejection wording, and the schematic, the curve
# summary and the file writer
SKM_READER = "skdiag.skm"
COLD_MODULES = {SKM_READER, "skdiag.diagnostics", "skdiag.output"}


def probe_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def probe(*argv: str, flags=()) -> list[str]:
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, *argv], env=probe_env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def loaded_by(*argv: str) -> set[str]:
    return set(probe(*argv)[-2].split())


def newly_loaded_by(*argv: str, flags=()) -> set[str]:
    """Every module the command loads beyond those of a bare interpreter."""
    return set(probe(*argv, flags=flags)[-1].split())


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
    assert SKM_READER not in loaded and EDIT not in loaded


@pytest.fixture
def du_bound_argv(trefoil_path):
    return ["du-bound", trefoil_path, "--oracle",
            str(SRC / "skdiag" / "fixtures" / "trefoil.oracle.skd"), "--json"]


@pytest.mark.parametrize("command", ["du-bound", "enumerate"])
def test_scan_commands_load_none_of_the_cold_modules(command, trefoil_path, du_bound_argv):
    argv = du_bound_argv if command == "du-bound" else [command, trefoil_path, "--json"]
    loaded = loaded_by(*argv)
    assert {"skdiag.explorer", "skdiag.formats"} <= loaded
    assert not loaded & COLD_MODULES and EDIT not in loaded


def test_apply_loads_the_edit_module(trefoil_path):
    skm = str(SRC.parent / "tests" / "fixtures" / "trefoil_seq.skm")
    assert {EDIT, "skdiag.moves"} <= loaded_by("apply", trefoil_path, skm)


def test_apply_loads_the_file_writer_only_to_write_a_file(trefoil_path, tmp_path):
    skm = str(SRC.parent / "tests" / "fixtures" / "trefoil_seq.skm")
    assert "skdiag.output" not in loaded_by("apply", trefoil_path, skm)
    for flags in (["-o", str(tmp_path / "out.skd")], ["--trail", str(tmp_path / "t.json")]):
        assert "skdiag.output" in loaded_by("apply", trefoil_path, skm, *flags)


def ast_nodes(module: str) -> int:
    path = SRC.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_a_scan_compiles_at_most_12000_ast_nodes(du_bound_argv):
    # without valid bytecode (PYTHONDONTWRITEBYTECODE, a fresh checkout)
    # every module a command loads is compiled on each run, so the code a
    # scan never runs lives in modules it does not load
    loaded = loaded_by(*du_bound_argv)
    assert sum(map(ast_nodes, loaded)) <= 12_000, sorted(loaded)


# start-up cost: ``dataclasses`` loads ``inspect`` (and ``ast``, ``dis``,
# ``tokenize``) for about 10 ms, ``logging`` about 4 ms, ``hashlib`` 3.7 ms
NO_HASHING = ("validate", "census", "trace", "schematic")


@pytest.mark.parametrize("command", [
    "du-bound", "enumerate", "validate", "census", "trace", "fingerprint",
    "schematic", "check-exchangeable", "check-dd", "crossing-change", "apply"])
def test_start_up_loads_only_what_the_command_needs(command, trefoil_path):
    argv = [command, trefoil_path]
    if command == "du-bound":
        argv += ["--oracle", str(SRC / "skdiag" / "fixtures" / "trefoil.oracle.skd")]
    elif command == "apply":
        argv.append(str(SRC.parent / "tests" / "fixtures" / "trefoil_seq.skm"))
    loaded = newly_loaded_by(*argv)
    assert not loaded & {"dataclasses", "inspect", "logging"}
    if command in NO_HASHING:
        assert "hashlib" not in loaded


# about 3 ms for json: only a command that writes JSON loads it (--json, apply --trail,
# and enumerate and du-bound, whose rows quote curve ids as JSON)
PLAIN_WITHOUT_JSON = ("validate", "census", "trace", "fingerprint", "schematic",
                      "check-exchangeable", "check-dd", "crossing-change")


@pytest.mark.parametrize("command", PLAIN_WITHOUT_JSON)
def test_a_plain_command_does_not_load_json(command, trefoil_path):
    assert "json" not in newly_loaded_by(command, trefoil_path)


def test_every_command_that_writes_json_writes_it(trefoil_path, tmp_path):
    oracle = str(SRC / "skdiag" / "fixtures" / "trefoil.oracle.skd")
    skm = str(SRC.parent / "tests" / "fixtures" / "trefoil_seq.skm")
    trail = tmp_path / "trail.json"
    args = {"du-bound": ["--oracle", oracle], "apply": [skm, "--gamma", "closed"],
            "check-exchangeable": ["--gamma", "closed"], "check-dd": ["--gamma", "closed"]}
    for command in COMMANDS:
        argv = [command, trefoil_path, *args.get(command, [])]
        proc = subprocess.run([sys.executable, "-m", "skdiag.cli", *argv, "--json"],
                              env=probe_env(), capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout)["command"] == command
    for command, extra in (("enumerate", []), ("du-bound", ["--oracle", oracle]),
                           ("apply", [skm, "--trail", str(trail)])):
        proc = subprocess.run([sys.executable, "-m", "skdiag.cli", command, trefoil_path,
                               *extra], env=probe_env(), capture_output=True, text=True,
                              check=True)
        assert proc.stdout and not proc.stderr, command
    assert json.loads(trail.read_text())["format_version"] == 1


# about 17 ms for argparse (with gettext and locale) and 20 ms for pathlib
# under -S, sharing some of their own imports; shutil comes with argparse
STDLIB_START_UP = {"argparse", "gettext", "locale", "pathlib", "shutil"}


@pytest.mark.parametrize("command", ["--help", "du-bound", "enumerate", "validate", "census",
                                     "trace", "fingerprint", "schematic", "check-exchangeable",
                                     "check-dd", "crossing-change", "apply"])
def test_no_command_loads_argparse_or_pathlib(command, trefoil_path, tmp_path):
    # -S skips ``site``, which loads pathlib and shutil itself, so what is
    # loaded is what skdiag and the modules it imports pull in
    argv = [command] if command == "--help" else [command, trefoil_path, "--json"]
    if command == "apply":
        argv[2:2] = [str(SRC.parent / "tests" / "fixtures" / "trefoil_seq.skm")]
    if command in ("apply", "crossing-change", "schematic"):
        argv += ["-o", str(tmp_path / "out")]
    for args in (argv, [*argv, "--help"]):
        assert not newly_loaded_by(*args, flags=["-S"]) & STDLIB_START_UP, args


def test_every_export_resolves_to_its_defining_module():
    assert skdiag.__all__ == sorted(set(skdiag.__all__))
    for name in skdiag.__all__:
        module = importlib.import_module(f"skdiag.{skdiag._MODULE_OF[name]}")
        value = getattr(skdiag, name)
        assert value is getattr(module, name), name
        if isinstance(value, type) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
    assert set(dir(skdiag)) >= set(skdiag.__all__)


def test_formats_resolves_the_names_it_hands_on_to_their_defining_functions():
    # tools that wrap these functions reach them through skdiag.formats
    from skdiag import formats, output, skm

    for name, module in (("parse_skm", skm), ("export_schematic", output),
                         ("curve_summary", output)):
        assert getattr(formats, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        formats.no_such_name  # noqa: B018


def test_unknown_attribute_and_submodules():
    with pytest.raises(AttributeError):
        skdiag.no_such_name  # noqa: B018
    assert skdiag.moves is importlib.import_module("skdiag.moves")
    from skdiag import fixtures
    assert fixtures.trefoil().triple_points
