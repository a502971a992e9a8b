"""What an install ships: the console script and the bundled fixtures."""

import importlib
import inspect
from pathlib import Path, PurePosixPath

import pytest

import skdiag
from skdiag import fixtures

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

PACKAGE = Path(skdiag.__file__).resolve().parent
PYPROJECT = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8"))


def test_the_console_script_is_cli_run():
    target = PYPROJECT["project"]["scripts"]["skdiag"]
    assert target == "skdiag.cli:run"
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_the_package_data_holds_every_fixture_read(monkeypatch):
    globs = PYPROJECT["tool"]["setuptools"]["package-data"]["skdiag"]
    assert "fixtures/*.skd" in globs
    read = []

    def recorded(name, text=fixtures.fixture_text):
        read.append(name)
        return text(name)
    monkeypatch.setattr(fixtures, "fixture_text", recorded)
    loaders = [f for f in vars(fixtures).values() if inspect.isfunction(f)
               and f.__module__ == fixtures.__name__ and not inspect.signature(f).parameters]
    for load in loaders:
        load()
    assert len(read) >= len(loaders) >= 2
    for name in read:
        path = PurePosixPath("fixtures", name)
        assert (PACKAGE / path).is_file() and any(path.match(g) for g in globs), name
