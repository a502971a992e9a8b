"""Checks on the package source itself."""

import ast
from pathlib import Path

import skdiag

SOURCES = sorted(Path(skdiag.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no check may live in one
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
