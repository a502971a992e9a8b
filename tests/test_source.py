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


# modules every scan or read command loads: each of these imports at module
# level costs every command its start-up time
START_UP_MODULES = ("cli", "errors", "formats", "singularity", "canonical",
                    "crossing", "explorer")
HEAVY_IMPORTS = {"dataclasses", "logging", "random"}


def module_level_imports(tree: ast.Module) -> set[str]:
    """Top-level module names imported by statements that run on import:
    those outside every function body, in if/try blocks and class bodies too."""
    found, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_start_up_modules_import_nothing_heavy_at_module_level():
    package = Path(skdiag.__file__).parent
    heavy = {name: sorted(HEAVY_IMPORTS & module_level_imports(
                 ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))))
             for name in START_UP_MODULES}
    assert not any(heavy.values()), heavy
