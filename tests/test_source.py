"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import skdiag
from skdiag import moves, skm
from skdiag.moves import MoveKind

SOURCES = sorted(Path(skdiag.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no check may live in one
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


# modules the scan, read and apply commands load: each of these imports at
# module level costs those commands their start-up time
START_UP_MODULES = ("cli", "errors", "formats", "singularity", "canonical",
                    "crossing", "explorer", "moves", "edit", "skm", "diagnostics", "output")
HEAVY_IMPORTS = {"dataclasses", "logging", "random",
                 "argparse", "gettext", "locale", "pathlib", "shutil"}


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


def test_no_handler_catches_every_exception():
    # a bare except, Exception or BaseException would also swallow the
    # package's own bugs; each handler names the errors it expects
    broad = {"Exception", "BaseException"}
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ExceptHandler)
             and (node.type is None or any(
                 isinstance(n, ast.Name) and n.id in broad for n in ast.walk(node.type)))]
    assert SOURCES and not found, found


def test_only_the_cli_touches_the_collector():
    # the collector's state is the process's: gc.freeze moves the whole heap
    # out of its reach, and a library call that paused and then re-enabled it
    # could re-enable a collector that another thread had disabled meanwhile.
    # So the one collector call is cli.run's gc.disable(), in the process it owns
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        gc_names = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                    for a in n.names if a.name == "gc"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in gc_names:
                scope = max((f for f in defs if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found.append((path.name, scope and scope.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append((path.name, None, "from gc import"))
    assert found == [("cli.py", "run", "disable")], found


def test_no_module_registers_an_exit_hook():
    # a command's process ends by os._exit (cli.run), which runs no atexit
    # handler and no weakref finalizer, so the package must register none
    hooks = {"atexit": "register", "weakref": "finalize"}
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and hooks.get(node.value.id) == node.attr
             or isinstance(node, ast.ImportFrom) and node.module in hooks
             and hooks[node.module] in {alias.name for alias in node.names}]
    assert SOURCES and not found, found


def handles_broken_pipe(node) -> bool:
    return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
        isinstance(n, ast.Name) and n.id == "BrokenPipeError" for n in ast.walk(node.type))


def test_only_the_process_entry_handles_a_closed_stdout():
    # stdout's failures have one owner, cli.run: a second handler would
    # answer for an output that the process entry still has to flush
    everywhere = [f"{path.name}:{node.lineno}" for path in SOURCES
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if handles_broken_pipe(node)]
    cli_tree = ast.parse(Path(skdiag.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    run = next(node for node in cli_tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert everywhere and everywhere == [f"cli.py:{node.lineno}" for node in ast.walk(run)
                                         if handles_broken_pipe(node)]


def test_only_the_edit_module_knows_how_a_derived_complex_gets_its_views():
    # rebuilt hands a child its views when it makes it: no reader of a view
    # imports edit, only the move engine that derives complexes
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    importers = sorted({name for name, tree in trees.items() for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.module
                        and node.module.split(".")[-1] == "edit"
                        or isinstance(node, (ast.Import, ast.ImportFrom))
                        and any(a.name.split(".")[-1] == "edit" for a in node.names)})
    owners = sorted({name for name, tree in trees.items() for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "patched"
                     or isinstance(node, ast.ImportFrom)
                     and "patched" in {a.name for a in node.names}})
    assert (importers, owners) == (["moves"], ["edit"])


def returned_names(function: ast.FunctionDef) -> set[str]:
    """The bare names in the function's return values, its nested functions' left out."""
    found, todo = set(), list(function.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return) and node.value is not None:
            found.update(n.id for n in ast.walk(node.value) if isinstance(n, ast.Name))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_only_the_verdict_commands_exit_1():
    # exit 1 reads as a false verdict, so only a command that reports one returns it
    tree = ast.parse(Path(skdiag.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    verdicts = sorted(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                      and "FALSE_VERDICT" in returned_names(node))
    assert verdicts == ["_cmd_check_dd", "_cmd_check_exchangeable", "_cmd_crossing_change",
                        "_cmd_validate"]
    # nor is it kept anywhere to be returned later, or returned as a bare 1
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "FALSE_VERDICT"]
    assert len(uses) == 1 + len(verdicts)  # its definition, and one return each
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Return)
                and isinstance(n.value, ast.Constant) and n.value.value == 1]


def test_each_move_kind_has_one_applier_record_and_key_row():
    # a kind is applied, typed and read in one place each: every table is
    # keyed by exactly the kinds, and no applier or record serves two
    for table in (moves._APPLIERS, moves.MOVE_TYPES, skm._MOVE_KEYS):
        assert len(table) == len(MoveKind) and {MoveKind(k) for k in table} == set(MoveKind)
    assert len(set(moves._APPLIERS.values())) == len(set(moves.MOVE_TYPES.values())) \
        == len(MoveKind)
    assert all(record.kind is kind for kind, record in moves.MOVE_TYPES.items())


#: what only crossing may name: its flip tables, and a flip set's types
FLIP_RULES = {"RELABEL", "PATTERN_OF_LINES", "PATTERN_TYPES", "_BIT_OF", "flipped_types"}


def spelled(node: ast.AST) -> set:
    """The names a node reads or imports, or the words of a string constant."""
    if isinstance(node, ast.alias):
        return {node.name}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return set(re.findall(r"\w+", node.value))
    return {getattr(node, "id", None), getattr(node, "attr", None)}


def test_only_crossing_knows_how_a_union_flips():
    # moves asks crossing whether the R3- centre's flip is valid, and cli
    # words an invalid flip set by the FlipSet's own text, so no other module
    # imports, reads or spells out a flip table or a flip set's types
    named = sorted({path.stem for path in SOURCES
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if FLIP_RULES & spelled(node)})
    assert named == ["crossing"], named


def test_a_du_reports_best_witness_is_best_unions():
    tree = ast.parse(Path(skdiag.__file__).with_name("explorer.py").read_text(encoding="utf-8"))
    best_witness = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                        and node.name == "best_witness")
    calls = {node.func.id for node in ast.walk(best_witness)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "best_union" in calls and "min" not in calls


def test_the_closed_curve_cancellation_is_stated_once():
    # R2- and R3- are one cancellation of closed curves at two sizes: one
    # function states its curve count, distinctness and closed-count
    # postcondition, and a dead edge is known by its descent alone
    text = Path(moves.__file__).read_text(encoding="utf-8")
    phrases = (r"deletes exactly \S+ closed curves", "deleted closed curves must be distinct",
               "closed double curve count did not drop by")
    assert [len(re.findall(phrase, text)) for phrase in phrases] == [1, 1, 1]
    assert not hasattr(moves, "_check_sites")
    tree = ast.parse(text)
    remap = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_remap_disks")
    assert not [a.arg for a in remap.args.args if "dead" in a.arg]
