"""CLI subcommands, exit codes, JSON output."""

import argparse
import builtins
import errno
import gc
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

import pytest

from skdiag import cli, crossing_change, fingerprint, parse_skd, serialize_canonical
from skdiag.cli import COMMANDS, OPTIONS, main
from skdiag.explorer import SizeBudget, generate_random_complex
from skdiag.fixtures import fixture_text as bundled_text

from tests.conftest import fixture_text


@pytest.fixture
def trefoil_path(tmp_path):
    p = tmp_path / "trefoil.skd"
    p.write_text(bundled_text("trefoil.skd"))
    return str(p)


@pytest.fixture
def oracle_path(tmp_path):
    p = tmp_path / "trefoil.oracle.skd"
    p.write_text(bundled_text("trefoil.oracle.skd"))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, trefoil_path):
    code, out, _ = run(capsys, "validate", trefoil_path)
    assert code == 0
    assert "well-formed" in out


def test_validate_invalid_complex_exits_1(capsys, tmp_path):
    p = tmp_path / "bad.skd"
    p.write_text("triple T1 lines=bm,bt,mt\n")
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    assert "not used" in out


def test_a_disk_on_one_edge_twice_is_reported_at_its_line(capsys, tmp_path):
    # validate gives the violation as a false verdict; any other command
    # refuses the input at the disk's line
    p = tmp_path / "twice.skd"
    p.write_text("circle C1\ndisk D1 e1=C1 e2=C1 pair=cross level1=upper level2=upper\n")
    assert run(capsys, "validate", str(p)) == (
        1, f"{p}: disk D1 references edge 'C1' twice\n", "")
    code, out, _ = run(capsys, "validate", str(p), "--json")
    assert code == 1 and json.loads(out)["diagnostics"] == [
        {"code": "disk-edges-equal", "message": "disk D1 references edge 'C1' twice"}]
    assert run(capsys, "census", str(p)) == (
        2, "", f"{p}:2:1: disk D1 references edge 'C1' twice\n")


def test_validate_syntax_error_exits_2(capsys, tmp_path):
    p = tmp_path / "broken.skd"
    p.write_text("whatnot X\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "unknown record kind" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "census", "no/such/file.skd")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command, flag", [
    ("crossing-change", "-o"), ("apply", "-o"), ("apply", "--trail"),
    ("schematic", "-o")])
def test_unwritable_output_path_exits_2(capsys, trefoil_path, tmp_path, command, flag):
    # an output file that cannot be written is an input error, not a crash
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    target = tmp_path / "no" / "such" / "dir" / "out"
    argv = [command, trefoil_path, *([str(skm)] if command == "apply" else []),
            *(["--gamma", "closed"] if command != "schematic" else []), flag, str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_apply_with_an_unwritable_output_leaves_no_trail(capsys, trefoil_path, tmp_path):
    # -o and --trail are written all or none, so a failed -o writes neither
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    target, trail = tmp_path / "no" / "dir" / "out.skd", tmp_path / "t.json"
    code, out, err = run(capsys, "apply", trefoil_path, str(skm), "--gamma", "closed",
                         "-o", str(target), "--trail", str(trail))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write {target}: ")
    assert not trail.exists() and not target.parent.exists()


def test_apply_with_an_unwritable_trail_leaves_no_output(capsys, trefoil_path, tmp_path):
    # a failed --trail keeps -o as it was (absent, or its old text) and
    # leaves no temporary file beside it
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    work = tmp_path / "work"
    work.mkdir()
    out, trail = work / "out.skd", work / "no" / "dir" / "t.json"
    argv = ["apply", trefoil_path, str(skm), "--gamma", "closed", "-o", str(out),
            "--trail", str(trail)]
    for before in (None, "old text\n"):
        if before is not None:
            out.write_text(before)
        code, printed, err = run(capsys, *argv)
        assert code == 2 and not printed
        assert err == (f"error: cannot write {trail}: [Errno 2] No such file or "
                       f"directory: {str(trail)!r}\n")
        assert (out.read_text() if out.exists() else None) == before
        assert [p.name for p in work.iterdir()] == (["out.skd"] if before else [])


def test_apply_to_a_directory_fails_as_a_plain_write(capsys, trefoil_path, tmp_path):
    # a path that is not a regular file is opened in place: a directory
    # fails as opening it would, and the trail beside it is not written
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    work = tmp_path / "work"
    out, trail = work / "out", work / "t.json"
    out.mkdir(parents=True)
    code, printed, err = run(capsys, "apply", trefoil_path, str(skm), "--gamma", "closed",
                             "-o", str(out), "--trail", str(trail))
    assert code == 2 and not printed
    assert err == f"error: cannot write {out}: [Errno 21] Is a directory: {str(out)!r}\n"
    assert out.is_dir() and not any(out.iterdir())
    assert [p.name for p in work.iterdir()] == ["out"]


@pytest.fixture
def locked(tmp_path, monkeypatch):
    """A directory the user cannot write, holding a writable ``out.skd`` of
    old text. Root ignores directory permissions, so they are emulated:
    os.access says it is not writable, and creating or renaming a file in it
    is refused."""
    locked = tmp_path / "locked"
    locked.mkdir()
    (locked / "out.skd").write_text("old text\n")
    real_access, real_open, real_replace = os.access, io.open, os.replace

    def in_locked(path) -> bool:
        return os.path.dirname(os.path.realpath(path)) == os.path.realpath(locked)

    def refused(path):
        return PermissionError(errno.EACCES, "Permission denied", str(path))

    def access(path, mode, **kw):
        return (mode != os.W_OK or os.path.realpath(path) != os.path.realpath(locked)) \
            and real_access(path, mode, **kw)

    def open_(file, mode="r", *args, **kw):  # a descriptor is already open
        if not isinstance(file, int) and in_locked(file) and not os.path.exists(file) and set(mode) & set("wxa"):
            raise refused(file)
        return real_open(file, mode, *args, **kw)

    def replace(src, dst, **kw):
        if in_locked(src) or in_locked(dst):
            raise refused(dst)
        return real_replace(src, dst, **kw)

    for name, fake in (("access", access), ("replace", replace)):
        monkeypatch.setattr(os, name, fake)
    monkeypatch.setattr(io, "open", open_)
    monkeypatch.setattr(builtins, "open", open_)
    return locked


def test_a_file_in_a_read_only_directory_is_written_in_place(capsys, trefoil_path,
                                                             tmp_path, locked):
    # a temporary file cannot be made beside a writable file in a directory
    # the user cannot write, so the file is written in place, as a plain
    # write would; a new file there fails as a plain write would
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    out = locked / "out.skd"
    argv = ["apply", trefoil_path, str(skm), "--gamma", "closed"]
    expected, trail = tmp_path / "expected.skd", tmp_path / "t.json"
    code, printed, _ = run(capsys, *argv, "-o", str(expected))
    assert code == 0
    assert run(capsys, *argv, "-o", str(out), "--trail", str(trail)) == (0, printed, "")
    assert out.read_text() == expected.read_text() and trail.exists()
    assert [p.name for p in locked.iterdir()] == ["out.skd"]
    # it is written once every temporary is, so a failed --trail leaves it
    out.write_text("old text\n")
    lost = tmp_path / "no" / "t.json"
    assert run(capsys, *argv, "-o", str(out), "--trail", str(lost))[0] == 2
    assert out.read_text() == "old text\n"
    new = locked / "new.skd"
    assert run(capsys, *argv, "-o", str(new)) == (
        2, "", f"error: cannot write {new}: [Errno 13] Permission denied: {str(new)!r}\n")
    assert not new.exists()


def test_in_place_paths_are_all_opened_before_any_is_written(capsys, trefoil_path,
                                                             tmp_path, locked):
    # -o in a read-only directory and --trail a directory are both written
    # in place: the trail fails to open, so -o is never rewritten
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    out, trail = locked / "out.skd", tmp_path / "trail"
    trail.mkdir()
    code, printed, err = run(capsys, "apply", trefoil_path, str(skm), "--gamma", "closed",
                             "-o", str(out), "--trail", str(trail))
    assert code == 2 and not printed
    assert err == (f"error: cannot write {trail}: [Errno 21] Is a directory: "
                   f"{str(trail)!r}\n")
    assert out.read_text() == "old text\n" and not any(trail.iterdir())
    assert [p.name for p in locked.iterdir()] == ["out.skd"]


@pytest.mark.parametrize("alias, before", [
    ("same", None), ("same", "old text\n"), ("link", None), ("link", "old text\n"),
    ("hard", "old text\n")])
def test_output_and_trail_naming_one_file_are_refused(capsys, trefoil_path, tmp_path,
                                                      before, alias):
    # -o and --trail naming one regular file, new or old, by one path, a
    # symbolic link or a hard link, would leave it holding one of the two
    # texts: neither is written
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    work = tmp_path / "work"
    work.mkdir()
    out = work / "out.skd"
    if before is not None:
        out.write_text(before)
    trail = out if alias == "same" else work / "link"
    if alias == "link":
        trail.symlink_to(out)
    elif alias == "hard":
        os.link(out, trail)
    code, printed, err = run(capsys, "apply", trefoil_path, str(skm), "--gamma", "closed",
                             "-o", str(out), "--trail", str(trail))
    assert (code, printed) == (2, "")
    assert err == f"error: cannot write {out} and {trail}: they name one file\n"
    assert (out.read_text() if out.exists() else None) == before
    assert sorted(p.name for p in work.iterdir()) == sorted(
        ["out.skd"] * (before is not None) + ["link"] * (alias != "same"))
    if alias == "hard":
        assert trail.read_text() == before


def test_output_and_trail_may_both_be_a_device(capsys, trefoil_path, tmp_path):
    # a device takes any number of texts, so two paths to one are written
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    argv = ["apply", trefoil_path, str(skm), "--gamma", "closed"]
    code, printed, _ = run(capsys, *argv, "-o", str(tmp_path / "out.skd"))
    assert code == 0
    assert run(capsys, *argv, "-o", os.devnull, "--trail", os.devnull) == (0, printed, "")


@pytest.mark.parametrize("text, code", [
    (bundled_text("trefoil.skd"), 0),  # well formed
    ("triple T1 lines=bm,bt,mt\n", 1),  # a false verdict
    ("whatnot X\n", 2),  # a parse error
    (None, 2)])  # a missing file
def test_main_leaves_the_collector_as_it_found_it(tmp_path, text, code):
    # the collector is the process's, and only cli.run turns it off: an in-process
    # call leaves it as its caller had it, with live objects frozen or the collector off
    path = tmp_path / "in.skd"
    if text is not None:
        path.write_text(text)
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()

    def restore():
        if not frozen:
            gc.unfreeze()
        (gc.enable if enabled else gc.disable)()
    try:
        for caller in (lambda: None, gc.freeze, gc.disable):  # as is, pre-frozen, off
            caller()
            # young objects of the caller's that outlive the call, and plain StringIOs:
            # a write to pytest's capture stream frees a frozen object of its own
            out, err = io.StringIO(), io.StringIO()
            on, count = gc.isenabled(), gc.get_freeze_count()  # untracked: no count change
            with redirect_stdout(out), redirect_stderr(err):
                assert main(["validate", str(path)]) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (on, count), caller
            assert out.getvalue() or err.getvalue()
            restore()
    finally:
        restore()


@pytest.mark.parametrize("error", [errno.EPIPE, errno.ENOSPC], ids=["closed-pipe", "full"])
def test_main_hands_a_failed_stdout_to_its_caller(monkeypatch, trefoil_path, error):
    # only the process entry (cli.run) handles a failed stdout: an
    # in-process caller gets the error itself, and the collector back
    class FailingStdout(io.StringIO):
        def write(self, text):
            raise OSError(error, os.strerror(error))
    monkeypatch.setattr(sys, "stdout", FailingStdout())
    frozen = gc.get_freeze_count()
    with pytest.raises(OSError) as caught:
        main(["trace", trefoil_path])
    assert caught.value.errno == error
    assert gc.isenabled() and gc.get_freeze_count() == frozen


def test_census_json(capsys, trefoil_path):
    code, out, _ = run(capsys, "census", trefoil_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == 1
    assert payload["counts"]["triple_points"] == 4
    assert payload["counts"]["closed_curves"] == 1


def test_trace(capsys, trefoil_path):
    code, out, _ = run(capsys, "trace", trefoil_path)
    assert code == 0
    assert "closed curve closed:" in out
    assert out.count("open curve") == 2


def test_check_exchangeable_true(capsys, trefoil_path):
    code, out, _ = run(capsys, "check-exchangeable", trefoil_path,
                       "--gamma", "closed")
    assert code == 0
    assert "yes" in out


def test_check_exchangeable_empty_gamma(capsys, trefoil_path):
    code, _, _ = run(capsys, "check-exchangeable", trefoil_path, "--gamma", "")
    assert code == 0


def test_check_exchangeable_false(capsys, tmp_path):
    p = tmp_path / "r3.skd"
    p.write_text(fixture_text("r3.skd"))
    code, out, _ = run(capsys, "check-exchangeable", str(p), "--gamma", "ek1")
    assert code == 1
    assert "no" in out and "T0" in out


def test_gamma_accepts_edge_ids(capsys, trefoil_path):
    code, out, _ = run(capsys, "check-exchangeable", trefoil_path,
                       "--gamma", "closed.4", "--json")
    assert code == 0
    assert json.loads(out)["gamma"] == ["closed"]


def test_gamma_unknown_token_exits_2(capsys, trefoil_path):
    code, _, err = run(capsys, "check-exchangeable", trefoil_path,
                       "--gamma", "nope")
    assert code == 2
    assert "no curve or edge" in err


def test_gamma_skips_empty_tokens(capsys, trefoil_path):
    for selector in ("closed,,", ",closed", ","):
        code, out, _ = run(capsys, "check-exchangeable", trefoil_path,
                           "--gamma", selector, "--json")
        assert code == 0
        assert json.loads(out)["gamma"] == (["closed"] if "closed" in selector else [])


def test_check_dd(capsys, trefoil_path):
    code, _, _ = run(capsys, "check-dd", trefoil_path, "--gamma", "closed")
    assert code == 0
    code, out, _ = run(capsys, "check-dd", trefoil_path, "--gamma", "open1")
    assert code == 1
    assert "no" in out


def test_crossing_change_roundtrip(capsys, trefoil_path, tmp_path):
    out_path = tmp_path / "changed.skd"
    code, out, _ = run(capsys, "crossing-change", trefoil_path,
                       "--gamma", "closed", "-o", str(out_path))
    assert code == 0
    changed = parse_skd(out_path.read_text())
    assert changed.triples_by_id["T1"].line_types[0].value == "bm"


@pytest.mark.parametrize("command", ["crossing-change", "schematic", "apply"])
def test_produced_text_goes_to_stdout_without_an_output_file(capsys, trefoil_path, tmp_path,
                                                             command):
    # with no -o, or with -o -, the text -o would write is printed; under
    # --json it is the report's "text"
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    argv = [command, trefoil_path, *([str(skm)] if command == "apply" else []),
            *(["--gamma", "closed"] if command != "schematic" else [])]
    target = tmp_path / "out"
    assert run(capsys, *argv, "-o", str(target))[0] == 0
    text = target.read_text()
    for flags in ([], ["-o", "-"]):
        assert run(capsys, *argv, *flags) == (0, text, "")
        code, out, err = run(capsys, *argv, *flags, "--json")
        assert code == 0 and not err
        payload = json.loads(out)
        assert payload["command"] == command and payload["text"] == text


def test_crossing_change_non_exchangeable_exits_1(capsys, tmp_path):
    p = tmp_path / "r3.skd"
    p.write_text(fixture_text("r3.skd"))
    code, _, err = run(capsys, "crossing-change", str(p), "--gamma", "ek1",
                       "-o", str(tmp_path / "x.skd"))
    assert code == 1
    assert "not valid" in err


def test_apply_script_with_trail(capsys, trefoil_path, tmp_path):
    skm = tmp_path / "seq.skm"
    skm.write_text(fixture_text("trefoil_seq.skm"))
    out_path = tmp_path / "out.skd"
    trail_path = tmp_path / "trail.json"
    code, out, _ = run(capsys, "apply", trefoil_path, str(skm),
                       "--gamma", "closed", "-o", str(out_path),
                       "--trail", str(trail_path))
    assert code == 0
    assert "applied 3 move(s)" in out
    trail = json.loads(trail_path.read_text())["trail"]
    assert len(trail) == 3
    assert all(t["exchangeable"] and t["dd"] for t in trail)
    assert trail[-1]["gamma"] == ["closed"]
    assert parse_skd(out_path.read_text())


def test_apply_forbidden_script_exits_2(capsys, trefoil_path, tmp_path):
    skm = tmp_path / "bad.skm"
    skm.write_text("R2+ t1=T1 t2=T2\n")
    code, _, err = run(capsys, "apply", trefoil_path, str(skm))
    assert code == 2
    assert "t-descendent" in err


def test_apply_names_the_skm_file_in_its_diagnostics(capsys, trefoil_path, tmp_path):
    skm = tmp_path / "bad.skm"
    skm.write_text("R2+ t1=T1 t2=T2\nR1- circle=c nope\n")
    code, out, err = run(capsys, "apply", trefoil_path, str(skm))
    assert code == 2 and not out
    assert err.startswith(f"{skm}:1:1: move R2_PLUS violates the t-descendent condition")


def test_apply_refuses_an_id_its_reader_would_refuse(capsys, trefoil_path, tmp_path):
    # an empty id would be written as a record that the `.skd` reader rejects
    skm = tmp_path / "bad.skm"
    skm.write_text("R1+ circle=\n")
    out_path = tmp_path / "out.skd"
    code, out, err = run(capsys, "apply", trefoil_path, str(skm), "-o", str(out_path))
    assert (code, out, err) == (2, "", f"{skm}:1:1: R1_PLUS: bad id ''\n")
    assert not out_path.exists()


def test_apply_failing_step_exits_2(capsys, trefoil_path, tmp_path):
    skm = tmp_path / "bad.skm"
    skm.write_text("R1- circle=missing\n")
    code, _, err = run(capsys, "apply", trefoil_path, str(skm))
    assert code == 2
    assert "step 0" in err


def test_enumerate(capsys, trefoil_path):
    code, out, _ = run(capsys, "enumerate", trefoil_path, "--json")
    assert code == 0
    unions = json.loads(out)["unions"]
    assert {"gamma": [], "size": 0, "dd": True} in unions
    assert any(u["gamma"] == ["closed"] for u in unions)


def test_enumerate_takes_no_oracle(capsys, trefoil_path, oracle_path):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", trefoil_path, "--oracle", oracle_path])
    assert exc.value.code == 2
    assert "--oracle" in capsys.readouterr().err


def test_enumerate_gives_no_verdicts_for_inline_oracle_lines(capsys, tmp_path):
    p = tmp_path / "annotated.skd"
    p.write_text(bundled_text("trefoil.skd") + bundled_text("trefoil.oracle.skd"))
    for argv in ([], ["--json"]):
        code, out, _ = run(capsys, "enumerate", str(p), *argv)
        assert code == 0 and "verdict" not in out
    unions = json.loads(out)["unions"]
    assert {"gamma": ["closed"], "size": 1, "dd": True} in unions


@pytest.mark.parametrize("command", ["enumerate", "du-bound"])
def test_negative_max_size_exits_2(capsys, trefoil_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, trefoil_path, "--max-size", "-1"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_du_bound(capsys, trefoil_path, oracle_path):
    code, out, _ = run(capsys, "du-bound", trefoil_path,
                       "--oracle", oracle_path)
    assert code == 0
    assert "best_size: 1" in out
    assert "upper bound" in out


def test_du_bound_json(capsys, trefoil_path, oracle_path):
    code, out, _ = run(capsys, "du-bound", trefoil_path,
                       "--oracle", oracle_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_size"] == 1
    assert payload["format_version"] == 1


def test_schematic(capsys, trefoil_path, tmp_path):
    out_path = tmp_path / "trefoil.dot"
    code, _, _ = run(capsys, "schematic", trefoil_path, "-o", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert dot.startswith("graph singularity {")
    assert '"T_T1"' in dot


def test_fingerprint_stable(capsys, trefoil_path):
    code1, out1, _ = run(capsys, "fingerprint", trefoil_path)
    code2, out2, _ = run(capsys, "fingerprint", trefoil_path)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip()) == 64


TREFOIL_CHANGED_FP = \
    "267a73fac0a2d6308b9b56dec0b1ad94479f9144641dbfd4760509f0ae5ac58d"


def test_conflicting_oracle_lines_exit_2(capsys, trefoil_path, oracle_path):
    with open(oracle_path, "a") as f:
        f.write(f"oracle {TREFOIL_CHANGED_FP} nontrivial\n")
    code, out, err = run(capsys, "du-bound", trefoil_path, "--oracle", oracle_path)
    assert code == 2
    assert not out
    assert "trefoil.oracle.skd:5:1:" in err and "line 4" in err


def test_document_and_sidecar_oracle_conflict_exits_2(capsys, trefoil_path,
                                                      oracle_path):
    with open(trefoil_path, "a") as f:
        f.write(f"oracle {TREFOIL_CHANGED_FP} nontrivial\n")
    code, out, err = run(capsys, "du-bound", trefoil_path, "--oracle", oracle_path)
    assert code == 2
    assert TREFOIL_CHANGED_FP in err


def test_json_output_is_compact(capsys, trefoil_path, tmp_path):
    code, out, _ = run(capsys, "census", trefoil_path, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True,
                             separators=(",", ":")) + "\n"


# SHA-256 of the bounded scans' --json output on a 300-triple-point
# complex, computed with the per-triple-point mask scan that the flip words
# replaced: a change to any row, its order, a dd flag or a verdict shows
T300_GOLDEN = {
    "enumerate": "b9bf1b94d5263c51b45767145f4f8de9a7222e80986c9676b2b847099df79a0a",
    "du-bound": "0b081c4fd0cc831981041345c8cd2cc513f1c18db0fdcd175847c7f99f216f11",
}


def test_bounded_scans_at_scale_keep_their_golden_output(capsys, tmp_path):
    cx = generate_random_complex(3, SizeBudget(300, 600, 10), disks=3)
    skd, oracle = tmp_path / "t300.skd", tmp_path / "t300.oracle.skd"
    skd.write_text(serialize_canonical(cx))
    # a trivial diagram planted at a dd-passing union of two curves that
    # meet triple points, and the unchanged diagram marked nontrivial
    oracle.write_text(
        f"oracle {fingerprint(crossing_change(cx, ('E1123', 'E155')))} trivial\n"
        f"oracle {fingerprint(cx)} nontrivial\n")
    for command, extra in (("enumerate", []), ("du-bound", ["--oracle", str(oracle)])):
        code, out, _ = run(capsys, command, str(skd), *extra, "--max-size", "2", "--json")
        assert code == 0
        assert sha256(out.encode()).hexdigest() == T300_GOLDEN[command], command
    assert json.loads(out)["best_size"] == 2


# -- the command table and its parser ----------------------------------------


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``cli.parse_args`` replaced, kept as the
    reference it is checked against."""
    def _size(token: str) -> int:
        if not token.isdecimal():
            raise argparse.ArgumentTypeError(
                f"must be a non-negative integer, not {token!r}")
        return int(token)

    parser = argparse.ArgumentParser(
        prog="skdiag",
        description="Surface-knot diagram singularity-set toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("skd", help=".skd diagram file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("validate", cli._cmd_validate, help="check structural invariants")
    add("trace", cli._cmd_trace, help="list the traced double curves")
    add("census", cli._cmd_census, help="point/edge/curve counts")

    p = add("check-exchangeable", cli._cmd_check_exchangeable,
            help="is the union exchangeable?")
    p.add_argument("--gamma", default="", help="comma-separated curve or edge ids")

    p = add("check-dd", cli._cmd_check_dd,
            help="does the union satisfy the descendent disk condition?")
    p.add_argument("--gamma", default="")

    p = add("crossing-change", cli._cmd_crossing_change,
            help="apply the crossing change along a union")
    p.add_argument("--gamma", default="")
    p.add_argument("-o", "--output", default=None, help="output .skd path")

    p = add("apply", cli._cmd_apply, help="apply a t-descendent move script")
    p.add_argument("skm", help=".skm move script")
    p.add_argument("--gamma", default="")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--trail", default=None, help="write the per-move trail (JSON)")

    p = add("enumerate", cli._cmd_enumerate, help="list exchangeable unions")
    p.add_argument("--max-size", type=_size, default=None)

    p = add("du-bound", cli._cmd_du_bound,
            help="du-exchange-index upper bound against an oracle")
    p.add_argument("--oracle", default=None, help="triviality annotation file")
    p.add_argument("--max-size", type=_size, default=None)

    p = add("schematic", cli._cmd_schematic, help="export a DOT schematic")
    p.add_argument("-o", "--output", default=None)

    add("fingerprint", cli._cmd_fingerprint, help="canonical fingerprint")
    return parser


README = Path(__file__).parents[1] / "README.md"


def readme_cli_lines() -> list[list[str]]:
    """The words of each line of README's CLI block after ``skdiag``, its
    comment dropped."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```", 2)[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.strip()]


def readme_argvs() -> list[list[str]]:
    """Each README CLI line as argv, once without and once with each
    bracketed option."""
    out = []
    for words in readme_cli_lines():
        words = [{"<skd>": "in.skd", "<skm>": "in.skm", "k]": "2]"}.get(w, w) for w in words]
        required = [w for w in words if not w.startswith("[") and not w.endswith("]")]
        optional = [w.strip("[]") for w in words if w.startswith("[") or w.endswith("]")]
        out += [required, required + optional]
    return out


# each option in each spelling: its strings, the value attached, a unique prefix
SPELLINGS = [
    ["check-exchangeable", "a.skd", "--gamma", "c1,c2"],
    ["check-exchangeable", "a.skd", "--gamma=c1"],
    ["check-dd", "a.skd", "--gam", "e1"],
    ["crossing-change", "a.skd", "--output", "o.skd"],
    ["crossing-change", "a.skd", "--output=o.skd"],
    ["crossing-change", "a.skd", "--out", "o.skd"],
    ["crossing-change", "a.skd", "-o", "-"],
    ["crossing-change", "a.skd", "-oFILE"],
    ["apply", "a.skd", "b.skm", "--trail", "t.json"],
    ["apply", "a.skd", "b.skm", "--trail=t.json"],
    ["apply", "a.skd", "b.skm", "--tr", "t.json"],
    ["enumerate", "a.skd", "--max-size", "3"],
    ["enumerate", "a.skd", "--max-size=0"],
    ["enumerate", "a.skd", "--max", "2"],
    ["du-bound", "a.skd", "--oracle", "o.skd"],
    ["du-bound", "a.skd", "--oracle=o.skd"],
    ["du-bound", "a.skd", "--orac", "o.skd"],
    ["validate", "a.skd", "--json"],
    ["fingerprint", "a.skd", "--js"],
    # options before and between positionals, repeats (the last wins)
    ["apply", "--gamma", "g", "a.skd", "-o", "o.skd", "b.skm", "--json"],
    ["du-bound", "--json", "a.skd", "--max-size", "1", "--max-size", "4"],
    ["schematic", "a.skd", "-o", "x.dot", "--output", "y.dot"],
    # - and negative numbers are values; -- ends the options
    ["validate", "-"],
    ["check-dd", "a.skd", "--gamma", "-1"],
    ["check-dd", "a.skd", "--gamma=-x"],
    ["validate", "--", "-x.skd"],
    ["apply", "a.skd", "--", "-b.skm"],
    ["census", "--json", "--", "--json"],
]
#: accepted spellings parametrized after the rejected lines, so that adding
#: one leaves each earlier case's id as it was
LATER_SPELLINGS = [
    ["validate", "--", "--"],  # only the first -- ends the options
]

REJECTED = [
    [],  # no command
    ["valid", "a.skd"],  # an unknown command
    ["--json", "validate", "a.skd"],  # an option before the command
    ["validate"],  # a missing positional
    ["apply", "a.skd"],
    ["census", "a.skd", "b.skd"],  # an extra positional
    ["trace", "a.skd", "--gamma", "c"],  # an unknown option
    ["validate", "a.skd", "-x"],
    ["crossing-change", "a.skd", "-o"],  # an option with no value
    ["check-dd", "a.skd", "--gamma", "--json"],
    ["du-bound", "a.skd", "--oracle"],
    *(["du-bound", "a.skd", "--max-size", v] for v in ("-1", "x", "1.5")),
    ["enumerate", "a.skd", "--max-size=-1"],
    ["enumerate", "a.skd", "--oracle", "f"],
    ["enumerate", "--oracle", "f", "a.skd"],
    # a flag given a value
    *(["census", "a.skd", flag] for flag in ("--json=x", "--json=", "--js=1", "-h=x",
                                            "--help=x")),
    # a later -- is a plain word; the first is dropped only beside a positional
    ["validate", "--", "--", "a.skd"],
    ["apply", "a.skd", "--", "--", "b.skm"],
    ["validate", "a.skd", "-x", "--", "y"],
    ["enumerate", "a.skd", "-j", "--"],
    ["check-exchangeable", "-j", "--", "--"],
    ["census", "a.skd", "--=x"],  # a bare -- prefix is ambiguous
]


def parsed(parse, argv, capsys):
    """``parse(argv)``'s attributes but ``func``, or its exit code and, for
    a rejection, the last line it wrote to stderr."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        err = capsys.readouterr().err.splitlines()
        return exc.code, err[-1] if exc.code else None
    return {k: v for k, v in vars(args).items() if k != "func"}


def invalid_choice(word: str, quote=repr) -> tuple[int, str]:
    """The exit code and error line of an unknown command ``word``: skdiag's
    own, each choice quoted, or with ``quote=str`` that of a later argparse
    (3.13.13 lists the choices bare)."""
    return 2, (f"skdiag: error: argument command: invalid choice: {word!r} "
               f"(choose from {', '.join(map(quote, COMMANDS))})")


@pytest.mark.parametrize("argv, accepted", [
    *((argv, True) for argv in [*readme_argvs(), *SPELLINGS]),
    *((argv, False) for argv in [*REJECTED, ["-h"], ["--he"], ["apply", "a.skd", "-h"]]),
    *((argv, True) for argv in LATER_SPELLINGS)])
def test_the_parser_reads_argv_as_argparse_did(capsys, argv, accepted):
    # an accepted line gives the same attributes; a rejected one exits 2
    # with the same error line, and -h exits 0 (its text may differ)
    reference = parsed(reference_parser().parse_args, argv, capsys)
    assert isinstance(reference, dict) == accepted
    ours = parsed(cli.parse_args, argv, capsys)
    if argv and argv[0][:1] != "-" and argv[0] not in COMMANDS:
        assert ours == invalid_choice(argv[0])
        assert reference in (ours, invalid_choice(argv[0], str))
    else:
        assert ours == reference


def test_the_corpus_covers_each_command_and_option():
    accepted = [*readme_argvs(), *SPELLINGS]
    assert {argv[0] for argv in accepted} == set(COMMANDS)
    flags = {w.split("=")[0] for argv in accepted for w in argv if w.startswith("--")}
    assert {f"--{o.replace('_', '-')}" for o in OPTIONS if o != "help"} <= flags


def test_each_command_is_dispatched_to_its_function():
    # main calls _cmd_<name>, the function argparse dispatched each command to
    for name in COMMANDS:
        args = reference_parser().parse_args([name, "a.skd", "b.skm"][:2 + (name == "apply")])
        assert args.func is getattr(cli, "_cmd_" + name.replace("-", "_"))


def test_no_two_options_of_a_command_share_a_prefix():
    # parse_args takes the first option a prefix names, which is the only
    # one while no two of a command's options share a first letter
    for name, (_, _, *options) in COMMANDS.items():
        firsts = [o[0] for o in ("help", "json", *options)]
        assert len(firsts) == len(set(firsts)), name


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["du-bound", "-h"],
                                  ["apply", "a.skd", "--help"]])
def test_help_prints_the_table_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if argv[0].startswith("-"):
        assert all(f"  {name} " in out and help_line in out
                   for name, (help_line, *_) in COMMANDS.items())
    else:
        _, positionals, *options = COMMANDS[argv[0]]
        assert out.startswith(f"usage: skdiag {argv[0]} [options] {positionals}\n")
        assert all(OPTIONS[o][0] in out and OPTIONS[o][2] in out
                   for o in ("help", "json", *options))


def test_a_rejection_prints_a_usage_line_then_the_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["apply", "a.skd"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: skdiag apply [options] skd skm\n"
        "skdiag apply: error: the following arguments are required: skm\n")


def test_readme_names_each_command_with_its_positionals_and_options():
    table = {name: (positionals.split(), set(options))
             for name, (_, positionals, *options) in COMMANDS.items()}
    option_of = {flag: o for o, (flags, _, _) in OPTIONS.items() for flag in flags.split("/")}
    readme = {}
    for words in readme_cli_lines():
        positionals = [w.strip("<>") for w in words[1:] if w.startswith("<")]
        options = {option_of[w.strip("[")] for w in words if w.lstrip("[").startswith("-")}
        readme[words[0]] = (positionals, options)
    assert readme == table


def test_main_reads_sys_argv_when_given_no_argv(capsys, monkeypatch, trefoil_path):
    # the process entry, ``run`` (the ``skdiag`` console script and
    # ``python -m skdiag.cli``), calls main() with no arguments
    expected = run(capsys, "census", trefoil_path)
    monkeypatch.setattr(sys, "argv", ["skdiag", "census", trefoil_path])
    assert (main(), *capsys.readouterr()) == expected


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as file:
        scripts = tomllib.load(file)["project"]["scripts"]
    assert scripts == {"skdiag": "skdiag.cli:run"}


def module_env(**env) -> dict:
    """The environment of a ``python -m skdiag.cli`` child that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_run_turns_the_collector_off_for_the_command():
    # a command's objects live until os._exit, so its process runs main with no collector
    probe = ("import gc, skdiag.cli as cli\n"
             "cli.main = lambda: print(gc.isenabled()) or 0\n"
             "cli.run()\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=module_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_module_help_exits_0_and_names_every_command():
    proc = subprocess.run([sys.executable, "-m", "skdiag.cli", "--help"], env=module_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and not proc.stderr
    assert all(name in proc.stdout for name in COMMANDS)


@pytest.fixture(scope="module")
def large_outputs(tmp_path_factory):
    """Inputs whose output is larger than a 64 KiB pipe buffer: about 128 KB
    of ``trace`` and 1.6 MB of ``schematic --json`` on 3000 triple points,
    and 540 KB of ``enumerate --json`` on 13 free circles."""
    root = tmp_path_factory.mktemp("large")
    for name, budget in (("t3000.skd", SizeBudget(3000, 6000, 10)),
                         ("c13.skd", SizeBudget(0, 0, 13))):
        (root / name).write_text(serialize_canonical(generate_random_complex(1, budget)))
    return root


@pytest.mark.parametrize("unbuffered", ["", "1"])  # PYTHONUNBUFFERED: unset, set
@pytest.mark.parametrize("argv, taken", [
    (["trace", "t3000.skd"], 10), (["schematic", "t3000.skd", "--json"], 10),
    (["enumerate", "c13.skd", "--json"], 10),
    # closed before a byte is written: a buffered stdout fails at its last flush
    (["census", "c13.skd"], 0), (["--help"], 0),
    # one write of the whole text: unbuffered, a short count would pass unseen
    (["schematic", "t3000.skd"], 10)])
def test_a_closed_stdout_exits_2_without_a_traceback(large_outputs, argv, taken, unbuffered):
    # the reader takes a few bytes and closes the pipe, as `| head -c 10` does
    proc = subprocess.Popen([sys.executable, "-m", "skdiag.cli", *argv], cwd=large_outputs,
                            env=module_env(PYTHONUNBUFFERED=unbuffered),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    assert len(proc.stdout.read(taken)) == taken
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b""  # no traceback, and nothing "ignored" at exit


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["enumerate", "c13.skd", "--json"],
                                  ["schematic", "t3000.skd", "--json"]])
def test_a_large_output_reaches_its_reader_whole(capsys, monkeypatch, large_outputs, argv,
                                                 unbuffered):
    proc = subprocess.run([sys.executable, "-m", "skdiag.cli", *argv], cwd=large_outputs,
                          env=module_env(PYTHONUNBUFFERED=unbuffered), capture_output=True,
                          timeout=60)
    monkeypatch.chdir(large_outputs)
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)
    assert code == 0 and len(out) > 500_000


def run_both(capsys, monkeypatch, tmp_path, argv, inputs):
    """``argv`` in a ``python -m skdiag.cli`` child and through in-process ``main``, each in
    a directory of its own holding ``inputs`` (name: text or bytes): their exit codes,
    stdout, stderr, and the files each left beside its inputs."""
    results = []
    for side in ("process", "main"):
        work = tmp_path / side
        work.mkdir()
        for name, text in inputs.items():
            if isinstance(text, bytes):
                (work / name).write_bytes(text)
            else:
                (work / name).write_text(text)
        if side == "process":
            proc = subprocess.run([sys.executable, "-m", "skdiag.cli", *argv], cwd=work,
                                  env=module_env(), capture_output=True, text=True,
                                  timeout=60)
            outcome = (proc.returncode, proc.stdout, proc.stderr)
        else:
            monkeypatch.chdir(work)
            try:
                code = main(list(argv))
            except SystemExit as exc:  # -h, a rejected command line
                code = exc.code
            outcome = (code, *capsys.readouterr())
        written = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.name not in inputs}
        results.append((outcome, written))
    return results


BAD_SKD = "triple T1 lines=bm,bt,mt\n"


@pytest.mark.parametrize("argv, inputs", [
    (["validate", "t.skd"], {"t.skd": bundled_text("trefoil.skd")}),
    (["validate", "t.skd", "--json"], {"t.skd": BAD_SKD}),
    (["validate", "t.skd"], {"t.skd": "whatnot X\n"}),
    (["check-exchangeable", "t.skd", "--gamma", "closed"],
     {"t.skd": bundled_text("trefoil.skd")}),
    (["check-exchangeable", "r3.skd", "--gamma", "ek1"], {"r3.skd": fixture_text("r3.skd")}),
    (["crossing-change", "t.skd", "--gamma", "closed", "-o", "out.skd"],
     {"t.skd": bundled_text("trefoil.skd")}),
    (["apply", "t.skd", "seq.skm", "--gamma", "closed", "-o", "out.skd",
      "--trail", "trail.json"],
     {"t.skd": bundled_text("trefoil.skd"), "seq.skm": fixture_text("trefoil_seq.skm")}),
    (["du-bound", "t.skd", "--oracle", "o.skd", "--json"],
     {"t.skd": bundled_text("trefoil.skd"), "o.skd": bundled_text("trefoil.oracle.skd")}),
    (["du-bound", "--help"], {}),
    (["census", "t.skd", "--no-such-option"], {"t.skd": bundled_text("trefoil.skd")})])
def test_the_process_entry_gives_what_main_gives(capsys, monkeypatch, tmp_path, argv, inputs):
    process, in_process = run_both(capsys, monkeypatch, tmp_path, argv, inputs)
    assert process == in_process
    assert process[0][1] or process[0][2]  # the command said something


@pytest.mark.parametrize("unbuffered", ["", "1"])  # PYTHONUNBUFFERED: unset, set
@pytest.mark.parametrize("argv", [
    ["trace", "t3000.skd"],  # fails mid-command: about 128 KB of lines
    ["census", "c13.skd"], ["--help"]])  # fail at the last flush
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_2_with_one_error_line(large_outputs, argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "skdiag.cli", *argv], cwd=large_outputs,
                              env=module_env(PYTHONUNBUFFERED=unbuffered), stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write stdout: [Errno 28] No space left on device\n")


SEQ_SKM = fixture_text("trefoil_seq.skm")


@pytest.mark.parametrize("argv, inputs", [
    (["validate", "t.skd"], {"t.skd": b"branch B\xe9\n"}),
    (["check-exchangeable", "t.skd", "--gamma", "closed"], {"t.skd": b"branch B\xe9\n"}),
    (["apply", "t.skd", "seq.skm", "--gamma", "closed"],
     {"t.skd": bundled_text("trefoil.skd"), "seq.skm": SEQ_SKM.encode() + b"# \xe9\n"}),
    (["du-bound", "t.skd", "--oracle", "o.skd"],
     {"t.skd": bundled_text("trefoil.skd"), "o.skd": b"oracle \xe9 trivial\n"})])
def test_an_undecodable_input_exits_2(capsys, monkeypatch, tmp_path, argv, inputs):
    # a byte that is not UTF-8 is an input error in every input role, not a
    # false verdict and not a crash
    bad = next(name for name, text in inputs.items() if isinstance(text, bytes))
    process, in_process = run_both(capsys, monkeypatch, tmp_path, argv, inputs)
    assert process == in_process
    (code, out, err), written = process
    assert (code, out, written) == (2, "", {})
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["validate", "t.skd"], ["fingerprint", "t.skd"],
    ["du-bound", "t.skd", "--oracle", "o.skd"],
    ["apply", "t.skd", "seq.skm", "--gamma", "closed"]])
def test_a_byte_order_mark_is_not_a_record(capsys, monkeypatch, tmp_path, argv):
    inputs = {"t.skd": bundled_text("trefoil.skd"), "o.skd": bundled_text("trefoil.oracle.skd"),
              "seq.skm": SEQ_SKM}
    results = []
    for mark in ("", "\ufeff"):
        work = tmp_path / f"mark{len(mark)}"
        work.mkdir()
        for name, text in inputs.items():
            (work / name).write_text(mark + text, encoding="utf-8")
        monkeypatch.chdir(work)
        results.append(run(capsys, *argv))
    assert results[0] == results[1] and results[0][0] == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["schematic", "t.skd", "-o", "/dev/full"],  # fails as the file is closed
    ["schematic", "big.skd", "-o", "/dev/full"],  # fails at the write
    ["apply", "t.skd", "seq.skm", "--gamma", "closed", "-o", "/dev/full",
     "--trail", "t.json"]])
def test_a_failed_in_place_write_exits_2_and_leaves_nothing(capsys, monkeypatch, tmp_path,
                                                            argv):
    big = serialize_canonical(generate_random_complex(1, SizeBudget(300, 600, 4)))
    inputs = {"t.skd": bundled_text("trefoil.skd"), "big.skd": big, "seq.skm": SEQ_SKM}
    process, in_process = run_both(capsys, monkeypatch, tmp_path, argv, inputs)
    assert process == in_process
    assert process == ((2, "", "error: cannot write /dev/full: [Errno 28] No space left on "
                               "device: '/dev/full'\n"), {})  # no trail, no temporary


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("argv", [
    ["crossing-change", "t.skd", "--gamma", "closed", "-o", "{}"],
    ["schematic", "t.skd", "-o", "{}"],
    ["apply", "t.skd", "seq.skm", "--gamma", "closed", "--trail", "{}"]])
def test_dev_stdout_into_a_pipe_is_written_in_place(tmp_path, argv):
    # /dev/stdout on a pipe resolves to /proc/<pid>/fd/pipe:[N], which names no
    # file: the path as given is opened and written, not a temporary beside it
    (tmp_path / "t.skd").write_text(bundled_text("trefoil.skd"))
    (tmp_path / "seq.skm").write_text(SEQ_SKM)

    def child(target: str):
        return subprocess.run([sys.executable, "-m", "skdiag.cli",
                               *(arg.format(target) for arg in argv)], cwd=tmp_path,
                              env=module_env(), capture_output=True, text=True, timeout=60)

    to_file, piped = child("out"), child("/dev/stdout")
    written = (tmp_path / "out").read_text()
    assert (to_file.returncode, to_file.stderr, piped.returncode, piped.stderr) == (0, "", 0, "")
    # the file is written before the command prints its report
    report = to_file.stdout.replace("wrote out", "wrote /dev/stdout")
    assert written and piped.stdout == written + report
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "seq.skm", "t.skd"]

    # with stdout on a regular file, the text is written through the stream, and the
    # report follows it; a temporary renamed over the file would lose the report
    command = [sys.executable, "-m", "skdiag.cli", *argv]
    for flags, named in (([], ("wrote out", "wrote /dev/stdout")),
                         (["--json"], ('"output":"out"', '"output":"/dev/stdout"'))):
        to_file = subprocess.run([a.format("out") for a in command] + flags, cwd=tmp_path,
                                 env=module_env(), capture_output=True, text=True, timeout=60)
        with open(tmp_path / "stdout.txt", "w") as stdout:
            in_file = subprocess.run([a.format("/dev/stdout") for a in command] + flags,
                                     cwd=tmp_path, env=module_env(), stdout=stdout,
                                     stderr=subprocess.PIPE, text=True, timeout=60)
        assert (to_file.returncode, to_file.stderr, in_file.returncode, in_file.stderr) == (
            0, "", 0, "")
        written = (tmp_path / "out").read_text()
        assert (tmp_path / "stdout.txt").read_text() == written + to_file.stdout.replace(*named)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "seq.skm", "stdout.txt", "t.skd"]


def test_a_trail_of_dash_is_written_to_stdout(tmp_path):
    # --trail - is the process's stdout, as -o - is: no file named - is made
    (tmp_path / "t.skd").write_text(bundled_text("trefoil.skd"))
    (tmp_path / "seq.skm").write_text(SEQ_SKM)

    def child(*extra: str):
        return subprocess.run([sys.executable, "-m", "skdiag.cli", "apply", "t.skd", "seq.skm",
                               "--gamma", "closed", *extra], cwd=tmp_path, env=module_env(),
                              capture_output=True, text=True, timeout=60)

    for extra in ([], ["-o", "out.skd"]):
        dash, dev_stdout, to_file = (child("--trail", t, *extra)
                                     for t in ("-", "/dev/stdout", "trail.json"))
        assert (dash.returncode, dash.stderr) == (0, "")
        assert dash.stdout == dev_stdout.stdout
        assert dash.stdout == (tmp_path / "trail.json").read_text() + to_file.stdout
        assert not (tmp_path / "-").exists()
    # nor is it the file named - that -o ./- writes
    (tmp_path / "-").write_text("")
    dash, to_file = child("--trail", "-", "-o", "./-"), child("--trail", "-", "-o", "out.skd")
    assert (dash.returncode, dash.stderr) == (0, "")
    assert dash.stdout == to_file.stdout
    assert (tmp_path / "-").read_text() == (tmp_path / "out.skd").read_text()
    # and two paths to stdout are both written to it, into a pipe or a regular file
    twice = child("-o", "/dev/stdout", "--trail", "-")
    with open(tmp_path / "stdout.txt", "w") as stdout:
        in_file = subprocess.run(twice.args[:-1] + ["/dev/stdout"], cwd=tmp_path,
                                 env=module_env(), stdout=stdout, timeout=60)
    assert (twice.returncode, twice.stderr, in_file.returncode) == (0, "", 0)
    assert twice.stdout == (tmp_path / "stdout.txt").read_text() == (
        (tmp_path / "out.skd").read_text() + to_file.stdout)


def test_a_closed_stderr_is_no_stream_to_write_through(tmp_path):
    # with fd 2 closed, run stands a read-only /dev/null in for stderr on fd 2:
    # -o /dev/null is written in place, not through that stand-in
    (tmp_path / "t.skd").write_text(bundled_text("trefoil.skd"))

    def child(output: str, closed: str):
        return subprocess.run(["sh", "-c", f'exec "$@" {closed}', "sh", sys.executable, "-m",
                               "skdiag.cli", "crossing-change", "t.skd", "--gamma", "closed",
                               "-o", output], cwd=tmp_path, env=module_env(),
                              stdout=subprocess.PIPE, text=True, timeout=60)

    closed, to_file = child("/dev/null", "2>&-"), child("out", "")
    assert (closed.returncode, closed.stdout) == (0, to_file.stdout)



# every command, a false verdict of each kind, and the failed read of a missing file and
# of a non-UTF-8 one, each of which prints its one line on stderr
STREAM_ARGVS = [
    *([name, "t.skd", *extra] for name, extra in {
        "validate": [], "trace": [], "census": [], "fingerprint": [], "schematic": [],
        "check-exchangeable": ["--gamma", "closed"], "check-dd": ["--gamma", "closed"],
        "crossing-change": ["--gamma", "closed"], "apply": ["seq.skm", "--gamma", "closed"],
        "enumerate": ["--json"], "du-bound": ["--oracle", "o.skd"]}.items()),
    ["validate", "invalid.skd"], ["check-exchangeable", "r3.skd", "--gamma", "ek1"],
    ["crossing-change", "r3.skd", "--gamma", "ek1"], ["--help"],
    ["census", "missing.skd"], ["check-exchangeable", "bad.skd", "--gamma", "x"]]


# the fds each closed or on /dev/full; with fd 0 closed too, python starts with no
# sys.stderr at all, where a closed fd 2 alone leaves it one whose writes fail
STREAM_STATES = [*((fds, state) for fds in [(0,), (1,), (2,), (1, 2)]
                   for state in ("closed", "full")), ((0, 2), "closed")]


@pytest.fixture(scope="module")
def stream_work(tmp_path_factory):
    """A directory holding the inputs of STREAM_ARGVS, and each one's exit code and
    stdout with working streams."""
    work = tmp_path_factory.mktemp("streams")
    for name, text in {"t.skd": bundled_text("trefoil.skd"), "seq.skm": SEQ_SKM,
                       "o.skd": bundled_text("trefoil.oracle.skd"), "invalid.skd": BAD_SKD,
                       "r3.skd": fixture_text("r3.skd")}.items():
        (work / name).write_text(text)
    (work / "bad.skd").write_bytes(b"branch B\xe9\n")
    plain = [subprocess.run([sys.executable, "-m", "skdiag.cli", *argv], cwd=work,
                            env=module_env(), capture_output=True, timeout=60)
             for argv in STREAM_ARGVS]
    assert {proc.returncode for proc in plain} == {0, 1, 2}
    return work, plain


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])  # PYTHONUNBUFFERED: unset, set
@pytest.mark.parametrize("fds, state", STREAM_STATES, ids=[
    f"fd{','.join(map(str, fds))}-{state}" for fds, state in STREAM_STATES])
def test_no_stream_state_reads_as_a_false_verdict(stream_work, fds, state, unbuffered):
    # exit 1 is a false verdict: a closed or failing stdin, stdout or stderr exits 0 or
    # 2, or 1 where the command with working streams does, and never with a traceback;
    # a working stdout gets what it gets then, and no line meant for stderr
    work, plain = stream_work
    # sh closes the fds (n>&-) and execs the command; two run at a time
    closed = " ".join(f"{fd}>&-" for fd in fds) if state == "closed" else ""
    with open("/dev/full", "r+b") as full:
        streams = [subprocess.DEVNULL, subprocess.PIPE, subprocess.PIPE]
        for fd in fds if state == "full" else ():
            streams[fd] = full

        def child(argv):
            return subprocess.run(
                ["sh", "-c", f'exec "$@" {closed}', "sh", sys.executable, "-m", "skdiag.cli",
                 *argv], cwd=work, env=module_env(PYTHONUNBUFFERED=unbuffered),
                stdin=streams[0], stdout=streams[1], stderr=streams[2], timeout=60)

        with ThreadPoolExecutor(2) as pool:
            procs = list(pool.map(child, STREAM_ARGVS))
    for argv, proc, expected in zip(STREAM_ARGVS, procs, plain):
        assert proc.returncode in (0, 2) or proc.returncode == expected.returncode == 1, argv
        if fds == (0,):  # no command reads stdin
            assert proc.returncode == expected.returncode, argv
        if 1 not in fds:
            assert proc.stdout == expected.stdout, argv
        seen = (proc.stdout or b"") + (proc.stderr or b"")
        assert b"Traceback" not in seen and b"Exception ignored" not in seen, argv
