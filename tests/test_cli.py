"""CLI subcommands, exit codes, JSON output."""

import gc
import json
from hashlib import sha256

import pytest

from skdiag import crossing_change, fingerprint, parse_skd, serialize_canonical
from skdiag.cli import main
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


@pytest.mark.parametrize("text, code", [
    (bundled_text("trefoil.skd"), 0),  # well formed
    ("triple T1 lines=bm,bt,mt\n", 1),  # a false verdict
    ("whatnot X\n", 2),  # a parse error
    (None, 2)])  # a missing file
def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path, text, code):
    # the CLI reads with the collector paused and freezes what it read; an
    # in-process call must hand the collector back as it found it
    path = tmp_path / "in.skd"
    if text is not None:
        path.write_text(text)
    frozen = gc.get_freeze_count()
    assert run(capsys, "validate", str(path))[0] == code
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


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
