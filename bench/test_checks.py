"""Self-test of the benchmark's correctness checks.

Each check must pass on the program's real output and fail on a
deliberately corrupted copy of it. Run from the repository root:

    python -m pytest bench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from checks import SkdText, check_rewritten, check_trail, sha256_text  # noqa: E402
from run import in_process  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import setup_du_scan, setup_ingest, setup_rewrite  # noqa: E402


def _command(workload, name: str, path_part: str):
    return next(c for c in workload.commands
                if c.name == name and any(path_part in a for a in c.argv))


@pytest.fixture(scope="module")
def du_scan(tmp_path_factory):
    return setup_du_scan(7, tmp_path_factory.mktemp("du"))


@pytest.fixture(scope="module")
def du_bound_output(du_scan):
    # the capped complex: 1,562 candidates, the cheapest scan in the batch
    command = _command(du_scan, "du-bound", "capped")
    returncode, stdout = in_process(command)
    assert returncode == 0
    return command, stdout


def test_du_bound_check_passes_on_real_output(du_bound_output):
    command, stdout = du_bound_output
    assert command.check(0, stdout) == []


def test_du_bound_check_fails_on_dropped_witness(du_bound_output):
    command, stdout = du_bound_output
    payload = json.loads(stdout)
    payload["witnesses"].pop(len(payload["witnesses"]) // 2)
    assert command.check(0, json.dumps(payload))


@pytest.mark.parametrize("delta", [-1, 1])
def test_du_bound_check_fails_on_wrong_best_size(du_bound_output, delta):
    command, stdout = du_bound_output
    payload = json.loads(stdout)
    payload["best_size"] += delta
    assert command.check(0, json.dumps(payload))


def test_du_bound_check_fails_on_nonzero_exit(du_bound_output):
    command, stdout = du_bound_output
    assert command.check(2, stdout)


def test_tracer_counts_the_scan_and_restores_the_program(du_scan):
    import skdiag.crossing
    import skdiag.explorer

    original = skdiag.explorer.is_exchangeable
    command = _command(du_scan, "enumerate", "capped")
    tracer = Tracer()
    tracer.install()
    try:
        returncode, stdout = in_process(command, tracer)
    finally:
        tracer.uninstall()
    assert returncode == 0 and command.check(0, stdout) == []
    assert skdiag.explorer.is_exchangeable is original
    assert skdiag.crossing.is_exchangeable is original
    calls = tracer.durations()
    candidates = du_scan.params["capped-21"]["candidates"]
    assert len(calls["crossing.is_exchangeable"]) == candidates
    assert tracer.counters["explorer.candidates"] == candidates
    assert tracer.counters["explorer.exchangeable"] == \
        du_scan.params["capped-21"]["exchangeable"]
    assert [s.name for s in tracer.spans if s.parent is None] == ["cli.enumerate"]


def test_enumerate_check_fails_on_flipped_dd_flag(du_scan):
    command = _command(du_scan, "enumerate", "capped")
    returncode, stdout = in_process(command)
    assert returncode == 0 and command.check(0, stdout) == []
    payload = json.loads(stdout)
    payload["unions"][-1]["dd"] = not payload["unions"][-1]["dd"]
    assert command.check(0, json.dumps(payload))


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    return setup_ingest(7, tmp_path_factory.mktemp("ingest"))


def test_crossing_change_check_fails_on_flipped_line_type(ingest):
    command = _command(ingest, "crossing-change", "medium")
    returncode, stdout = in_process(command)
    assert returncode == 0 and command.check(0, stdout) == []
    out = Path(command.argv[command.argv.index("-o") + 1])
    text = out.read_text(encoding="utf-8")
    # swap the first two line types of one triple point: still well-formed,
    # but no longer the crossing change of the input
    corrupted = re.sub(r"(?m)^(triple \S+ lines=)(\w\w),(\w\w)", r"\1\3,\2",
                       text, count=1)
    assert corrupted != text
    out.write_text(corrupted, encoding="utf-8")
    payload = json.loads(stdout)
    payload["fingerprint"] = sha256_text(corrupted)
    assert command.check(0, json.dumps(payload))


def test_census_check_fails_on_wrong_count(ingest):
    command = _command(ingest, "census", "medium")
    returncode, stdout = in_process(command)
    assert returncode == 0 and command.check(0, stdout) == []
    payload = json.loads(stdout)
    payload["counts"]["closed_curves"] += 1
    assert command.check(0, json.dumps(payload))


def test_rewrite_checks_fail_on_corrupted_results(tmp_path):
    workload = setup_rewrite(7, tmp_path)
    sizes = [48] * workload.params["moves"]
    trail = [{"index": i, "kind": "R6", "exchangeable": True, "dd": True,
              "gamma": ["c"] * size} for i, size in enumerate(sizes)]
    assert check_trail(trail, sizes) == []
    assert check_trail(trail[:-1], sizes)
    trail[3]["dd"] = False
    assert check_trail(trail, sizes)
    trail[3]["dd"] = True
    trail[5]["gamma"].pop()  # a curve lost in transport
    assert check_trail(trail, sizes)

    text = (tmp_path / "rewrite.skd").read_text(encoding="utf-8")
    census = SkdText.parse(text).census()
    assert check_rewritten(text, census) == []
    dropped = "\n".join(line for line in text.splitlines()
                        if not line.startswith("edge E1 ")) + "\n"
    assert check_rewritten(dropped, census)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
