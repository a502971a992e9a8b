"""The scan commands' stdout against the envelope built from a DuReport.

``enumerate`` and ``du-bound`` write each witness row as text straight from
the scan's compact records. The reference below builds their output from
objects instead: a dict per witness of ``du_index_upper_bound``'s report,
encoded by ``json.dumps``. Every byte must agree, ``--json`` and human, on
seeded complexes with and without disks, 0 to 14 curves, every
``--max-size`` from none to 3, and an empty and a planted oracle.
"""

import json

import pytest

from skdiag import (
    EnumerationCapExceeded,
    crossing_change,
    enumerate_exchangeable,
    fingerprint,
    serialize_canonical,
)
from skdiag.cli import main
from skdiag.explorer import (
    EMPTY_ORACLE,
    ENUMERATION_CAP,
    SizeBudget,
    TrivialityOracle,
    Verdict,
    du_index_upper_bound,
    generate_random_complex,
)


def reference_rows(report, verdicts: bool) -> list[dict]:
    return [{"gamma": list(w.gamma), "size": w.size, "dd": w.dd}
            | ({"verdict": w.verdict.value} if verdicts else {})
            for w in report.witnesses]


def named(gamma) -> str:
    return ",".join(gamma) or "(empty)"


def reference_stdout(command: str, report, as_json: bool) -> str:
    """What ``command`` prints for the scan whose report is ``report``."""
    rows = reference_rows(report, verdicts=command == "du-bound")
    if command == "enumerate":
        payload = {"command": "enumerate", "unions": rows}
        human = [f"size={r['size']} gamma={named(r['gamma'])} "
                 f"dd={'yes' if r['dd'] else 'no'}" for r in rows]
    else:
        payload = {"command": "du-bound", "best_size": report.best_size,
                   "note": report.note, "witnesses": rows}
        human = [f"note: {report.note}"]
        if report.best_size is None:
            human.append("best_size: unknown (no annotated trivial result)")
        else:
            human.append(f"best_size: {report.best_size} "
                         f"(gamma={named(report.best_witness().gamma)})")
        human += [f"  size={w.size} gamma={named(w.gamma)} -> {w.verdict.value}"
                  for w in report.witnesses if w.dd and w.verdict is not Verdict.UNKNOWN]
    if as_json:
        return json.dumps({"format_version": 1, **payload}, sort_keys=True,
                          separators=(",", ":")) + "\n"
    return "".join(f"{line}\n" for line in human)


def complex_with(curves: int, disks: int):
    """The first generated complex, over seeds in order, with exactly this
    many curves: through one to four triple points when it has any."""
    for seed in range(10_000):
        some = 1 if curves else 0
        budget = SizeBudget(some * (1 + seed % 4), some * 2 * (seed // 4 % 4),
                            max(0, curves // 2 - seed // 16 % 4))
        cx = generate_random_complex(seed, budget, disks=disks)
        if len(cx.curves) == curves:
            return cx
    raise AssertionError(f"no generated complex has {curves} curves")


def planted(cx) -> dict[str, str]:
    """A trivial verdict at the largest dd-passing union of at most two
    curves, and a nontrivial one at the unchanged diagram (unless that is
    the trivial one)."""
    report = du_index_upper_bound(cx, EMPTY_ORACLE, max_size=2)
    gamma = max((w.gamma for w in report.witnesses if w.dd), key=len)
    trivial = fingerprint(crossing_change(cx, gamma))
    return {fingerprint(cx): "nontrivial", trivial: "trivial"}


def run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("disks", [0, 2])
@pytest.mark.parametrize("curves", range(15))
def test_scan_rows_match_the_reference_envelope(capsys, tmp_path, curves, disks):
    cx = complex_with(curves, disks)
    skd = tmp_path / "cx.skd"
    skd.write_text(serialize_canonical(cx))
    for mapping in ({}, planted(cx)):
        oracle_file = tmp_path / "oracle.skd"
        oracle_file.write_text("".join(f"oracle {fp} {v}\n" for fp, v in mapping.items()))
        oracle = TrivialityOracle.from_mapping(mapping)
        for max_size in (None, 0, 1, 2, 3):
            bound = [] if max_size is None else ["--max-size", str(max_size)]
            reports = {"enumerate": du_index_upper_bound(cx, EMPTY_ORACLE, max_size),
                       "du-bound": du_index_upper_bound(cx, oracle, max_size)}
            for command, report in reports.items():
                extra = ["--oracle", str(oracle_file)] if command == "du-bound" else []
                for flags in ([], ["--json"]):
                    out = run(capsys, command, str(skd), *extra, *bound, *flags)
                    assert out == reference_stdout(command, report, bool(flags)), \
                        (command, max_size, mapping, flags)


def test_a_scan_past_the_cap_is_refused(capsys, tmp_path):
    # 21 curves, through two triple points and with two disks: 2^21
    # candidate subsets exceed ENUMERATION_CAP (2^20)
    cx = generate_random_complex(0, SizeBudget(2, 4, 18), disks=2)
    assert len(cx.curves) == 21 and cx.triple_points and len(cx.disks) == 2
    for scan in (enumerate_exchangeable, lambda cx: du_index_upper_bound(cx, EMPTY_ORACLE)):
        with pytest.raises(EnumerationCapExceeded) as exc:
            scan(cx)
        assert exc.value.cap == ENUMERATION_CAP
    # the CLI's cap is the same: 21 curves exceed it
    skd = tmp_path / "big.skd"
    skd.write_text(serialize_canonical(generate_random_complex(0, SizeBudget(0, 0, 21))))
    for command in ("enumerate", "du-bound"):
        assert main([command, str(skd), "--json"]) == 2
        out, err = capsys.readouterr()
        assert not out and "exceed the enumeration cap" in err
        assert main([command, str(skd), "--max-size", "1"]) == 0
        capsys.readouterr()
