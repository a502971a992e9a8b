"""Enumeration, du-exchange bounds, oracle behavior, random generation."""

import json
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from skdiag import (
    EnumerationCapExceeded,
    OracleConflict,
    SingularityComplex,
    all_curves,
    crossing_change,
    fingerprint,
    is_exchangeable,
    serialize_canonical,
)
from skdiag import crossing, explorer
from skdiag.cli import main
from skdiag.crossing import changed_fingerprinter, flip_words
from skdiag.explorer import (
    DuStatus,
    EMPTY_ORACLE,
    ENUMERATION_CAP,
    SizeBudget,
    TrivialityOracle,
    Verdict,
    du_index_upper_bound,
    enumerate_exchangeable,
    generate_random_complex,
    is_du_exchangeable,
)
from skdiag.singularity import Circle


def brute_force_scan(cx):
    """Independent 2^n re-scan over every subset in the same order."""
    ids = sorted(cx.curves_by_id)
    out = []
    for k in range(len(ids) + 1):
        for combo in combinations(ids, k):
            if is_exchangeable(cx, frozenset(combo)):
                out.append(frozenset(combo))
    return out


def test_enumeration_matches_brute_force(trefoil, r2, r3, r5, r6):
    for cx in (trefoil, r2, r3, r5, r6):
        assert enumerate_exchangeable(cx) == brute_force_scan(cx)


def test_enumeration_order_and_membership(r3):
    unions = enumerate_exchangeable(r3)
    sizes = [len(g) for g in unions]
    assert sizes == sorted(sizes)
    assert unions[0] == frozenset()
    assert all_curves(r3) in unions
    assert len(set(unions)) == len(unions)  # duplicate-free


def test_empty_and_full_always_present():
    for seed in range(1, 11):
        cx = generate_random_complex(seed, SizeBudget(2, 2, 1))
        unions = enumerate_exchangeable(cx)
        assert frozenset() in unions
        assert all_curves(cx) in unions


def test_no_triple_points_means_everything_exchangeable():
    cx = generate_random_complex(5, SizeBudget(triples=0, branches=4, circles=2))
    n = len(cx.curves)
    assert len(enumerate_exchangeable(cx)) == 2 ** n


def test_max_size_bound(r3):
    unions = enumerate_exchangeable(r3, max_size=1)
    assert all(len(g) <= 1 for g in unions)


def test_cap_refusal():
    # 2^21 candidate subsets exceed ENUMERATION_CAP (2^20); the refusal comes
    # at the call, before any union is scanned
    cx = SingularityComplex.build(edges=[Circle(f"C{i:02d}") for i in range(21)])
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_exchangeable(cx)
    assert exc.value.cap == ENUMERATION_CAP
    # du_records refuses at its call too, before its stream is taken
    with pytest.raises(EnumerationCapExceeded):
        explorer.du_records(cx, EMPTY_ORACLE)
    assert len(enumerate_exchangeable(cx, max_size=1)) == 22
    # 2^20 is at the cap, not past it: its (lazy) records are not refused
    at_cap = SingularityComplex.build(edges=[Circle(f"C{i:02d}") for i in range(20)])
    ids, _ = explorer.du_records(at_cap, EMPTY_ORACLE)
    assert ids == [f"C{i:02d}" for i in range(20)]


@pytest.mark.parametrize("disks", [0, 3])
@pytest.mark.parametrize("seed", range(1, 9))
def test_enumeration_is_the_du_report_gammas(seed, disks):
    # one record stream: the same unions in the same order at every size bound
    cx = generate_random_complex(seed, SizeBudget(3, 2, 2), disks=disks)
    assert len(cx.disks) == disks
    for k in (0, 1, len(cx.curves), None):
        witnesses = du_index_upper_bound(cx, EMPTY_ORACLE, k).witnesses
        assert [tuple(sorted(g)) for g in enumerate_exchangeable(cx, k)] == \
            [w.gamma for w in witnesses]


def test_negative_max_size_rejected(trefoil, trefoil_oracle):
    with pytest.raises(ValueError):
        enumerate_exchangeable(trefoil, max_size=-1)
    with pytest.raises(ValueError):
        du_index_upper_bound(trefoil, trefoil_oracle, max_size=-1)
    assert enumerate_exchangeable(trefoil, max_size=0) == [frozenset()]


def test_du_bound_trefoil(trefoil, trefoil_oracle):
    report = du_index_upper_bound(trefoil, trefoil_oracle)
    assert report.best_size == 1
    witness = report.best_witness()
    assert witness.gamma == ("closed",)
    assert witness.exchangeable and witness.dd
    assert witness.verdict is Verdict.TRIVIAL
    assert "upper bound" in report.note


def test_du_bound_empty_oracle(trefoil):
    report = du_index_upper_bound(trefoil, EMPTY_ORACLE)
    assert report.best_size is None
    assert all(w.verdict is Verdict.UNKNOWN for w in report.witnesses)
    # unknown verdicts are carried, never dropped
    assert len(report.witnesses) == len(enumerate_exchangeable(trefoil))


def test_du_bound_self_trivial(trefoil):
    oracle = TrivialityOracle.from_mapping({fingerprint(trefoil): "trivial"})
    report = du_index_upper_bound(trefoil, oracle)
    assert report.best_size == 0
    assert report.best_witness().gamma == ()


def test_du_bound_monotone_in_oracle(trefoil, trefoil_oracle):
    base = du_index_upper_bound(trefoil, trefoil_oracle).best_size
    richer = trefoil_oracle.merged_with(
        TrivialityOracle.from_mapping({fingerprint(trefoil): "trivial"}))
    assert du_index_upper_bound(trefoil, richer).best_size <= base


def test_du_bound_nontrivial_annotation_is_not_a_witness(trefoil):
    changed = crossing_change(trefoil, {"closed"})
    oracle = TrivialityOracle.from_mapping({fingerprint(changed): "nontrivial"})
    report = du_index_upper_bound(trefoil, oracle)
    assert report.best_size is None
    assert any(w.verdict is Verdict.NONTRIVIAL for w in report.witnesses)


def test_is_du_exchangeable(trefoil, trefoil_oracle):
    verdict = is_du_exchangeable(trefoil, trefoil_oracle)
    assert verdict.status is DuStatus.DU_EXCHANGEABLE
    assert verdict.witness == ("closed",)
    unknown = is_du_exchangeable(trefoil, EMPTY_ORACLE)
    assert unknown.status is DuStatus.UNKNOWN
    assert unknown.witness is None


def test_is_du_exchangeable_trivial_diagram(trefoil):
    oracle = TrivialityOracle.from_mapping({fingerprint(trefoil): "trivial"})
    verdict = is_du_exchangeable(trefoil, oracle)
    assert verdict.status is DuStatus.DU_EXCHANGEABLE
    assert verdict.witness == ()


def test_is_du_exchangeable_stops_at_the_first_layer_with_a_witness(monkeypatch):
    # 16 free circles: the empty union is a trivial witness, so the scan
    # checks that one candidate, not all 2^16
    cx = SingularityComplex.build(edges=[Circle(f"C{i:02d}") for i in range(16)])
    oracle = TrivialityOracle.from_mapping({fingerprint(cx): "trivial"})
    checked, scan = [], explorer.exchangeable_unions

    def counted(candidates, low):
        candidates = list(candidates)
        checked.extend(union for union, _ in candidates)
        return scan(candidates, low)
    monkeypatch.setattr(explorer, "exchangeable_unions", counted)
    assert is_du_exchangeable(cx, oracle).witness == ()
    assert checked == [()]


def test_is_du_exchangeable_names_the_smallest_witness_of_its_layer():
    # every changed diagram but the unchanged one is trivial, so two unions
    # of size 1 are witnesses; the verdict names the one du-bound names
    cx = generate_random_complex(0, SizeBudget(4, 6, 1))
    words = flip_words(cx)[0]
    changed = changed_fingerprinter(cx)
    fps = {changed(reduce(or_, map(words.__getitem__, g), 0))
           for g in enumerate_exchangeable(cx, max_size=1)} - {fingerprint(cx)}
    oracle = TrivialityOracle.from_mapping(dict.fromkeys(fps, "trivial"))
    report = du_index_upper_bound(cx, oracle)
    first = [w.gamma for w in report.witnesses if w.size == 1
             and w.dd and w.verdict is Verdict.TRIVIAL]
    assert len(first) >= 2 and report.best_witness().gamma == first[0]
    assert is_du_exchangeable(cx, oracle).witness == first[0]


@pytest.mark.parametrize("seed", range(6))
def test_one_best_witness_rule(capsys, tmp_path, seed):
    # du-bound, du_index_upper_bound, is_du_exchangeable and
    # DuReport.best_witness name one witness: the smallest trivial union
    cx = generate_random_complex(seed, SizeBudget(4, 6, 2))
    words = flip_words(cx)[0]
    changed = changed_fingerprinter(cx)
    fps = sorted({changed(reduce(or_, map(words.__getitem__, g), 0))
                  for g in enumerate_exchangeable(cx)})
    oracle = TrivialityOracle.from_mapping(dict.fromkeys(fps[seed % 3::3], "trivial"))
    report = du_index_upper_bound(cx, oracle)
    best = report.best_witness()
    assert report.best_size == (best and best.size)
    assert is_du_exchangeable(cx, oracle).witness == (best and best.gamma)
    path = tmp_path / "cx.skd"
    path.write_text(serialize_canonical(cx) + "".join(
        f"oracle {fp} trivial\n" for fp, _ in oracle.entries))
    assert main(["du-bound", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["best_size"] == report.best_size


def test_du_bound_hashes_each_changed_diagram_once(monkeypatch):
    # a dense complex: 2,048 exchangeable unions, all dd-passing, share 8
    # flip words, and the changed diagram is a function of the word alone
    cx = generate_random_complex(2, SizeBudget(3, 18, 2))
    words = flip_words(cx)[0]
    unions = enumerate_exchangeable(cx)
    by_word = {g: reduce(or_, (words[c] for c in g), 0) for g in unions}
    assert len(unions) == 2048 and len(set(by_word.values())) == 8
    half = sorted({fingerprint(crossing_change(cx, g)) for g in unions})[::2]
    oracle = TrivialityOracle.from_mapping(dict.fromkeys(half, "trivial"))
    digests, digest = [], crossing.digest

    def counted(text):
        digests.append(text)
        return digest(text)
    monkeypatch.setattr(crossing, "digest", counted)
    report = du_index_upper_bound(cx, oracle)
    assert len(digests) <= len(set(by_word.values()))
    monkeypatch.undo()
    for w in report.witnesses:
        expected = fingerprint(crossing_change(cx, w.gamma)) in half
        assert w.dd and (w.verdict is Verdict.TRIVIAL) == expected


def test_is_du_exchangeable_keeps_the_cap_and_max_size():
    # a witness in the first layer does not lift the cap, nor a bad max_size
    cx = SingularityComplex.build(edges=[Circle(f"C{i:02d}") for i in range(21)])
    oracle = TrivialityOracle.from_mapping({fingerprint(cx): "trivial"})
    with pytest.raises(EnumerationCapExceeded):
        is_du_exchangeable(cx, oracle)
    with pytest.raises(ValueError):
        is_du_exchangeable(cx, oracle, max_size=-1)
    assert is_du_exchangeable(cx, oracle, max_size=0).witness == ()


def test_oracle_lookup_defaults_to_unknown():
    assert EMPTY_ORACLE.lookup("feedface") is Verdict.UNKNOWN
    oracle = TrivialityOracle.from_mapping({"aa": "nontrivial"})
    assert oracle.lookup("aa") is Verdict.NONTRIVIAL
    assert oracle.lookup("bb") is Verdict.UNKNOWN


def test_generator_odd_endpoint_adjustment(caplog):
    import logging
    with caplog.at_level(logging.INFO, logger="skdiag.explorer"):
        cx = generate_random_complex(3, SizeBudget(triples=1, branches=1,
                                                   circles=0))
    assert len(cx.branch_points) == 2  # one added to even out the pairing
    assert any("odd endpoint count" in r.message for r in caplog.records)


def test_generator_with_disks_is_valid():
    from skdiag import validate
    cx = generate_random_complex(11, SizeBudget(2, 2, 1), disks=2)
    assert validate(cx).ok
    assert len(cx.disks) == 2
    assert all(d.consistent for d in cx.disks)


def test_merged_oracle_conflict_raises(trefoil_oracle):
    (fp, verdict), = trefoil_oracle.entries
    assert trefoil_oracle.merged_with(trefoil_oracle) == trefoil_oracle
    other = "nontrivial" if verdict is Verdict.TRIVIAL else "trivial"
    with pytest.raises(OracleConflict, match=fp):
        trefoil_oracle.merged_with(TrivialityOracle.from_mapping({fp: other}))
