"""The records are immutable NamedTuples: semantics the callers rely on."""

import json

import pytest

from skdiag import (
    Arc,
    BranchPoint,
    BranchRef,
    Circle,
    CurveKind,
    DescendentDisk,
    DoubleCurve,
    Level,
    LineType,
    Pairing,
    R1Plus,
    SingularityComplex,
    SkdDocument,
    TriplePoint,
    TripleSlot,
    Violation,
    apply_move,
    census,
    fingerprint,
    flip_sets,
    validate,
)
from skdiag.cli import main
from skdiag.explorer import (
    DuStatus,
    DuVerdict,
    DuWitness,
    SizeBudget,
    TrivialityOracle,
    Verdict,
    du_index_upper_bound,
    generate_random_complex,
)
from skdiag.fixtures import fixture_text, trefoil


def records():
    cx = trefoil()
    return [
        TriplePoint("T1", (LineType.BM, LineType.BT, LineType.MT)),
        BranchPoint("B1"),
        Arc("E1", BranchRef("B1"), TripleSlot("T1", 0, "a")),
        Circle("C1"),
        DescendentDisk("D1", "E1", "C1", Pairing.CROSS, Level.UPPER, Level.UPPER),
        DoubleCurve("C1", ("C1",), CurveKind.CLOSED),
        Violation("code", "message"),
        validate(cx),
        census(cx),
        cx,
        flip_sets(cx, ())[0],
        TrivialityOracle.from_mapping({"ab": "trivial"}),
        DuWitness((), 0, True, True, Verdict.UNKNOWN),
        du_index_upper_bound(cx, TrivialityOracle()),
        DuVerdict(DuStatus.UNKNOWN),
        SkdDocument(cx),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_cached_views_cannot_be_assigned():
    cx = trefoil()
    for name in ("curves", "slot_index", "curve_by_edge", "lineage"):
        with pytest.raises(AttributeError):
            setattr(cx, name, None)
    with pytest.raises(AttributeError):
        TrivialityOracle().lookup = None
    assert cx.curves and TrivialityOracle().lookup("ab") is Verdict.UNKNOWN


def built_parsed_and_rebuilt():
    parsed = trefoil()
    built = SingularityComplex.build(parsed.triple_points, parsed.branch_points,
                                     parsed.edges, parsed.disks)
    fingerprint(parsed)  # the parent's views exist, so the child inherits them
    rebuilt = apply_move(parsed, R1Plus("n1"))
    assert "lineage" in vars(rebuilt)
    return [("built", built), ("parsed", parsed), ("rebuilt", rebuilt)]


@pytest.mark.parametrize("label, cx", built_parsed_and_rebuilt())
def test_cached_views_work_on_every_complex(label, cx):
    fresh = SingularityComplex.build(*cx)
    assert cx.curves == fresh.curves and cx.curves
    assert cx.slot_index == fresh.slot_index
    assert cx.curve_by_edge == fresh.curve_by_edge
    assert {cx.curve_of(e.id) for e in cx.edges} == {c.id for c in cx.curves}


def test_complexes_of_the_same_records_compare_and_hash_equal():
    cx = generate_random_complex(5, SizeBudget(3, 4, 2), disks=2)
    shuffled = SingularityComplex.build(cx.triple_points[::-1], cx.branch_points[::-1],
                                        cx.edges[::-1], cx.disks[::-1])
    assert shuffled == cx and hash(shuffled) == hash(cx)
    assert len({cx, shuffled}) == 1


def test_census_json_keeps_its_six_keys(tmp_path, capsys):
    path = tmp_path / "trefoil.skd"
    path.write_text(fixture_text("trefoil.skd"))
    assert main(["census", str(path), "--json"]) == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert sorted(counts) == ["arc_edges", "branch_points", "circles",
                              "closed_curves", "open_curves", "triple_points"]
    assert counts == census(trefoil())._asdict()


def test_size_budget_fields_in_order():
    assert list(vars(SizeBudget(3, 2, 1)).values()) == [3, 2, 1]


def test_document_oracle_default_is_not_shared_mutable_state():
    cx = trefoil()
    first, second = SkdDocument(cx), SkdDocument(cx)
    try:
        first.oracle["ab"] = "trivial"
    except TypeError:
        pass  # a read-only default cannot leak into other documents
    assert "ab" not in second.oracle and "ab" not in SkdDocument(cx).oracle
