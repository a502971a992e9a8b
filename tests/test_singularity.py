"""Complex construction, validation, tracing and census."""

import pytest

from skdiag import (
    Arc,
    BranchPoint,
    BranchRef,
    Circle,
    CurveKind,
    DescendentDisk,
    LineType,
    SingularityComplex,
    StructuralError,
    TriplePoint,
    TripleSlot,
    UnknownIdError,
    census,
    rebuilt,
    trace_curves,
    validate,
)
from skdiag.explorer import SizeBudget, generate_random_complex

ALL_TYPES = (LineType.MT, LineType.BM, LineType.BT)


def unionfind_partition(cx):
    """Independent oracle: union the two edges on each line of each triple
    point; the traced partition must match the resulting components."""
    parent = {e.id: e.id for e in cx.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in cx.triple_points:
        for line in range(3):
            ea, _ = cx.edge_end_at(TripleSlot(t.id, line, "a"))
            eb, _ = cx.edge_end_at(TripleSlot(t.id, line, "b"))
            parent[find(ea)] = find(eb)
    groups = {}
    for e in cx.edges:
        groups.setdefault(find(e.id), set()).add(e.id)
    return {frozenset(g) for g in groups.values()}


def traced_partition(cx):
    return {frozenset(c.edges) for c in cx.curves}


def test_empty_complex_is_valid():
    cx = SingularityComplex.empty()
    assert validate(cx).ok
    rec = census(cx)
    assert (rec.triple_points, rec.branch_points, rec.arc_edges, rec.circles,
            rec.open_curves, rec.closed_curves) == (0, 0, 0, 0, 0, 0)


def test_single_circle():
    cx = SingularityComplex.build(edges=[Circle("C1")])
    assert validate(cx).ok
    (curve,) = cx.curves
    assert curve.kind is CurveKind.CLOSED
    assert curve.edges == ("C1",)
    assert cx.curve_of("C1") == "C1"


def test_duplicate_ids_rejected():
    with pytest.raises(StructuralError, match="duplicate"):
        SingularityComplex.build(edges=[Circle("C1"), Circle("C1")])


def test_degenerate_loop_traces_as_closed():
    # one arc occupying both slots of the same line
    t = TriplePoint("T1", ALL_TYPES)
    loop = Arc("L", TripleSlot("T1", 0, "a"), TripleSlot("T1", 0, "b"))
    others = [Arc("M", TripleSlot("T1", 1, "a"), TripleSlot("T1", 1, "b")),
              Arc("N", TripleSlot("T1", 2, "a"), TripleSlot("T1", 2, "b"))]
    cx = SingularityComplex.build(triples=[t], edges=[loop] + others)
    assert validate(cx).ok
    assert all(c.kind is CurveKind.CLOSED and len(c.edges) == 1 for c in cx.curves)


def test_validate_reports_all_violations():
    t = TriplePoint("T1", (LineType.BM, LineType.BM, LineType.MT))
    arc = Arc("E1", TripleSlot("T1", 0, "a"), BranchRef("nowhere"))
    cx = SingularityComplex.build(triples=[t], edges=[arc])
    report = validate(cx)
    codes = {v.code for v in report.violations}
    assert "type-bijection" in codes
    assert "dangling-ref" in codes
    assert "slot-unused" in codes
    assert "counting-identity" in codes


def test_slot_conflict_names_both_edges():
    t = TriplePoint("T1", ALL_TYPES)
    shared = TripleSlot("T1", 0, "a")
    cx = SingularityComplex.build(
        triples=[t],
        branches=[BranchPoint("B1"), BranchPoint("B2")],
        edges=[Arc("E1", shared, BranchRef("B1")), Arc("E2", shared, BranchRef("B2"))])
    conflicts = [v for v in validate(cx).violations if v.code == "slot-conflict"]
    assert conflicts
    assert set(conflicts[0].subjects) == {("edge", "E1"), ("edge", "E2")}


def _loops_and_a_branch_arc(*replaced):
    """T1 with a loop on each of its lines, and an arc from B1 to B2: well
    formed, until an arc of ``replaced`` takes the place of its namesake."""
    arcs = {f"L{i}": Arc(f"L{i}", TripleSlot("T1", i, "a"), TripleSlot("T1", i, "b"))
            for i in range(3)}
    arcs["P"] = Arc("P", BranchRef("B1"), BranchRef("B2"))
    arcs.update((arc.id, arc) for arc in replaced)
    return SingularityComplex.build([TriplePoint("T1", ALL_TYPES)],
                                    [BranchPoint("B1"), BranchPoint("B2")], arcs.values())


def t1_unused(slot):
    return ("slot-unused", f"slot T:T1.{slot} is not used by any edge", (("triple", "T1"),))


B1_UNUSED = ("branch-unused", "branch point B1 is not used by any edge", (("branch", "B1"),))


@pytest.mark.parametrize("arcs, report", [
    # a self-slot: one endpoint claimed twice by one arc
    ([Arc("L0", TripleSlot("T1", 0, "a"), TripleSlot("T1", 0, "a"))],
     [("self-slot", "edge L0 uses endpoint T:T1.0.a twice", (("edge", "L0"),)),
      ("slot-conflict", "slot T:T1.0.a claimed by edges L0, L0",
       (("edge", "L0"), ("edge", "L0"))), t1_unused("0.b")]),
    # the counts balance (2|arcs| = 6T+B, one claim per key), but one key
    # is not a real endpoint: an unknown triple or branch point, a line 3,
    # a slot c, a branch id on a triple slot, a triple id on a branch ref
    ([Arc("L1", TripleSlot("T1", 1, "a"), TripleSlot("T9", 1, "b"))],
     [("dangling-ref", "edge L1: unknown triple point 'T9'", (("edge", "L1"),)),
      t1_unused("1.b")]),
    ([Arc("P", BranchRef("B9"), BranchRef("B2"))],
     [("dangling-ref", "edge P: unknown branch point 'B9'", (("edge", "P"),)), B1_UNUSED]),
    ([Arc("L2", TripleSlot("T1", 3, "a"), TripleSlot("T1", 2, "b"))],
     [("dangling-ref", "edge L2: bad slot T:T1.3.a", (("edge", "L2"),)), t1_unused("2.a")]),
    ([Arc("L2", TripleSlot("T1", 2, "c"), TripleSlot("T1", 2, "b"))],
     [("dangling-ref", "edge L2: bad slot T:T1.2.c", (("edge", "L2"),)), t1_unused("2.a")]),
    ([Arc("L0", TripleSlot("B1", 0, "a"), TripleSlot("T1", 0, "b"))],
     [("dangling-ref", "edge L0: unknown triple point 'B1'", (("edge", "L0"),)),
      t1_unused("0.a")]),
    ([Arc("P", BranchRef("T1"), BranchRef("B2"))],
     [("dangling-ref", "edge P: unknown branch point 'T1'", (("edge", "P"),)), B1_UNUSED]),
    # a contested endpoint, and the one left unused
    ([Arc("P", TripleSlot("T1", 0, "a"), BranchRef("B2"))],
     [("slot-conflict", "slot T:T1.0.a claimed by edges L0, P",
       (("edge", "L0"), ("edge", "P"))), B1_UNUSED]),
    # a rewiring that still claims each endpoint once is well formed
    ([Arc("L0", BranchRef("B1"), TripleSlot("T1", 0, "b")),
      Arc("P", TripleSlot("T1", 0, "a"), BranchRef("B2"))], []),
])
def test_validate_reports_each_broken_endpoint(arcs, report):
    cx = _loops_and_a_branch_arc(*arcs)
    assert [tuple(v) for v in validate(cx).violations] == report
    assert validate(_loops_and_a_branch_arc()).ok


def test_trace_raises_on_malformed():
    t = TriplePoint("T1", ALL_TYPES)
    cx = SingularityComplex.build(
        triples=[t], edges=[Arc("E1", TripleSlot("T1", 0, "a"),
                                 TripleSlot("T1", 0, "b"))])
    with pytest.raises(StructuralError, match=r"slot T:T1\.1\.a is not used by any edge"):
        trace_curves(cx)


def test_trefoil_counts(trefoil):
    assert validate(trefoil).ok
    rec = census(trefoil)
    assert rec.triple_points == 4
    assert rec.open_curves == 2
    assert rec.closed_curves == 1
    assert 2 * rec.arc_edges == 6 * rec.triple_points + rec.branch_points
    assert rec.branch_points == 2 * rec.open_curves


def test_trefoil_curve_of(trefoil):
    closed = trefoil.curves_by_id["closed"]
    for eid in closed.edges:
        assert trefoil.curve_of(eid) == "closed"
    # an edge adjacent to a branch point lies on an open curve
    assert trefoil.curve_of("open1.3") == "open1"
    assert trefoil.curves_by_id["open1"].kind is CurveKind.OPEN
    with pytest.raises(UnknownIdError):
        trefoil.curve_of("missing")


def test_opposition_along_traced_curves(trefoil):
    # consecutive edges of a curve meet at a triple point on opposite slots
    # of one line
    cx = trefoil
    for curve in cx.curves:
        edges = [cx.edges_by_id[e] for e in curve.edges]
        pairs = list(zip(edges, edges[1:]))
        if curve.kind is CurveKind.CLOSED and len(edges) > 1:
            pairs.append((edges[-1], edges[0]))
        for e1, e2 in pairs:
            shared = [(r1, r2) for r1 in e1.ends for r2 in e2.ends
                      if isinstance(r1, TripleSlot) and isinstance(r2, TripleSlot)
                      and r1.mate() == r2]
            assert shared, f"{e1.id} and {e2.id} are not in opposition"


def _loop(tid, line, eid):
    return Arc(eid, TripleSlot(tid, line, "a"), TripleSlot(tid, line, "b"))


def test_closed_curve_canonical_direction():
    # trace order from A is [A, C, B]; the canonical form starts at the
    # smallest edge id and runs in the direction with the smaller second id
    triples = [TriplePoint(t, ALL_TYPES) for t in ("T1", "T2", "T3")]
    cycle = [Arc("A", TripleSlot("T1", 0, "b"), TripleSlot("T2", 0, "a")),
             Arc("C", TripleSlot("T2", 0, "b"), TripleSlot("T3", 0, "a")),
             Arc("B", TripleSlot("T3", 0, "b"), TripleSlot("T1", 0, "a"))]
    fillers = [_loop(t, line, f"z{t}{line}")
               for t in ("T1", "T2", "T3") for line in (1, 2)]
    cx = SingularityComplex.build(triples=triples, edges=cycle + fillers)
    assert cx.curves_by_id["A"].edges == ("A", "B", "C")


def test_open_curve_starts_at_smaller_branch():
    t = TriplePoint("T1", ALL_TYPES)
    arcs = [Arc("e1", BranchRef("Z"), TripleSlot("T1", 0, "a")),
            Arc("e2", TripleSlot("T1", 0, "b"), BranchRef("A")),
            _loop("T1", 1, "f1"), _loop("T1", 2, "f2")]
    cx = SingularityComplex.build(
        triples=[t], branches=[BranchPoint("Z"), BranchPoint("A")], edges=arcs)
    # listed from branch point A, the lexicographically smaller end
    assert cx.curves_by_id["e1"].edges == ("e2", "e1")


def test_partition_matches_unionfind_on_fixtures(trefoil, r2, r3, r5, r6):
    for cx in (trefoil, r2, r3, r5, r6):
        assert traced_partition(cx) == unionfind_partition(cx)


@pytest.mark.parametrize("seed", range(1, 51))
def test_random_complexes_partition_and_counts(seed):
    cx = generate_random_complex(seed, SizeBudget(triples=seed % 4, branches=2,
                                                  circles=seed % 3))
    assert validate(cx).ok
    assert traced_partition(cx) == unionfind_partition(cx)
    rec = census(cx)
    assert 2 * rec.arc_edges == 6 * rec.triple_points + rec.branch_points
    assert rec.branch_points == 2 * rec.open_curves


def test_generator_is_deterministic():
    a = generate_random_complex(7, SizeBudget(3, 2, 1))
    b = generate_random_complex(7, SizeBudget(3, 2, 1))
    assert a == b


def test_generator_circles_only():
    cx = generate_random_complex(1, SizeBudget(triples=0, branches=0, circles=4))
    assert census(cx).closed_curves == 4


def test_rebuilt_rejects_a_double_claimed_slot(r2):
    r2.curves
    extra = Arc("X", TripleSlot("T1", 0, "a"), BranchRef("Bx"))
    child = rebuilt(r2, (), [BranchPoint("Bx"), extra])
    with pytest.raises(StructuralError, match=r"slot T:T1\.0\.a claimed by edges X, s1"):
        child.curves
    assert "slot-conflict" in {v.code for v in validate(child).violations}


def test_rebuilt_rejects_a_deleted_triples_claimed_slot(r2):
    r2.curves
    child = rebuilt(r2, [r2.triples_by_id["T1"]], ())
    with pytest.raises(StructuralError, match="edge s1: unknown triple point 'T1'"):
        child.slot_index
    assert "dangling-ref" in {v.code for v in validate(child).violations}


def test_rebuilt_from_a_malformed_parent_indexes_afresh(r2):
    broken = SingularityComplex.build(r2.triple_points, r2.branch_points,
                                      [e for e in r2.edges if e.id != "s1"])
    assert not validate(broken).ok
    fixed = rebuilt(broken, (), [r2.edges_by_id["s1"]])
    assert fixed.slot_index == r2.slot_index
    assert fixed.curves == r2.curves


def test_rebuilt_rejects_an_edit_removing_what_the_complex_lacks(r2):
    s1 = r2.edges_by_id["s1"]
    for removed in ([Circle("s1")], [s1._replace(end2=TripleSlot("T2", 0, "a"))],
                    [BranchPoint("Bx")], [s1, s1]):
        with pytest.raises(StructuralError, match=r"the edit removes"):
            rebuilt(r2, removed, ())


def test_rebuilt_rejects_an_added_id_that_survives(r2):
    with pytest.raises(StructuralError, match=r"duplicate edge id 's1'"):
        rebuilt(r2, (), [Circle("s1")])


def test_rebuilt_rejects_a_record_removed_twice(r2):
    s1 = r2.edges_by_id["s1"]
    with pytest.raises(StructuralError, match=r"^the edit removes a record twice$"):
        rebuilt(r2, [s1, r2.edges_by_id["u1"], s1], [Circle("s1")])


def build_error(records):
    """The message a fresh build of ``records`` raises."""
    with pytest.raises(StructuralError) as err:
        SingularityComplex.build(*([r for r in records if type(r) in kinds] for kinds in (
            (TriplePoint,), (BranchPoint,), (Arc, Circle), (DescendentDisk,))))
    return str(err.value)


@pytest.mark.parametrize("added, message", [
    ([Circle("X"), Circle("X")], "duplicate edge id 'X'"),
    ([Arc("X", BranchRef("Bx"), BranchRef("By")), BranchPoint("Bx"), BranchPoint("By"),
      Circle("X")], "duplicate edge id 'X'"),
    ([Circle("v2"), Circle("Y"), Circle("Y"), Circle("u2")], "duplicate edge id 'Y'"),
    ([BranchPoint("Bx"), BranchPoint("Bx"), Circle("X"), Circle("X")],
     "duplicate branch point id 'Bx'"),
])
def test_rebuilt_rejects_two_added_records_with_one_id(r2, added, message):
    with pytest.raises(StructuralError, match=f"^{message}$"):
        rebuilt(r2, (), added)
    assert build_error([*r2.triple_points, *r2.branch_points, *r2.edges, *added]) == message


@pytest.mark.parametrize("added, message", [
    ([Circle("u2")], "duplicate edge id 'u2'"),
    ([Circle("v2"), Circle("u2")], "duplicate edge id 'u2'"),
])
def test_rebuilt_rejects_an_added_circle_with_a_surviving_arcs_id(r2, added, message):
    """u2 and v2 are arcs of r2; an arc removed by the same edit frees its id."""
    with pytest.raises(StructuralError, match=f"^{message}$"):
        rebuilt(r2, (), added)
    assert build_error([*r2.edges, *added]) == message
    freed = rebuilt(r2, [r2.edges_by_id["u2"], r2.edges_by_id["v2"]],
                    [Circle("u2"), Circle("v2")])
    assert freed.edges_by_id["u2"] == Circle("u2")


def test_an_unknown_triple_point_is_an_unknown_id(trefoil):
    with pytest.raises(UnknownIdError, match=r"^unknown triple point 'nope'$"):
        trefoil.line_curve("nope", 0)
    with pytest.raises(UnknownIdError, match=r"^unknown triple point 'nope'$"):
        trefoil.edge_end_at(TripleSlot("nope", 1, "b"))


def test_an_unused_slot_of_a_known_point_is_a_structural_error(trefoil):
    with pytest.raises(StructuralError, match=r"^endpoint T:T1\.3\.a is unused$"):
        trefoil.line_curve("T1", 3)
    with pytest.raises(StructuralError, match=r"^endpoint T:T1\.0\.c is unused$"):
        trefoil.edge_end_at(TripleSlot("T1", 0, "c"))
