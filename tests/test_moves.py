"""Move application, gamma transport, commutation squares, sequences."""

from itertools import chain, combinations

import pytest

from skdiag import (
    CurveKind,
    DiskDeclaration,
    Level,
    MoveRejected,
    Pairing,
    R1Minus,
    R1Plus,
    R4Minus,
    R4Plus,
    R6,
    SequenceAborted,
    SingularityComplex,
    TriplePoint,
    UnknownIdError,
    apply_move,
    apply_sequence,
    apply_with_transport,
    census,
    crossing_change,
    fingerprint,
    flip_sets,
    is_exchangeable,
    is_valid_flip,
    normalize_kind_token,
    parse_skd,
    parse_skm,
    relabel_locus_for_change,
    satisfies_dd_condition,
    transport,
    validate,
    validate_t_descendent,
)
from skdiag import fixtures as bundled
from skdiag import moves
from skdiag.canonical import canonical_lines
from skdiag.moves import union_flags
from skdiag.singularity import (
    ARCS,
    BRANCHES,
    CIRCLES,
    DISKS,
    TRIPLES,
    Arc,
    BranchRef,
    DescendentDisk,
    LineType,
    TripleSlot,
)

from tests.conftest import (
    fixture_text,
    load_fixture,
    r2_move,
    r3_move,
    r5_move,
    r6_move,
    smooth,
)

CIRCLE_AND_ARC = """
branch P1
branch P2
edge x1 B:P1 B:P2
circle C1
"""

P9 = DiskDeclaration("P9", "closed.2", Pairing.CROSS, Level.UPPER, Level.UPPER)
Q9 = DiskDeclaration("Q9", "closed.3", Pairing.PARALLEL, Level.LOWER, Level.LOWER)


def transport_suite():
    """(label, complex, move, gamma) for every per-kind membership case."""
    trefoil = bundled.trefoil()
    small = parse_skd(CIRCLE_AND_ARC)
    r2 = load_fixture("r2")
    r3 = load_fixture("r3")
    r5 = load_fixture("r5")
    r6 = load_fixture("r6")
    return [
        ("R1+ no disk", trefoil, R1Plus("bub"), {"closed"}),
        ("R1+ partner in", trefoil, R1Plus("bub", P9), {"closed"}),
        ("R1+ partner out", trefoil, R1Plus("bub", P9), {"open1", "open2"}),
        ("R1- curve in", small, R1Minus("C1"), {"C1", "x1"}),
        ("R1- curve out", small, R1Minus("C1"), {"x1"}),
        ("R4+ partner in", trefoil, R4Plus("arc9", "Q1", "Q2", Q9), {"closed"}),
        ("R4+ partner out", trefoil, R4Plus("arc9", "Q1", "Q2", Q9),
         {"open1", "open2"}),
        ("R4- curve in", small, R4Minus("x1"), {"C1", "x1"}),
        ("R4- curve out", small, R4Minus("x1"), {"C1"}),
        ("R2- s in", r2, r2_move(), {"s1"}),
        ("R2- s out", r2, r2_move(), set()),
        ("R2- s in with deleted curve", r2, r2_move(), {"s1", "u1"}),
        ("R3- none", r3, r3_move(), set()),
        ("R3- s only", r3, r3_move(), {"es1"}),
        ("R3- w only", r3, r3_move(), {"ew1"}),
        ("R3- s and k", r3, r3_move(), {"es1", "ek1"}),
        ("R3- w and k", r3, r3_move(), {"ew1", "ek1"}),
        ("R3- all three", r3, r3_move(), {"es1", "ew1", "ek1"}),
        ("R5- s in", r5, r5_move(), {"e0"}),
        ("R5- s out", r5, r5_move(), set()),
        ("R5- other curve in", r5, r5_move(), {"g1"}),
        ("R6 both in", r6, r6_move(), {"x1", "x2"}),
        ("R6 neither in", r6, r6_move(), set()),
    ]


SUITE = transport_suite()
SUITE_IDS = [label for label, *_ in SUITE]

EXPECTED_TRIPLE_DELTA = {
    "R1_PLUS": 0, "R1_MINUS": 0, "R4_PLUS": 0, "R4_MINUS": 0,
    "R2_MINUS": -2, "R3_MINUS": -6, "R5_MINUS": -1, "R6": 0,
}
EXPECTED_CLOSED_DELTA = {
    "R1_PLUS": 1, "R1_MINUS": -1, "R2_MINUS": -2, "R3_MINUS": -3,
}
EXPECTED_OPEN_DELTA = {"R4_PLUS": 1, "R4_MINUS": -1}


# -- per-kind structural rewrites ------------------------------------------


@pytest.mark.parametrize("label,cx,move,gamma", SUITE, ids=SUITE_IDS)
def test_count_deltas(label, cx, move, gamma):
    new = apply_move(cx, move)
    assert validate(new).ok
    old_c, new_c = census(cx), census(new)
    kind = move.kind.name
    delta_t = new_c.triple_points - old_c.triple_points
    assert delta_t == EXPECTED_TRIPLE_DELTA[kind]
    assert delta_t <= 0  # triple-point monotonicity
    if kind in EXPECTED_CLOSED_DELTA:
        assert new_c.closed_curves - old_c.closed_curves == \
            EXPECTED_CLOSED_DELTA[kind]
    if kind in EXPECTED_OPEN_DELTA:
        assert new_c.open_curves - old_c.open_curves == EXPECTED_OPEN_DELTA[kind]
        assert new_c.branch_points - old_c.branch_points == \
            2 * EXPECTED_OPEN_DELTA[kind]


@pytest.mark.parametrize("label,cx,move,gamma", SUITE, ids=SUITE_IDS)
def test_transport_preserves_exchangeability_and_dd(label, cx, move, gamma):
    assert is_exchangeable(cx, gamma)
    new, new_gamma = apply_with_transport(cx, gamma, move)
    assert is_exchangeable(new, new_gamma)
    if satisfies_dd_condition(cx, gamma):
        assert satisfies_dd_condition(new, new_gamma)


@pytest.mark.parametrize("label,cx,move,gamma", SUITE, ids=SUITE_IDS)
def test_commutation_square(label, cx, move, gamma):
    new, new_gamma = apply_with_transport(cx, gamma, move)
    lhs = apply_move(crossing_change(cx, gamma),
                     relabel_locus_for_change(cx, gamma, move))
    rhs = crossing_change(new, new_gamma)
    assert fingerprint(lhs) == fingerprint(rhs)


def test_r2_shortens_s_curve(r2):
    new, gamma = apply_with_transport(r2, {"s1"}, r2_move())
    (curve,) = new.curves
    assert curve.kind is CurveKind.OPEN
    assert len(curve.edges) == len(r2.curves_by_id["s1"].edges) - 2
    assert gamma == {curve.id}
    assert curve.id == "s1.1"  # merged id derived by suffixing


def test_r2_transport_case_table(r2):
    m = r2_move()
    assert transport(r2, set(), m) == frozenset()
    assert transport(r2, {"s1"}, m) == {"s1.1"}
    # a deleted closed curve in gamma is dropped from the transported union
    assert transport(r2, {"s1", "u1"}, m) == {"s1.1"}


def test_r3_shortens_each_survivor(r3):
    new = apply_move(r3, r3_move())
    for old_id in ("es1", "ew1", "ek1"):
        old = r3.curves_by_id[old_id]
        new_curve = new.curves_by_id[f"{old_id}.1"]
        assert len(old.edges) - len(new_curve.edges) == 2


def test_r3_case_table(r3):
    m = r3_move()
    cases = {
        frozenset(): frozenset(),
        frozenset({"es1"}): frozenset({"es1.1"}),
        frozenset({"ew1"}): frozenset({"ew1.1"}),
        frozenset({"es1", "ek1"}): frozenset({"es1.1", "ek1.1"}),
        frozenset({"ew1", "ek1"}): frozenset({"ew1.1", "ek1.1"}),
        frozenset({"es1", "ew1", "ek1"}): frozenset({"es1.1", "ew1.1", "ek1.1"}),
    }
    for gamma, expected in cases.items():
        assert transport(r3, gamma, m) == expected


def test_r3_missing_patterns_rejected_and_match_flip_table(r3):
    m = r3_move()
    center = r3.triples_by_id["T0"]
    for gamma, names in (({"ek1"}, {"gamma_k"}),
                         ({"es1", "ew1"}, {"gamma_s", "gamma_w"})):
        with pytest.raises(MoveRejected, match="outside the six") as exc:
            transport(r3, gamma, m)
        assert f"pattern {{{', '.join(sorted(names))}}} at T0" in str(exc.value)
        # cross-check: the flip set at the central triple point is invalid
        flipped = {center.line_types[i] for i in range(3)
                   if r3.line_curve("T0", i) in gamma}
        assert not is_valid_flip(flipped)
    # and each of the six listed cases has a valid central flip set
    for gamma in (set(), {"es1"}, {"ew1"}, {"es1", "ek1"}, {"ew1", "ek1"},
                  {"es1", "ew1", "ek1"}):
        flipped = {center.line_types[i] for i in range(3)
                   if r3.line_curve("T0", i) in gamma}
        assert is_valid_flip(flipped)


def test_r5_shortens_s_by_one(r5):
    new, gamma = apply_with_transport(r5, {"e0"}, r5_move())
    s_new = new.curves_by_id["e0.1"]
    assert len(r5.curves_by_id["e0"].edges) - len(s_new.edges) == 1
    assert gamma == {"e0.1"}


def test_r1_plus_then_minus_restores(trefoil):
    up = R1Plus("bub", P9)
    mid = apply_move(trefoil, up)
    assert "bub" in mid.edges_by_id and "P9" in mid.disks_by_id
    down = R1Minus("bub", drop_disks=("P9",))
    back = apply_move(mid, down)
    assert fingerprint(back) == fingerprint(trefoil)


def test_r4_plus_then_minus_restores(trefoil):
    up = R4Plus("arc9", "Q1", "Q2")
    mid = apply_move(trefoil, up)
    back = apply_move(mid, R4Minus("arc9"))
    assert fingerprint(back) == fingerprint(trefoil)


def test_r6_replaces_disk_with_dual(r6):
    new = apply_move(r6, r6_move())
    dual = new.disks_by_id["DD"]
    assert {dual.edge1, dual.edge2} == {"x1.1", "x2.1"}
    assert dual.pair is Pairing.PARALLEL
    # the dual undoes the exchange: resplicing it restores the original
    # endpoint pairs (with fresh ids)
    back = apply_move(new, R6("DD"))
    orig_pairs = {frozenset((str(e.end1), str(e.end2)))
                  for e in r6.arcs}
    back_pairs = {frozenset((str(e.end1), str(e.end2)))
                  for e in back.arcs}
    assert orig_pairs == back_pairs


def test_r6_steps_past_a_taken_fresh_id():
    # x1.1 is already an edge, so the exchanged half of x1 is minted as x1.2
    cx = parse_skd(fixture_text("r6.skd") + "branch P5\nbranch P6\nedge x1.1 B:P5 B:P6\n")
    new = apply_move(cx, r6_move())
    assert sorted(new.edges_by_id) == ["x1.1", "x1.2", "x2.1"]
    assert new.edges_by_id["x1.1"] == cx.edges_by_id["x1.1"]
    dual = new.disks_by_id["DD"]
    assert (dual.edge1, dual.edge2) == ("x1.2", "x2.1")


def test_r6_parallel_pairing():
    text = fixture_text("r6.skd").replace("pair=cross", "pair=parallel")
    cx = parse_skd(text)
    new = apply_move(cx, r6_move())
    by_id = new.edges_by_id
    assert str(by_id["x1.1"].end1) == "B:P1"
    assert str(by_id["x1.1"].end2) == "B:P3"  # end1-with-end1 joining
    assert str(by_id["x2.1"].end1) == "B:P2"
    assert str(by_id["x2.1"].end2) == "B:P4"


def test_r6_absorbs_circle():
    cx = parse_skd(CIRCLE_AND_ARC +
                   "disk M e1=x1 e2=C1 pair=cross level1=lower level2=lower\n")
    new, gamma = apply_with_transport(cx, {"x1", "C1"}, R6("M"))
    assert len(new.curves) == len(cx.curves) - 1  # merge case
    (curve,) = new.curves
    assert curve.kind is CurveKind.OPEN and curve.edges == ("C1.1",)
    assert not new.disks  # the dual would touch one edge twice: dropped
    assert gamma == {"C1.1"}


def test_r6_same_curve_split():
    # a disk joining two edges of one closed curve: the exchange splits it
    text = """
triple T lines=mt,bm,bt
edge A T:T.0.a T:T.1.a
edge B T:T.1.b T:T.0.b
edge C T:T.2.a T:T.2.b
disk DD2 e1=A e2=B pair=cross level1=upper level2=upper
"""
    cx = parse_skd(text)
    assert len(cx.curves) == 2
    new, gamma = apply_with_transport(cx, {"A"}, R6("DD2"))
    assert validate(new).ok
    assert len(new.curves) == 3  # split case: +1
    assert gamma == {"A.1", "B.1"}


def test_r6_curve_delta_never_exceeds_one(trefoil, r6):
    for cx, move in ((trefoil, R6("D1")), (r6, r6_move())):
        new = apply_move(cx, move)
        assert abs(len(new.curves) - len(cx.curves)) <= 1


def test_disk_remap_follows_merged_edges():
    text = fixture_text("r2.skd") + """
circle C1
disk K e1=s2 e2=C1 pair=cross level1=upper level2=upper
"""
    cx = parse_skd(text)
    new = apply_move(cx, r2_move())
    disk = new.disks_by_id["K"]
    assert disk.edge1 == "s1.1"  # s2 merged into s1.1
    assert disk.edge2 == "C1"
    assert disk.pair is Pairing.CROSS  # s2 not reversed in the merge


def test_disk_remap_toggles_pairing_on_reversed_constituent():
    # same site, but s2 is recorded with its ends swapped, so the merge
    # traverses it backwards and the corner pairing toggles
    text = fixture_text("r2.skd").replace(
        "edge s2 T:T1.0.b T:T2.0.a", "edge s2 T:T2.0.a T:T1.0.b") + """
circle C1
disk K e1=s2 e2=C1 pair=cross level1=upper level2=upper
"""
    cx = parse_skd(text)
    new = apply_move(cx, r2_move())
    assert new.disks_by_id["K"].pair is Pairing.PARALLEL


def test_disk_on_deleted_curve_must_be_listed():
    text = fixture_text("r2.skd") + \
        "disk K e1=u1 e2=s1 pair=cross level1=upper level2=upper\n"
    cx = parse_skd(text)
    with pytest.raises(MoveRejected, match="drop_disks"):
        apply_move(cx, r2_move())
    new = apply_move(cx, r2_move()._replace(drop_disks=("K",)))
    assert not new.disks


def test_disk_collapse_rejected():
    # a disk joining two edges that merge into one cannot be represented
    text = fixture_text("r2.skd") + \
        "disk K e1=s1 e2=s3 pair=cross level1=upper level2=upper\n"
    cx = parse_skd(text)
    with pytest.raises(MoveRejected, match="both sides"):
        apply_move(cx, r2_move())


def test_unrelated_drop_disk_rejected(trefoil):
    with pytest.raises(MoveRejected, match="does not reference"):
        apply_move(apply_move(trefoil, R1Plus("bub")),
                   R1Minus("bub", drop_disks=("D1",)))


# -- rejection paths --------------------------------------------------------


def test_r1_minus_requires_circle(r2):
    with pytest.raises(MoveRejected, match="not a free circle"):
        apply_move(r2, R1Minus("s1"))


def test_r1_plus_fresh_id(trefoil):
    with pytest.raises(MoveRejected, match="already exists"):
        apply_move(trefoil, R1Plus("closed"))


def test_r4_minus_requires_branch_bounded_arc(r2):
    with pytest.raises(MoveRejected, match="two branch points"):
        apply_move(r2, R4Minus("s2"))


def test_r2_wrong_curves(r2):
    with pytest.raises(MoveRejected, match="not closed"):
        apply_move(r2, r2_move()._replace(curves=("s1", "u1")))


def test_r2_splice_must_cover_all_orphans(r2):
    with pytest.raises(MoveRejected, match="not reconnected"):
        apply_move(r2, r2_move()._replace(splice=smooth("T1")))


def test_r2_splice_slot_reuse_rejected(r2):
    bad = (
        (TripleSlot("T1", 0, "a"), TripleSlot("T1", 0, "b")),
        (TripleSlot("T1", 0, "a"), TripleSlot("T2", 0, "b")),
    )
    with pytest.raises(MoveRejected, match="used twice"):
        apply_move(r2, r2_move()._replace(splice=bad))


def test_r2_postcondition_shortening():
    # gamma_s closed with only the two cancelled passages: smoothing turns
    # it into a circle, one edge short of the required two
    text = """
triple T1 lines=bm,bt,mt
triple T2 lines=bm,bt,mt
edge s1 T:T1.0.b T:T2.0.a
edge s2 T:T2.0.b T:T1.0.a
edge u1 T:T1.1.a T:T2.1.a
edge u2 T:T2.1.b T:T1.1.b
edge v1 T:T1.2.a T:T2.2.a
edge v2 T:T2.2.b T:T1.2.b
"""
    cx = parse_skd(text)
    assert validate(cx).ok
    with pytest.raises(MoveRejected, match="fewer double edges"):
        apply_move(cx, r2_move())


def test_r3_center_mismatch(r3):
    with pytest.raises(MoveRejected):
        apply_move(r3, r3_move()._replace(
            center="Ta", triples=("T0", "Tb", "Tc", "Td", "Te", "Tf"),
            splice=smooth("T0", "Tb", "Tc", "Td", "Te", "Tf")))


R2_SITE, R3_SITE = fixture_text("r2.skd"), fixture_text("r3.skd")
#: r2, r3, a free circle, and sites that each break one cancellation-site rule
SITE_TEXTS = {
    "r2": R2_SITE,
    "r3": R3_SITE,
    "circle": "circle o\n",
    # r2 with its open curve cut between the sites, so that their surviving
    # lines belong to two curves; r3 with gamma_s cut between Ta and T0
    "r2 cut": R2_SITE.replace("edge s2 T:T1.0.b T:T2.0.a\n", "edge s2 T:T1.0.b B:B3\n"
                              "edge w2 B:B4 T:T2.0.a\nbranch B3\nbranch B4\n"),
    "r3 cut": R3_SITE.replace("edge es2 T:Ta.0.b T:T0.0.a\n", "edge es2 T:Ta.0.b B:Bx\n"
                              "edge es5 B:By T:T0.0.a\nbranch Bx\nbranch By\n"),
    # r2's sites with each closed curve crossing one of them on two lines
    "twice": """
triple T1 lines=bm,bt,mt
triple T2 lines=bm,bt,mt
branch B1
branch B2
edge s1 B:B1 T:T1.0.a
edge s2 T:T1.0.b T:T2.0.a
edge s3 T:T2.0.b B:B2
edge u1 T:T1.1.b T:T1.2.a
edge u2 T:T1.2.b T:T1.1.a
edge v1 T:T2.1.b T:T2.2.a
edge v2 T:T2.2.b T:T2.1.a
""",
    # six triple points on one open curve p0, where the closed curves f1
    # and g1 meet at four of them (Ka-Kd), and g1 and h1 at two
    "four": "".join(f"triple K{t} lines=bm,bt,mt\n" for t in "abcdef") + """
branch P1
branch P2
edge p0 B:P1 T:Ka.0.a
edge p1 T:Ka.0.b T:Kb.0.a
edge p2 T:Kb.0.b T:Kc.0.a
edge p3 T:Kc.0.b T:Kd.0.a
edge p4 T:Kd.0.b T:Ke.0.a
edge p5 T:Ke.0.b T:Kf.0.a
edge p6 T:Kf.0.b B:P2
edge f1 T:Ka.1.b T:Kb.1.a
edge f2 T:Kb.1.b T:Kc.1.a
edge f3 T:Kc.1.b T:Kd.1.a
edge f4 T:Kd.1.b T:Ka.1.a
edge g1 T:Ka.2.b T:Kb.2.a
edge g2 T:Kb.2.b T:Kc.2.a
edge g3 T:Kc.2.b T:Kd.2.a
edge g4 T:Kd.2.b T:Ke.1.a
edge g5 T:Ke.1.b T:Kf.1.a
edge g6 T:Kf.1.b T:Ka.2.a
edge h1 T:Ke.2.b T:Kf.2.a
edge h2 T:Kf.2.b T:Ke.2.a
""",
}
K_TRIPLES = tuple(f"K{t}" for t in "abcdef")
SURVIVORS_DIFFER = ("the surviving lines at the two sites of a deleted-curve pair "
                    "belong to different curves")
#: each cancellation-site rule broken once: the sites, the move, and the
#: check and message that reject it. R2- and R3- share every rule but their
#: curve counts and R3-'s centre rules.
SITE_RULES = [
    ("r2 three curves", ("r2",), r2_move()._replace(curves=("u1", "v1", "s1")),
     "locus", "R2- deletes exactly two closed curves"),
    ("r2 equal curves", ("r2",), r2_move()._replace(curves=("u1", "u1")),
     "pattern", "the two deleted closed curves must be distinct"),
    ("r2 missing curve", ("r2",), r2_move()._replace(curves=("u1", "w9")),
     "pattern", "no double curve with id 'w9'"),
    ("r2 open curve", ("r2",), r2_move()._replace(curves=("s1", "u1")),
     "pattern", "curve s1 is not closed"),
    ("r2 curve leaves", ("r3",), r2_move()._replace(
        t1="Ta", t2="Tb", curves=("f1", "g1"), splice=smooth("Ta", "Tb")),
     "pattern", "curve f1 leaves the deleted triple points"),
    ("r2 site without both", ("twice",), r2_move(),
     "pattern", "triple point T1 does not carry two distinct deleted curves"),
    ("r2 survivors differ", ("r2 cut",), r2_move(), "pattern", SURVIVORS_DIFFER),
    ("r3 two curves", ("r3",), r3_move()._replace(curves=("f1", "g1")),
     "locus", "R3- deletes exactly three closed curves"),
    ("r3 four curves", ("r3",), r3_move()._replace(curves=("f1", "g1", "h1", "es1")),
     "locus", "R3- deletes exactly three closed curves"),
    ("r3 equal curves", ("r3",), r3_move()._replace(curves=("f1", "f1", "g1")),
     "pattern", "the three deleted closed curves must be distinct"),
    ("r3 missing curve", ("r3",), r3_move()._replace(curves=("f1", "g1", "zz")),
     "pattern", "no double curve with id 'zz'"),
    ("r3 open curve", ("r3",), r3_move()._replace(curves=("f1", "g1", "es1")),
     "pattern", "curve es1 is not closed"),
    ("r3 curve leaves", ("r3",), r3_move()._replace(
        center="Ta", triples=("T0", "Tb", "Tc", "Td", "Te", "Tf"),
        splice=smooth("T0", "Tb", "Tc", "Td", "Te", "Tf")),
     "pattern", "curve f1 leaves the deleted triple points"),
    ("r3 site without both", ("r3", "circle"), r3_move()._replace(curves=("f1", "g1", "o")),
     "pattern", "triple point Tc does not carry two distinct deleted curves"),
    ("r3 pair at four sites", ("four", "r2"), r3_move()._replace(
        triples=K_TRIPLES, center="T1", splice=smooth(*K_TRIPLES)),
     "pattern", "each pair of deleted curves must meet at exactly two of the six "
                "triple points"),
    ("r3 survivors differ", ("r3 cut",), r3_move(), "pattern", SURVIVORS_DIFFER),
    ("r3 centre carries a curve twice", ("r3", "twice"), r3_move()._replace(center="T1"),
     "pattern", "the central triple point's three lines must carry three distinct curves"),
    ("r3 centre off the survivors", ("r3", "r2"), r3_move()._replace(center="T1"),
     "pattern", "the central triple point's curves do not match the surviving curves "
                "at the deleted sites"),
]


@pytest.mark.parametrize("label, names, move, check, message", SITE_RULES,
                         ids=[row[0] for row in SITE_RULES])
def test_each_cancellation_site_rule_rejects_with_its_check(label, names, move, check,
                                                            message):
    cx = parse_skd("".join(SITE_TEXTS[name] for name in names))
    assert validate(cx).ok
    with pytest.raises(MoveRejected) as info:
        apply_move(cx, move)
    assert (info.value.check, str(info.value)) == (check, message)


#: each birth rule broken once on the trefoil: the move, and the check and
#: message that reject it. The new edge, then (R4+) its branch points, then
#: the declared disk are checked, in that order.
BIRTH_RULES = [
    ("r1 edge exists", R1Plus("closed"), "fresh-id", "edge id 'closed' already exists"),
    ("r4 edge exists", R4Plus("open1", "Q1", "Q2"),
     "fresh-id", "edge id 'open1' already exists"),
    ("r4 branch exists", R4Plus("arc9", "Q1", "B2"),
     "fresh-id", "branch point id 'B2' already exists"),
    ("r4 equal branches", R4Plus("arc9", "Q1", "Q1"),
     "locus", "the two new branch points must be distinct"),
    ("r4 edge and branch exist", R4Plus("open1", "B1", "Q2"),
     "fresh-id", "edge id 'open1' already exists"),
    ("r1 disk exists", R1Plus("bub", P9._replace(disk_id="D1")),
     "fresh-id", "disk id 'D1' already exists"),
    ("r4 disk exists", R4Plus("arc9", "Q1", "Q2", Q9._replace(disk_id="D1")),
     "fresh-id", "disk id 'D1' already exists"),
    ("r1 disk exists and partner missing",
     R1Plus("bub", P9._replace(disk_id="D1", partner_edge="nope")),
     "fresh-id", "disk id 'D1' already exists"),
    ("r1 partner missing", R1Plus("bub", P9._replace(partner_edge="nope")),
     "disk-partner", "declared disk partner edge 'nope' does not exist"),
    ("r4 partner missing", R4Plus("arc9", "Q1", "Q2", Q9._replace(partner_edge="nope")),
     "disk-partner", "declared disk partner edge 'nope' does not exist"),
    # the new edge is no edge of the complex yet
    ("r1 partner is the new edge", R1Plus("bub", P9._replace(partner_edge="bub")),
     "disk-partner", "declared disk partner edge 'bub' does not exist"),
    ("r4 partner is the new edge", R4Plus("arc9", "Q1", "Q2", Q9._replace(partner_edge="arc9")),
     "disk-partner", "declared disk partner edge 'arc9' does not exist"),
]


@pytest.mark.parametrize("label, move, check, message", BIRTH_RULES,
                         ids=[row[0] for row in BIRTH_RULES])
def test_each_birth_rule_rejects_with_its_check(trefoil, label, move, check, message):
    with pytest.raises(MoveRejected) as info:
        apply_move(trefoil, move)
    assert (info.value.check, str(info.value)) == (check, message)


def test_a_splice_pairing_a_slot_with_itself_uses_it_twice(r2):
    slot = TripleSlot("T1", 0, "a")
    with pytest.raises(MoveRejected) as info:
        apply_move(r2, r2_move()._replace(splice=((slot, slot),)))
    assert (info.value.check, str(info.value)) == ("splice", "splice slot T:T1.0.a used twice")


def test_apply_sequence_aborts_on_an_r2_minus_naming_three_curves(r2):
    move = r2_move()._replace(curves=("u1", "v1", "s1"))
    with pytest.raises(SequenceAborted) as info:
        apply_sequence(r2, set(), [R1Plus("bub"), move])
    assert (info.value.index, info.value.reason) == (
        1, "R2- deletes exactly two closed curves")


def test_r5_edge_must_join_branch_to_triple(r5):
    with pytest.raises(MoveRejected, match="does not join"):
        apply_move(r5, r5_move()._replace(edge_id="g1"))


def test_r6_broken_disk_rejected(r6):
    broken = crossing_change(r6, {"x1"})
    with pytest.raises(MoveRejected, match="mixed levels"):
        apply_move(broken, r6_move())


def test_r6_entangled_disk_rejected(r6):
    text = fixture_text("r6.skd") + \
        "disk EE e1=x1 e2=x2 pair=parallel level1=lower level2=lower\n"
    cx = parse_skd(text)
    with pytest.raises(MoveRejected, match="also references"):
        apply_move(cx, r6_move())


def test_rejection_leaves_input_usable(r2):
    try:
        apply_move(r2, r2_move()._replace(splice=smooth("T1")))
    except MoveRejected:
        pass
    assert validate(r2).ok
    assert apply_move(r2, r2_move())  # still applicable afterwards


# -- kind tokens and sequences ----------------------------------------------


def test_kind_token_normalization():
    assert normalize_kind_token("R1+") == "R1_PLUS"
    assert normalize_kind_token("r5-") == "R5_MINUS"
    assert normalize_kind_token("R-6") == "R6"
    assert normalize_kind_token("R2_MINUS") == "R2_MINUS"
    assert normalize_kind_token("R2+") == "R2_PLUS"
    with pytest.raises(UnknownIdError):
        normalize_kind_token("R7")


def test_validate_t_descendent():
    assert validate_t_descendent([])
    assert validate_t_descendent(["R6", "R5-"])
    assert not validate_t_descendent(["R2+"])
    assert not validate_t_descendent(["R1+", "R3+", "R6"])
    with pytest.raises(UnknownIdError):
        validate_t_descendent(["R9-"])


def test_apply_sequence_empty(trefoil):
    result = apply_sequence(trefoil, {"closed"}, [])
    assert result.complex == trefoil
    assert result.gamma == {"closed"}
    assert result.trail == ()


def test_apply_sequence_trefoil_script(trefoil):
    script = parse_skm(fixture_text("trefoil_seq.skm"))
    result = apply_sequence(trefoil, {"closed"}, script)
    assert [t.kind for t in result.trail] == ["R1_PLUS", "R6", "R1_MINUS"]
    assert all(t.exchangeable and t.dd for t in result.trail)
    assert result.gamma == {"closed"}
    assert result.trail[0].gamma == ("bubble", "closed")
    assert census(result.complex).triple_points == 4


def _flags_reference(cx, gamma):
    """(exchangeable, dd) from the flip sets and the disk registry."""
    return (all(is_valid_flip(fs.flipped_types) for fs in flip_sets(cx, gamma)),
            all((cx.curve_of(d.edge1) in gamma) == (cx.curve_of(d.edge2) in gamma)
                for d in cx.disks))


def test_union_flags_are_false_on_unions_that_fail(trefoil, r2, r3, r6):
    # every t-descendent sequence keeps its union exchangeable and dd, so a
    # flag that always said True would pass the sequence tests; here the
    # trail's flags meet unions that fail either check, or both
    loops = SingularityComplex.build(
        triples=[TriplePoint("T", (LineType.BM, LineType.BT, LineType.MT))],
        edges=[Arc(f"E{i}", TripleSlot("T", i, "a"), TripleSlot("T", i, "b"))
               for i in range(3)],
        disks=[DescendentDisk("D", "E0", "E1", Pairing.CROSS, Level.UPPER,
                              Level.UPPER)])
    seen = set()
    for cx in (trefoil, r2, r3, r6, loops):
        ids = sorted(cx.curves_by_id)
        for gamma in chain.from_iterable(combinations(ids, k) for k in range(len(ids) + 1)):
            flags = union_flags(cx, frozenset(gamma))
            assert flags == _flags_reference(cx, gamma), (gamma, flags)
            seen.add(flags)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert union_flags(loops, frozenset({"E1"})) == (False, False)


def test_apply_sequence_takes_its_trail_flags_from_union_flags(trefoil, monkeypatch):
    calls = []
    monkeypatch.setattr(moves, "union_flags",
                        lambda cx, gamma: calls.append(gamma) or (False, True))
    script = parse_skm(fixture_text("trefoil_seq.skm"))
    result = apply_sequence(trefoil, {"closed"}, script)
    assert [(t.exchangeable, t.dd) for t in result.trail] == [(False, True)] * 3
    assert [frozenset(t.gamma) for t in result.trail] == calls


def test_apply_sequence_aborts_with_index(trefoil):
    with pytest.raises(SequenceAborted) as exc:
        apply_sequence(trefoil, {"closed"},
                       [R1Plus("bub"), R1Minus("nope")])
    assert exc.value.index == 1


def test_apply_sequence_rejects_bad_initial_gamma(r3):
    with pytest.raises(SequenceAborted, match="not exchangeable"):
        apply_sequence(r3, {"ek1"}, [])


def test_apply_sequence_rejects_initial_dd_violation(trefoil):
    with pytest.raises(SequenceAborted, match="descendent disk"):
        apply_sequence(trefoil, {"open1"}, [])


def test_apply_sequence_bare_r1_plus_keeps_gamma(trefoil):
    result = apply_sequence(trefoil, {"closed"}, [R1Plus("bub")])
    (entry,) = result.trail
    assert result.gamma == {"closed"}
    assert entry.exchangeable and entry.dd


def test_transport_composition_r1_pair(trefoil):
    up = R1Plus("bub", P9)
    mid, g1 = apply_with_transport(trefoil, {"closed"}, up)
    assert g1 == {"closed", "bub"}
    down = R1Minus("bub", drop_disks=("P9",))
    _, g2 = apply_with_transport(mid, g1, down)
    assert g2 == {"closed"}


def test_a_move_hands_on_the_kinds_it_does_not_edit(trefoil):
    """An R1+ child reuses its parent's records, by-id maps and canonical
    lines of every kind but circles; a move that edits arcs patches edges."""
    parent = apply_move(trefoil, R1Plus("n0"))
    views = ("triple_points", "branch_points", "disks", "arcs",
             "triples_by_id", "branches_by_id", "disks_by_id")
    fingerprint(parent)  # so that the parent keeps its lines and the child inherits them
    kept = [getattr(parent, view) for view in views]  # a map only if the parent has it
    child = apply_move(parent, R1Plus("n1"))
    for view, own in zip(views, kept):
        assert getattr(child, view) is own, view
    lines, parent_lines = canonical_lines(child), canonical_lines(parent)
    for kind in (TRIPLES, BRANCHES, ARCS, DISKS):
        assert lines[kind] is parent_lines[kind]
    assert lines[CIRCLES] == (*parent_lines[CIRCLES], "circle n1\n")
    assert child.edges is not parent.edges and child.circles is not parent.circles
    arc = apply_move(child, R4Plus("w", "wb1", "wb2"))
    assert arc.edges is not child.edges and arc.arcs is not child.arcs
    assert arc.edges_by_id["w"] == Arc("w", BranchRef("wb1"), BranchRef("wb2"))
    assert "w" not in child.edges_by_id and len(child.edges) + 1 == len(arc.edges)
