"""Property tests over seeded random complexes."""

import random
import re
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skdiag import (
    Arc,
    BranchPoint,
    BranchRef,
    Circle,
    CurveKind,
    DescendentDisk,
    DiskDeclaration,
    Level,
    LineType,
    MoveKind,
    MoveRejected,
    Pairing,
    ParseError,
    R1Minus,
    R1Plus,
    R4Minus,
    R4Plus,
    R6,
    SingularityComplex,
    SkdDocument,
    StructuralError,
    TriplePoint,
    TripleSlot,
    all_curves,
    apply_move,
    apply_sequence,
    apply_with_transport,
    census,
    crossing_change,
    fingerprint,
    flip_sets,
    is_exchangeable,
    is_valid_flip,
    parse_skd,
    parse_skd_document,
    rebuilt,
    relabel_locus_for_change,
    satisfies_dd_condition,
    serialize_canonical,
    validate,
)
from skdiag import diagnostics, formats, moves
from skdiag.crossing import (
    changed_fingerprinter,
    first_invalid_flip,
    flip_words,
    role_permutation,
)
from skdiag.canonical import canonical_lines
from skdiag.singularity import endpoints
from skdiag.explorer import (
    DuStatus,
    SizeBudget,
    TrivialityOracle,
    Verdict,
    du_index_upper_bound,
    enumerate_exchangeable,
    generate_random_complex,
    is_du_exchangeable,
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
from tests.test_singularity import traced_partition, unionfind_partition

budgets = st.builds(SizeBudget,
                    triples=st.integers(min_value=0, max_value=3),
                    branches=st.integers(min_value=0, max_value=4),
                    circles=st.integers(min_value=0, max_value=3))


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets)
@settings(max_examples=80, deadline=None)
def test_generated_complexes_are_well_formed(seed, budget):
    cx = generate_random_complex(seed, budget)
    assert validate(cx).ok
    rec = census(cx)
    assert 2 * rec.arc_edges == 6 * rec.triple_points + rec.branch_points
    assert rec.branch_points == 2 * rec.open_curves
    assert traced_partition(cx) == unionfind_partition(cx)


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets)
@settings(max_examples=60, deadline=None)
def test_full_union_involution_and_round_trip(seed, budget):
    cx = generate_random_complex(seed, budget, disks=1)
    gamma = all_curves(cx)
    assert is_exchangeable(cx, gamma)
    assert satisfies_dd_condition(cx, gamma)
    twice = crossing_change(crossing_change(cx, gamma), gamma)
    assert serialize_canonical(twice) == serialize_canonical(cx)
    assert parse_skd(serialize_canonical(cx)) == cx


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets)
@settings(max_examples=60, deadline=None)
def test_fingerprint_deterministic_and_order_free(seed, budget):
    cx = generate_random_complex(seed, budget)
    lines = serialize_canonical(cx).splitlines()
    reversed_text = "\n".join(reversed(lines)) + "\n" if lines else ""
    assert fingerprint(parse_skd(reversed_text)) == fingerprint(cx)


scan_budgets = st.builds(SizeBudget,
                         triples=st.integers(min_value=0, max_value=3),
                         branches=st.integers(min_value=0, max_value=6),
                         circles=st.integers(min_value=0, max_value=2))


def reference_scan(cx, max_size=None):
    """Every exchangeable union (sorted ids) of at most ``max_size`` curves
    mapped to its dd flag, in size-then-lexicographic order, from
    role_permutation and line_curve."""
    ids = sorted(cx.curves_by_id)
    lines = [(t, [cx.line_curve(t.id, i) for i in range(3)]) for t in cx.triple_points]
    out = {}
    for k in range(len(ids) + 1 if max_size is None else min(max_size, len(ids)) + 1):
        for combo in combinations(ids, k):
            flips = [frozenset(t.line_types[i] for i in range(3) if curves[i] in combo)
                     for t, curves in lines]
            if all(role_permutation(f) is not None for f in flips):
                out[combo] = all((cx.curve_of(d.edge1) in combo)
                                 == (cx.curve_of(d.edge2) in combo)
                                 for d in cx.disks)
    return out


def assert_changed_fingerprints(cx, unions):
    words, changed = flip_words(cx)[0], changed_fingerprinter(cx)
    for gamma in unions:
        assert changed(reduce(or_, map(words.__getitem__, gamma), 0)) == \
            fingerprint(crossing_change(cx, gamma)), gamma


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=scan_budgets,
       disks=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_scan_matches_role_permutation_reference(seed, budget, disks):
    cx = generate_random_complex(seed, budget, disks=disks)
    assume(len(cx.curves) <= 10)
    reference = reference_scan(cx)
    assert [tuple(sorted(g)) for g in enumerate_exchangeable(cx)] == list(reference)
    # a non-empty oracle, so that du-bound fingerprints the dd-passing unions
    oracle = TrivialityOracle.from_mapping({fingerprint(cx): "trivial"})
    report = du_index_upper_bound(cx, oracle)
    assert [(w.gamma, w.dd) for w in report.witnesses] == list(reference.items())
    trivial = {g for g, dd in reference.items()
               if dd and fingerprint(crossing_change(cx, g)) == fingerprint(cx)}
    assert {w.gamma for w in report.witnesses
            if w.verdict is Verdict.TRIVIAL} == trivial


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       budget=st.builds(SizeBudget, triples=st.integers(min_value=0, max_value=40),
                        branches=st.integers(min_value=0, max_value=12),
                        circles=st.integers(min_value=0, max_value=3)),
       disks=st.integers(min_value=0, max_value=3), max_size=st.none() | st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_word_scan_matches_the_reference_up_to_40_triple_points(seed, budget, disks,
                                                                max_size):
    """Flip words span many fields here: the rows of both scans (unions,
    order, dd flags) and a few changed fingerprints match the reference."""
    cx = generate_random_complex(seed, budget, disks=disks)
    if len(cx.curves) > 10:
        max_size = 2 if max_size is None else min(max_size, 2)
    reference = reference_scan(cx, max_size)
    assert [tuple(sorted(g)) for g in enumerate_exchangeable(cx, max_size)] == \
        list(reference)
    report = du_index_upper_bound(cx, TrivialityOracle(), max_size)
    assert [(w.gamma, w.dd) for w in report.witnesses] == list(reference.items())
    assert_changed_fingerprints(cx, [g for g, dd in reference.items() if dd][-3:])


def _one_triple_point(types):
    """Triple point T of these line types: the closed curve A passes it on
    lines 0 and 1 (edges A, A.2), the loop C on line 2; Z is a free circle.
    Disk DA lies on two edges of one curve, disk DC on A and C."""
    edges = [Arc("A", TripleSlot("T", 0, "b"), TripleSlot("T", 1, "a")),
             Arc("A.2", TripleSlot("T", 1, "b"), TripleSlot("T", 0, "a")),
             Arc("C", TripleSlot("T", 2, "a"), TripleSlot("T", 2, "b")), Circle("Z")]
    disks = [DescendentDisk(did, e1, e2, Pairing("cross"), Level("upper"), Level("upper"))
             for did, e1, e2 in (("DA", "A", "A.2"), ("DC", "A.2", "C"))]
    return SingularityComplex.build([TriplePoint("T", types)], [], edges, disks)


def _no_triple_point():
    # circles and an open arc, one disk between a circle and the arc
    return SingularityComplex.build(
        [], [BranchPoint("B1"), BranchPoint("B2")],
        [Arc("O", BranchRef("B1"), BranchRef("B2")), Circle("Z0"), Circle("Z1")],
        [DescendentDisk("D", "Z0", "O", Pairing("cross"), Level("upper"), Level("lower"))])


@pytest.mark.parametrize("cx", [
    *(_one_triple_point(types) for types in product(LineType, repeat=3)),
    _no_triple_point()])
def test_word_scan_matches_the_reference_on_hand_built_complexes(cx):
    # a curve on two lines of one triple point, line types that are not a
    # permutation (build does not validate them), no triple point at all,
    # and a disk on two edges of one curve
    reference = reference_scan(cx)
    assert [tuple(sorted(g)) for g in enumerate_exchangeable(cx)] == list(reference)
    oracle = TrivialityOracle.from_mapping({fingerprint(cx): "trivial"})
    report = du_index_upper_bound(cx, oracle)
    assert [(w.gamma, w.dd) for w in report.witnesses] == list(reference.items())
    assert {w.gamma for w in report.witnesses if w.verdict is Verdict.TRIVIAL} == {
        g for g, dd in reference.items()
        if dd and fingerprint(crossing_change(cx, g)) == fingerprint(cx)}
    assert_changed_fingerprints(cx, [g for g, dd in reference.items() if dd])
    for gamma, dd in reference.items():
        assert satisfies_dd_condition(cx, gamma) == dd


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=scan_budgets,
       disks=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_changed_fingerprints_match_crossing_change(seed, budget, disks):
    cx = generate_random_complex(seed, budget, disks=disks)
    assume(len(cx.curves) <= 10)
    assert_changed_fingerprints(cx, [g for g in enumerate_exchangeable(cx)
                                     if satisfies_dd_condition(cx, g)])


def _first_flipped(cx, w: int) -> int | None:
    """The index of the first triple point the flip word ``w`` flips."""
    triple_bits = w & (1 << 3 * len(cx.triple_points)) - 1
    return ((triple_bits & -triple_bits).bit_length() - 1) // 3 if triple_bits else None


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=scan_budgets,
       disks=st.integers(min_value=0, max_value=3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_changed_fingerprinter_matches_crossing_change_wherever_its_flips_start(
        seed, budget, disks, data):
    """changed_fingerprinter(cx)(w) is the fingerprint of the changed diagram
    for words whose first flipped triple point is the first one (the union
    of all curves), the last one (ZT, added with each line the loop of its
    own curve, sorts last) or none (the empty union, and the circles ZC1 and
    ZC2, joined by a disk), and for drawn exchangeable unions."""
    base = generate_random_complex(seed, budget, disks=disks)
    loops = [Arc(f"ZE{i}", TripleSlot("ZT", i, "a"), TripleSlot("ZT", i, "b"))
             for i in range(3)]
    cx = SingularityComplex.build(
        [*base.triple_points, TriplePoint("ZT", (LineType.BM, LineType.BT, LineType.MT))],
        base.branch_points, [*base.edges, *loops, Circle("ZC1"), Circle("ZC2")],
        [*base.disks, DescendentDisk("ZD", "ZC1", "ZC2", Pairing.CROSS, Level.UPPER,
                                     Level.UPPER)])
    words, changed = flip_words(cx)[0], changed_fingerprinter(cx)
    last = len(cx.triple_points) - 1
    starts = {tuple(sorted(cx.curves_by_id)): 0, ("ZE0",): last,  # ZE0 flips bm alone
              (): None, ("ZC1",): None, ("ZC1", "ZC2"): None}
    drawn = data.draw(st.lists(st.sampled_from(enumerate_exchangeable(cx, max_size=2)),
                               max_size=4))
    for gamma in [*starts, *(tuple(sorted(g)) for g in drawn)]:
        w = reduce(or_, map(words.__getitem__, gamma), 0)
        if gamma in starts:
            assert _first_flipped(cx, w) == starts[gamma], gamma
        assert changed(w) == fingerprint(crossing_change(cx, gamma)), gamma


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       budget=st.builds(SizeBudget, triples=st.integers(min_value=0, max_value=6),
                        branches=st.integers(min_value=0, max_value=8),
                        circles=st.integers(min_value=0, max_value=3)),
       disks=st.integers(min_value=0, max_value=3), max_size=st.none() | st.integers(0, 4),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_is_du_exchangeable_finds_the_best_witness(seed, budget, disks, max_size, data):
    """The scan that stops at the first size layer holding a trivial witness
    names the witness the full du-bound report does, under random oracles."""
    cx = generate_random_complex(seed, budget, disks=disks)
    assume(len(cx.curves) <= 10)
    words = flip_words(cx)[0]
    changed = changed_fingerprinter(cx)
    # the changed diagrams of dd-passing unions, each annotated or not at random
    fps = sorted({changed(reduce(or_, map(words.__getitem__, g), 0))
                  for g in enumerate_exchangeable(cx)
                  if satisfies_dd_condition(cx, g)})
    verdicts = st.sampled_from((None, "nontrivial", "trivial"))
    oracle = TrivialityOracle.from_mapping(
        {fp: verdict for fp in fps if (verdict := data.draw(verdicts))})
    witness = du_index_upper_bound(cx, oracle, max_size=max_size).best_witness()
    verdict = is_du_exchangeable(cx, oracle, max_size=max_size)
    if witness is None:
        assert verdict.status is DuStatus.UNKNOWN and verdict.witness is None
    else:
        assert verdict.status is DuStatus.DU_EXCHANGEABLE
        assert verdict.witness == witness.gamma


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       budget=st.builds(SizeBudget, triples=st.integers(min_value=0, max_value=12),
                        branches=st.integers(min_value=0, max_value=8),
                        circles=st.integers(min_value=0, max_value=2)),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_first_invalid_flip_is_the_first_invalid_flip_set(seed, budget, data):
    cx = generate_random_complex(seed, budget)
    ids = sorted(cx.curves_by_id)
    gamma = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()))
    expected = next((fs for fs in flip_sets(cx, gamma)
                     if not is_valid_flip(fs.flipped_types)), None)
    assert first_invalid_flip(cx, gamma) == expected


# -- the structural check ----------------------------------------------------

STRUCTURAL_CODES = {"dangling-ref", "self-slot", "slot-unused", "branch-unused",
                    "slot-conflict", "branch-conflict"}


def damage(cx, data):
    """An edit (removed, added) that damages ``cx`` one to three times: a
    dropped arc or point, a point renamed (so the index keeps its size), a
    new arc from a held endpoint to a new branch point, or an arc end moved
    to a missing point or slot, to an endpoint another arc end holds, or to
    the arc's other end."""
    removed, added = [], []
    for n in range(data.draw(st.integers(1, 3))):
        arcs = [a for a in cx.arcs if a not in removed]
        kind = data.draw(st.sampled_from(["drop", "rename", "extra", "dangle", "share",
                                          "self"]))
        if kind == "extra":
            end = data.draw(st.sampled_from([e for a in cx.arcs for e in a.ends]))
            added += [BranchPoint(f"new{n}"), Arc(f"new{n}", end, BranchRef(f"new{n}"))]
            continue
        if kind in ("drop", "rename") or not arcs:
            points = [*cx.triple_points, *cx.branch_points]
            pool = [r for r in (points if kind == "rename" else [*cx.arcs, *points])
                    if r not in removed]
            if pool:
                record = data.draw(st.sampled_from(pool))
                removed.append(record)
                if kind == "rename":
                    added.append(record._replace(id=f"new{n}"))
            continue
        arc = data.draw(st.sampled_from(arcs))
        ends, i = list(arc.ends), data.draw(st.integers(0, 1))
        if kind == "dangle":
            some = cx.triple_points[0].id if cx.triple_points else "T"
            ends[i] = data.draw(st.sampled_from([
                BranchRef("gone"), TripleSlot("gone", 0, "a"), TripleSlot(some, 3, "a"),
                TripleSlot(some, 0, "c")]))
        elif kind == "share":
            ends[i] = data.draw(st.sampled_from([e for a in cx.arcs for e in a.ends]))
        else:
            ends[i] = ends[1 - i]
        removed.append(arc)
        added.append(Arc(arc.id, *ends))
    return removed, added


def structural_reference(cx):
    """The structural violations of ``cx`` as sorted (code, subjects), by
    brute force: every arc end is one of the complex's endpoints, no arc
    uses one endpoint twice, and each endpoint is claimed exactly once."""
    real = list(endpoints(cx.triple_points, cx.branch_points))
    found = []
    for arc in cx.arcs:
        found += [("dangling-ref", (("edge", arc.id),)) for end in arc.ends
                  if end not in real]
        if arc.end1 == arc.end2:
            found.append(("self-slot", (("edge", arc.id),)))
    for ref in real:
        users = [arc.id for arc in cx.arcs for end in arc.ends if end == ref]
        kind, point = (("slot", ("triple", ref.triple_id)) if type(ref) is TripleSlot
                       else ("branch", ("branch", ref.branch_id)))
        if not users:
            found.append((f"{kind}-unused", (point,)))
        elif len(users) > 1:
            found.append((f"{kind}-conflict", tuple(("edge", u) for u in users)))
    return sorted(found)


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_slot_index_raises_exactly_on_the_structural_violations(seed, budget, data):
    cx = generate_random_complex(seed, budget, disks=1)
    assume(cx.arcs)
    removed, added = damage(cx, data)
    cx.slot_index  # so that the child patches the parent's index
    child = rebuilt(cx, removed, added)
    fresh = SingularityComplex.build(child.triple_points, child.branch_points,
                                     child.edges, child.disks)
    for damaged in (child, fresh):
        try:
            damaged.slot_index
        except StructuralError:
            raised = True
        else:
            raised = False
        found = sorted((v.code, v.subjects) for v in validate(damaged).violations
                       if v.code in STRUCTURAL_CODES)
        assert found == structural_reference(damaged)
        assert raised == bool(found)


#: the views rebuilt hands on from a parent that holds each of them
HANDED_ON = ("_claims", "curves", "curve_by_edge", "curves_by_id", "canonical_lines")


def holding_every_view(cx):
    fingerprint(cx)
    cx.curves_by_id  # traces the curves too
    return cx


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_rebuilt_hands_the_child_each_view_when_it_makes_it(seed, budget, data):
    cx = holding_every_view(generate_random_complex(seed, budget, disks=2))
    renamed = data.draw(st.lists(st.sampled_from(cx.edges), unique=True, max_size=3)
                        if cx.edges else st.just([]))
    dropped = cx.disks[:data.draw(st.integers(0, len(cx.disks)))]
    added = [e._replace(id=f"new{n}") for n, e in enumerate(renamed)]
    child = rebuilt(cx, [*renamed, *dropped], added + [Circle("newc")] * data.draw(st.booleans()))
    held = {name: vars(child).get(name) for name in HANDED_ON}  # before any reader runs
    fresh = SingularityComplex.build(*child)
    assert held == {name: getattr(fresh, name) for name in HANDED_ON[:-1]} | {
        "canonical_lines": canonical_lines(fresh)}


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_child_whose_index_breaks_a_rule_is_handed_no_index_or_curves(seed, budget, data):
    cx = holding_every_view(generate_random_complex(seed, budget, disks=1))
    assume(cx.arcs)
    child = rebuilt(cx, *damage(cx, data))
    clean = not SingularityComplex.build(*child)._claims[1]
    assert {"_claims", "curves"} & vars(child).keys() == ({"_claims", "curves"} if clean
                                                            else set())


# -- complexes a move derives from their parent -----------------------------


def assert_matches_fresh_build(cx):
    """The records (in id order), by-id maps, arcs, circles, slot index,
    curves, curve maps and fingerprint a derived complex inherited equal
    those of the same records built and traced afresh, and the complex is
    well formed."""
    assert {"_claims", "canonical_lines"} <= vars(cx).keys()
    assert validate(cx).ok
    fresh = SingularityComplex.build(cx.triple_points, cx.branch_points,
                                     cx.edges, cx.disks)
    assert tuple(cx) == tuple(fresh)
    for view in ("triples_by_id", "branches_by_id", "edges_by_id", "disks_by_id",
                 "arcs", "circles", "curves_by_id"):
        assert getattr(cx, view) == getattr(fresh, view), view
    assert cx.slot_index == fresh.slot_index
    assert cx.curves == fresh.curves
    assert cx.curve_by_edge == fresh.curve_by_edge
    assert fingerprint(cx) == fingerprint(fresh)


#: the views a child holds when its parent holds them: edit.rebuilt patches each
DERIVED_VIEWS = {"_claims", "curves", "curve_by_edge", "curves_by_id", "canonical_lines"}


def apply_derived(cx, move):
    """apply_move on a parent whose index, curves, curve maps and lines
    exist, so the child holds every one of them when it is made; the child
    is checked against a fresh build, and keeps every disk the move neither
    drops nor operates on."""
    fingerprint(cx)
    cx.curves_by_id  # traces the parent: the child's curves are then patched
    child = apply_move(cx, move)
    assert DERIVED_VIEWS <= vars(child).keys(), DERIVED_VIEWS - vars(child).keys()
    assert_matches_fresh_build(child)
    spent = {*getattr(move, "drop_disks", ()), getattr(move, "disk_id", None)}
    assert set(cx.disks_by_id) - spent <= set(child.disks_by_id)
    return child


#: each cancellation site of tests/fixtures by name: its move, and the site
#: edges carrying the disks it declares. The move keeps a disk on a merged
#: edge the copy reverses (so its pairing toggles) and one on a merged edge
#: it does not; it must drop a disk on two edges it merges into one, and
#: one on an edge it deletes.
SITES = {"r2": (r2_move, "s2", "s3", ("s1", "s3"), "u1"),
         "r3": (r3_move, "es2", "ew1", ("es3", "es4"), "f1"),
         "r5": (r5_move, "e1", "e0", ("g1", "g2"), None)}
SITE_NAMES = tuple(SITES)


def site_text(name: str, partner: str) -> str:
    """The `.skd` lines of site ``name`` with every id prefixed by
    ``name_``, plus a circle ``name_o`` and the site's disks, whose other
    edge (but for the disk on two site edges) is ``partner``."""
    p = f"{name}_"
    _, turn, keep, fold, dead = SITES[name]
    lines = [f"circle {p}o"]
    for raw in fixture_text(f"{name}.skd").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        rest = [t[:2] + p + t[2:] if t[:2] in ("B:", "T:") else t for t in tokens[2:]]
        if tokens[1] == turn:
            rest.reverse()
        lines.append(" ".join([tokens[0], p + tokens[1], *rest]))
    disks = [("turn", p + turn, partner), ("keep", p + keep, partner),
             ("fold", p + fold[0], p + fold[1])]
    if dead:
        disks.append(("dead", p + dead, partner))
    lines += [f"disk {p}{role} e1={e1} e2={e2} pair=cross level1=upper level2=upper"
              for role, e1, e2 in disks]
    return "".join(f"{line}\n" for line in lines)


def with_sites(cx, names, pick: int):
    """``cx`` with a copy of each named cancellation site spliced in, its
    disks paired with an edge of ``cx`` or the site's own circle."""
    partners = [e.id for e in cx.edges]
    return parse_skd(serialize_canonical(cx) + "".join(
        site_text(name, [*partners, f"{name}_o"][pick % (len(partners) + 1)])
        for name in names))


def random_move(cx, kind: int, pick: int, step: int):
    """A move of the given kind on cx, with its locus chosen by ``pick``,
    or None when cx has no locus for it. Kinds 5-7 cancel the spliced
    r2, r3 and r5 sites, dropping the site disks they must."""
    if kind >= 5:
        name = SITE_NAMES[kind - 5]
        drop = tuple(d for d in (f"{name}_fold", f"{name}_dead") if d in cx.disks_by_id)
        return SITES[name][0](f"{name}_")._replace(drop_disks=drop)
    edges = [e.id for e in cx.edges]
    decl = None
    if edges and pick % 3:
        decl = DiskDeclaration(f"d{step}", edges[pick % len(edges)],
                               (Pairing.CROSS, Pairing.PARALLEL)[pick % 2],
                               Level.UPPER, Level.UPPER)
    if kind == 0:
        return R1Plus(f"n{step}", decl)
    if kind == 1:
        return R4Plus(f"w{step}", f"wa{step}", f"wb{step}", decl)
    if kind == 2:
        loci = [e.id for e in cx.circles]
        make = R1Minus
    elif kind == 3:
        loci = [a.id for a in cx.arcs if isinstance(a.end1, BranchRef)
                and isinstance(a.end2, BranchRef)]
        make = R4Minus
    else:
        return R6(cx.disks[pick % len(cx.disks)].id) if cx.disks else None
    if not loci:
        return None
    locus = loci[pick % len(loci)]
    return make(locus, tuple(d.id for d in cx.disks if locus in (d.edge1, d.edge2)))


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       disks=st.integers(min_value=0, max_value=2), site=st.integers(5, 7),
       steps=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 10 ** 6)),
                      max_size=8))
@settings(max_examples=60, deadline=None)
def test_derived_complexes_match_fresh_builds(seed, budget, disks, site, steps):
    cx = with_sites(generate_random_complex(seed, budget, disks=disks), SITE_NAMES, seed)
    # a site's cancellation first: every example re-traces a curve that lost an edge
    for step, (kind, pick) in enumerate([(site, 0), *steps]):
        move = random_move(cx, kind, pick, step)
        if move is None:
            continue
        try:
            cx = apply_derived(cx, move)
        except MoveRejected as exc:
            # a drawn move may miss its pattern, but one that passes it and
            # fails a postcondition was derived from wrongly patched views
            assert exc.check != "postcondition", exc
            continue


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       disks=st.integers(min_value=0, max_value=2),
       steps=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 10 ** 6)),
                      max_size=8),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_trail_checks_on_derived_complexes_match_fresh_ones(seed, budget, disks,
                                                            steps, data):
    """A trail checks complexes built by ``rebuilt``: on each, the first
    invalid flip of a drawn union is the flip_sets reference's on the same
    complex read back from its canonical text, and each apply_sequence trail
    flag is the check's verdict on the step's complex read back."""
    start = cx = with_sites(generate_random_complex(seed, budget, disks=disks),
                            SITE_NAMES, seed)
    unions = [g for g in enumerate_exchangeable(cx, max_size=3)
              if satisfies_dd_condition(cx, g)]
    start_gamma = gamma = unions[seed % len(unions)]
    moves, derived = [], []
    for step, (kind, pick) in enumerate(steps):
        move = random_move(cx, kind, pick, step)
        if move is None:
            continue
        try:
            cx, gamma = apply_with_transport(cx, gamma, move)
        except MoveRejected:
            continue
        moves.append(move)
        derived.append(cx)
        ids = sorted(cx.curves_by_id)
        drawn = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()))
        fresh = parse_skd(serialize_canonical(cx))
        assert first_invalid_flip(cx, drawn) == next(
            (fs for fs in flip_sets(fresh, drawn) if not is_valid_flip(fs.flipped_types)),
            None)
    result = apply_sequence(start, start_gamma, moves)
    assert len(result.trail) == len(derived)
    for entry, step_cx in zip(result.trail, derived):
        fresh = parse_skd(serialize_canonical(step_cx))
        assert entry.fingerprint == fingerprint(fresh)
        assert entry.exchangeable == is_exchangeable(fresh, entry.gamma)
        assert entry.dd == satisfies_dd_condition(fresh, entry.gamma)


def locus_curves(cx, move) -> set[str]:
    """The curves of ``cx`` that ``move`` deletes, shortens or operates on, or
    whose edge a birth's declared disk pairs with the new one."""
    if move.kind is MoveKind.R2_MINUS:
        triples = (move.t1, move.t2)
    elif move.kind is MoveKind.R3_MINUS:
        triples = move.triples
    elif move.kind is MoveKind.R5_MINUS:
        triples = (move.triple,)
    elif move.kind is MoveKind.R6:
        disk = cx.disks_by_id[move.disk_id]
        return {cx.curve_of(disk.edge1), cx.curve_of(disk.edge2)}
    elif move.kind in (MoveKind.R1_MINUS, MoveKind.R4_MINUS):
        return {cx.curve_of(move[0])}  # the circle or arc it deletes
    else:
        return {cx.curve_of(move.disk.partner_edge)} if move.disk else set()
    # a site's move is drawn also once the site is gone
    return {cx.line_curve(t, i) for t in triples if t in cx.triples_by_id for i in range(3)}


def meeting_move(cx, gamma, kind: int, pick: int, step: int):
    """random_move's move for the first of eight picks from ``pick`` whose
    locus meets gamma, or else for ``pick``."""
    drawn = [random_move(cx, kind, p, step) for p in range(pick, pick + 8)]
    return next((m for m in drawn if m is not None and locus_curves(cx, m) & gamma),
                drawn[0])


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       disks=st.integers(min_value=0, max_value=2), kinds=st.permutations(range(8)),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
def test_t_descendent_steps_keep_the_union_and_commute_with_the_change(seed, budget, disks,
                                                                       kinds, picks):
    """The paper's preservation result at every step of a random sequence
    that draws every kind once: the carried union stays exchangeable and
    dd-satisfying, and changing then moving (the locus relabelled for the
    change) gives what moving then changing along the carried union gives.
    A union that meets a site's curves, and loci that meet the union, are
    drawn first."""
    cx = with_sites(generate_random_complex(seed, budget, disks=disks), SITE_NAMES, seed)
    unions = [g for g in enumerate_exchangeable(cx, max_size=3)
              if satisfies_dd_condition(cx, g)]
    sites = set().union(*(locus_curves(cx, random_move(cx, k, 0, 0)) for k in (5, 6, 7)))
    most = max(len(g & sites) for g in unions)
    meeting = [g for g in unions if len(g & sites) == most]
    gamma = meeting[seed % len(meeting)]
    for step, (kind, pick) in enumerate(zip(kinds, picks)):
        move = meeting_move(cx, gamma, kind, pick, step)
        if move is None:
            continue
        try:
            moved, moved_gamma = apply_with_transport(cx, gamma, move)
        except MoveRejected:
            continue
        assert moves.union_flags(moved, moved_gamma) == (True, True), (step, move)
        lhs = apply_move(crossing_change(cx, gamma), relabel_locus_for_change(cx, gamma, move))
        assert fingerprint(lhs) == fingerprint(crossing_change(moved, moved_gamma)), move
        cx, gamma = moved, moved_gamma


def reference_r2_minus(cx, m):
    """``apply_move(cx, m)`` for an R2- move, its pattern checked by R2-'s
    own rule: each closed curve passes through exactly t1 and t2, once
    each, and the surviving lines at t1 and t2 belong to one curve."""
    def require(cond, check, message):
        if not cond:
            raise MoveRejected(check, message)

    for tid in (m.t1, m.t2):
        require(tid in cx.triples_by_id, "locus", f"no triple point {tid!r}")
    require(m.t1 != m.t2, "locus", "the two cancelled triple points must differ")
    c1, c2 = m.curves
    require(c1 != c2, "pattern", "the two deleted closed curves must differ")
    for cid in (c1, c2):
        curve = cx.curves_by_id.get(cid)
        require(curve is not None, "pattern", f"no double curve with id {cid!r}")
        require(curve.kind is CurveKind.CLOSED, "pattern", f"curve {cid} is not closed")
        met = [ref.triple_id for eid in curve.edges if isinstance(cx.edges_by_id[eid], Arc)
               for ref in cx.edges_by_id[eid].ends if isinstance(ref, TripleSlot)]
        require(sorted(set(met)) == sorted({m.t1, m.t2}) and len(met) == 4, "pattern",
                f"curve {cid} does not pass through exactly {m.t1} and {m.t2}")
    survivor = None
    for tid in (m.t1, m.t2):
        through = [cx.line_curve(tid, i) for i in range(3)]
        require(through.count(c1) == 1 and through.count(c2) == 1, "pattern",
                f"triple point {tid} is not spanned by {c1} and {c2} on two lines")
        rest = next(c for c in through if c not in (c1, c2))
        require(survivor in (None, rest), "pattern", "the surviving lines at the two "
                "triple points belong to different curves")
        survivor = rest
    out = moves._cancel_move(cx, {m.t1, m.t2}, (c1, c2), m.splice, m.drop_disks)
    require(census(cx).closed_curves - census(out.complex).closed_curves == 2,
            "postcondition", "closed double curve count did not drop by two")
    moves._check_shortening(cx, out, survivor, by=2)
    return out.complex


def verdict(apply, cx, move) -> str:
    """The fingerprint of what ``apply(cx, move)`` builds, or the check
    that rejects it."""
    try:
        return fingerprint(apply(cx, move))
    except MoveRejected as exc:
        return exc.check


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       disks=st.integers(min_value=0, max_value=2), data=st.data())
@settings(max_examples=60, deadline=None)
def test_r2_minus_decides_each_locus_as_its_reference(seed, budget, disks, data):
    """The shared cancellation-site check accepts and rejects R2- loci as
    R2-'s own checks did, with the same check, and builds the same complex.
    The loci are the spliced r2 site's cancellation with each of its triple
    points, curves and its splice map kept or redrawn."""
    cx = with_sites(generate_random_complex(seed, budget, disks=disks), SITE_NAMES, seed)
    own = random_move(cx, SITE_NAMES.index("r2") + 5, 0, 0)
    assert fingerprint(apply_move(cx, own)) == verdict(reference_r2_minus, cx, own)
    # redrawn mostly from the r2 and r3 sites and the closed curves, where
    # near misses are
    triples = st.sampled_from([t for t in cx.triples_by_id if t.startswith(("r2_", "r3_"))]) \
        | st.sampled_from([*cx.triples_by_id, "nope"])
    curves = st.sampled_from([c.id for c in cx.curves if c.kind is CurveKind.CLOSED]) \
        | st.sampled_from([*cx.curves_by_id, "nope"])
    for _ in range(4):
        t1, t2 = (data.draw(st.just(t) | triples) for t in (own.t1, own.t2))
        move = own._replace(t1=t1, t2=t2,
                            curves=tuple(data.draw(st.just(c) | curves) for c in own.curves),
                            splice=data.draw(st.sampled_from(
                                (own.splice, smooth(t1, t2), smooth(t1)))))
        assert verdict(apply_move, cx, move) == verdict(reference_r2_minus, cx, move)


@pytest.mark.parametrize("name, move", [("r2", r2_move()), ("r3", r3_move()),
                                        ("r5", r5_move()), ("r6", r6_move())])
@given(births=st.integers(min_value=0, max_value=3))
@settings(max_examples=4, deadline=None)
def test_cancellations_derive_like_fresh_builds(name, move, births):
    cx = load_fixture(name)
    for i in range(births):
        cx = apply_derived(cx, R4Plus(f"w{i}", f"wa{i}", f"wb{i}") if i % 2
                           else R1Plus(f"n{i}"))
    apply_derived(cx, move)


def reference_merge_chains(cx, dead_triples, dead_edges, splice, minted):
    """``moves._merge_chains(cx, dead_triples, dead_edges, splice, minted)``
    by a walk that goes back from each unvisited edge's end1 to its chain's
    first stub (or round a cycle), forwards along the chain, then reverses
    the chain if it runs against its smallest edge."""
    def require(cond, check, message):
        if not cond:
            raise MoveRejected(check, message)

    orphans = {}
    for tid in sorted(dead_triples):
        for line in range(3):
            for slot in ("a", "b"):
                ref = TripleSlot(tid, line, slot)
                claim = cx.edge_end_at(ref)
                if claim[0] not in dead_edges:
                    orphans[ref] = claim
    partner, seen = {}, set()
    for r1, r2 in splice:
        for r in (r1, r2):
            require(r.triple_id in dead_triples, "splice",
                    f"splice slot {r} is not on a deleted triple point")
            require(r in orphans, "splice",
                    f"splice slot {r} has no surviving edge to reconnect")
            require(r not in seen, "splice", f"splice slot {r} used twice")
            seen.add(r)
        require(r1 != r2, "splice", f"splice pairs slot {r1} with itself")
        partner[orphans[r1]] = orphans[r2]
        partner[orphans[r2]] = orphans[r1]
    missing = sorted(str(r) for r in set(orphans) - seen)
    require(not missing, "splice", "orphaned slot(s) not reconnected: " + ", ".join(missing))

    visited, new_edges, descent, reversed_edges = set(), [], {}, set()
    for seed in sorted({eid for eid, _ in partner}):
        if seed in visited:
            continue
        entry, back_seen = (seed, 0), set()
        while entry in partner and entry not in back_seen:
            back_seen.add(entry)
            prev_edge, prev_side = partner[entry]
            entry = (prev_edge, 1 - prev_side)
        chain, cur, closed = [], entry, False
        while True:
            eid, side = cur
            chain.append((eid, side == 0))
            nxt = partner.get((eid, 1 - side))
            if nxt is None:
                break
            if nxt == entry:
                closed = True
                break
            cur = nxt
        ids = [eid for eid, _ in chain]
        visited.update(ids)
        base = min(ids)
        new_id = moves._fresh_id(cx, base, minted)
        if closed:
            new_edges.append(Circle(new_id))
            descent.update(dict.fromkeys(ids, new_id))
            continue
        if not dict(chain)[base]:
            chain = [(eid, not f) for eid, f in reversed(chain)]
        first, last = cx.edges_by_id[chain[0][0]], cx.edges_by_id[chain[-1][0]]
        require(isinstance(first, Arc) and isinstance(last, Arc),
                "splice", f"chain {base} ends on an edge that is not an arc")
        new_edges.append(Arc(new_id, first.end1 if chain[0][1] else first.end2,
                             last.end2 if chain[-1][1] else last.end1))
        for eid, f in chain:
            descent[eid] = new_id
            if not f:
                reversed_edges.add(eid)
    return new_edges, descent, reversed_edges


def random_merge_case(cx, rng):
    """Dead triple points, dead edges and a splice map on ``cx``: a few
    neighbouring triple points, the edges of some curves through them, and
    a random pairing of the slots those leave, broken one time in three (a
    pair dropped, or a slot off the dead points, on a dead edge, used
    twice or paired with itself)."""
    index = cx.slot_index
    dead_triples = {rng.choice(sorted(cx.triples_by_id))}
    for _ in range(rng.randrange(4)):
        t = rng.choice(sorted(dead_triples))
        eid, end = index[TripleSlot(t, rng.randrange(3), rng.choice("ab"))]
        other = cx.edges_by_id[eid][2 - end]
        if type(other) is TripleSlot:
            dead_triples.add(other.triple_id)
    slots = list(endpoints([cx.triples_by_id[t] for t in sorted(dead_triples)], ()))
    through = sorted({cx.curve_of(index[ref][0]) for ref in slots})
    dead_edges = {eid for cid in rng.sample(through, rng.randrange(min(3, len(through)) + 1))
                  for eid in cx.curves_by_id[cid].edges}
    orphans = [ref for ref in slots if index[ref][0] not in dead_edges]
    rng.shuffle(orphans)
    splice = list(zip(orphans[::2], orphans[1::2]))
    if splice and rng.randrange(3) == 0:
        live = [ref for ref in index if type(ref) is TripleSlot
                and ref.triple_id not in dead_triples]
        spent = [ref for ref in slots if index[ref][0] in dead_edges]
        r1, r2 = splice.pop(rng.randrange(len(splice)))
        splice.insert(rng.randrange(len(splice) + 1), rng.choice([
            (r1, r2), (rng.choice(live or [r1]), r2), (rng.choice(spent or [r1]), r2),
            (r1, splice[0][0] if splice else r1), (r1, r1), None]))
        splice = [pair for pair in splice if pair is not None]
    return dead_triples, dead_edges, tuple(splice)


def test_chain_walk_merges_as_its_reference():
    """``_merge_chains`` walks each chain once from its smallest edge; on
    seeded random cases it returns what the back-then-forwards walk with a
    reorientation pass returns, or rejects with the same check and message.
    The cases close chains and reverse edges."""
    rng = random.Random(20261019)
    complexes = [load_fixture(name) for name in ("r2", "r3", "r5")] + [
        with_sites(generate_random_complex(seed, SizeBudget(3, 4, 1), disks=1),
                   SITE_NAMES, seed) for seed in range(40)]
    tally = {"accepted": 0, "rejected": 0, "closed": 0, "reversed": 0}
    for cx in complexes:
        for _ in range(25):
            case = random_merge_case(cx, rng)
            outcomes = []
            for merge in (moves._merge_chains, reference_merge_chains):
                try:
                    outcomes.append(merge(cx, *case, set()))
                except MoveRejected as exc:
                    outcomes.append((exc.check, str(exc)))
            assert outcomes[0] == outcomes[1], case
            if len(outcomes[0]) == 2:
                tally["rejected"] += 1
                continue
            new_edges, _, reversed_edges = outcomes[0]
            tally["accepted"] += 1
            tally["closed"] += any(type(e) is Circle for e in new_edges)
            tally["reversed"] += bool(reversed_edges)
    assert all(tally.values()), tally


# -- the `.skd` grammar -------------------------------------------------------

# the whitespace str.split splits on, less the characters that end a line
INLINE_SPACE = "".join(c for c in map(chr, range(0x10000))
                       if c.isspace() and len(f"a{c}b".splitlines()) == 1)
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
CASE_FREE_KEYS = ("lines", "pair", "level1", "level2")


# The reference reader reads one line at a time: it matches each line
# against its kind's pattern (the grammar of formats._RULES, anchored to
# the line), builds each record from the groups, and words a rejected line
# with diagnostics.rejections. parse_skd_document, which scans the whole text
# once per record kind, must read every text as it does.
REFERENCE_PATTERNS = {kind: re.compile(rf"\s*{kind}\s+{rule}\s*\Z")
                      for kind, rule in formats._RULES.items()}
REFERENCE_TYPES = {lt.value: lt for lt in LineType}


def reference_record(kind, groups):
    """The record of a matched line, and the kind its id is unique in."""
    if kind == "triple":
        rid, types = groups
        return "triple", TriplePoint(rid, tuple(REFERENCE_TYPES[t]
                                                for t in types.lower().split(",")))
    if kind == "edge":
        rid, *ends = groups
        return "edge", Arc(rid, *(BranchRef(b) if b else TripleSlot(t, int(i), slot)
                                  for b, t, i, slot in (ends[:4], ends[4:])))
    if kind == "disk":
        rid, e1, e2, pair, level1, level2 = groups
        return "disk", DescendentDisk(rid, e1, e2, Pairing(pair.lower()),
                                      Level(level1.lower()), Level(level2.lower()))
    record = {"branch": BranchPoint, "circle": Circle}[kind](groups[0])
    return ("edge" if kind == "circle" else kind), record


def reference_read(text: str, check: bool):
    """The document ``parse_skd_document(text, check)`` returns, or the
    diagnostics of the ParseError it raises."""
    errors, lines_of, oracle = [], {}, {}
    records = {"triple": [], "branch": [], "edge": [], "disk": []}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].rstrip()
        if not line:
            continue
        kind = line.split(None, 1)[0]
        m = REFERENCE_PATTERNS[kind].match(line) if kind in REFERENCE_PATTERNS else None
        if m is None:
            errors += [(lineno, column, message) for column, message in
                       diagnostics.rejections(line) or [(1, f"malformed {kind} record")]]
        elif kind == "oracle":
            fp, verdict = m.groups()
            if oracle.setdefault(fp, verdict) != verdict:
                errors.append((lineno, 1, f"oracle {fp} is {verdict} here but "
                               f"{oracle[fp]} on line {lines_of['oracle', fp]}"))
            lines_of.setdefault(("oracle", fp), lineno)
        else:
            unique_in, record = reference_record(kind, m.groups())
            if (first := lines_of.setdefault((unique_in, record.id), lineno)) == lineno:
                records[unique_in].append(record)
            else:
                errors.append((lineno, m.start(1) + 1, f"duplicate {unique_in} id "
                               f"{record.id!r} (first defined on line {first})"))
    if errors:
        return tuple(errors)
    cx = SingularityComplex.build(*records.values())
    if check:
        errors = [(lines_of.get(subject, 1), 1, violation.message)
                  for violation in validate(cx).violations
                  for subject in violation.subjects or [None]]
    return tuple(errors) or SkdDocument(cx, oracle)


def assert_reads_as_the_reference(text: str) -> None:
    for check in (True, False):
        try:
            got = parse_skd_document(text, check=check)
        except ParseError as exc:
            got = exc.diagnostics
        assert got == reference_read(text, check)


def perturbed_line(line: str, data) -> str:
    """``line`` respaced, its line types and disk enums recased, its disk
    keys reordered, and a comment maybe appended."""
    space = st.text(st.sampled_from(INLINE_SPACE), min_size=1, max_size=3)
    kind, *tokens = line.split()
    if kind == "disk":
        tokens = [tokens[0], *data.draw(st.permutations(tokens[1:]))]
    out = data.draw(st.just("") | space) + kind
    for token in tokens:
        key, eq, value = token.partition("=")
        if key in CASE_FREE_KEYS:
            value = data.draw(st.sampled_from((str.upper, str.title, str.swapcase,
                                               str.lower)))(value)
        out += data.draw(space) + key + eq + value
    out += data.draw(st.just("") | space)
    return out + data.draw(st.sampled_from(("", "#", "# note", " # lines=XX")))


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       disks=st.integers(min_value=0, max_value=2), data=st.data())
@settings(max_examples=40, deadline=None)
def test_perturbed_text_keeps_its_fingerprint(seed, budget, disks, data):
    cx = generate_random_complex(seed, budget, disks=disks)
    blank = st.sampled_from(("", " ", "\t", "# a comment", "  #"))
    lines = []
    for line in serialize_canonical(cx).splitlines():
        lines.append(perturbed_line(line, data))
        if data.draw(st.booleans()):
            lines.append(data.draw(blank))
    text = "".join(line + data.draw(st.sampled_from(LINE_BREAKS))
                   for line in data.draw(st.permutations(lines)))
    assert fingerprint(parse_skd(text)) == fingerprint(cx)
    assert_reads_as_the_reference(text)


MUTATION_ALPHABET = ("abelrtxyzBEMT019_.+-:,=# \t\n\u00a0\u2028"
                     "\u017f\u212a")
MUTATION_WORDS = ("triple", "edge", "disk", "oracle", "lines=", "BM", "T:", "B:",
                  ".1.a", "e1=", "pair=", "Cross", "level2=", "trivial", "abc")


def mutated(text: str, data) -> str:
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        pos = data.draw(st.integers(min_value=0, max_value=len(text)))
        op = data.draw(st.integers(min_value=0, max_value=4))
        if op == 0:
            text = text[:pos] + text[pos + 1:]
        elif op in (1, 2):
            insert = data.draw(st.sampled_from(MUTATION_ALPHABET) if op == 1
                               else st.sampled_from(MUTATION_WORDS))
            text = text[:pos] + insert + text[pos:]
        elif op == 3:
            text = text[:pos] + data.draw(st.sampled_from(MUTATION_ALPHABET)) \
                + text[pos + 1:]
        else:
            lines = text.splitlines(keepends=True)
            if lines:
                lines.insert(data.draw(st.integers(0, len(lines))),
                             lines[pos % len(lines)])
                text = "".join(lines)
    return text


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_text_raises_only_located_parse_errors(seed, budget, data):
    text = serialize_canonical(generate_random_complex(seed, budget, disks=1))
    text = mutated(text + f"oracle {'abc123'.ljust(64, '0')} trivial\n", data)
    last = max(1, len(text.splitlines()))
    for check in (True, False):
        try:
            parse_skd_document(text, check=check)
        except ParseError as exc:
            assert exc.diagnostics
            for line, col, message in exc.diagnostics:
                assert 1 <= line <= last and col >= 1 and message
    assert_reads_as_the_reference(text)


# one accepted line per `.skd` record kind, and what a single token of one
# may be corrupted into: dropped, doubled, another token of some kind, random
# text, or an edit of a few characters (a space splits it)
VALID_LINES = {"triple": "triple T1 lines=bm,BT,mt", "branch": "branch B1",
               "edge": "edge E1 B:B1 T:T1.0.a", "circle": "circle C1",
               "disk": "disk D1 e1=E1 e2=E2 pair=cross level1=upper level2=LOWER",
               "oracle": f"oracle {'ab' * 32} trivial"}
TOKEN_POOL = sorted({token for line in VALID_LINES.values() for token in line.split()})
CORRUPTION_ALPHABET = "abdeilmnoprstuvBMTE012_.+-:,=\u017f\u212a\u00a0 \t"


def corrupted(token: str, data) -> str:
    op = data.draw(st.integers(min_value=0, max_value=4))
    if op < 2:
        return ("", f"{token} {token}")[op]
    if op == 2:
        return data.draw(st.sampled_from(TOKEN_POOL))
    edit = data.draw(st.text(CORRUPTION_ALPHABET, max_size=3))
    if op == 3:
        return edit
    at = data.draw(st.integers(min_value=0, max_value=len(token)))
    return token[:at] + edit + token[at + data.draw(st.integers(0, 2)):]


def accepted(line: str) -> bool:
    """Whether the reader's pattern for the line's keyword accepts it, as
    ``diagnostics.located`` matches it."""
    pattern = formats._SKD_PATTERNS.get(line.split()[0])
    return bool(pattern and pattern.match(line.strip()))


@pytest.mark.parametrize("kind", sorted(VALID_LINES))
def test_an_accepted_line_has_no_rejection(kind):
    assert accepted(VALID_LINES[kind]) and diagnostics.rejections(VALID_LINES[kind]) == []


@given(kind=st.sampled_from(sorted(VALID_LINES)), data=st.data())
@settings(max_examples=600, deadline=None)
def test_the_wording_rejects_exactly_what_the_reader_rejects(kind, data):
    tokens = VALID_LINES[kind].split()
    at = data.draw(st.integers(min_value=0, max_value=len(tokens) - 1))
    tokens[at] = corrupted(tokens[at], data)
    line = " ".join(tokens)
    assume(line.strip())
    # a line the reader rejects is worded, and a line it accepts is not
    assert (diagnostics.rejections(line) == []) == accepted(line), line


RECORD_TYPES = {"triple_points": TriplePoint, "branch_points": BranchPoint,
                "disks": DescendentDisk}


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       disks=st.integers(min_value=0, max_value=2), pick=st.integers(0, 10 ** 6),
       check=st.booleans())
@settings(max_examples=40, deadline=None)
def test_parsed_records_have_their_record_types(seed, budget, disks, pick, check):
    # a record equals a plain tuple of its fields, so the round-trip tests
    # cannot tell a parser that builds plain tuples from one that does not
    cx = with_sites(generate_random_complex(seed, budget, disks=disks), SITE_NAMES, pick)
    oracle = f"oracle {fingerprint(cx)} trivial\n"
    doc = parse_skd_document(oracle + serialize_canonical(cx), check=check)
    assert doc.oracle == {fingerprint(cx): "trivial"}
    parsed = doc.complex
    for kind, record_type in RECORD_TYPES.items():
        for record in getattr(parsed, kind):
            assert type(record) is record_type
            assert record._fields == record_type._fields
            assert [getattr(record, f) for f in record._fields] == list(record)
    for edge in parsed.edges:
        assert type(edge) is (Circle if len(edge) == 1 else Arc)
        assert edge.id == edge[0]
        if type(edge) is Arc:
            for end in edge.ends:
                assert type(end) in (TripleSlot, BranchRef)
                assert [getattr(end, f) for f in end._fields] == list(end)
                assert str(end)[:2] == ("T:" if type(end) is TripleSlot else "B:")
    assert parsed.disks and tuple(parsed) == tuple(cx)


# -- the commutation square on random complexes -------------------------------


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       disks=st.integers(min_value=0, max_value=2), kind=st.integers(0, 7),
       pick=st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_commutation_square_on_random_complexes(seed, budget, disks, kind, pick):
    """Changing then moving (with the locus relabelled for the change) gives
    the diagram that moving then changing along the transported union gives,
    for every move kind and an exchangeable, dd-satisfying union, on a
    complex with one cancellation site spliced in."""
    site = SITE_NAMES[kind - 5 if kind >= 5 else pick % len(SITE_NAMES)]
    cx = with_sites(generate_random_complex(seed, budget, disks=disks), [site], pick)
    unions = [g for g in enumerate_exchangeable(cx) if satisfies_dd_condition(cx, g)]
    gamma = unions[pick % len(unions)]
    move = random_move(cx, kind, pick, 0)
    assume(move is not None)
    try:
        moved, moved_gamma = apply_with_transport(cx, gamma, move)
    except MoveRejected:
        return
    lhs = apply_move(crossing_change(cx, gamma), relabel_locus_for_change(cx, gamma, move))
    assert fingerprint(lhs) == fingerprint(crossing_change(moved, moved_gamma))
