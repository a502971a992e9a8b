"""Property tests over seeded random complexes."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skdiag import (
    BranchRef,
    DiskDeclaration,
    Level,
    MoveRejected,
    Pairing,
    ParseError,
    R1Minus,
    R1Plus,
    R4Minus,
    R4Plus,
    R6,
    SingularityComplex,
    all_curves,
    apply_move,
    apply_with_transport,
    census,
    crossing_change,
    fingerprint,
    flip_sets,
    is_exchangeable,
    is_valid_flip,
    parse_skd,
    parse_skd_document,
    relabel_locus_for_change,
    satisfies_dd_condition,
    serialize_canonical,
    validate,
)
from skdiag.crossing import (
    changed_fingerprinter,
    curve_bits,
    first_invalid_flip,
    role_permutation,
)
from skdiag.explorer import (
    SizeBudget,
    TrivialityOracle,
    Verdict,
    du_index_upper_bound,
    enumerate_exchangeable,
    generate_random_complex,
)

from tests.conftest import load_fixture, r2_move, r3_move, r5_move, r6_move
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


def reference_scan(cx):
    """Every exchangeable union (sorted ids) mapped to its dd flag, in
    size-then-lexicographic order, from role_permutation and line_curve."""
    ids = sorted(cx.curves_by_id)
    out = {}
    for k in range(len(ids) + 1):
        for combo in combinations(ids, k):
            flips = [frozenset(t.line_types[i] for i in range(3)
                               if cx.line_curve(t.id, i) in combo)
                     for t in cx.triple_points]
            if all(role_permutation(f) is not None for f in flips):
                out[combo] = all((cx.curve_of(d.edge1) in combo)
                                 == (cx.curve_of(d.edge2) in combo)
                                 for d in cx.disks)
    return out


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


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=scan_budgets,
       disks=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_changed_fingerprints_match_crossing_change(seed, budget, disks):
    cx = generate_random_complex(seed, budget, disks=disks)
    assume(len(cx.curves) <= 10)
    bits = curve_bits(cx)
    changed = changed_fingerprinter(cx, bits)
    for gamma in enumerate_exchangeable(cx):
        if satisfies_dd_condition(cx, gamma):
            assert changed(sum(bits[c] for c in gamma)) == \
                fingerprint(crossing_change(cx, gamma))


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


# -- complexes a move derives from their parent -----------------------------


def assert_matches_fresh_build(cx):
    """The slot index, curves, curve map and fingerprint a derived complex
    inherited equal those of the same records built and traced afresh."""
    assert "lineage" in vars(cx)
    fresh = SingularityComplex.build(cx.triple_points, cx.branch_points,
                                     cx.edges, cx.disks)
    assert cx.slot_index == fresh.slot_index
    assert cx.curves == fresh.curves
    assert cx.curve_by_edge == fresh.curve_by_edge
    assert fingerprint(cx) == fingerprint(fresh)


def apply_derived(cx, move):
    """apply_move on a parent whose index, curves and lines exist, so the
    child inherits all three; the child is checked against a fresh build."""
    fingerprint(cx)
    child = apply_move(cx, move)
    assert_matches_fresh_build(child)
    return child


def random_move(cx, kind: int, pick: int, step: int):
    """A move of the given kind on cx, with its locus chosen by ``pick``,
    or None when cx has no locus for it."""
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
       disks=st.integers(min_value=0, max_value=2),
       steps=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10 ** 6)),
                      max_size=8))
@settings(max_examples=60, deadline=None)
def test_derived_complexes_match_fresh_builds(seed, budget, disks, steps):
    cx = generate_random_complex(seed, budget, disks=disks)
    for step, (kind, pick) in enumerate(steps):
        move = random_move(cx, kind, pick, step)
        if move is None:
            continue
        try:
            cx = apply_derived(cx, move)
        except MoveRejected:
            continue


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


# -- the `.skd` grammar -------------------------------------------------------

# the whitespace str.split splits on, less the characters that end a line
INLINE_SPACE = "".join(c for c in map(chr, range(0x10000))
                       if c.isspace() and len(f"a{c}b".splitlines()) == 1)
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
CASE_FREE_KEYS = ("lines", "pair", "level1", "level2")


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
    text = mutated(text + "oracle abc123 trivial\n", data)
    last = max(1, len(text.splitlines()))
    for check in (True, False):
        try:
            parse_skd_document(text, check=check)
        except ParseError as exc:
            assert exc.diagnostics
            for line, col, message in exc.diagnostics:
                assert 1 <= line <= last and col >= 1 and message


# -- the commutation square on random complexes -------------------------------


@given(seed=st.integers(min_value=0, max_value=10 ** 6), budget=budgets,
       disks=st.integers(min_value=0, max_value=2), kind=st.integers(0, 4),
       pick=st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_commutation_square_on_random_complexes(seed, budget, disks, kind, pick):
    """Changing then moving (with the locus relabelled for the change) gives
    the diagram that moving then changing along the transported union gives,
    for R1+, R4+, R1-, R4- and R6 and an exchangeable, dd-satisfying union."""
    cx = generate_random_complex(seed, budget, disks=disks)
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
