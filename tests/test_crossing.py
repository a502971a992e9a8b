"""Flip validity, exchangeability, crossing changes, dd-condition."""

from functools import reduce
from itertools import chain, combinations, permutations, product
from operator import or_

import pytest

from skdiag import (
    LineType,
    NotExchangeableError,
    SingularityComplex,
    TriplePoint,
    UnknownIdError,
    all_curves,
    crossing_change,
    flip_sets,
    is_exchangeable,
    is_valid_flip,
    satisfies_dd_condition,
    serialize_canonical,
    validate,
)
from skdiag.crossing import (
    PATTERN_TYPES,
    RELABEL,
    exchange_set,
    exchangeable_unions,
    first_invalid_flip,
    flip_words,
    role_permutation,
)
from skdiag.explorer import SizeBudget, enumerate_exchangeable, generate_random_complex
from skdiag.singularity import DescendentDisk, Level, Pairing

# independent oracle: its own relation table, total orders by enumeration
ORACLE_PAIRS = {"bm": ("m", "b"), "bt": ("t", "b"), "mt": ("t", "m")}


def oracle_valid_flip(flipped):
    relations = []
    for name, (hi, lo) in ORACLE_PAIRS.items():
        relations.append((lo, hi) if name in flipped else (hi, lo))
    for order in permutations("bmt"):
        rank = {s: i for i, s in enumerate(order)}  # index 0 = highest sheet
        if all(rank[hi] < rank[lo] for hi, lo in relations):
            return True
    return False


def all_subsets():
    names = ("bm", "bt", "mt")
    return [frozenset(c) for c in chain.from_iterable(
        combinations(names, k) for k in range(4))]


# frozen from the oracle: exactly these two subsets are invalid
INVALID_SUBSETS = {frozenset({"bt"}), frozenset({"bm", "mt"})}


def test_oracle_agrees_with_frozen_table():
    invalid = {s for s in all_subsets() if not oracle_valid_flip(s)}
    assert invalid == INVALID_SUBSETS


def test_is_valid_flip_matches_oracle_on_all_eight():
    for subset in all_subsets():
        engine = is_valid_flip({LineType(n) for n in subset})
        assert engine == oracle_valid_flip(subset), subset


def _loops(types):
    """One triple point T of these line types, each line a loop arc of its
    own closed curve E<i>."""
    from skdiag.singularity import Arc, TripleSlot

    edges = [Arc(f"E{i}", TripleSlot("T", i, "a"), TripleSlot("T", i, "b"))
             for i in range(3)]
    return SingularityComplex.build(triples=[TriplePoint("T", types)], edges=edges)


def _word_valid(w: int, low: int) -> bool:
    """The word test on a one-curve union whose word is ``w``."""
    return exchangeable_unions([(("c",), w)], low) == [(("c",), w)]


def test_mask_rule_matches_role_permutation_on_all_eight():
    # one curve on each of the bm, bt, mt lines: its word is its type's bit
    words, low, _ = flip_words(_loops(PATTERN_TYPES))
    for g in range(8):
        flipped = frozenset(lt for i, lt in enumerate(PATTERN_TYPES) if g >> i & 1)
        valid = role_permutation(flipped) is not None
        gamma = tuple(f"E{i}" for i in range(3) if g >> i & 1)
        assert reduce(or_, (words[c] for c in gamma), 0) == g
        assert exchangeable_unions([(gamma, g)], low) == ([(gamma, g)] if valid else [])
        assert (g in RELABEL) == valid


def test_word_rule_tests_every_field_on_its_own():
    # two triple points' patterns side by side, and a field the low bits skip
    valid = {g: role_permutation(frozenset(
        lt for i, lt in enumerate(PATTERN_TYPES) if g >> i & 1)) is not None
        for g in range(8)}
    for g, h in product(range(8), repeat=2):
        assert _word_valid(g | h << 3, 0b1001) == (valid[g] and valid[h]), (g, h)
        assert _word_valid(g | h << 3, 0b1000) == valid[h], (g, h)


def test_full_reversal_is_valid():
    assert is_valid_flip({LineType.BM, LineType.BT, LineType.MT})


def test_valid_subsets_closed_under_complement():
    full = {"bm", "bt", "mt"}
    for subset in all_subsets():
        comp = frozenset(full - subset)
        assert oracle_valid_flip(subset) == oracle_valid_flip(comp)


def test_flip_sets_empty_and_full(trefoil):
    for fs in flip_sets(trefoil, set()):
        assert not fs.flipped_lines
    for fs in flip_sets(trefoil, all_curves(trefoil)):
        assert fs.flipped_lines == frozenset({0, 1, 2})


def test_flip_sets_closed_curve(trefoil):
    for fs in flip_sets(trefoil, {"closed"}):
        assert fs.flipped_lines == frozenset({1, 2})
        assert fs.flipped_types == frozenset({LineType.BM, LineType.BT})


def test_flip_sets_unknown_curve(trefoil):
    with pytest.raises(UnknownIdError):
        flip_sets(trefoil, {"nope"})


def test_exchange_set_names_every_unknown_id_sorted(trefoil):
    with pytest.raises(UnknownIdError) as exc:
        exchange_set(trefoil, ["zz", "closed", "aa", "open1"])
    assert str(exc.value) == "unknown curve id(s): aa, zz"
    # an edge id names the curve through it only at the CLI, not here
    with pytest.raises(UnknownIdError) as exc:
        exchange_set(trefoil, ["open1.2"])
    assert str(exc.value) == "unknown curve id(s): open1.2"


def test_exchange_set_takes_any_iterable_of_known_ids(trefoil):
    assert exchange_set(trefoil, (c for c in ("open1", "closed"))) == {"open1", "closed"}
    assert exchange_set(trefoil, ["open2", "open2", "closed"]) == {"open2", "closed"}
    assert exchange_set(trefoil, []) == frozenset()


def test_exchangeability_trefoil(trefoil):
    assert is_exchangeable(trefoil, set())
    assert is_exchangeable(trefoil, all_curves(trefoil))
    assert is_exchangeable(trefoil, {"closed"})


def test_non_exchangeable_rejection_names_triple(r3):
    # gamma_k alone flips only the b/t line at the central triple point
    assert not is_exchangeable(r3, {"ek1"})
    with pytest.raises(NotExchangeableError) as exc:
        crossing_change(r3, {"ek1"})
    assert exc.value.triple_id in {"T0", "Te", "Tf"}
    # the named triple point is the first invalid one in id order
    assert exc.value.triple_id == "T0"


def test_crossing_change_identity(trefoil):
    assert crossing_change(trefoil, set()) == trefoil


def test_crossing_change_single_triple_mt():
    # flipping only the m/t line: old mt stays mt, old bt becomes bm,
    # old bm becomes bt (recomputed from the order middle > top > bottom)
    from tests.conftest import load_fixture

    cx = load_fixture("r5")  # line0=bm, line1=bt, line2=mt at T1
    changed = crossing_change(cx, {"g1"})  # flips lines 1 and 2 (bt, mt)
    # derive expected via the oracle: relations bt,mt flipped
    assert oracle_valid_flip({"bt", "mt"})
    # dedicated single-line check on a purpose-built complex:
    t = TriplePoint("T", (LineType.MT, LineType.BT, LineType.BM))
    from skdiag.singularity import Arc, TripleSlot

    edges = [Arc(f"E{i}", TripleSlot("T", i, "a"), TripleSlot("T", i, "b"))
             for i in range(3)]
    cx1 = SingularityComplex.build(triples=[t], edges=edges)
    out = crossing_change(cx1, {"E0"})  # E0 rides the mt line
    new_types = out.triples_by_id["T"].line_types
    assert new_types[0] is LineType.MT
    assert new_types[1] is LineType.BM  # was bt
    assert new_types[2] is LineType.BT  # was bm
    assert changed.curves == cx.curves


@pytest.mark.parametrize("types", list(product(LineType, repeat=3)))
def test_first_invalid_flip_matches_the_compiled_masks_for_any_line_types(types):
    # line types that are not a permutation are checked as flip_words types
    # them: a type met on two lines sets one bit
    cx = _loops(types)
    words, low, _ = flip_words(cx)
    for k in range(4):
        for gamma in combinations(["E0", "E1", "E2"], k):
            word = reduce(or_, map(words.__getitem__, gamma), 0)
            valid = bool(exchangeable_unions([(gamma, word)], low))
            found = first_invalid_flip(cx, gamma)
            assert (found is None) == valid, (types, gamma)
            if found is not None:
                assert found.flipped_lines == {int(c[1]) for c in gamma}


def test_crossing_change_preserves_structure(trefoil):
    changed = crossing_change(trefoil, {"closed"})
    assert changed.branch_points == trefoil.branch_points
    assert changed.edges == trefoil.edges
    assert {c.id: c.edges for c in changed.curves} == \
        {c.id: c.edges for c in trefoil.curves}
    assert changed.triple_points != trefoil.triple_points


def test_involution_on_fixtures(trefoil, r2, r3, r5, r6):
    for cx in (trefoil, r2, r3, r5, r6):
        for gamma in enumerate_exchangeable(cx):
            twice = crossing_change(crossing_change(cx, gamma), gamma)
            assert serialize_canonical(twice) == serialize_canonical(cx)


def test_involution_on_random_complexes():
    for seed in range(1, 21):
        cx = generate_random_complex(seed, SizeBudget(triples=2, branches=2,
                                                      circles=1))
        for gamma in enumerate_exchangeable(cx):
            twice = crossing_change(crossing_change(cx, gamma), gamma)
            assert twice == cx


def test_crossing_change_equals_its_records_built_again():
    # the change keeps every id, hence the parent's order: built from its
    # records by ``build``, which sorts and checks the ids, it is the same
    # complex, with the same curves and the same canonical text
    for seed in range(1, 21):
        cx = generate_random_complex(seed, SizeBudget(triples=4, branches=2, circles=1),
                                     disks=2)
        for gamma in enumerate_exchangeable(cx):
            changed = crossing_change(cx, gamma)
            rebuilt = SingularityComplex.build(*changed)
            assert changed == rebuilt and changed.curves == rebuilt.curves
            assert serialize_canonical(changed) == serialize_canonical(rebuilt)


def test_complementation(trefoil, r2, r3, r5):
    for cx in (trefoil, r2, r3, r5):
        curves = all_curves(cx)
        for gamma in enumerate_exchangeable(cx):
            comp = curves - gamma
            assert is_exchangeable(cx, comp)
            assert satisfies_dd_condition(cx, gamma) == \
                satisfies_dd_condition(cx, comp)


def test_dd_condition(trefoil):
    assert satisfies_dd_condition(trefoil, set())
    assert satisfies_dd_condition(trefoil, all_curves(trefoil))
    assert satisfies_dd_condition(trefoil, {"closed"})
    # the fixture disk joins open1 and open2: selecting only one breaks it
    assert not satisfies_dd_condition(trefoil, {"open1"})
    assert not satisfies_dd_condition(trefoil, {"closed", "open1"})
    assert satisfies_dd_condition(trefoil, {"open1", "open2"})


def test_disk_levels_swap_along_flipped_curves(r6):
    changed = crossing_change(r6, {"x1"})
    disk = changed.disks_by_id["DD"]
    assert disk.level1 is Level.LOWER
    assert disk.level2 is Level.UPPER
    assert not disk.consistent  # the disk is broken: dd was violated
    both = crossing_change(r6, {"x1", "x2"})
    disk = both.disks_by_id["DD"]
    assert disk.consistent
    assert disk.level1 is Level.LOWER


def test_dd_bridging_disk_definitional(r2):
    cx = SingularityComplex.build(
        r2.triple_points, r2.branch_points, r2.edges,
        [DescendentDisk("P", "s1", "u1", Pairing.CROSS,
                        Level.UPPER, Level.UPPER)])
    assert not satisfies_dd_condition(cx, {"s1"})
    assert satisfies_dd_condition(cx, {"s1", "u1"})


def test_dd_disk_with_missing_edge_raises(r2):
    cx = SingularityComplex.build(
        r2.triple_points, r2.branch_points, r2.edges,
        [DescendentDisk("P", "s1", "ghost", Pairing.CROSS,
                        Level.UPPER, Level.UPPER)])
    assert not validate(cx).ok
    with pytest.raises(UnknownIdError):
        satisfies_dd_condition(cx, {"s1"})
    # also after an earlier disk (A, on s1 and u1) has failed
    failed_first = SingularityComplex.build(
        r2.triple_points, r2.branch_points, r2.edges,
        [DescendentDisk("A", "s1", "u1", Pairing.CROSS, Level.UPPER, Level.UPPER),
         *cx.disks])
    with pytest.raises(UnknownIdError):
        satisfies_dd_condition(failed_first, {"s1"})
    # a scan's flip words hold each disk's field, so a scan raises as well
    with pytest.raises(UnknownIdError):
        enumerate_exchangeable(cx)
