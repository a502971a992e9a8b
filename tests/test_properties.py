"""Property tests over seeded random complexes."""

from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skdiag import (
    all_curves,
    census,
    crossing_change,
    fingerprint,
    is_exchangeable,
    parse_skd,
    satisfies_dd_condition,
    serialize_canonical,
    validate,
)
from skdiag.crossing import changed_fingerprinter, curve_bits, role_permutation
from skdiag.explorer import (
    SizeBudget,
    TrivialityOracle,
    Verdict,
    du_index_upper_bound,
    enumerate_exchangeable,
    generate_random_complex,
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
