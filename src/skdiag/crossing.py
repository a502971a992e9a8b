"""Crossing changes along unions of double curves.

Swapping the upper/lower information along a union of curves is admissible
exactly when, at every triple point, reversing the pairwise height relations
on the flipped lines still leaves an acyclic (total) order on the three
local sheets. Of the eight subsets of {bm, bt, mt} exactly six are valid;
flipping only the bottom/top line, or the bottom/middle and middle/top lines
together, forces a cyclic height relation. In one line: a flip is valid iff
bit(bt) == bit(bm) or bit(bt) == bit(mt).

Checks run on integer masks: given a bit per curve, a triple point compiles
to the masks (m_bm, m_bt, m_mt) of the curves on its lines of each type, a
disk to the masks (m_e1, m_e2) of its edges' curves, and a union to the OR
of its curves' bits. Scans give each curve its own bit in sorted-id order;
single checks give bit 1 to the union's curves and test the mask 1.

A valid change relabels the line types at each triple point by the sheet
role permutation the new height order induces, and swaps the decker tags of
descendent-disk arcs that ride on flipped curves. The incidence structure
(points, edges, traced curves) is untouched.
"""

from typing import Callable, Iterable, Mapping, NamedTuple

from .canonical import digest, disk_line, middle_block, triple_line
from .errors import NotExchangeableError, UnknownIdError
from .singularity import (
    SHEET_PAIR,
    TYPE_OF_PAIR,
    Arc,
    DescendentDisk,
    LineType,
    SingularityComplex,
    TriplePoint,
    TripleSlot,
)

ExchangeSet = frozenset[str]

#: line type of each bit of a flip pattern: bit 0 bm, bit 1 bt, bit 2 mt
PATTERN_TYPES = (LineType.BM, LineType.BT, LineType.MT)
_BIT_OF = {lt: i for i, lt in enumerate(PATTERN_TYPES)}


class FlipSet(NamedTuple):
    """The lines flipped at one triple point by a crossing change."""

    triple_id: str
    flipped_lines: frozenset[int]
    flipped_types: frozenset[LineType]


def exchange_set(cx: SingularityComplex, curve_ids: Iterable[str]) -> ExchangeSet:
    """Normalize an iterable of curve ids, rejecting unknown ones."""
    gamma = frozenset(curve_ids)
    unknown = gamma - cx.curves_by_id.keys()
    if unknown:
        raise UnknownIdError(f"unknown curve id(s): {', '.join(sorted(unknown))}")
    return gamma


def role_permutation(flipped: frozenset[LineType]) -> dict[str, str] | None:
    """Sheet-role permutation induced by flipping the given line types.

    Returns None when the flipped relations are cyclic (invalid flip); else
    maps each old role in {b, m, t} to its role in the new height order.
    """
    wins = {"b": 0, "m": 0, "t": 0}
    for line_type, (upper, lower) in SHEET_PAIR.items():
        if line_type in flipped:
            upper, lower = lower, upper
        wins[upper] += 1
    if sorted(wins.values()) != [0, 1, 2]:
        return None
    by_wins = {2: "t", 1: "m", 0: "b"}
    return {role: by_wins[n] for role, n in wins.items()}


def is_valid_flip(flipped: Iterable[LineType]) -> bool:
    """True iff reversing the height relations on exactly these line types
    leaves a total (acyclic) order on the three sheets."""
    return role_permutation(frozenset(flipped)) is not None


#: new line type of each old one, for each of the six valid flip patterns
RELABEL = {
    p: {lt: TYPE_OF_PAIR[frozenset(perm[role] for role in pair)]
        for lt, pair in SHEET_PAIR.items()}
    for p in range(8) if (perm := role_permutation(frozenset(
        lt for i, lt in enumerate(PATTERN_TYPES) if p >> i & 1))) is not None}


def curve_bits(cx: SingularityComplex) -> dict[str, int]:
    """Bit ``1 << i`` for the i-th curve in sorted-id order."""
    return {c.id: 1 << i for i, c in enumerate(cx.curves)}


def triple_masks(cx: SingularityComplex, bits: Mapping[str, int],
                 triples: Iterable[TriplePoint] | None = None) -> list[tuple]:
    """(m_bm, m_bt, m_mt) per triple point (all of them, in id order, unless
    ``triples`` are given): the OR of the bits of the curves on its lines of
    each type (a curve without a bit counts 0)."""
    index, curve_of = cx.slot_index, cx.curve_by_edge
    out = []
    for t in cx.triple_points if triples is None else triples:
        m = [0, 0, 0]
        for i, lt in enumerate(t.line_types):
            # line i's curve, as cx.line_curve(t.id, i) finds it
            m[_BIT_OF[lt]] |= bits.get(curve_of[index[t.id, i, "a"][0]], 0)
        out.append(tuple(m))
    return out


def disk_masks(cx: SingularityComplex, bits: Mapping[str, int]) -> list[tuple]:
    """(m_e1, m_e2) per disk in id order: the bits of its edges' curves."""
    return [(bits.get(cx.curve_of(d.edge1), 0), bits.get(cx.curve_of(d.edge2), 0))
            for d in cx.disks]


def flip_pattern(g: int, masks: tuple) -> int:
    """The line types union mask ``g`` flips at a triple point (PATTERN_TYPES bits)."""
    bm, bt, mt = masks
    return (g & bm != 0) | (g & bt != 0) << 1 | (g & mt != 0) << 2


def disk_flips(g: int, masks: tuple) -> int:
    """Bit 0 / bit 1 set when union mask ``g`` flips the curve of edge1 / edge2."""
    return (g & masks[0] != 0) | (g & masks[1] != 0) << 1


def first_invalid_triple(g: int, masks: Iterable[tuple]) -> int | None:
    """Index of the first triple point where union mask ``g`` flips an
    invalid set, exactly {bt} or {bm, mt}; None when every flip is valid."""
    for i, (bm, bt, mt) in enumerate(masks):
        if (g & bm != 0) == (g & mt != 0) != (g & bt != 0):
            return i
    return None


def dd_holds(g: int, masks: Iterable[tuple]) -> bool:
    """Descendent disk condition for union mask ``g``."""
    return all((g & e1 != 0) == (g & e2 != 0) for e1, e2 in masks)


def _flip_set(cx: SingularityComplex, t: TriplePoint, gamma: ExchangeSet) -> FlipSet:
    lines = frozenset(i for i in range(3) if cx.line_curve(t.id, i) in gamma)
    return FlipSet(t.id, lines, frozenset(t.line_types[i] for i in lines))


def flip_sets(cx: SingularityComplex, gamma: Iterable[str]) -> list[FlipSet]:
    """One FlipSet per triple point: a line flips iff its through-curve
    belongs to gamma."""
    gamma = exchange_set(cx, gamma)
    return [_flip_set(cx, t, gamma) for t in cx.triple_points]


def first_invalid_flip(cx: SingularityComplex, gamma: Iterable[str]) -> FlipSet | None:
    """The invalid flip set at the first triple point, in id order, or None.
    Only a triple point at an end of one of gamma's arcs flips a line, so
    only those are checked."""
    gamma = exchange_set(cx, gamma)
    edges, triples_by_id = cx.edges_by_id, cx.triples_by_id
    touched = {end.triple_id for c in gamma for eid in cx.curves_by_id[c].edges
               if type(arc := edges[eid]) is Arc
               for end in arc.ends if type(end) is TripleSlot}
    triples = [triples_by_id[tid] for tid in sorted(touched)]
    bad = first_invalid_triple(1, triple_masks(cx, dict.fromkeys(gamma, 1), triples))
    return None if bad is None else _flip_set(cx, triples[bad], gamma)


def is_exchangeable(cx: SingularityComplex, gamma: Iterable[str]) -> bool:
    """True iff the flip set at every triple point is valid."""
    return first_invalid_flip(cx, gamma) is None


def relabelled_triple(t: TriplePoint, pattern: int) -> TriplePoint:
    """``t`` after a valid flip of the line types in ``pattern``."""
    relabel = RELABEL[pattern]
    return TriplePoint(t.id, tuple(relabel[lt] for lt in t.line_types))


def flipped_disk(d: DescendentDisk, flips: int) -> DescendentDisk:
    """``d`` with level1 / level2 swapped where bit 0 / bit 1 of flips is set."""
    return d._replace(level1=d.level1.flipped() if flips & 1 else d.level1,
                      level2=d.level2.flipped() if flips & 2 else d.level2)


def crossing_change(cx: SingularityComplex, gamma: Iterable[str]) -> SingularityComplex:
    """The diagram obtained by exchanging upper/lower information along gamma.

    Incidence structure is preserved exactly; line types at each triple
    point are relabelled by the induced sheet-role permutation, and each
    disk tag on a flipped curve is swapped between upper and lower.
    Raises NotExchangeableError naming the first triple point whose flip
    set is invalid.
    """
    gamma = exchange_set(cx, gamma)
    if not gamma:
        return cx
    bits = dict.fromkeys(gamma, 1)
    masks = triple_masks(cx, bits)
    bad = first_invalid_triple(1, masks)
    if bad is not None:
        fs = _flip_set(cx, cx.triple_points[bad], gamma)
        types = "{" + ", ".join(sorted(t.value for t in fs.flipped_types)) + "}"
        raise NotExchangeableError(
            fs.triple_id,
            f"flip set {types} at triple point {fs.triple_id} is not valid")
    new_triples = [relabelled_triple(t, flip_pattern(1, m))
                   for t, m in zip(cx.triple_points, masks)]
    new_disks = [flipped_disk(d, disk_flips(1, m))
                 for d, m in zip(cx.disks, disk_masks(cx, bits))]
    return SingularityComplex.build(
        new_triples, cx.branch_points, cx.edges, new_disks)


def changed_fingerprinter(cx: SingularityComplex,
                          bits: Mapping[str, int]) -> Callable[[int], str]:
    """``g -> fingerprint(crossing_change(cx, gamma))`` for an exchangeable
    union gamma of mask ``g`` under ``bits``, without building the change:
    the canonical lines of each triple point (one per valid flip pattern),
    each disk (one per pair of level flips) and the unchanged middle block
    are built once, and a call only picks, joins and hashes them."""
    triples = [(m, {p: triple_line(relabelled_triple(t, p)) for p in RELABEL})
               for t, m in zip(cx.triple_points, triple_masks(cx, bits))]
    disks = [(m, [disk_line(flipped_disk(d, f)) for f in range(4)])
             for d, m in zip(cx.disks, disk_masks(cx, bits))]
    middle = middle_block(cx)
    return lambda g: digest("".join([
        *(lines[flip_pattern(g, m)] for m, lines in triples), middle,
        *(lines[disk_flips(g, m)] for m, lines in disks)]))


def satisfies_dd_condition(cx: SingularityComplex, gamma: Iterable[str]) -> bool:
    """Descendent disk condition: every disk has both of its curves in
    gamma or both outside it. Decided purely from the disk registry."""
    return dd_holds(1, disk_masks(cx, dict.fromkeys(exchange_set(cx, gamma), 1)))


def all_curves(cx: SingularityComplex) -> ExchangeSet:
    """The union of all double curves (always exchangeable and dd-satisfying)."""
    return frozenset(cx.curves_by_id)
