"""Crossing changes along unions of double curves.

Swapping the upper/lower information along a union of curves is admissible
exactly when, at every triple point, reversing the pairwise height relations
on the flipped lines still leaves an acyclic (total) order on the three
local sheets. Of the eight subsets of {bm, bt, mt} exactly six are valid;
flipping only the bottom/top line, or the bottom/middle and middle/top lines
together, forces a cyclic height relation. In one line: a flip is valid iff
bit(bt) == bit(bm) or bit(bt) == bit(mt).

A scan gives each curve one integer flip word, with a 3-bit field per
triple point (the types of the lines the curve lies on) and a 2-bit field
per disk (whether it is the curve of each of the disk's edges), and ORs
the words of a candidate's curves; one bit-parallel test then checks every
triple point at once. A single union reads its flipped lines from the ends
of its own arcs instead: a line flips exactly when one of them ends on it.

A valid change relabels the line types at each triple point by the sheet
role permutation the new height order induces, and swaps the decker tags of
descendent-disk arcs that ride on flipped curves. The incidence structure
(points, edges, traced curves) is untouched.
"""

from functools import reduce
from itertools import product
from operator import or_
from typing import Callable, Iterable, NamedTuple

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
    unknown = gamma.difference(cx.curves_by_id)  # O(|gamma|), not O(#curves)
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


#: new line type of each old one, for each of the six valid flip patterns;
#: a pattern is valid iff it is a key
RELABEL = {
    p: {lt: TYPE_OF_PAIR[frozenset(perm[role] for role in pair)]
        for lt, pair in SHEET_PAIR.items()}
    for p in range(8) if (perm := role_permutation(frozenset(
        lt for i, lt in enumerate(PATTERN_TYPES) if p >> i & 1))) is not None}

#: per triple of line types (a permutation or not), the flip pattern of each
#: bitmask of flipped lines: the bits of their types, OR-ed
PATTERN_OF_LINES = {types: [reduce(or_, (1 << _BIT_OF[lt] for i, lt in enumerate(types)
                                         if lines >> i & 1), 0) for lines in range(8)]
                    for types in product(LineType, repeat=3)}


def exchangeable_unions(unions: Iterable[tuple[str, ...]], words: dict[str, int],
                        low: int) -> list[tuple[tuple[str, ...], int]]:
    """(union, word) for each of ``unions`` whose flip word, the OR of its
    curves' ``words``, has a pattern in RELABEL in every field that starts
    at a bit of ``low``: there its bt bit equals its bm bit or its mt bit."""
    word = words.__getitem__
    return [(u, w) for u in unions
            if not ((w := reduce(or_, map(word, u), 0)) ^ w >> 1)
            & (w >> 1 ^ w >> 2) & low]


def flip_words(cx: SingularityComplex) -> tuple[dict[str, int], int, int]:
    """Each curve's flip word, in sorted-id order, and the low bits of the
    triple-point and the disk fields. Triple point j has a 3-bit field at
    bit 3j, set at the types (PATTERN_TYPES bits) of the lines the curve
    lies on; disk k has a 2-bit field at 3T + 2k, bit 0 / bit 1 set when it
    is the curve of edge1 / edge2. A union's word is the OR of its curves'."""
    index, curve_of = cx.slot_index, cx.curve_by_edge
    words = {c.id: 0 for c in cx.curves}
    for j, t in enumerate(cx.triple_points):
        for i, lt in enumerate(t.line_types):
            # line i's curve, as cx.line_curve(t.id, i) finds it
            words[curve_of[index[t.id, i, "a"][0]]] |= 1 << 3 * j + _BIT_OF[lt]
    at = 3 * len(cx.triple_points)
    for k, d in enumerate(cx.disks):
        words[cx.curve_of(d.edge1)] |= 1 << at + 2 * k
        words[cx.curve_of(d.edge2)] |= 2 << at + 2 * k
    # bit 0 of every field: the sums of 8^j over the triple points and of
    # 4^k over the disks
    low = (8 ** len(cx.triple_points) - 1) // 7
    return words, low, (4 ** len(cx.disks) - 1) // 3 << at


def _flip_set(cx: SingularityComplex, t: TriplePoint, gamma: ExchangeSet) -> FlipSet:
    lines = frozenset(i for i in range(3) if cx.line_curve(t.id, i) in gamma)
    return FlipSet(t.id, lines, frozenset(t.line_types[i] for i in lines))


def flip_sets(cx: SingularityComplex, gamma: Iterable[str]) -> list[FlipSet]:
    """One FlipSet per triple point: a line flips iff its through-curve
    belongs to gamma."""
    gamma = exchange_set(cx, gamma)
    return [_flip_set(cx, t, gamma) for t in cx.triple_points]


def _flips(cx: SingularityComplex,
           gamma: ExchangeSet) -> tuple[dict[str, int], FlipSet | None]:
    """The flip pattern of each triple point gamma touches, and the invalid
    flip set at the first of them in id order, or None. A line flips
    exactly when one of gamma's arcs ends on it, so the flipped lines are
    read from those ends, and only their triple points visited."""
    edges, curves, triples = cx.edges_by_id, cx.curves_by_id, cx.triples_by_id
    flipped: dict[str, int] = {}  # triple id -> bitmask of its flipped lines
    for c in gamma:
        for eid in curves[c].edges:
            if type(arc := edges[eid]) is Arc:
                for end in arc[1:]:
                    if type(end) is TripleSlot:
                        flipped[end[0]] = flipped.get(end[0], 0) | 1 << end[1]
    patterns = {tid: PATTERN_OF_LINES[triples[tid].line_types][lines]
                for tid, lines in flipped.items()}
    bad = [tid for tid, p in patterns.items() if p not in RELABEL]
    return patterns, _flip_set(cx, triples[min(bad)], gamma) if bad else None


def first_invalid_flip(cx: SingularityComplex, gamma: Iterable[str]) -> FlipSet | None:
    """The invalid flip set at the first triple point, in id order, or None."""
    gamma = exchange_set(cx, gamma)
    return _flips(cx, gamma)[1]


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
    point gamma touches are relabelled by the induced sheet-role
    permutation, and each disk tag on a flipped curve is swapped between
    upper and lower. Raises NotExchangeableError naming the first triple
    point whose flip set is invalid.
    """
    gamma = exchange_set(cx, gamma)
    if not gamma:
        return cx
    patterns, fs = _flips(cx, gamma)
    if fs is not None:
        types = "{" + ", ".join(sorted(t.value for t in fs.flipped_types)) + "}"
        raise NotExchangeableError(
            fs.triple_id,
            f"flip set {types} at triple point {fs.triple_id} is not valid")
    new_triples = [relabelled_triple(t, p) if (p := patterns.get(t.id)) else t
                   for t in cx.triple_points]
    curve_of = cx.curve_of
    new_disks = [flipped_disk(d, (curve_of(d.edge1) in gamma)
                              | (curve_of(d.edge2) in gamma) << 1) for d in cx.disks]
    return SingularityComplex.build(
        new_triples, cx.branch_points, cx.edges, new_disks)


def changed_fingerprinter(cx: SingularityComplex) -> Callable[[int], str]:
    """``w -> fingerprint(crossing_change(cx, gamma))`` for an exchangeable
    union gamma of flip word ``w`` (see flip_words), without building the
    change: the canonical lines of each triple point (one per valid flip
    pattern), each disk (one per pair of level flips) and the unchanged
    middle block are built once, and a call only picks, joins and hashes
    them."""
    triples = [{p: triple_line(relabelled_triple(t, p)) for p in RELABEL}
               for t in cx.triple_points]
    disks = [[disk_line(flipped_disk(d, f)) for f in range(4)] for d in cx.disks]
    middle, at = middle_block(cx), 3 * len(triples)
    return lambda w: digest("".join([
        *(lines[w >> 3 * j & 7] for j, lines in enumerate(triples)), middle,
        *(lines[w >> at + 2 * k & 3] for k, lines in enumerate(disks))]))


def satisfies_dd_condition(cx: SingularityComplex, gamma: Iterable[str]) -> bool:
    """Descendent disk condition: every disk has both of its curves in
    gamma or both outside it. Decided purely from the disk registry."""
    gamma, curve_of = exchange_set(cx, gamma), cx.curve_of
    # a list, not a generator: every disk's edges are looked up, so a
    # missing edge raises even after a disk has failed
    return all([(curve_of(d.edge1) in gamma) == (curve_of(d.edge2) in gamma)
                for d in cx.disks])


def all_curves(cx: SingularityComplex) -> ExchangeSet:
    """The union of all double curves (always exchangeable and dd-satisfying)."""
    return frozenset(cx.curves_by_id)
