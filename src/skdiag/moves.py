"""Roseman-move rewriting restricted to triple-point-descendent kinds.

Only the move kinds that never create a triple point are available: births
and deaths of free circles (R1) and of isolated branch-point arcs (R4), the
cancelling directions of the two-, six- and one-triple-point moves (R2-,
R3-, R5-), and the saddle exchange along a descendent disk (R6). The
forward moves R2+, R3+, R5+ are recognized as tokens but never applicable.

Loci are explicit. The cancelling moves take user-supplied splice maps that
say how the surviving edge stubs at deleted triple points reconnect; the
engine validates the structural pattern, applies the rewrite atomically,
and enforces the count deltas and curve-shortening facts as postconditions.
Edges created by merging or resplicing derive fresh ids by suffixing
(``E3`` -> ``E3.1``) for reproducible diffs.

``transport`` carries an exchangeable union of double curves across a move,
returning the corresponding union on the rewritten complex (dropping
deleted curves, following merged edges, and handling the descendent-disk
bookkeeping of the R1+/R4+ and R6 cases).
"""

from enum import Enum
from typing import Iterable, NamedTuple, Union

from .canonical import fingerprint
from .crossing import (
    PATTERN_OF_LINES,
    RELABEL,
    ExchangeSet,
    exchange_set,
    first_invalid_flip,
    is_exchangeable,
    satisfies_dd_condition,
)
from .errors import (
    DiagramError,
    MoveRejected,
    SequenceAborted,
    UnknownIdError,
)
from .singularity import (
    Arc,
    BranchPoint,
    BranchRef,
    Circle,
    CurveKind,
    DescendentDisk,
    Level,
    Pairing,
    SingularityComplex,
    TripleSlot,
)


class MoveKind(str, Enum):
    """Move kinds admissible in a t-descendent sequence."""

    R1_PLUS = "R1_PLUS"
    R1_MINUS = "R1_MINUS"
    R2_MINUS = "R2_MINUS"
    R3_MINUS = "R3_MINUS"
    R4_PLUS = "R4_PLUS"
    R4_MINUS = "R4_MINUS"
    R5_MINUS = "R5_MINUS"
    R6 = "R6"


#: Recognized tokens that are excluded from t-descendent sequences.
FORBIDDEN_KINDS = ("R2_PLUS", "R3_PLUS", "R5_PLUS")

_ALL_KIND_NAMES = tuple(k.name for k in MoveKind) + FORBIDDEN_KINDS

_SIGN_SUFFIX = {"+": "_PLUS", "-": "_MINUS"}


def normalize_kind_token(token: str) -> str:
    """Normalize a move-kind token (``R2-``, ``r2_minus``, ``R-2-``...).

    Returns the canonical name, which may be a forbidden kind; raises
    UnknownIdError for tokens outside the move vocabulary.
    """
    t = token.strip().upper().replace("R-", "R")
    if t and t[-1] in _SIGN_SUFFIX:
        t = t[:-1] + _SIGN_SUFFIX[t[-1]]
    if t in _ALL_KIND_NAMES:
        return t
    raise UnknownIdError(f"unknown move kind token {token!r}")


def validate_t_descendent(tokens: Iterable[str]) -> bool:
    """True iff every kind token names a move allowed in a t-descendent
    sequence. Unknown tokens raise; R2+/R3+/R5+ yield False."""
    return all(normalize_kind_token(t) not in FORBIDDEN_KINDS for t in tokens)


# -- loci ----------------------------------------------------------------

SplicePair = tuple[TripleSlot, TripleSlot]


class DiskDeclaration(NamedTuple):
    """Descendent disk declared together with an R1+/R4+ birth; edge1 of
    the disk is the newborn edge, edge2 the named partner edge."""

    disk_id: str
    partner_edge: str
    pair: Pairing
    level1: Level
    level2: Level


class R1Plus(NamedTuple):
    circle_id: str
    disk: DiskDeclaration | None = None

    kind = MoveKind.R1_PLUS


class R1Minus(NamedTuple):
    circle_id: str
    drop_disks: tuple[str, ...] = ()

    kind = MoveKind.R1_MINUS


class R4Plus(NamedTuple):
    edge_id: str
    branch1: str
    branch2: str
    disk: DiskDeclaration | None = None

    kind = MoveKind.R4_PLUS


class R4Minus(NamedTuple):
    edge_id: str
    drop_disks: tuple[str, ...] = ()

    kind = MoveKind.R4_MINUS


class R2Minus(NamedTuple):
    t1: str
    t2: str
    curves: tuple[str, str]  # the two closed curves to delete
    splice: tuple[SplicePair, ...]
    drop_disks: tuple[str, ...] = ()

    kind = MoveKind.R2_MINUS


class R3Minus(NamedTuple):
    triples: tuple[str, ...]  # the six triple points to delete
    curves: tuple[str, str, str]  # the three closed curves to delete
    center: str  # surviving triple point naming gamma_s/w/k by line type
    splice: tuple[SplicePair, ...]
    drop_disks: tuple[str, ...] = ()

    kind = MoveKind.R3_MINUS


class R5Minus(NamedTuple):
    triple: str
    edge_id: str  # branch-point-terminated edge absorbed by the move
    splice: tuple[SplicePair, ...]
    drop_disks: tuple[str, ...] = ()

    kind = MoveKind.R5_MINUS


class R6(NamedTuple):
    disk_id: str

    kind = MoveKind.R6


MoveInstance = Union[R1Plus, R1Minus, R2Minus, R3Minus, R4Plus, R4Minus, R5Minus, R6]


# -- application ---------------------------------------------------------


class _Outcome(NamedTuple):
    complex: SingularityComplex
    descent: dict[str, str | None]
    new_curve_ids: tuple[str, ...] = ()  # curves of newborn/respliced edges


def _fresh_id(cx: SingularityComplex, base: str, minted: set[str]) -> str:
    """The first ``base.n`` neither an edge of ``cx`` nor in ``minted``, added to it."""
    n = 1
    while f"{base}.{n}" in cx.edges_by_id or f"{base}.{n}" in minted:
        n += 1
    fid = f"{base}.{n}"
    minted.add(fid)
    return fid


def _require(cond: bool, check: str, message: str) -> None:
    if not cond:
        raise MoveRejected(check, message)


def _curve_or_reject(cx: SingularityComplex, curve_id: str, check: str):
    curve = cx.curves_by_id.get(curve_id)
    _require(curve is not None, check, f"no double curve with id {curve_id!r}")
    return curve


def _triples_met(cx: SingularityComplex, curve) -> list[str]:
    met = []
    for eid in curve.edges:
        edge = cx.edges_by_id[eid]
        if isinstance(edge, Arc):
            for ref in edge.ends:
                if isinstance(ref, TripleSlot):
                    met.append(ref.triple_id)
    return met


def _validate_disk_declaration(cx: SingularityComplex, decl: DiskDeclaration,
                               new_edge_id: str) -> DescendentDisk:
    _require(decl.disk_id not in cx.disks_by_id, "fresh-id",
             f"disk id {decl.disk_id!r} already exists")
    _require(decl.partner_edge in cx.edges_by_id, "disk-partner",
             f"declared disk partner edge {decl.partner_edge!r} does not exist")
    _require(decl.partner_edge != new_edge_id, "disk-partner",
             "declared disk cannot pair the new edge with itself")
    return DescendentDisk(decl.disk_id, new_edge_id, decl.partner_edge,
                          decl.pair, decl.level1, decl.level2)


def _merge_chains(cx: SingularityComplex, dead_triples: set[str],
                  dead_edges: set[str], splice: tuple[SplicePair, ...],
                  minted: set[str]):
    """Reconnect surviving edge stubs at deleted triple points.

    Returns (new edges, descent map, reversed-orientation edge set). Every
    orphaned slot must be reconnected exactly once by the splice map.
    """
    orphans: dict[TripleSlot, tuple[str, int]] = {}
    for tid in sorted(dead_triples):
        for line in range(3):
            for slot in ("a", "b"):
                ref = TripleSlot(tid, line, slot)
                claim = cx.edge_end_at(ref)
                if claim[0] not in dead_edges:
                    orphans[ref] = claim

    partner: dict[tuple[str, int], tuple[str, int]] = {}
    seen: set[TripleSlot] = set()
    for r1, r2 in splice:
        for r in (r1, r2):
            _require(r.triple_id in dead_triples, "splice",
                     f"splice slot {r} is not on a deleted triple point")
            _require(r in orphans, "splice",
                     f"splice slot {r} has no surviving edge to reconnect")
            _require(r not in seen, "splice", f"splice slot {r} used twice")
            seen.add(r)
        _require(r1 != r2, "splice", f"splice pairs slot {r1} with itself")
        partner[orphans[r1]] = orphans[r2]
        partner[orphans[r2]] = orphans[r1]
    missing = sorted(str(r) for r in set(orphans) - seen)
    _require(not missing, "splice",
             "orphaned slot(s) not reconnected: " + ", ".join(missing))

    affected = sorted({eid for eid, _ in partner})
    visited: set[str] = set()
    new_edges: list[Arc | Circle] = []
    descent: dict[str, str | None] = {}
    reversed_edges: set[str] = set()
    for seed in affected:
        if seed in visited:
            continue
        # walk backwards from (seed, end1) to a free entry stub or a cycle
        entry = (seed, 0)
        back_seen = set()
        while entry in partner and entry not in back_seen:
            back_seen.add(entry)
            prev_exit_edge, prev_exit_side = partner[entry]
            entry = (prev_exit_edge, 1 - prev_exit_side)
        chain: list[tuple[str, bool]] = []
        cur = entry
        closed = False
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
        if closed:
            new_id = _fresh_id(cx, base, minted)
            new_edges.append(Circle(new_id))
            for eid in ids:
                descent[eid] = new_id
        else:
            # orient the chain along its smallest constituent
            fwd = dict(chain)[base]
            if not fwd:
                chain = [(eid, not f) for eid, f in reversed(chain)]
            first_edge = cx.edges_by_id[chain[0][0]]
            last_edge = cx.edges_by_id[chain[-1][0]]
            _require(isinstance(first_edge, Arc) and isinstance(last_edge, Arc),
                     "splice", f"chain {base} ends on an edge that is not an arc")
            start = first_edge.end1 if chain[0][1] else first_edge.end2
            stop = last_edge.end2 if chain[-1][1] else last_edge.end1
            new_id = _fresh_id(cx, base, minted)
            new_edges.append(Arc(new_id, start, stop))
            for eid, f in chain:
                descent[eid] = new_id
                if not f:
                    reversed_edges.add(eid)
    return new_edges, descent, reversed_edges


def _remap_disks(cx: SingularityComplex, descent: dict[str, str | None],
                 reversed_edges: set[str], dead_edges: set[str],
                 drop_disks: tuple[str, ...]) -> tuple[list, list]:
    """The disks a move drops or changes, and what the changed ones become."""
    drop = set(drop_disks)
    unknown = sorted(drop - set(cx.disks_by_id))
    _require(not unknown, "drop-disks", "unknown disk id(s): " + ", ".join(unknown))
    removed, added = [], []
    for d in cx.disks:
        m1 = descent.get(d.edge1, d.edge1)
        m2 = descent.get(d.edge2, d.edge2)
        if d.id in drop:
            touches_dead = d.edge1 in dead_edges or d.edge2 in dead_edges
            collapses = m1 is not None and m1 == m2
            _require(touches_dead or collapses, "drop-disks",
                     f"disk {d.id} does not reference a destroyed edge")
            removed.append(d)
            continue
        for eid in (d.edge1, d.edge2):
            _require(eid not in dead_edges, "disk-destroyed",
                     f"disk {d.id} references deleted edge {eid!r}; "
                     "list it in drop_disks")
        _require(m1 != m2, "disk-collapsed",
                 f"disk {d.id} would reference edge {m1!r} on both sides "
                 "after the move; list it in drop_disks")
        pair = d.pair
        # merged constituents keep their touch point; a reversed constituent
        # swaps the corner naming, which toggles the pairing
        if (d.edge1 in reversed_edges) != (d.edge2 in reversed_edges):
            pair = pair.flipped()
        if (m1, m2, pair) != (d.edge1, d.edge2, d.pair):
            removed.append(d)
            added.append(d._replace(edge1=m1, edge2=m2, pair=pair))
    return removed, added


def _closed_count(cx: SingularityComplex) -> int:
    return sum(1 for c in cx.curves if c.kind is CurveKind.CLOSED)


def _descend_curve(cx: SingularityComplex, out: _Outcome, curve_id: str) -> str | None:
    """New-complex curve containing the remains of an old curve, if any."""
    for eid in cx.curves_by_id[curve_id].edges:
        new_eid = out.descent.get(eid, eid)
        if new_eid is not None:
            return out.complex.curve_of(new_eid)
    return None


def _check_shortening(cx: SingularityComplex, out: _Outcome, curve_id: str,
                      by: int) -> None:
    old_len = len(cx.curves_by_id[curve_id].edges)
    new_curve = _descend_curve(cx, out, curve_id)
    _require(new_curve is not None, "postcondition",
             f"curve {curve_id} unexpectedly vanished")
    new_len = len(out.complex.curves_by_id[new_curve].edges)
    _require(old_len - new_len == by, "postcondition",
             f"curve {curve_id} has {old_len - new_len} fewer double edges, "
             f"expected {by}")


def _cancel_move(cx: SingularityComplex, dead_triples: set[str],
                 dead_curves: tuple[str, ...], splice, drop_disks) -> _Outcome:
    dead_edges: set[str] = set()
    for cid in dead_curves:
        dead_edges.update(cx.curves_by_id[cid].edges)
    new_edges, descent, rev = _merge_chains(cx, dead_triples, dead_edges, splice, set())
    for eid in dead_edges:
        descent[eid] = None
    old_disks, new_disks = _remap_disks(cx, descent, rev, dead_edges, drop_disks)
    new_cx = cx.rebuilt(
        [*(cx.triples_by_id[t] for t in sorted(dead_triples)),
         *(cx.edges_by_id[e] for e in descent), *old_disks],
        new_edges + new_disks)
    return _Outcome(new_cx, descent, tuple(e.id for e in new_edges))


def _apply_r1_plus(cx: SingularityComplex, m: R1Plus) -> _Outcome:
    _require(m.circle_id not in cx.edges_by_id, "fresh-id",
             f"edge id {m.circle_id!r} already exists")
    added = [Circle(m.circle_id)]
    if m.disk is not None:
        added.append(_validate_disk_declaration(cx, m.disk, m.circle_id))
    return _Outcome(cx.rebuilt((), added), {}, (m.circle_id,))


def _apply_r1_minus(cx: SingularityComplex, m: R1Minus) -> _Outcome:
    edge = cx.edges_by_id.get(m.circle_id)
    _require(edge is not None, "locus", f"no edge with id {m.circle_id!r}")
    _require(isinstance(edge, Circle), "locus",
             f"edge {m.circle_id!r} is not a free circle")
    descent: dict[str, str | None] = {m.circle_id: None}
    old_disks, new_disks = _remap_disks(cx, descent, set(), {m.circle_id}, m.drop_disks)
    return _Outcome(cx.rebuilt([edge, *old_disks], new_disks), descent)


def _apply_r4_plus(cx: SingularityComplex, m: R4Plus) -> _Outcome:
    _require(m.edge_id not in cx.edges_by_id, "fresh-id",
             f"edge id {m.edge_id!r} already exists")
    for bid in (m.branch1, m.branch2):
        _require(bid not in cx.branches_by_id, "fresh-id",
                 f"branch point id {bid!r} already exists")
    _require(m.branch1 != m.branch2, "locus",
             "the two new branch points must be distinct")
    added = [BranchPoint(m.branch1), BranchPoint(m.branch2),
             Arc(m.edge_id, BranchRef(m.branch1), BranchRef(m.branch2))]
    if m.disk is not None:
        added.append(_validate_disk_declaration(cx, m.disk, m.edge_id))
    return _Outcome(cx.rebuilt((), added), {}, (m.edge_id,))


def _apply_r4_minus(cx: SingularityComplex, m: R4Minus) -> _Outcome:
    edge = cx.edges_by_id.get(m.edge_id)
    _require(edge is not None, "locus", f"no edge with id {m.edge_id!r}")
    _require(isinstance(edge, Arc)
             and isinstance(edge.end1, BranchRef)
             and isinstance(edge.end2, BranchRef), "locus",
             f"edge {m.edge_id!r} is not an arc bounded by two branch points")
    dead_branches = sorted({edge.end1.branch_id, edge.end2.branch_id})
    descent: dict[str, str | None] = {m.edge_id: None}
    old_disks, new_disks = _remap_disks(cx, descent, set(), {m.edge_id}, m.drop_disks)
    new_cx = cx.rebuilt(
        [edge, *(cx.branches_by_id[b] for b in dead_branches), *old_disks], new_disks)
    return _Outcome(new_cx, descent)


def _apply_r2_minus(cx: SingularityComplex, m: R2Minus) -> _Outcome:
    for tid in (m.t1, m.t2):
        _require(tid in cx.triples_by_id, "locus", f"no triple point {tid!r}")
    _require(m.t1 != m.t2, "locus", "the two cancelled triple points must differ")
    c1, c2 = m.curves
    _require(c1 != c2, "pattern", "the two deleted closed curves must differ")
    survivor = None
    for cid in (c1, c2):
        curve = _curve_or_reject(cx, cid, "pattern")
        _require(curve.kind is CurveKind.CLOSED, "pattern",
                 f"curve {cid} is not closed")
        met = _triples_met(cx, curve)
        _require(sorted(set(met)) == sorted({m.t1, m.t2}) and len(met) == 4,
                 "pattern",
                 f"curve {cid} does not pass through exactly {m.t1} and {m.t2}")
    for tid in (m.t1, m.t2):
        through = [cx.line_curve(tid, i) for i in range(3)]
        _require(through.count(c1) == 1 and through.count(c2) == 1, "pattern",
                 f"triple point {tid} is not spanned by {c1} and {c2} on two lines")
        rest = next(c for c in through if c not in (c1, c2))
        _require(survivor in (None, rest), "pattern",
                 "the surviving lines at the two triple points belong to "
                 "different curves")
        survivor = rest
    out = _cancel_move(cx, {m.t1, m.t2}, (c1, c2), m.splice, m.drop_disks)
    _require(_closed_count(cx) - _closed_count(out.complex) == 2,
             "postcondition", "closed double curve count did not drop by two")
    _check_shortening(cx, out, survivor, by=2)
    return out


def _apply_r3_minus(cx: SingularityComplex, m: R3Minus) -> _Outcome:
    _require(len(m.triples) == 6 and len(set(m.triples)) == 6, "locus",
             "R3- deletes exactly six distinct triple points")
    for tid in m.triples:
        _require(tid in cx.triples_by_id, "locus", f"no triple point {tid!r}")
    _require(m.center in cx.triples_by_id, "locus",
             f"no triple point {m.center!r}")
    _require(m.center not in m.triples, "locus",
             "the central triple point survives the move")
    curves = m.curves
    _require(len(set(curves)) == 3, "pattern",
             "the three deleted closed curves must be distinct")
    dead = set(m.triples)
    for cid in curves:
        curve = _curve_or_reject(cx, cid, "pattern")
        _require(curve.kind is CurveKind.CLOSED, "pattern",
                 f"curve {cid} is not closed")
        met = _triples_met(cx, curve)
        _require(set(met) <= dead, "pattern",
                 f"curve {cid} leaves the deleted triple points")
    pair_sites: dict[frozenset, list[str]] = {}
    survivor_at: dict[str, str] = {}
    for tid in m.triples:
        through = [cx.line_curve(tid, i) for i in range(3)]
        here = [c for c in through if c in curves]
        _require(len(here) == 2 and here[0] != here[1], "pattern",
                 f"triple point {tid} does not carry two distinct deleted curves")
        rest = next(c for c in through if c not in curves)
        pair_sites.setdefault(frozenset(here), []).append(tid)
        survivor_at[tid] = rest
    _require(len(pair_sites) == 3 and all(len(v) == 2 for v in pair_sites.values()),
             "pattern",
             "each pair of deleted curves must meet at exactly two of the "
             "six triple points")
    pair_survivors = set()
    for pair, sites in pair_sites.items():
        s1, s2 = (survivor_at[t] for t in sites)
        _require(s1 == s2, "pattern",
                 "the surviving lines at the two sites of a deleted-curve "
                 "pair belong to different curves")
        pair_survivors.add(s1)
    center_curves = {cx.line_curve(m.center, i) for i in range(3)}
    _require(len(center_curves) == 3, "pattern",
             "the central triple point's three lines must carry three "
             "distinct curves")
    _require(center_curves == pair_survivors, "pattern",
             "the central triple point's curves do not match the surviving "
             "curves at the deleted sites")
    out = _cancel_move(cx, dead, curves, m.splice, m.drop_disks)
    _require(_closed_count(cx) - _closed_count(out.complex) == 3,
             "postcondition", "closed double curve count did not drop by three")
    for cid in sorted(center_curves):
        _check_shortening(cx, out, cid, by=2)
    return out


def _apply_r5_minus(cx: SingularityComplex, m: R5Minus) -> _Outcome:
    _require(m.triple in cx.triples_by_id, "locus",
             f"no triple point {m.triple!r}")
    edge = cx.edges_by_id.get(m.edge_id)
    _require(edge is not None, "locus", f"no edge with id {m.edge_id!r}")
    _require(isinstance(edge, Arc), "locus",
             f"edge {m.edge_id!r} is not an arc")
    refs = {type(r) for r in edge.ends}
    slot_end = next((r for r in edge.ends if isinstance(r, TripleSlot)), None)
    _require(refs == {BranchRef, TripleSlot}
             and slot_end is not None and slot_end.triple_id == m.triple,
             "locus",
             f"edge {m.edge_id!r} does not join a branch point to {m.triple}")
    gamma_s = cx.curve_of(m.edge_id)
    out = _cancel_move(cx, {m.triple}, (), m.splice, m.drop_disks)
    _check_shortening(cx, out, gamma_s, by=1)
    return out


def _apply_r6(cx: SingularityComplex, m: R6) -> _Outcome:
    disk = cx.disks_by_id.get(m.disk_id)
    _require(disk is not None, "locus", f"no descendent disk {m.disk_id!r}")
    _require(disk.consistent, "disk-broken",
             f"disk {m.disk_id} has mixed levels "
             f"({disk.level1.value}/{disk.level2.value}); it is not a "
             "descendent disk")
    e1 = cx.edges_by_id.get(disk.edge1)
    e2 = cx.edges_by_id.get(disk.edge2)
    _require(e1 is not None and e2 is not None and disk.edge1 != disk.edge2,
             "locus", f"disk {m.disk_id} does not reference two existing edges")
    for other in cx.disks:
        if other.id != disk.id:
            _require(not ({other.edge1, other.edge2} & {disk.edge1, disk.edge2}),
                     "disk-entangled",
                     f"disk {other.id} also references an operated edge; "
                     "the exchanged halves cannot be attributed")
    minted: set[str] = set()
    if isinstance(e1, Arc) and isinstance(e2, Arc):
        cross = disk.pair is Pairing.CROSS
        n1 = Arc(_fresh_id(cx, e1.id, minted), e1.end1,
                 e2.end2 if cross else e2.end1)
        n2 = Arc(_fresh_id(cx, e2.id, minted), e1.end2,
                 e2.end1 if cross else e2.end2)
        dual = DescendentDisk(disk.id, n1.id, n2.id, Pairing.PARALLEL,
                              disk.level1, disk.level2)
        added = [n1, n2, dual]
        new_ids = (n1.id, n2.id)
    else:
        # a free circle involved: the exchange absorbs it and the two edges
        # fuse into one; the dual disk would touch that edge twice and is
        # not representable, so it is dropped
        base = min(e1.id, e2.id)
        new_id = _fresh_id(cx, base, minted)
        if isinstance(e1, Arc) or isinstance(e2, Arc):
            arc = e1 if isinstance(e1, Arc) else e2
            fused: Arc | Circle = Arc(new_id, arc.end1, arc.end2)
        else:
            fused = Circle(new_id)
        added = [fused]
        new_ids = (new_id, new_id)
    new_cx = cx.rebuilt([e1, e2, disk], added)
    _require(len(new_cx.curves) - len(cx.curves) in (-1, 0, 1), "postcondition",
             "double curve count changed by more than one")
    return _Outcome(new_cx, {}, new_ids)


_APPLIERS = {
    MoveKind.R1_PLUS: _apply_r1_plus,
    MoveKind.R1_MINUS: _apply_r1_minus,
    MoveKind.R2_MINUS: _apply_r2_minus,
    MoveKind.R3_MINUS: _apply_r3_minus,
    MoveKind.R4_PLUS: _apply_r4_plus,
    MoveKind.R4_MINUS: _apply_r4_minus,
    MoveKind.R5_MINUS: _apply_r5_minus,
    MoveKind.R6: _apply_r6,
}


def _apply(cx: SingularityComplex, move: MoveInstance) -> _Outcome:
    return _APPLIERS[move.kind](cx, move)


def apply_move(cx: SingularityComplex, move: MoveInstance) -> SingularityComplex:
    """Apply one move, validating its structural pattern and enforcing the
    count deltas as postconditions. Never partially applied: on rejection
    the input complex is returned untouched inside the raised error's scope."""
    return _apply(cx, move).complex


# -- gamma transport ------------------------------------------------------


def _transport_with(cx: SingularityComplex, gamma: ExchangeSet,
                    move: MoveInstance, out: _Outcome) -> ExchangeSet:
    replaced, born = frozenset(), False
    if move.kind is MoveKind.R3_MINUS:
        t = cx.triples_by_id[move.center]
        pattern = PATTERN_OF_LINES[t.line_types][sum(
            1 << i for i in range(3) if cx.line_curve(t.id, i) in gamma)]
        if pattern not in RELABEL:
            # gamma_s, gamma_w, gamma_k: the curves on the bm, mt, bt lines
            included = [name for name, bit in (("gamma_s", 1), ("gamma_w", 4),
                                               ("gamma_k", 2)) if pattern & bit]
            raise MoveRejected(
                "transport-case",
                f"membership pattern {{{', '.join(included)}}} at {move.center} "
                "is outside the six transportable cases (its flip set at the "
                "central triple point is invalid)")
    elif move.kind is MoveKind.R6:
        disk = cx.disks_by_id[move.disk_id]
        replaced = gamma & {cx.curve_of(disk.edge1), cx.curve_of(disk.edge2)}
        born = bool(replaced)
    elif move.kind in (MoveKind.R1_PLUS, MoveKind.R4_PLUS) and move.disk is not None:
        born = cx.curve_of(move.disk.partner_edge) in gamma
    new = set()
    for cid in gamma - replaced:
        mapped = _descend_curve(cx, out, cid)
        if mapped is not None:
            new.add(mapped)
    if born:
        new.update(out.complex.curve_of(eid) for eid in out.new_curve_ids)
    return frozenset(new)


def transport(cx: SingularityComplex, gamma: Iterable[str],
              move: MoveInstance) -> ExchangeSet:
    """Carry an exchangeable union across a move.

    Deleted curves are dropped; curves shortened by the move are followed to
    their successors; an R1+/R4+ birth whose declared disk pairs the new
    curve with a member of gamma adds the new curve; R6 with a disk curve in
    gamma replaces the disk's two curves by the curves of the respliced
    edges. The R3- membership patterns outside the six-case table are
    rejected.
    """
    return apply_with_transport(cx, gamma, move)[1]


def apply_with_transport(cx: SingularityComplex, gamma: Iterable[str],
                         move: MoveInstance):
    """Apply a move and transport gamma in one pass."""
    gamma = exchange_set(cx, gamma)
    out = _apply(cx, move)
    return out.complex, _transport_with(cx, gamma, move, out)


def relabel_locus_for_change(cx: SingularityComplex, gamma: Iterable[str],
                             move: MoveInstance) -> MoveInstance:
    """The move instance that performs the same geometric rewrite on the
    crossing-changed diagram.

    Ids are stable under a crossing change, so almost every locus carries
    over verbatim. The one exception is a birth declared together with a
    descendent disk: its level tags describe the disk in the unchanged
    diagram, and when the partner curve is flipped the same birth seen on
    the changed diagram has both tags swapped (the newborn curve is placed
    against the exchanged sheets). This is what makes applying the move
    after the change agree with changing along the transported union.
    """
    gamma = exchange_set(cx, gamma)
    if (move.kind in (MoveKind.R1_PLUS, MoveKind.R4_PLUS)
            and move.disk is not None
            and cx.curve_of(move.disk.partner_edge) in gamma):
        decl = move.disk
        flipped = DiskDeclaration(decl.disk_id, decl.partner_edge, decl.pair,
                                  decl.level1.flipped(), decl.level2.flipped())
        return move._replace(disk=flipped)
    return move


# -- sequences ------------------------------------------------------------


class TrailEntry(NamedTuple):
    index: int
    kind: str
    fingerprint: str
    gamma: tuple[str, ...]
    exchangeable: bool
    dd: bool


class SequenceResult(NamedTuple):
    complex: SingularityComplex
    gamma: ExchangeSet
    trail: tuple[TrailEntry, ...]


def union_flags(cx: SingularityComplex, gamma: ExchangeSet) -> tuple[bool, bool]:
    """Whether gamma is exchangeable on cx, and whether it satisfies the
    descendent disk condition: the two flags of a trail entry."""
    return is_exchangeable(cx, gamma), satisfies_dd_condition(cx, gamma)


def apply_sequence(cx: SingularityComplex, gamma: Iterable[str],
                   seq: Iterable[MoveInstance]) -> SequenceResult:
    """Fold apply_move and transport over a move sequence.

    The initial union must be exchangeable and dd-satisfying. The trail
    records, after each step, the complex fingerprint, the transported
    union, and whether it is still exchangeable and dd-satisfying.
    The first failing step aborts with its index and reason.
    """
    gamma = exchange_set(cx, gamma)
    bad = first_invalid_flip(cx, gamma)
    if bad is not None:
        raise SequenceAborted(
            -1, f"initial union is not exchangeable (triple point {bad.triple_id})")
    if not satisfies_dd_condition(cx, gamma):
        raise SequenceAborted(
            -1, "initial union violates the descendent disk condition")
    trail: list[TrailEntry] = []
    cur = cx
    for i, move in enumerate(seq):
        try:
            cur, gamma = apply_with_transport(cur, gamma, move)
        except DiagramError as exc:
            raise SequenceAborted(i, str(exc)) from exc
        exchangeable, dd = union_flags(cur, gamma)
        trail.append(TrailEntry(
            index=i,
            kind=move.kind.name,
            fingerprint=fingerprint(cur),
            gamma=tuple(sorted(gamma)),
            exchangeable=exchangeable,
            dd=dd,
        ))
    return SequenceResult(cur, gamma, tuple(trail))
