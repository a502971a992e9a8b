"""Singularity complex of a surface-knot diagram and double-curve tracing.

The model keeps only the combinatorics of a generic projection's singularity
set: isolated triple points (each carrying three typed double-point lines),
isolated branch points, and double edges, which are open arcs bounded by
triple-point slots and/or branch points, or free circles. Descendent disks
are declared annotations on pairs of edges; no embedding is represented.

A double curve is a maximal chain of edges glued at triple points through
opposite slots of the same line. Tracing yields a partition of the edge set;
all higher operations (crossing changes, moves) are defined on top of it.
"""

from bisect import bisect_left
from enum import Enum
from functools import cached_property
from itertools import chain, product, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import StructuralError, UnknownIdError


class LineType(str, Enum):
    """Which pair of local sheets crosses along a line at a triple point."""

    BM = "bm"  # bottom/middle
    BT = "bt"  # bottom/top
    MT = "mt"  # middle/top


# sheet roles meeting along each line type, as (upper, lower) in the
# reference height order top > middle > bottom
SHEET_PAIR = {
    LineType.BM: ("m", "b"),
    LineType.BT: ("t", "b"),
    LineType.MT: ("t", "m"),
}

TYPE_OF_PAIR = {
    frozenset(("b", "m")): LineType.BM,
    frozenset(("b", "t")): LineType.BT,
    frozenset(("m", "t")): LineType.MT,
}


class CurveKind(str, Enum):
    OPEN = "open"
    CLOSED = "closed"


class Pairing(str, Enum):
    """Corner pairing of a descendent disk: which edge ends a saddle
    exchange would join (end1/end2 refer to the edge records)."""

    CROSS = "cross"  # end1-of-e1 with end2-of-e2, end2-of-e1 with end1-of-e2
    PARALLEL = "parallel"  # end1 with end1, end2 with end2

    def flipped(self) -> "Pairing":
        return Pairing.PARALLEL if self is Pairing.CROSS else Pairing.CROSS


class Level(str, Enum):
    """Decker-level tag: which preimage sheet a disk boundary arc ends on."""

    UPPER = "upper"
    LOWER = "lower"

    def flipped(self) -> "Level":
        return Level.LOWER if self is Level.UPPER else Level.UPPER


class TripleSlot(NamedTuple):
    """One of the six edge attachment slots at a triple point: line 0-2,
    slot 'a' or 'b'. The two slots of a line are the opposite branches.
    A plain tuple, so that it keys the slot index at C speed."""

    triple_id: str
    line: int
    slot: str  # "a" | "b"

    def mate(self) -> "TripleSlot":
        return TripleSlot(self.triple_id, self.line, "b" if self.slot == "a" else "a")

    def __str__(self) -> str:
        return f"T:{self.triple_id}.{self.line}.{self.slot}"


class BranchRef(NamedTuple):
    branch_id: str

    def __str__(self) -> str:
        return f"B:{self.branch_id}"


EndpointRef = TripleSlot | BranchRef


class TriplePoint(NamedTuple):
    """A triple point; line_types[i] is the type of line i. The three types
    must be a bijection onto {bm, bt, mt} (checked by validate)."""

    id: str
    line_types: tuple[LineType, LineType, LineType]


class BranchPoint(NamedTuple):
    id: str


class Arc(NamedTuple):
    id: str
    end1: EndpointRef
    end2: EndpointRef

    @property
    def ends(self) -> tuple[EndpointRef, EndpointRef]:
        return (self.end1, self.end2)


class Circle(NamedTuple):
    """A double-point circle: a closed curve on its own, no endpoints."""

    id: str


DoubleEdge = Arc | Circle


class DescendentDisk(NamedTuple):
    """Declared descendent disk annotation.

    The disk meets edge1 and edge2 at one interior point each; ``pair``
    records the corner pairing a saddle exchange along the disk realizes,
    and level1/level2 are the decker tags of the distinguished boundary
    arc over the edge1 / edge2 touch points. A genuine descendent disk has
    level1 == level2 (one whole boundary arc upper, the other lower);
    unequal tags record a disk broken by a crossing change.
    """

    id: str
    edge1: str
    edge2: str
    pair: Pairing
    level1: Level
    level2: Level

    @property
    def consistent(self) -> bool:
        return self.level1 == self.level2


class DoubleCurve(NamedTuple):
    """A traced double curve: ordered edge ids in canonical form.

    Open curves are listed from the lexicographically smaller branch point;
    closed curves are rotated to start at the smallest edge id with the
    direction chosen to make the second edge id smaller. The curve id is
    the smallest edge id it contains, which is stable under relabelings
    that do not touch the curve's own edges.
    """

    id: str
    edges: tuple[str, ...]
    kind: CurveKind


class Violation(NamedTuple):
    """One violated invariant; subjects name the records involved as
    (record kind, id) pairs so reports can point at their definitions."""

    code: str
    message: str
    subjects: tuple[tuple[str, str], ...] = ()


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class CensusRecord(NamedTuple):
    triple_points: int
    branch_points: int
    arc_edges: int
    circles: int
    open_curves: int
    closed_curves: int


class _ComplexRecords(NamedTuple):
    triple_points: tuple[TriplePoint, ...]
    branch_points: tuple[BranchPoint, ...]
    edges: tuple[DoubleEdge, ...]
    disks: tuple[DescendentDisk, ...]


class SingularityComplex(_ComplexRecords):
    """Immutable singularity complex. Use :meth:`build` so records are kept
    sorted by id; all operations are pure functions of the value. It
    declares no ``__slots__``, so its cached views get an instance dict;
    they are written to it directly, and assigning any attribute raises."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a complex is immutable")

    @classmethod
    def build(cls, triples=(), branches=(), edges=(), disks=()) -> "SingularityComplex":
        triples = tuple(sorted(triples, key=BY_ID))
        branches = tuple(sorted(branches, key=BY_ID))
        edges = tuple(sorted(edges, key=BY_ID))
        disks = tuple(sorted(disks, key=BY_ID))
        for kind, items in (("triple point", triples), ("branch point", branches),
                            ("edge", edges), ("disk", disks)):
            if len(set(map(BY_ID, items))) != len(items):
                dup = next(a.id for a, b in zip(items, items[1:]) if a.id == b.id)
                raise StructuralError(f"duplicate {kind} id {dup!r}")
        return cls(triples, branches, edges, disks)

    @classmethod
    def empty(cls) -> "SingularityComplex":
        return cls.build()

    def rebuilt(self, removed=(), added=()) -> "SingularityComplex":
        """This complex's records less the ``removed`` ones, plus the ``added``
        ones, at the edit's cost: every view this one has computed is handed
        on, patched by the edit if it covers an edited kind (the slot index,
        curves, curve maps and lines on first use). Raises StructuralError when
        the edit removes a record this complex lacks or one record twice, or
        adds an id a survivor or another added record has."""
        edits, gone = tuple(([], []) for _ in KIND_OF), set()
        for record in removed:
            kind = KIND_OF[type(record)]
            if getattr(self, HELD_IN[kind]).get(record.id) != record:
                raise StructuralError(f"the edit removes {type(record).__name__} "
                                      f"{record.id!r}, which the complex does not hold")
            edits[kind][0].append(record)
            gone.add((HELD_IN[kind], record.id))
        for record in added:
            edits[KIND_OF[type(record)]][1].append(record)
        if len(gone) != sum(len(out) for out, _ in edits):
            raise StructuralError("the edit removes a record twice")
        kinds, records = self.kinds, []
        views = {name: patched(kinds[k], *edits[k])
                 for name, k in (("arcs", ARCS), ("circles", CIRCLES))}
        for name, by_id, held_kinds, noun in TABLES:
            out, into = ([r for k in held_kinds for r in edits[k][side]] for side in (0, 1))
            new = sorted(r.id for r in into)
            dups = [a for a, b in zip(new, new[1:]) if a == b] + [
                i for i in new if i in getattr(self, by_id) and (by_id, i) not in gone]
            if dups:
                raise StructuralError(f"duplicate {noun} id {min(dups)!r}")
            records.append(patched(getattr(self, name), out, into))
            if by_id in vars(self):
                views[by_id] = patched(vars(self)[by_id], out, into)
        child = type(self)(*records)
        vars(child).update(views, lineage=Lineage(
            kinds, {k: v for k, v in vars(self).items() if k in Lineage.VIEWS}, edits))
        return child

    # -- indexed views -------------------------------------------------

    @cached_property
    def triples_by_id(self) -> dict[str, TriplePoint]:
        return {t.id: t for t in self.triple_points}

    @cached_property
    def branches_by_id(self) -> dict[str, BranchPoint]:
        return {b.id: b for b in self.branch_points}

    @cached_property
    def edges_by_id(self) -> dict[str, DoubleEdge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def disks_by_id(self) -> dict[str, DescendentDisk]:
        return {d.id: d for d in self.disks}

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple([e for e in self.edges if type(e) is Arc])

    @cached_property
    def circles(self) -> tuple[Circle, ...]:
        return tuple([e for e in self.edges if type(e) is Circle])

    @property
    def kinds(self) -> tuple[tuple, ...]:
        """The records of each kind, in canonical text order (TRIPLES ...)."""
        return (self.triple_points, self.branch_points, self.arcs, self.circles,
                self.disks)

    @cached_property
    def _claims(self) -> tuple[dict, tuple[Violation, ...]]:
        """The endpoint index, mapping each endpoint to the (edge id, end
        index) attached there (a contested one to the list of all its
        claims), and the structural violations met building it, in
        validate's order. A complex built by ``rebuilt`` from a well-formed
        parent patches the parent's index by the arcs removed and added, any
        other indexes every arc end at C speed; only an index that breaks a
        rule claims every arc end afresh, so that its report is complete."""
        lineage = self.__dict__.get("lineage")
        parent = lineage.views.pop("_claims", None) if lineage else None
        every = 6 * len(self.triples_by_id) + len(self.branches_by_id)
        if parent is not None and not parent[1]:
            index = parent[0].copy()  # a clone, as in patched
            removed, added = lineage.edits[ARCS]
            for arc in removed:
                del index[arc.end1], index[arc.end2]
            dead = endpoints(
                [t for t in lineage.edits[TRIPLES][0] if t.id not in self.triples_by_id],
                [b for b in lineage.edits[BRANCHES][0] if b.id not in self.branches_by_id])
            # with every key a real endpoint, a full index of one claim per
            # arc end is one with each endpoint claimed once
            if (not _claim(self, added, index) and len(index) == every == 2 * len(self.arcs)
                    and not any(ref in index for ref in dead)):
                return index, ()
        arcs, ids = self.arcs, list(map(BY_ID, self.arcs))
        index = dict(zip(map(itemgetter(1), arcs), zip(ids, repeat(0))))
        index.update(zip(map(itemgetter(2), arcs), zip(ids, repeat(1))))
        real = chain(product(self.triples_by_id, (0, 1, 2), "ab"), zip(self.branches_by_id))
        # with one claim per endpoint, an index holding every real one holds no other
        if (len(index) == every == 2 * len(arcs) and all(map(index.__contains__, real))
                and set(map(type, index)) <= {TripleSlot, BranchRef}):
            return index, ()
        index = {}
        return index, (*_claim(self, arcs, index), *_coverage_violations(self, index))

    @property
    def slot_index(self) -> dict[EndpointRef, tuple[str, int]]:
        """The (edge id, end index) attached at each endpoint. Raises
        StructuralError with the message of validate's first broken
        reference, self-slot, unused or contested endpoint of a malformed
        complex."""
        index, violations = self._claims
        if violations:
            raise StructuralError(violations[0].message)
        return index

    def edge_end_at(self, ref: EndpointRef) -> tuple[str, int]:
        """The unique (edge id, end index) attached at ``ref``."""
        claim = self.slot_index.get(ref)
        if claim is None:
            if type(ref) is TripleSlot and ref.triple_id not in self.triples_by_id:
                raise UnknownIdError(f"unknown triple point {ref.triple_id!r}")
            raise StructuralError(f"endpoint {ref} is unused")
        return claim

    # -- traced curves -------------------------------------------------

    @cached_property
    def curves(self) -> tuple[DoubleCurve, ...]:
        return trace_curves(self)

    @cached_property
    def curves_by_id(self) -> dict[str, DoubleCurve]:
        self.curves  # trace_curves stores the map it patches, if any
        return vars(self).get("curves_by_id") or {c.id: c for c in self.curves}

    @cached_property
    def curve_by_edge(self) -> dict[str, str]:
        """Id of the curve through each edge id."""
        self.curves  # trace_curves stores the map it builds
        return self.__dict__["curve_by_edge"]

    def curve_of(self, edge_id: str) -> str:
        try:
            return self.curve_by_edge[edge_id]
        except KeyError:
            raise UnknownIdError(f"unknown edge id {edge_id!r}") from None

    def line_curve(self, triple_id: str, line: int) -> str:
        """The curve passing through line ``line`` of a triple point."""
        edge_id, _ = self.edge_end_at(TripleSlot(triple_id, line, "a"))
        return self.curve_by_edge[edge_id]


#: indices of the record kinds in SingularityComplex.kinds
TRIPLES, BRANCHES, ARCS, CIRCLES, DISKS = range(5)

#: each record tuple of a complex: its by-id view, its kinds, and its noun
TABLES = (("triple_points", "triples_by_id", (TRIPLES,), "triple point"),
          ("branch_points", "branches_by_id", (BRANCHES,), "branch point"),
          ("edges", "edges_by_id", (ARCS, CIRCLES), "edge"),
          ("disks", "disks_by_id", (DISKS,), "disk"))
#: the kind of each record type, and the view holding its records by id
KIND_OF = {TriplePoint: TRIPLES, BranchPoint: BRANCHES, Arc: ARCS, Circle: CIRCLES,
           DescendentDisk: DISKS}
HELD_IN = {kind: by_id for _, by_id, kinds, _ in TABLES for kind in kinds}
BY_ID = attrgetter("id")


class Lineage(NamedTuple):
    """What a complex built by ``rebuilt`` patches on first use: its
    parent's records per kind and VIEWS (each popped by its first use), and
    per kind the records (removed, added) by the edit that made it."""

    records: tuple[tuple, ...]
    views: dict
    edits: tuple[tuple[list, list], ...]

    VIEWS = ("_claims", "curves", "curve_by_edge", "curves_by_id", "canonical_lines")


def patched(items, removed, added, entry=None, old=None):
    """``items`` less the entries of the ``removed`` records, plus an entry
    for each ``added`` record (itself, or ``entry(record)``): a copy of a
    by-id map, or a tuple (sorted by id, or one for one with the id-sorted
    records ``old``) with each entry at its place; ``items`` for no edit."""
    if not removed and not added:
        return items
    if type(items) is dict:
        items = items.copy()  # a clone: dict(items) re-inserts once a key was deleted
        for r in removed:
            del items[r.id]
        items.update((r.id, r) for r in added)
        return items
    old = items if old is None else old
    gone = sorted(bisect_left(old, r.id, key=BY_ID) for r in removed)
    out = list(items)
    for pos in reversed(gone):
        del out[pos]
    for n, r in enumerate(sorted(added, key=BY_ID)):
        at = bisect_left(old, r.id, key=BY_ID)
        out.insert(at - bisect_left(gone, at) + n, r if entry is None else entry(r))
    return tuple(out)


def endpoints(triples, branches):
    """Every endpoint of these points: six slots per triple point, in line
    and slot order, then the branch points."""
    yield from (TripleSlot(t.id, line, slot) for t in triples for line in (0, 1, 2)
                for slot in "ab")
    yield from (BranchRef(b.id) for b in branches)


def _claim(cx: SingularityComplex, arcs, index: dict) -> list[Violation]:
    """Claim both ends of each arc in ``index``, a contested endpoint
    keeping the list of all its claims. Returns the broken references and
    self-slots met, in arc order."""
    triples, branches = cx.triples_by_id, cx.branches_by_id
    violations = []
    for arc in arcs:
        for claim, ref in (((arc.id, 0), arc.end1), ((arc.id, 1), arc.end2)):
            if not (ref.branch_id in branches if type(ref) is BranchRef
                    else ref.triple_id in triples and ref.line in (0, 1, 2)
                    and ref.slot in ("a", "b")):
                what = (f"unknown branch point {ref.branch_id!r}" if type(ref) is BranchRef
                        else f"unknown triple point {ref.triple_id!r}"
                        if ref.triple_id not in triples else f"bad slot {ref}")
                violations.append(Violation("dangling-ref", f"edge {arc.id}: {what}",
                                            (("edge", arc.id),)))
            prev = index.setdefault(ref, claim)
            if prev is not claim:
                index[ref] = [*prev, claim] if type(prev) is list else [prev, claim]
                if claim[1] and arc.end1 == ref:
                    violations.append(Violation(
                        "self-slot", f"edge {arc.id} uses endpoint {ref} twice",
                        (("edge", arc.id),)))
    return violations


def _line_type_violations(cx: SingularityComplex):
    # tested once per distinct line-type triple: there are at most 27
    bad = {ts for ts in set(map(itemgetter(1), cx.triple_points)) if set(ts) != set(LineType)}
    for t in filter(lambda t: t.line_types in bad, cx.triple_points if bad else ()):
        yield Violation(
            "type-bijection",
            f"triple point {t.id}: line types {[lt.value for lt in t.line_types]} "
            "are not a permutation of bm,bt,mt",
            (("triple", t.id),),
        )


def _coverage_violations(cx: SingularityComplex, index: dict):
    for ref in endpoints(cx.triple_points, cx.branch_points):
        claim = index.get(ref)
        users = ([] if claim is None else [e for e, _ in claim]
                 if type(claim) is list else [claim[0]])
        kind, name, point = (("slot", f"slot {ref}", ("triple", ref.triple_id))
                             if type(ref) is TripleSlot else
                             ("branch", f"branch point {ref.branch_id}",
                              ("branch", ref.branch_id)))
        if not users:
            yield Violation(f"{kind}-unused", f"{name} is not used by any edge", (point,))
        elif len(users) > 1:
            yield Violation(f"{kind}-conflict",
                            f"{name} claimed by edges " + ", ".join(users),
                            tuple(("edge", e) for e in users))


def _disk_violations(cx: SingularityComplex):
    for d in cx.disks:
        subject = (("disk", d.id),)
        for label, eid in (("e1", d.edge1), ("e2", d.edge2)):
            if eid not in cx.edges_by_id:
                yield Violation("disk-dangling",
                                f"disk {d.id}: {label} references unknown edge {eid!r}",
                                subject)
        if d.edge1 == d.edge2:
            yield Violation("disk-edges-equal",
                            f"disk {d.id} references edge {d.edge1!r} twice", subject)


def validate(cx: SingularityComplex) -> ValidationReport:
    """Report every violated structural invariant; empty report iff well-formed.

    Checks line-type bijections, then the slot index's broken references,
    self-slots and slot and branch-point coverage, then disk edge
    references, then the counting identity 2|arcs| = 6|T| + |B|, which
    holds without further work when the slot index met no problem.
    Violations are report entries, never exceptions.
    """
    broken = cx._claims[1]
    violations = [*_line_type_violations(cx), *broken, *_disk_violations(cx)]
    n_arcs = len(cx.arcs)
    expected = 6 * len(cx.triple_points) + len(cx.branch_points)
    if broken and 2 * n_arcs != expected:
        violations.append(Violation(
            "counting-identity",
            f"2*|arcs| = {2 * n_arcs} but 6*|triples| + |branches| = {expected}"))
    return ValidationReport(tuple(violations))


def _canonical_closed(ids: list[str]) -> tuple[str, ...]:
    pivot = ids.index(min(ids))
    fwd = ids[pivot:] + ids[:pivot]
    rev = [fwd[0]] + list(reversed(fwd[1:]))
    if len(fwd) > 2 and rev[1] < fwd[1]:
        return tuple(rev)
    return tuple(fwd)


def _curve_through(start: DoubleEdge, index: dict, edges: dict) -> DoubleCurve:
    """The curve through ``start``, walked through opposite slots from its
    end2 and, unless that comes back round to its end1, from its end1."""
    if type(start) is Circle:
        return DoubleCurve(start.id, (start.id,), CurveKind.CLOSED)
    halves = []
    for ref in (start.end2, start.end1):
        ids: list[str] = []
        while type(ref) is TripleSlot:
            tid, line, slot = ref
            edge_id, entry = index[tid, line, "b" if slot == "a" else "a"]
            if edge_id == start.id and entry == 0:
                ids = _canonical_closed([start.id, *ids])
                return DoubleCurve(ids[0], ids, CurveKind.CLOSED)
            arc = edges[edge_id]
            if type(arc) is not Arc:
                raise StructuralError(f"endpoint {ref} leads to {edge_id!r}, "
                                      "which is not an arc")
            ids.append(edge_id)
            ref = arc.end2 if entry == 0 else arc.end1
        halves.append((ids, ref))
    (tail, last), (head, first) = halves
    ids = [*reversed(head), start.id, *tail]
    if last.branch_id < first.branch_id:
        ids.reverse()
    return DoubleCurve(min(ids), tuple(ids), CurveKind.OPEN)


def trace_curves(cx: SingularityComplex) -> tuple[DoubleCurve, ...]:
    """Partition the edges into maximal double curves.

    Traversal continues through a triple point on the opposite slot of the
    same line; a curve is open iff both of its ends are branch points.
    Raises StructuralError (with validate's first structural violation)
    when the complex is malformed. Under ``rebuilt`` the parent's curves
    that lost an edge are deleted, walks start only from added edges and
    those curves' survivors, and the new curves are inserted by id. Stores
    the edge-to-curve map as ``cx.curve_by_edge`` (and any parent's
    ``curves_by_id``, patched, as ``cx.curves_by_id``).
    """
    index, edges = cx.slot_index, cx.edges_by_id
    lineage = cx.__dict__.get("lineage")
    views = lineage.views if lineage else {}
    old, by_edge = views.pop("curves", None), views.pop("curve_by_edge", None)
    if old is None or by_edge is None:
        old, by_edge, seeds = None, {}, cx.edges
    else:
        arcs, circles = lineage.edits[ARCS], lineage.edits[CIRCLES]
        by_edge = by_edge.copy()  # a clone, as in patched
        dirty = [old[bisect_left(old, cid, key=BY_ID)]
                 for cid in sorted({by_edge[e.id] for e in arcs[0] + circles[0]})]
        seeds = arcs[1] + circles[1]
        for curve in dirty:
            for eid in curve.edges:
                del by_edge[eid]
                if eid in edges:
                    seeds.append(edges[eid])
    new = []
    for edge in seeds:
        if edge.id not in by_edge:
            curve = _curve_through(edge, index, edges)
            by_edge.update(dict.fromkeys(curve.edges, curve.id))
            new.append(curve)
    cx.__dict__["curve_by_edge"] = by_edge
    if old is None:
        return tuple(sorted(new, key=BY_ID))
    if "curves_by_id" in views:
        cx.__dict__["curves_by_id"] = patched(views.pop("curves_by_id"), dirty, new)
    return patched(old, dirty, new)


def census(cx: SingularityComplex) -> CensusRecord:
    """Point/edge/curve counts of a well-formed complex."""
    kinds = [c.kind for c in cx.curves]
    return CensusRecord(
        triple_points=len(cx.triple_points),
        branch_points=len(cx.branch_points),
        arc_edges=len(cx.arcs),
        circles=len(cx.circles),
        open_curves=kinds.count(CurveKind.OPEN),
        closed_curves=kinds.count(CurveKind.CLOSED),
    )
