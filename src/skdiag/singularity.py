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

from enum import Enum
from functools import cached_property
from operator import attrgetter, is_
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
        by_id = attrgetter("id")
        triples = tuple(sorted(triples, key=by_id))
        branches = tuple(sorted(branches, key=by_id))
        edges = tuple(sorted(edges, key=by_id))
        disks = tuple(sorted(disks, key=by_id))
        for kind, items in (("triple point", triples), ("branch point", branches),
                            ("edge", edges), ("disk", disks)):
            if len(set(map(by_id, items))) != len(items):
                dup = next(a.id for a, b in zip(items, items[1:]) if a.id == b.id)
                raise StructuralError(f"duplicate {kind} id {dup!r}")
        return cls(triples, branches, edges, disks)

    @classmethod
    def empty(cls) -> "SingularityComplex":
        return cls.build()

    def rebuilt(self, triples=(), branches=(), edges=(), disks=()) -> "SingularityComplex":
        """The complex with these records, built from this one: it inherits
        the slot index, curves and canonical lines this one has computed,
        patched by the records the two do not share (by identity)."""
        child = self.build(triples, branches, edges, disks)
        child.__dict__["lineage"] = Lineage(
            self.kinds, {k: v for k, v in self.__dict__.items() if k in Lineage.VIEWS},
            [_delta(old, new) for old, new in zip(self.kinds, child.kinds)])
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
    def _claims(self) -> tuple[dict, str | None]:
        """The endpoint index, mapping each endpoint to the (edge id, end
        index) attached there (a contested one to the list of all its
        claims), and the first structural problem met building it. A
        complex built by ``rebuilt`` from a well-formed parent patches the
        parent's index by the arcs removed and added; any other complex
        claims every arc end afresh."""
        lineage = self.__dict__.get("lineage")
        parent = lineage.views.pop("_claims", None) if lineage else None
        index, added, dead = {}, self.arcs, ()
        if parent is not None and parent[1] is None:
            index = dict(parent[0])
            removed, added = lineage.deltas[ARCS]
            for arc in removed:
                del index[arc.end1], index[arc.end2]
            dead = endpoints(
                [t for t in lineage.deltas[TRIPLES][0] if t.id not in self.triples_by_id],
                [b for b in lineage.deltas[BRANCHES][0] if b.id not in self.branches_by_id])
        problem = _claim(self, added, index) or next(
            (f"endpoint {ref} of a deleted point is still claimed by edge "
             f"{index[ref][0]}" for ref in dead if ref in index), None)
        every = 6 * len(self.triple_points) + len(self.branch_points)
        if problem is None and len(index) != every:
            problem = next(f"endpoint {ref} is unused" for ref in
                           endpoints(self.triple_points, self.branch_points)
                           if ref not in index)
        return index, problem

    @property
    def slot_index(self) -> dict[EndpointRef, tuple[str, int]]:
        """The (edge id, end index) attached at each endpoint. Raises
        StructuralError naming the first broken reference, contested
        endpoint or unused endpoint of a malformed complex."""
        index, problem = self._claims
        if problem is not None:
            raise StructuralError(problem)
        return index

    def edge_end_at(self, ref: EndpointRef) -> tuple[str, int]:
        """The unique (edge id, end index) attached at ``ref``."""
        claim = self.slot_index.get(ref)
        if claim is None:
            raise StructuralError(f"endpoint {ref} is unused")
        return claim

    # -- traced curves -------------------------------------------------

    @cached_property
    def curves(self) -> tuple[DoubleCurve, ...]:
        return trace_curves(self)

    @cached_property
    def curves_by_id(self) -> dict[str, DoubleCurve]:
        return {c.id: c for c in self.curves}

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


class Lineage(NamedTuple):
    """What a complex built by ``rebuilt`` inherits: its parent's records
    per kind (which keep identity comparisons sound), the parent's VIEWS,
    each popped by its first use, and per kind the records (removed,
    added) relative to the parent."""

    records: tuple[tuple, ...]
    views: dict
    deltas: list[tuple[list, list]]

    VIEWS = ("_claims", "curves", "curve_by_edge", "canonical_lines")


def _delta(old: tuple, new: tuple) -> tuple[list, list]:
    """The records only ``old`` has and those only ``new`` has, compared by
    identity, in no particular order."""
    if len(old) == len(new) and all(map(is_, old, new)):
        return [], []
    old_by, new_by = dict(zip(map(id, old), old)), dict(zip(map(id, new), new))
    return ([old_by[i] for i in old_by.keys() - new_by.keys()],
            [new_by[i] for i in new_by.keys() - old_by.keys()])


def endpoints(triples, branches):
    """Every endpoint of these points: six slots per triple point, in line
    and slot order, then the branch points."""
    for t in triples:
        for line in range(3):
            for slot in ("a", "b"):
                yield TripleSlot(t.id, line, slot)
    yield from (BranchRef(b.id) for b in branches)


def _claim(cx: SingularityComplex, arcs, index: dict) -> str | None:
    """Claim both ends of each arc in ``index``. Returns the first broken
    reference or contested endpoint met, or None; a contested endpoint
    keeps the list of all its claims."""
    triples, branches = cx.triples_by_id, cx.branches_by_id
    problem = None
    for arc in arcs:
        for claim, ref in (((arc.id, 0), arc.end1), ((arc.id, 1), arc.end2)):
            if problem is None and not (
                    ref.branch_id in branches if type(ref) is BranchRef
                    else ref.triple_id in triples and ref.line in (0, 1, 2)
                    and ref.slot in ("a", "b")):
                problem = f"edge {arc.id} references broken endpoint {ref}"
            prev = index.setdefault(ref, claim)
            if prev is not claim:
                index[ref] = [*prev, claim] if type(prev) is list else [prev, claim]
                problem = problem or f"endpoint {ref} is claimed by multiple edges"
    return problem


def _line_type_violations(cx: SingularityComplex):
    for t in cx.triple_points:
        if set(t.line_types) != {LineType.BM, LineType.BT, LineType.MT}:
            yield Violation(
                "type-bijection",
                f"triple point {t.id}: line types {[lt.value for lt in t.line_types]} "
                "are not a permutation of bm,bt,mt",
                (("triple", t.id),),
            )


def _reference_violations(cx: SingularityComplex):
    for arc in cx.arcs:
        subject = (("edge", arc.id),)
        for ref in arc.ends:
            if isinstance(ref, BranchRef):
                if ref.branch_id not in cx.branches_by_id:
                    yield Violation("dangling-ref",
                                    f"edge {arc.id}: unknown branch point "
                                    f"{ref.branch_id!r}", subject)
            else:
                if ref.triple_id not in cx.triples_by_id:
                    yield Violation("dangling-ref",
                                    f"edge {arc.id}: unknown triple point "
                                    f"{ref.triple_id!r}", subject)
                elif not (0 <= ref.line <= 2 and ref.slot in ("a", "b")):
                    yield Violation("dangling-ref",
                                    f"edge {arc.id}: bad slot {ref}", subject)
        if arc.end1 == arc.end2:
            yield Violation("self-slot",
                            f"edge {arc.id} uses endpoint {arc.end1} twice", subject)


def _coverage_violations(cx: SingularityComplex):
    index = cx._claims[0]
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

    Checks slot and branch-point coverage, line-type bijections, dangling
    references, the counting identity 2|arcs| = 6|T| + |B|, and disk edge
    references. Violations are report entries, never exceptions. The
    reference, coverage and counting checks read the slot index, and hold
    without further work when building it met no problem.
    """
    malformed = cx._claims[1] is not None
    violations = []
    violations.extend(_line_type_violations(cx))
    if malformed:
        violations.extend(_reference_violations(cx))
        violations.extend(_coverage_violations(cx))
    violations.extend(_disk_violations(cx))
    n_arcs = len(cx.arcs)
    expected = 6 * len(cx.triple_points) + len(cx.branch_points)
    if malformed and 2 * n_arcs != expected:
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
    Raises StructuralError (naming the first broken reference, contested or
    unused endpoint) when the complex is malformed. Under ``rebuilt`` each
    parent curve that lost no edge is kept, and the walks start only from
    added edges and from the survivors of curves that lost one. Stores the
    edge-to-curve map as ``cx.curve_by_edge``.
    """
    index, edges = cx.slot_index, cx.edges_by_id
    lineage = cx.__dict__.get("lineage")
    old = lineage.views.pop("curves", None) if lineage else None
    by_edge = lineage.views.pop("curve_by_edge", None) if lineage else None
    kept: list[DoubleCurve] = []
    if old is None or by_edge is None:
        by_edge, seeds = {}, cx.edges
    else:
        (removed_arcs, added_arcs), (removed_circles, added_circles) = \
            lineage.deltas[ARCS], lineage.deltas[CIRCLES]
        by_edge = dict(by_edge)
        dirty = {by_edge[e.id] for e in [*removed_arcs, *removed_circles]}
        seeds = [*added_arcs, *added_circles]
        for curve in old:
            if curve.id not in dirty:
                kept.append(curve)
                continue
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
    return tuple(sorted(kept + new, key=attrgetter("id")))


def curve_of(cx: SingularityComplex, edge_id: str) -> str:
    """Id of the unique traced curve containing ``edge_id``."""
    return cx.curve_of(edge_id)


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
