"""How a move's result is derived: ``rebuilt`` makes a complex from another at the
edit's cost and hands on the parent's views, patched by the edit. The child keeps
a ``lineage``, and only then do the readers of the views it patches on first use
(the slot index, the curves, the canonical lines) load this module.
"""

from bisect import bisect_left
from typing import NamedTuple

from .errors import StructuralError
from .singularity import (ARCS, BRANCHES, BY_ID, CIRCLES, DISKS, TRIPLES, Arc, BranchPoint,
                          Circle, DescendentDisk, SingularityComplex, TriplePoint, claim_ends,
                          endpoints, trace_from)

#: each record tuple of a complex: its by-id view, its kinds, and its noun
TABLES = (("triple_points", "triples_by_id", (TRIPLES,), "triple point"),
          ("branch_points", "branches_by_id", (BRANCHES,), "branch point"),
          ("edges", "edges_by_id", (ARCS, CIRCLES), "edge"),
          ("disks", "disks_by_id", (DISKS,), "disk"))
#: the kind of each record type, and the view holding its records by id
KIND_OF = {TriplePoint: TRIPLES, BranchPoint: BRANCHES, Arc: ARCS, Circle: CIRCLES,
           DescendentDisk: DISKS}
HELD_IN = {kind: by_id for _, by_id, kinds, _ in TABLES for kind in kinds}


class Lineage(NamedTuple):
    """A child's parent's records per kind and VIEWS (each popped by its first
    use), and per kind the records (removed, added) by the edit that made it."""

    records: tuple[tuple, ...]
    views: dict
    edits: tuple[tuple[list, list], ...]

    VIEWS = ("_claims", "curves", "curve_by_edge", "curves_by_id", "canonical_lines")


def patched(items, removed, added, entry=None, old=None):
    """``items`` less the ``removed`` records' entries, plus an entry for each
    ``added`` record (itself, or ``entry(record)``) at its place: a copy of a by-id
    map, or a tuple sorted by id or one for one with the id-sorted ``old``."""
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


def rebuilt(cx: SingularityComplex, removed=(), added=()) -> SingularityComplex:
    """``cx``'s records less the ``removed`` ones, plus the ``added`` ones, with its views
    handed on, patched by the edit. Raises StructuralError when the edit removes a record
    ``cx`` lacks or one record twice, or adds an id a survivor or another added one has."""
    edits, gone = tuple(([], []) for _ in KIND_OF), set()
    for record in removed:
        kind = KIND_OF[type(record)]
        if getattr(cx, HELD_IN[kind]).get(record.id) != record:
            raise StructuralError(f"the edit removes {type(record).__name__} "
                                  f"{record.id!r}, which the complex does not hold")
        edits[kind][0].append(record)
        gone.add((HELD_IN[kind], record.id))
    for record in added:
        edits[KIND_OF[type(record)]][1].append(record)
    if len(gone) != sum(len(out) for out, _ in edits):
        raise StructuralError("the edit removes a record twice")
    kinds, records = cx.kinds, []
    views = {name: patched(kinds[k], *edits[k])
             for name, k in (("arcs", ARCS), ("circles", CIRCLES))}
    for name, by_id, held_kinds, noun in TABLES:
        out, into = ([r for k in held_kinds for r in edits[k][side]] for side in (0, 1))
        new = sorted(r.id for r in into)
        dups = [a for a, b in zip(new, new[1:]) if a == b] + [
            i for i in new if i in getattr(cx, by_id) and (by_id, i) not in gone]
        if dups:
            raise StructuralError(f"duplicate {noun} id {min(dups)!r}")
        records.append(patched(getattr(cx, name), out, into))
        if by_id in vars(cx):
            views[by_id] = patched(vars(cx)[by_id], out, into)
    child = type(cx)(*records)
    vars(child).update(views, lineage=Lineage(
        kinds, {k: v for k, v in vars(cx).items() if k in Lineage.VIEWS}, edits))
    return child


def patched_index(cx: SingularityComplex, lineage: Lineage) -> dict | None:
    """The parent's slot index patched by the arcs removed and added; None when the parent
    has none or either index breaks a rule, so that the complex indexes afresh."""
    parent = lineage.views.pop("_claims", None)
    if parent is None or parent[1]:
        return None
    index = parent[0].copy()  # a clone, as in patched
    removed, added = lineage.edits[ARCS]
    for arc in removed:
        del index[arc.end1], index[arc.end2]
    dead = endpoints(
        [t for t in lineage.edits[TRIPLES][0] if t.id not in cx.triples_by_id],
        [b for b in lineage.edits[BRANCHES][0] if b.id not in cx.branches_by_id])
    every = 6 * len(cx.triples_by_id) + len(cx.branches_by_id)
    # a full index of real endpoints with one claim per arc end claims each endpoint once
    return index if (not claim_ends(cx, added, index) and len(index) == every == 2 * len(cx.arcs)
                     and not any(ref in index for ref in dead)) else None


def patched_curves(cx: SingularityComplex, lineage: Lineage) -> tuple | None:
    """The parent's curves less those that lost an edge, plus those walked from
    the added edges and their survivors; None if the parent traced none. Stores
    the patched edge-to-curve map (and any parent's ``curves_by_id``) on ``cx``."""
    old, by_edge = (lineage.views.pop(name, None) for name in ("curves", "curve_by_edge"))
    if old is None or by_edge is None:
        return None
    edges, arcs, circles = cx.edges_by_id, lineage.edits[ARCS], lineage.edits[CIRCLES]
    by_edge = by_edge.copy()  # a clone, as in patched
    dirty = [old[bisect_left(old, cid, key=BY_ID)]
             for cid in sorted({by_edge[e.id] for e in arcs[0] + circles[0]})]
    seeds = arcs[1] + circles[1]
    for curve in dirty:
        for eid in curve.edges:
            del by_edge[eid]
            if eid in edges:
                seeds.append(edges[eid])
    new = trace_from(cx, seeds, by_edge)
    if "curves_by_id" in lineage.views:
        vars(cx)["curves_by_id"] = patched(lineage.views.pop("curves_by_id"), dirty, new)
    return patched(old, dirty, new)


def patched_lines(lineage: Lineage, formats) -> list | None:
    """The parent's canonical lines patched by the edit (a kind it leaves alone
    keeps its parent's tuple), in ``formats``; None when the parent has none."""
    parent = lineage.views.pop("canonical_lines", None)
    return None if parent is None else [
        patched(own, removed, added, fmt, records) for own, records, (removed, added), fmt
        in zip(parent, lineage.records, lineage.edits, formats)]
