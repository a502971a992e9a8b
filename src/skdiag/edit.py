"""How a move's result is derived: ``rebuilt`` makes a complex from another at the
edit's cost and hands it each view the parent holds (the by-id maps, the slot index,
the curves and the canonical lines), patched by the edit, when it makes it. A reader
of a view finds it on the complex and never asks how the complex was made.
"""

from bisect import bisect_left

from .canonical import LINE_FORMATS, canonical_lines
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
    """``cx``'s records less the ``removed`` ones, plus the ``added`` ones, holding each
    view ``cx`` holds, patched by the edit; its own canonical lines when ``cx`` holds none.
    Raises StructuralError when the edit removes a record ``cx`` lacks or one record twice,
    or adds an id a survivor or another added one has."""
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
    kinds, records, held = cx.kinds, [], vars(cx)
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
        if by_id in held:
            views[by_id] = patched(held[by_id], out, into)
    child = type(cx)(*records)
    own = vars(child)
    own.update(views)
    # the curves are walked on the patched index: a child whose index breaks a
    # rule holds neither, and indexes afresh so that it reports every violation
    if (index := patched_index(child, held, edits)) is not None:
        own["_claims"] = index, ()
        if "curves" in held:
            patched_curves(child, held, edits)
    lines = held.get("canonical_lines")
    own["canonical_lines"] = canonical_lines(child) if lines is None else [
        patched(mine, out, into, fmt, old)
        for mine, old, (out, into), fmt in zip(lines, kinds, edits, LINE_FORMATS)]
    return child


def patched_index(cx: SingularityComplex, held: dict, edits) -> dict | None:
    """The parent's slot index, from its views ``held``, patched by the arcs ``edits``
    removed and added; None when the parent has none or either index breaks a rule."""
    parent = held.get("_claims")
    if parent is None or parent[1]:
        return None
    index = parent[0].copy()  # a clone, as in patched
    removed, added = edits[ARCS]
    for arc in removed:
        del index[arc.end1], index[arc.end2]
    dead = endpoints([t for t in edits[TRIPLES][0] if t.id not in cx.triples_by_id],
                     [b for b in edits[BRANCHES][0] if b.id not in cx.branches_by_id])
    every = 6 * len(cx.triples_by_id) + len(cx.branches_by_id)
    # a full index of real endpoints with one claim per arc end claims each endpoint once
    return index if (not claim_ends(cx, added, index) and len(index) == every == 2 * len(cx.arcs)
                     and not any(ref in index for ref in dead)) else None


def patched_curves(cx: SingularityComplex, held: dict, edits) -> None:
    """Stores on ``cx`` the parent's curves, from its views ``held``, less those that lost
    an edge, plus those walked from the added edges and their survivors, with the patched
    edge-to-curve map and, if the parent holds one, curve-by-id map."""
    old, by_edge = held["curves"], held["curve_by_edge"].copy()  # a clone, as in patched
    edges, arcs, circles = cx.edges_by_id, edits[ARCS], edits[CIRCLES]
    dirty = [old[bisect_left(old, cid, key=BY_ID)]
             for cid in sorted({by_edge[e.id] for e in arcs[0] + circles[0]})]
    seeds = arcs[1] + circles[1]
    for curve in dirty:
        for eid in curve.edges:
            del by_edge[eid]
            if eid in edges:
                seeds.append(edges[eid])
    new = trace_from(cx, seeds, by_edge)
    vars(cx)["curves"] = patched(old, dirty, new)
    if "curves_by_id" in held:
        vars(cx)["curves_by_id"] = patched(held["curves_by_id"], dirty, new)
