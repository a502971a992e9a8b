"""What a command writes beyond its report: the DOT schematic export, the
traced curves' summary lines, and output files written all or none."""

import os
import sys
from contextlib import suppress
from itertools import combinations, product

from .errors import DiagramError
from .singularity import BranchRef, LineType, SingularityComplex, TripleSlot, census

_PALETTE = ("crimson", "royalblue", "forestgreen", "darkorange", "purple",
            "teal", "goldenrod", "deeppink", "slategray", "saddlebrown")


#: owner node name prefix per endpoint type (its id is end[0]); label per line types
_NODE_PREFIX = {TripleSlot: "T_", BranchRef: "B_"}
_TYPES_TEXT = {types: " ".join(f"{i}:{lt.value}" for i, lt in enumerate(types))
               for types in product(LineType, repeat=3)}


def export_schematic(cx: SingularityComplex) -> str:
    """DOT text for an external layout tool.

    One node per triple point (annotated with its line types) and per
    branch point; one graph edge per double edge. A free circle becomes a
    node carrying a self-loop. Curves are distinguished by color and by
    the edge labels ``<edge> (<curve>)``. Node and edge counts match the
    census: nodes = triples + branches + circles, edges = arcs + circles.
    """
    color_of = {c.id: _PALETTE[i % len(_PALETTE)]
                for i, c in enumerate(cx.curves)}
    curve_of = cx.curve_by_edge
    out = ["graph singularity {"]
    counts = census(cx)
    out.append(f"  // triples={counts.triple_points} branches={counts.branch_points}"
               f" arcs={counts.arc_edges} circles={counts.circles}"
               f" open={counts.open_curves} closed={counts.closed_curves}")
    for c in cx.curves:
        out.append(f"  // curve {c.id}: {c.kind.value}, {len(c.edges)} edge(s),"
                   f" color {color_of[c.id]}")
    out.append("  node [fontsize=10];")
    out += [f'  "T_{t.id}" [shape=triangle, label="{t.id}\\n{_TYPES_TEXT[t.line_types]}"];'
            for t in cx.triple_points]
    out += [f'  "B_{b.id}" [shape=circle, width=0.15, label="{b.id}"];'
            for b in cx.branch_points]
    for e in cx.circles:
        curve = curve_of[e.id]
        out.append(f'  "C_{e.id}" [shape=point, color={color_of[curve]}];')
        out.append(f'  "C_{e.id}" -- "C_{e.id}"'
                   f' [label="{e.id} ({curve})", color={color_of[curve]}];')
    for eid, end1, end2 in cx.arcs:
        curve = curve_of[eid]
        out.append(f'  "{_NODE_PREFIX[type(end1)]}{end1[0]}" -- "{_NODE_PREFIX[type(end2)]}'
                   f'{end2[0]}" [label="{eid} ({curve})", color={color_of[curve]}];')
    out.append("}")
    return "\n".join(out) + "\n"


def curve_summary(cx: SingularityComplex) -> list[str]:
    """Human-readable one-liners for the traced curves."""
    return [f"{c.kind.value} curve {c.id}: " + " ".join(c.edges) for c in cx.curves]


def _own_stream(path: str):
    """sys.stdout for ``-`` or a path to the file fd 1 is on, sys.stderr for fd 2's; never
    a read-only stream, such as the stand-in ``cli.run`` opens for a closed fd 2."""
    with suppress(OSError):  # no such file, or the fd is closed
        return sys.stdout if path == "-" else next(
            (stream for fd, stream in ((1, sys.stdout), (2, sys.stderr))
             if os.path.samestat(os.stat(path), os.fstat(fd)) and stream.writable()), None)


def write_files(files: list[tuple[str, str]]) -> None:
    """Write each (path, text), all or none, refusing two paths to one regular
    file, old or new: each to a temporary file beside it, renamed over it once
    all are written. A path there that is not a writable file (a directory,
    /dev/null), or whose directory is not writable, is opened in turn and
    written in place once all are open, truncating only a regular file. Paths to the
    process's own stdout (or ``-``) or stderr, repeated or not, go to that stream."""
    for (a, _), (b, _) in combinations([f for f in files if not _own_stream(f[0])], 2):
        if (os.path.isfile(a) and os.path.exists(b) and os.path.samefile(a, b)
                or not os.path.exists(a) and os.path.realpath(a) == os.path.realpath(b)):
            raise DiagramError(f"cannot write {a} and {b}: they name one file")
    staged, opened, own = [], [], []  # (path, temporary, target), (path, text, file or stream)
    try:
        for path, text in files:
            # the path as given (/dev/stdout on a pipe too); its target places a temporary
            target = os.path.realpath(path)
            if stream := _own_stream(path):
                own.append((path, text, stream))
            elif not os.path.exists(path) or (
                    os.path.isfile(path) and os.access(path, os.W_OK)
                    and os.access(os.path.dirname(target), os.W_OK)):
                staged.append((path, f"{target}.{os.getpid()}.tmp", target))
                with open(staged[-1][1], "w", encoding="utf-8") as file:
                    file.write(text)
            else:
                opened.append((path, text, open(os.open(path, os.O_WRONLY), "w", encoding="utf-8")))
        for path, text, file in opened:
            if os.path.isfile(path):
                file.truncate()
            file.write(text)
            file.close()  # it flushes: a failure there is reported for this path
        for path, text, stream in own:  # flushed, neither truncated nor closed
            print(text, end="", file=stream, flush=True)
        for path, temp, target in staged:
            os.replace(temp, target)
    except OSError as exc:
        for _, _, file in opened:
            with suppress(OSError):  # the first failure is the one reported
                file.close()
        for _, temp, _ in staged:
            with suppress(FileNotFoundError):
                os.unlink(temp)
        reason = OSError(exc.errno, exc.strerror, path)  # naming the path, not a temporary
        raise DiagramError(f"cannot write {path}: {reason}") from exc
