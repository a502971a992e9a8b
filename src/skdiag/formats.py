"""Text formats: the `.skd` complex format, `.skm` move scripts, and the
DOT schematic export.

Both formats are line oriented and diff friendly: one record per line,
``#`` starts a comment, ids are drawn from ``[A-Za-z0-9_.+-]``. Parse
errors are collected, not short-circuited; a ParseError carries every
diagnostic with its line and column.

`.skd` records::

    triple <id> lines=<t>,<t>,<t>     # a permutation of bm,bt,mt
    branch <id>
    edge <id> <endpoint> <endpoint>   # endpoint: B:<id> | T:<id>.<line>.<a|b>
    circle <id>
    disk <id> e1=<edge> e2=<edge> pair=cross|parallel
              level1=upper|lower level2=upper|lower
    oracle <fingerprint> trivial|nontrivial

`.skm` records are ``<KIND> key=value ...`` with kind-specific keys; see
the README for the per-kind vocabulary. Scripts naming R2+/R3+/R5+ are
rejected at parse time.
"""

from __future__ import annotations

import gc
import re
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import ParseError
from .singularity import (
    Arc,
    BranchPoint,
    BranchRef,
    Circle,
    DescendentDisk,
    Level,
    LineType,
    Pairing,
    SingularityComplex,
    TriplePoint,
    TripleSlot,
    census,
    validate,
)

if TYPE_CHECKING:
    from .moves import MoveInstance, MoveKind

_ID = r"[A-Za-z0-9_.+-]+"
_ID_RE = re.compile(_ID + r"\Z")

# a SHA-256 digest has 64 lowercase hex digits; shorter tokens stay accepted
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{1,64}\Z")

ORACLE_VERDICTS = ("trivial", "nontrivial")

# One full-line pattern per `.skd` record kind, matched against a line
# without its comment and trailing whitespace: it decides whether the line
# is well formed and yields its fields. ``\s`` is the whitespace str.split
# splits on; ``(?ai:...)`` ignores ASCII case only, as ``str.lower`` does
# for these words. A triple id in an endpoint may contain dots: the line
# and slot are the last two dot-separated fields.
_END = rf"(?:B:({_ID})|T:({_ID})\.([012])\.([ab]))"
_LINE_TYPE = r"(?ai:(bm|bt|mt))"
_LEVEL = r"(?ai:(upper|lower))(?!\S)"
_SKD_RECORDS = {kind: re.compile(rf"\s*{kind}{body}\Z") for kind, body in {
    "triple": rf"\s+({_ID})\s+lines={_LINE_TYPE},{_LINE_TYPE},{_LINE_TYPE}",
    "branch": rf"\s+({_ID})",
    "edge": rf"\s+({_ID})\s+{_END}\s+{_END}",
    "circle": rf"\s+({_ID})",
    # five key=value tokens in any order, each key present: so each once
    "disk": rf"\s+({_ID})(?=.*\se1=(\S*))(?=.*\se2=(\S*))"
            rf"(?=.*\spair=(?ai:(cross|parallel))(?!\S))"
            rf"(?=.*\slevel1={_LEVEL})(?=.*\slevel2={_LEVEL})"
            r"(?:\s+(?:e1|e2|pair|level1|level2)=\S*){5}",
    "oracle": r"\s+([0-9a-f]{1,64})\s+(trivial|nontrivial)",
}.items()}

_LINE_TYPES = {lt.value: lt for lt in LineType}
_LINE_INDEX = {"0": 0, "1": 1, "2": 2}


class SkdDocument(NamedTuple):
    """A parsed `.skd` file: the complex plus any oracle annotations. The
    default is read-only, because every instance shares it."""

    complex: SingularityComplex
    oracle: Mapping[str, str] = MappingProxyType({})


class _Collector:
    def __init__(self):
        self.diagnostics: list[tuple[int, int, str]] = []

    def error(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append((line, col, message))

    def raise_if_any(self) -> None:
        if self.diagnostics:
            raise ParseError(self.diagnostics)


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield lineno, line


def _column_of(line_text: str, token: str) -> int:
    pos = line_text.find(token)
    return pos + 1 if pos >= 0 else 1


def _endpoint_error(token: str) -> str | None:
    if token.startswith("B:"):
        if not _ID_RE.match(token[2:]):
            return f"bad branch id in endpoint {token!r}"
        return None
    if token.startswith("T:"):
        parts = token[2:].rsplit(".", 2)
        if len(parts) != 3:
            return f"endpoint {token!r} is not of the form T:<id>.<line>.<a|b>"
        tid, line_s, slot = parts
        if not _ID_RE.match(tid):
            return f"bad triple point id in endpoint {token!r}"
        if line_s not in ("0", "1", "2"):
            return f"endpoint {token!r}: line index must be 0, 1 or 2"
        if slot not in ("a", "b"):
            return f"endpoint {token!r}: slot must be a or b"
        return None
    return f"endpoint {token!r} must start with B: or T:"


def _parse_kv(tokens: list[str]):
    """key=value tokens -> dict, or an offending token."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            return None, tok
        key, value = tok.split("=", 1)
        if key in out:
            return None, tok
        out[key] = value
    return out, None


def _rejections(line: str):
    """Why a `.skd` line fails its record pattern: (column, message) for
    each problem the token checks find, in the order they meet them."""
    record, *args = line.split()
    if record == "triple":
        if len(args) != 2 or not args[1].startswith("lines="):
            yield 1, "triple record needs: triple <id> lines=<t>,<t>,<t>"
            return
        type_tokens = args[1][len("lines="):].split(",")
        bad = [tok for tok in type_tokens if tok.lower() not in _LINE_TYPES]
        for tok in bad:
            yield (_column_of(line, tok),
                   f"unknown line type {tok!r} (expected bm, bt or mt)")
        if len(type_tokens) - len(bad) != 3:
            yield 1, "a triple point has exactly three lines"
        elif not bad:
            yield from _id_rejection(args[0], line)
    elif record in ("branch", "circle"):
        if len(args) != 1:
            yield 1, f"{record} record needs: {record} <id>"
        else:
            yield from _id_rejection(args[0], line)
    elif record == "edge":
        if len(args) != 3:
            yield 1, "edge record needs: edge <id> <endpoint> <endpoint>"
            return
        errors = [(_column_of(line, tok), err) for tok in args[1:]
                  if (err := _endpoint_error(tok))]
        yield from errors or _id_rejection(args[0], line)
    elif record == "disk":
        if not args:
            yield 1, "disk record needs an id"
            return
        kv, bad = _parse_kv(args[1:])
        if bad is not None:
            yield (_column_of(line, bad),
                   f"bad or repeated key=value token {bad!r}")
            return
        required = {"e1", "e2", "pair", "level1", "level2"}
        missing = sorted(required - set(kv))
        extra = sorted(set(kv) - required)
        if missing or extra:
            parts = []
            if missing:
                parts.append("missing " + ", ".join(missing))
            if extra:
                parts.append("unknown " + ", ".join(extra))
            yield 1, "disk record: " + "; ".join(parts)
            return
        try:
            Pairing(kv["pair"].lower())
            Level(kv["level1"].lower())
            Level(kv["level2"].lower())
        except ValueError as exc:
            yield 1, f"disk record: {exc}"
            return
        yield from _id_rejection(args[0], line)
    elif record == "oracle":
        if len(args) != 2 or args[1] not in ORACLE_VERDICTS:
            yield 1, "oracle record needs: oracle <fingerprint> trivial|nontrivial"
        else:
            yield (_column_of(line, args[0]),
                   f"oracle fingerprint {args[0]!r} is not lowercase hex digits")
    else:
        yield 1, f"unknown record kind {record!r}"


def _id_rejection(rid: str, line: str):
    if not _ID_RE.match(rid):
        yield _column_of(line, rid), f"bad id {rid!r}"


def parse_skd_document(text: str, check: bool = True) -> SkdDocument:
    """Parse a full `.skd` document (complex records plus oracle lines).

    Raises ParseError with all diagnostics when the text does not describe
    a well-formed complex. With ``check=False`` only syntax and duplicate
    ids are diagnosed and the (possibly invalid) complex is returned, so a
    caller can run and report validation itself.

    A record is accepted only by its kind's pattern, and built from the
    pattern's groups; the token checks of ``_rejections`` only word the
    diagnostics of a line the pattern rejects.
    """
    col = _Collector()
    triples: list[TriplePoint] = []
    branches: list[BranchPoint] = []
    edges: list[Arc | Circle] = []
    disks: list[DescendentDisk] = []
    oracle: dict[str, str] = {}
    lines_of: dict[tuple[str, str], int] = {}

    def claim(kind: str, rid: str, lineno: int, line: str) -> bool:
        if (kind, rid) in lines_of:
            col.error(lineno, _column_of(line, rid),
                      f"duplicate {kind} id {rid!r} "
                      f"(first defined on line {lines_of[(kind, rid)]})")
            return False
        lines_of[(kind, rid)] = lineno
        return True

    # the records all stay alive, so a cyclic collection during the loop
    # frees nothing: on a 20k-arc file the collections cost a sixth of it
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        for lineno, line in _records(text):
            record = line.split(None, 1)[0]
            pattern = _SKD_RECORDS.get(record)
            m = pattern.match(line) if pattern else None
            if m is None:
                # the token checks explain every rejection; a line they pass
                # would be a gap in the patterns, and is still rejected
                for column, message in (list(_rejections(line))
                                        or [(1, f"malformed {record} record")]):
                    col.error(lineno, column, message)
            elif record == "edge":
                rid, b1, t1, l1, s1, b2, t2, l2, s2 = m.groups()
                if claim("edge", rid, lineno, line):
                    end1 = BranchRef(b1) if b1 else TripleSlot(t1, _LINE_INDEX[l1], s1)
                    end2 = BranchRef(b2) if b2 else TripleSlot(t2, _LINE_INDEX[l2], s2)
                    edges.append(Arc(rid, end1, end2))
            elif record == "triple":
                rid, *types = m.groups()
                if claim("triple", rid, lineno, line):
                    triples.append(TriplePoint(
                        rid, tuple([_LINE_TYPES[t.lower()] for t in types])))
            elif record == "branch":
                if claim("branch", m[1], lineno, line):
                    branches.append(BranchPoint(m[1]))
            elif record == "circle":
                if claim("edge", m[1], lineno, line):
                    edges.append(Circle(m[1]))
            elif record == "disk":
                rid, e1, e2, pair, level1, level2 = m.groups()
                if claim("disk", rid, lineno, line):
                    disks.append(DescendentDisk(rid, e1, e2, Pairing(pair.lower()),
                                                Level(level1.lower()),
                                                Level(level2.lower())))
            else:
                fp, verdict = m.groups()
                if oracle.setdefault(fp, verdict) != verdict:
                    col.error(lineno, 1, f"oracle {fp} is {verdict} here but "
                              f"{oracle[fp]} on line {lines_of['oracle', fp]}")
                lines_of.setdefault(("oracle", fp), lineno)
    finally:
        if gc_enabled:
            gc.enable()

    col.raise_if_any()
    cx = SingularityComplex.build(triples, branches, edges, disks)
    if check:
        for violation in validate(cx).violations:
            if violation.subjects:
                for subject in violation.subjects:
                    col.error(lines_of.get(subject, 1), 1, violation.message)
            else:
                col.error(1, 1, violation.message)
        col.raise_if_any()
    return SkdDocument(cx, oracle)


def parse_skd(text: str) -> SingularityComplex:
    """Parse `.skd` text into a validated complex (oracle lines allowed
    and ignored). Raises ParseError with located diagnostics."""
    return parse_skd_document(text).complex


# -- move scripts ----------------------------------------------------------

_SPLICE_SLOT_RE = re.compile(
    r"(?P<tid>[A-Za-z0-9_.+-]+)\.(?P<line>[012])\.(?P<slot>[ab])\Z")


def _parse_slot(token: str):
    m = _SPLICE_SLOT_RE.match(token)
    if not m:
        return None, f"bad slot reference {token!r} (expected <triple>.<line>.<a|b>)"
    return TripleSlot(m["tid"], int(m["line"]), m["slot"]), None


def _parse_splice(value: str):
    pairs = []
    for chunk in value.split(","):
        halves = chunk.split(":")
        if len(halves) != 2:
            return None, f"bad splice pair {chunk!r} (expected <slot>:<slot>)"
        refs = []
        for half in halves:
            ref, err = _parse_slot(half)
            if err:
                return None, err
            refs.append(ref)
        pairs.append((refs[0], refs[1]))
    return tuple(pairs), None


def _parse_list(value: str) -> tuple[str, ...]:
    return tuple(v for v in value.split(",") if v)


_DISK_KEYS = ("disk", "partner", "pair", "level1", "level2")

# keyed by kind name, which a MoveKind (a str enum) also looks up
_MOVE_KEYS: dict[str, tuple[set[str], set[str]]] = {
    "R1_PLUS": ({"circle"}, set(_DISK_KEYS)),
    "R1_MINUS": ({"circle"}, {"drop_disks"}),
    "R2_MINUS": ({"t1", "t2", "curves", "splice"}, {"drop_disks"}),
    "R3_MINUS": ({"triples", "curves", "center", "splice"}, {"drop_disks"}),
    "R4_PLUS": ({"edge", "branch1", "branch2"}, set(_DISK_KEYS)),
    "R4_MINUS": ({"edge"}, {"drop_disks"}),
    "R5_MINUS": ({"t", "edge", "splice"}, {"drop_disks"}),
    "R6": ({"disk"}, set()),
}


def _parse_disk_declaration(kv: dict[str, str]):
    from .moves import DiskDeclaration

    given = [k for k in _DISK_KEYS if k in kv]
    if not given:
        return None, None
    missing = [k for k in _DISK_KEYS if k not in kv]
    if missing:
        return None, ("incomplete disk declaration: missing " + ", ".join(missing))
    try:
        pair = Pairing(kv["pair"].lower())
        level1 = Level(kv["level1"].lower())
        level2 = Level(kv["level2"].lower())
    except ValueError as exc:
        return None, str(exc)
    return DiskDeclaration(kv["disk"], kv["partner"], pair, level1, level2), None


def _build_move(kind: MoveKind, kv: dict[str, str]):
    """MoveInstance from key=value pairs, or an error message."""
    from .moves import (R1Minus, R1Plus, R2Minus, R3Minus, R4Minus, R4Plus,
                        R5Minus, R6, MoveKind)

    required, optional = _MOVE_KEYS[kind]
    missing = sorted(required - set(kv))
    extra = sorted(set(kv) - required - optional)
    if missing:
        return None, f"{kind.name}: missing key(s) " + ", ".join(missing)
    if extra:
        return None, f"{kind.name}: unknown key(s) " + ", ".join(extra)
    drop = _parse_list(kv.get("drop_disks", ""))
    if kind in (MoveKind.R1_PLUS, MoveKind.R4_PLUS):
        decl, err = _parse_disk_declaration(kv)
        if err:
            return None, f"{kind.name}: {err}"
        if kind is MoveKind.R1_PLUS:
            return R1Plus(kv["circle"], decl), None
        return R4Plus(kv["edge"], kv["branch1"], kv["branch2"], decl), None
    if kind is MoveKind.R1_MINUS:
        return R1Minus(kv["circle"], drop), None
    if kind is MoveKind.R4_MINUS:
        return R4Minus(kv["edge"], drop), None
    if kind is MoveKind.R6:
        return R6(kv["disk"]), None
    splice, err = _parse_splice(kv["splice"])
    if err:
        return None, f"{kind.name}: {err}"
    if kind is MoveKind.R2_MINUS:
        curves = _parse_list(kv["curves"])
        if len(curves) != 2:
            return None, "R2_MINUS: curves must name exactly two closed curves"
        return R2Minus(kv["t1"], kv["t2"], (curves[0], curves[1]), splice, drop), None
    if kind is MoveKind.R3_MINUS:
        triples = _parse_list(kv["triples"])
        curves = _parse_list(kv["curves"])
        if len(triples) != 6:
            return None, "R3_MINUS: triples must name exactly six triple points"
        if len(curves) != 3:
            return None, "R3_MINUS: curves must name exactly three closed curves"
        return R3Minus(triples, (curves[0], curves[1], curves[2]),
                       kv["center"], splice, drop), None
    if kind is MoveKind.R5_MINUS:
        return R5Minus(kv["t"], kv["edge"], splice, drop), None
    raise AssertionError(kind)


def parse_skm(text: str) -> tuple[MoveInstance, ...]:
    """Parse a `.skm` move script.

    Kind tokens are validated first (so a script naming a forbidden forward
    move is rejected before any locus is interpreted), then the per-kind
    key=value vocabulary is checked strictly.
    """
    # the move engine is imported by the `.skm` parser only, so that
    # reading a `.skd` file never loads it
    from .moves import FORBIDDEN_KINDS, MoveKind, normalize_kind_token

    col = _Collector()
    staged: list[tuple[int, str, MoveKind, list[str]]] = []
    for lineno, line in _records(text):
        tokens = line.split()
        try:
            name = normalize_kind_token(tokens[0])
        except Exception:
            col.error(lineno, 1, f"unknown move kind token {tokens[0]!r}")
            continue
        if name in FORBIDDEN_KINDS:
            col.error(lineno, 1,
                      f"move {name} violates the t-descendent condition "
                      "(R2+, R3+ and R5+ are excluded)")
            continue
        staged.append((lineno, line, MoveKind[name], tokens[1:]))
    col.raise_if_any()
    moves: list[MoveInstance] = []
    for lineno, line, kind, args in staged:
        kv, bad = _parse_kv(args)
        if bad is not None:
            col.error(lineno, _column_of(line, bad),
                      f"bad or repeated key=value token {bad!r}")
            continue
        move, err = _build_move(kind, kv)
        if err:
            col.error(lineno, 1, err)
            continue
        moves.append(move)
    col.raise_if_any()
    return tuple(moves)


# -- schematic export -------------------------------------------------------

_PALETTE = ("crimson", "royalblue", "forestgreen", "darkorange", "purple",
            "teal", "goldenrod", "deeppink", "slategray", "saddlebrown")


def _owner_node(ref) -> str:
    if isinstance(ref, BranchRef):
        return f"B_{ref.branch_id}"
    return f"T_{ref.triple_id}"


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
    out = ["graph singularity {"]
    counts = census(cx)
    out.append(f"  // triples={counts.triple_points} branches={counts.branch_points}"
               f" arcs={counts.arc_edges} circles={counts.circles}"
               f" open={counts.open_curves} closed={counts.closed_curves}")
    for c in cx.curves:
        out.append(f"  // curve {c.id}: {c.kind.value}, {len(c.edges)} edge(s),"
                   f" color {color_of[c.id]}")
    out.append("  node [fontsize=10];")
    for t in cx.triple_points:
        types = " ".join(f"{i}:{lt.value}" for i, lt in enumerate(t.line_types))
        out.append(f'  "T_{t.id}" [shape=triangle, label="{t.id}\\n{types}"];')
    for b in cx.branch_points:
        out.append(f'  "B_{b.id}" [shape=circle, width=0.15, label="{b.id}"];')
    for e in cx.edges:
        if not isinstance(e, Arc):
            color = color_of[cx.curve_of(e.id)]
            out.append(f'  "C_{e.id}" [shape=point, color={color}];')
            out.append(f'  "C_{e.id}" -- "C_{e.id}"'
                       f' [label="{e.id} ({cx.curve_of(e.id)})", color={color}];')
    for e in cx.edges:
        if isinstance(e, Arc):
            curve = cx.curve_of(e.id)
            color = color_of[curve]
            out.append(f'  "{_owner_node(e.end1)}" -- "{_owner_node(e.end2)}"'
                       f' [label="{e.id} ({curve})", color={color}];')
    out.append("}")
    return "\n".join(out) + "\n"


def curve_summary(cx: SingularityComplex) -> list[str]:
    """Human-readable one-liners for the traced curves."""
    lines = []
    for c in cx.curves:
        lines.append(f"{c.kind.value} curve {c.id}: " + " ".join(c.edges))
    return lines
