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

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .moves import (
    FORBIDDEN_KINDS,
    DiskDeclaration,
    MoveInstance,
    MoveKind,
    R1Minus,
    R1Plus,
    R2Minus,
    R3Minus,
    R4Minus,
    R4Plus,
    R5Minus,
    R6,
    normalize_kind_token,
)
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

_ID_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")

# a SHA-256 digest has 64 lowercase hex digits; shorter tokens stay accepted
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{1,64}\Z")

ORACLE_VERDICTS = ("trivial", "nontrivial")


@dataclass(frozen=True)
class SkdDocument:
    """A parsed `.skd` file: the complex plus any oracle annotations."""

    complex: SingularityComplex
    oracle: dict[str, str] = field(default_factory=dict)


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
        if not line.strip():
            continue
        yield lineno, line


def _column_of(line_text: str, token: str) -> int:
    pos = line_text.find(token)
    return pos + 1 if pos >= 0 else 1


def _parse_endpoint(token: str):
    """Endpoint ref or an error string."""
    if token.startswith("B:"):
        bid = token[2:]
        if not _ID_RE.match(bid):
            return None, f"bad branch id in endpoint {token!r}"
        return BranchRef(bid), None
    if token.startswith("T:"):
        body = token[2:]
        parts = body.rsplit(".", 2)
        if len(parts) != 3:
            return None, f"endpoint {token!r} is not of the form T:<id>.<line>.<a|b>"
        tid, line_s, slot = parts
        if not _ID_RE.match(tid):
            return None, f"bad triple point id in endpoint {token!r}"
        if line_s not in ("0", "1", "2"):
            return None, f"endpoint {token!r}: line index must be 0, 1 or 2"
        if slot not in ("a", "b"):
            return None, f"endpoint {token!r}: slot must be a or b"
        return TripleSlot(tid, int(line_s), slot), None
    return None, f"endpoint {token!r} must start with B: or T:"


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


def parse_skd_document(text: str, check: bool = True) -> SkdDocument:
    """Parse a full `.skd` document (complex records plus oracle lines).

    Raises ParseError with all diagnostics when the text does not describe
    a well-formed complex. With ``check=False`` only syntax and duplicate
    ids are diagnosed and the (possibly invalid) complex is returned, so a
    caller can run and report validation itself.
    """
    col = _Collector()
    triples: list[TriplePoint] = []
    branches: list[BranchPoint] = []
    edges: list[Arc | Circle] = []
    disks: list[DescendentDisk] = []
    oracle: dict[str, str] = {}
    lines_of: dict[tuple[str, str], int] = {}

    def claim(kind: str, rid: str, lineno: int, line: str) -> bool:
        if not _ID_RE.match(rid):
            col.error(lineno, _column_of(line, rid), f"bad id {rid!r}")
            return False
        if (kind, rid) in lines_of:
            col.error(lineno, _column_of(line, rid),
                      f"duplicate {kind} id {rid!r} "
                      f"(first defined on line {lines_of[(kind, rid)]})")
            return False
        lines_of[(kind, rid)] = lineno
        return True

    for lineno, line in _records(text):
        tokens = line.split()
        record, args = tokens[0], tokens[1:]
        if record == "triple":
            if len(args) != 2 or not args[1].startswith("lines="):
                col.error(lineno, 1, "triple record needs: triple <id> lines=<t>,<t>,<t>")
                continue
            rid = args[0]
            type_tokens = args[1][len("lines="):].split(",")
            types = []
            ok = True
            for tok in type_tokens:
                try:
                    types.append(LineType(tok.lower()))
                except ValueError:
                    col.error(lineno, _column_of(line, tok),
                              f"unknown line type {tok!r} (expected bm, bt or mt)")
                    ok = False
            if len(types) != 3:
                col.error(lineno, 1, "a triple point has exactly three lines")
                ok = False
            if ok and claim("triple", rid, lineno, line):
                triples.append(TriplePoint(rid, tuple(types)))
        elif record == "branch":
            if len(args) != 1:
                col.error(lineno, 1, "branch record needs: branch <id>")
                continue
            if claim("branch", args[0], lineno, line):
                branches.append(BranchPoint(args[0]))
        elif record == "edge":
            if len(args) != 3:
                col.error(lineno, 1, "edge record needs: edge <id> <endpoint> <endpoint>")
                continue
            rid = args[0]
            ends = []
            ok = True
            for tok in args[1:]:
                ref, err = _parse_endpoint(tok)
                if err:
                    col.error(lineno, _column_of(line, tok), err)
                    ok = False
                else:
                    ends.append(ref)
            if ok and claim("edge", rid, lineno, line):
                edges.append(Arc(rid, ends[0], ends[1]))
        elif record == "circle":
            if len(args) != 1:
                col.error(lineno, 1, "circle record needs: circle <id>")
                continue
            if claim("edge", args[0], lineno, line):
                edges.append(Circle(args[0]))
        elif record == "disk":
            if not args:
                col.error(lineno, 1, "disk record needs an id")
                continue
            rid = args[0]
            kv, bad = _parse_kv(args[1:])
            if bad is not None:
                col.error(lineno, _column_of(line, bad),
                          f"bad or repeated key=value token {bad!r}")
                continue
            required = {"e1", "e2", "pair", "level1", "level2"}
            missing = sorted(required - set(kv))
            extra = sorted(set(kv) - required)
            if missing or extra:
                parts = []
                if missing:
                    parts.append("missing " + ", ".join(missing))
                if extra:
                    parts.append("unknown " + ", ".join(extra))
                col.error(lineno, 1, "disk record: " + "; ".join(parts))
                continue
            try:
                pair = Pairing(kv["pair"].lower())
                level1 = Level(kv["level1"].lower())
                level2 = Level(kv["level2"].lower())
            except ValueError as exc:
                col.error(lineno, 1, f"disk record: {exc}")
                continue
            if claim("disk", rid, lineno, line):
                disks.append(DescendentDisk(rid, kv["e1"], kv["e2"],
                                            pair, level1, level2))
        elif record == "oracle":
            if len(args) != 2 or args[1] not in ORACLE_VERDICTS:
                col.error(lineno, 1,
                          "oracle record needs: oracle <fingerprint> trivial|nontrivial")
                continue
            fp, verdict = args
            if not _FINGERPRINT_RE.match(fp):
                col.error(lineno, _column_of(line, fp),
                          f"oracle fingerprint {fp!r} is not lowercase hex digits")
            elif oracle.setdefault(fp, verdict) != verdict:
                col.error(lineno, 1, f"oracle {fp} is {verdict} here but "
                          f"{oracle[fp]} on line {lines_of['oracle', fp]}")
            lines_of.setdefault(("oracle", fp), lineno)
        else:
            col.error(lineno, 1, f"unknown record kind {record!r}")

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

_MOVE_KEYS: dict[MoveKind, tuple[set[str], set[str]]] = {
    MoveKind.R1_PLUS: ({"circle"}, set(_DISK_KEYS)),
    MoveKind.R1_MINUS: ({"circle"}, {"drop_disks"}),
    MoveKind.R2_MINUS: ({"t1", "t2", "curves", "splice"}, {"drop_disks"}),
    MoveKind.R3_MINUS: ({"triples", "curves", "center", "splice"}, {"drop_disks"}),
    MoveKind.R4_PLUS: ({"edge", "branch1", "branch2"}, set(_DISK_KEYS)),
    MoveKind.R4_MINUS: ({"edge"}, {"drop_disks"}),
    MoveKind.R5_MINUS: ({"t", "edge", "splice"}, {"drop_disks"}),
    MoveKind.R6: ({"disk"}, set()),
}


def _parse_disk_declaration(kv: dict[str, str]):
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
