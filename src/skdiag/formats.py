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
from itertools import product
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import ParseError, StructuralError, UnknownIdError
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

ORACLE_VERDICTS = ("trivial", "nontrivial")

_TYPES_OF = {",".join(types): types for types in product(LineType, repeat=3)}  # by lines= value
_LINE_INDEX = {"0": 0, "1": 1, "2": 2}


class SkdDocument(NamedTuple):
    """A parsed `.skd` file: the complex plus any oracle annotations. The
    default is read-only, because every instance shares it."""

    complex: SingularityComplex
    oracle: Mapping[str, str] = MappingProxyType({})


def _endpoint_error(token: str) -> str | None:
    if token.startswith("B:"):
        return None if _ID_RE.match(token[2:]) else f"bad branch id in endpoint {token!r}"
    if not token.startswith("T:"):
        return f"endpoint {token!r} must start with B: or T:"
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


def _parse_kv(tokens: list[str]):
    """key=value tokens -> dict, or the index of an offending token."""
    out = {}
    for i, tok in enumerate(tokens):
        if "=" not in tok:
            return None, i
        key, value = tok.split("=", 1)
        if key in out:
            return None, i
        out[key] = value
    return out, None


def _triple_fields(args: list[str], cols: list[int]):
    good, at = 0, cols[1] + len("lines=")
    for tok in args[1][len("lines="):].split(","):
        if tok.lower() in {lt.value for lt in LineType}:
            good += 1
        else:
            yield at, f"unknown line type {tok!r} (expected bm, bt or mt)"
        at += len(tok) + 1
    if good != 3:
        yield 1, "a triple point has exactly three lines"


def _edge_fields(args: list[str], cols: list[int]):
    for tok, col in zip(args[1:], cols[1:]):
        if err := _endpoint_error(tok):
            yield col, err


def _disk_fields(args: list[str], cols: list[int]):
    kv, bad = _parse_kv(args[1:])
    if bad is not None:
        yield cols[1 + bad], f"bad or repeated key=value token {args[1 + bad]!r}"
        return
    required = {"e1", "e2", "pair", "level1", "level2"}
    parts = [f"{word} {', '.join(sorted(keys))}" for word, keys in
             (("missing", required - set(kv)), ("unknown", set(kv) - required)) if keys]
    if parts:
        yield 1, "disk record: " + "; ".join(parts)
        return
    try:
        _disk_tags(kv)
    except ValueError as exc:
        yield 1, f"disk record: {exc}"


def _disk_tags(kv: dict[str, str]) -> tuple[Pairing, Level, Level]:
    """The pairing and the two levels of a disk's key=value tokens; raises
    ValueError naming the first bad one."""
    return (Pairing(kv["pair"].lower()), Level(kv["level1"].lower()),
            Level(kv["level2"].lower()))


# The grammar of each `.skd` record kind, written once. Its pattern (after
# the keyword) alone accepts a record and yields its fields: the id first
# (an oracle's fingerprint), then the rest. To word why a line is rejected:
# a test of the token count and shape, the usage message when it fails,
# and the field checks. ``[^\S\n]`` is the whitespace str.split splits on,
# less the line break; ``(?ai:...)`` ignores ASCII case only, as
# ``str.lower`` does. In an endpoint, the line and slot are the last two
# dot-separated fields.
_S = r"[^\S\n]"
_END = rf"(?:B:({_ID})|T:({_ID})\.([012])\.([ab]))"
_LINE_TYPE = r"(?ai:bm|bt|mt)"
_LEVEL = r"(?ai:(upper|lower))(?!\S)"
_RULES = {
    "triple": (rf"({_ID}){_S}+lines=({_LINE_TYPE},{_LINE_TYPE},{_LINE_TYPE})",
               lambda args: len(args) == 2 and args[1].startswith("lines="),
               "triple record needs: triple <id> lines=<t>,<t>,<t>", _triple_fields),
    "branch": (rf"({_ID})", lambda args: len(args) == 1,
               "branch record needs: branch <id>", lambda args, cols: ()),
    "edge": (rf"({_ID}){_S}+{_END}{_S}+{_END}", lambda args: len(args) == 3,
             "edge record needs: edge <id> <endpoint> <endpoint>", _edge_fields),
    "circle": (rf"({_ID})", lambda args: len(args) == 1,
               "circle record needs: circle <id>", lambda args, cols: ()),
    # five key=value tokens in any order, each key present: so each once
    "disk": (rf"({_ID})(?=.*{_S}e1=(\S*))(?=.*{_S}e2=(\S*))"
             rf"(?=.*{_S}pair=(?ai:(cross|parallel))(?!\S))"
             rf"(?=.*{_S}level1={_LEVEL})(?=.*{_S}level2={_LEVEL})"
             rf"(?:{_S}+(?:e1|e2|pair|level1|level2)=\S*){{5}}",
             lambda args: len(args) >= 1, "disk record needs an id", _disk_fields),
    # a fingerprint is a SHA-256 digest: 64 lowercase hex digits
    "oracle": (rf"([0-9a-f]{{64}}){_S}+(trivial|nontrivial)",
               lambda args: len(args) == 2 and args[1] in ORACLE_VERDICTS,
               "oracle record needs: oracle <fingerprint> trivial|nontrivial",
               lambda args, cols: [(cols[0], f"oracle fingerprint {args[0]!r} "
                                    "is not 64 lowercase hex digits")]),
}
# A record is a whole line, its keyword at the start of the text or of a line
# (the lookbehind): keyword first, so that a scan searches for it in C.
_SKD_PATTERNS = {kind: re.compile(rf"{kind}(?<![^\n]{kind}){_S}+{rule[0]}{_S}*(?![^\n])")
                 for kind, rule in _RULES.items()}


def _rejections(line: str):
    """Why a `.skd` line fails its record pattern, as (column, message)
    pairs: its usage when its tokens have the wrong count or shape, else
    the problems its field checks find, in order, else a bad id."""
    tokens = list(re.finditer(r"\S+", line))  # those of str.split, and their columns
    (record, *args), (_, *cols) = [m[0] for m in tokens], [m.start() + 1 for m in tokens]
    if record not in _RULES:
        return [(1, f"unknown record kind {record!r}")]
    _, shape, usage, fields = _RULES[record]
    if not shape(args):
        return [(1, usage)]
    problems = list(fields(args, cols))
    if not problems and not _ID_RE.match(args[0]):
        problems.append((cols[0], f"bad id {args[0]!r}"))
    return problems


def _located(text: str):
    """A `.skd` text read one line at a time, to place its diagnostics:
    every problem as (line, column, message), in order, and the line that
    first defines each (kind, id) and oracle fingerprint."""
    errors, lines_of, verdicts = [], {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].rstrip()
        record = line.lstrip()
        if not record:
            continue
        keyword = record.split(None, 1)[0]
        m = keyword in _SKD_PATTERNS and _SKD_PATTERNS[keyword].match(record)
        if not m:
            # a line the token checks pass is a gap in the patterns: still rejected
            errors += [(lineno, column, message) for column, message in
                       _rejections(line) or [(1, f"malformed {keyword} record")]]
            continue
        kind, rid = "edge" if keyword == "circle" else keyword, m[1]
        first = lines_of.setdefault((kind, rid), lineno)
        if kind == "oracle":
            if verdicts.setdefault(rid, m[2]) != m[2]:
                errors.append((lineno, 1, f"oracle {rid} is {m[2]} here but "
                               f"{verdicts[rid]} on line {first}"))
        elif first != lineno:
            errors.append((lineno, len(line) - len(record) + m.start(1) + 1,
                           f"duplicate {kind} id {rid!r} (first defined on line {first})"))
    return errors, lines_of


def parse_skd_document(text: str, check: bool = True) -> SkdDocument:
    """Parse a full `.skd` document (complex records plus oracle lines).

    Raises ParseError with all diagnostics when the text does not describe
    a well-formed complex. With ``check=False`` only syntax and duplicate
    ids are diagnosed and the (possibly invalid) complex is returned, so a
    caller can run and report validation itself. Each record kind is read
    with one pass of its pattern (see ``_RULES``) over the whole text; it
    is read line by line only to place diagnostics.
    """
    flat = "\n".join(text.splitlines())
    if "#" in flat:
        flat = re.sub(r"#[^\n]*", "", flat)
    # without indentation and blank lines, each line starts with its keyword
    flat = re.sub(r"\n\s+", "\n", flat).strip()
    # the records all stay alive, so a collection while they are built frees
    # nothing: it is paused (and the CLI then freezes them, see cli._parsed)
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        # a record is built as its NamedTuple's own __new__ builds it, without
        # its frame; each findall list is released once its records are built
        new, index, scan = tuple.__new__, _LINE_INDEX, _SKD_PATTERNS
        triples = [new(TriplePoint, (rid, _TYPES_OF[types.lower()]))
                   for rid, types in scan["triple"].findall(flat)]
        branches = [new(BranchPoint, (rid,)) for rid in scan["branch"].findall(flat)]
        edges = [new(Arc, (rid, new(BranchRef, (b1,)) if b1 else
                           new(TripleSlot, (t1, index[l1], s1)),
                           new(BranchRef, (b2,)) if b2 else
                           new(TripleSlot, (t2, index[l2], s2))))
                 for rid, b1, t1, l1, s1, b2, t2, l2, s2 in scan["edge"].findall(flat)]
        edges += [new(Circle, (rid,)) for rid in scan["circle"].findall(flat)]
        disks = [new(DescendentDisk, (rid, e1, e2, Pairing(pair.lower()),
                                      Level(level1.lower()), Level(level2.lower())))
                 for rid, e1, e2, pair, level1, level2 in scan["disk"].findall(flat)]
        verdicts = scan["oracle"].findall(flat)
        oracle = dict(verdicts)
        found = len(triples) + len(branches) + len(edges) + len(disks) + len(verdicts)
        # a repeated id makes the build raise; a fingerprint with two verdicts
        # is in the oracle once
        cx = (found == (flat.count("\n") + 1 if flat else 0)
              and len(set(verdicts)) == len(oracle)
              and SingularityComplex.build(triples, branches, edges, disks))
    except StructuralError:
        cx = None
    finally:
        if gc_enabled:
            gc.enable()
    if not cx:
        raise ParseError(_located(text)[0] or [(1, 1, "malformed record")])
    if check and (violations := validate(cx).violations):
        lines_of = _located(text)[1]
        # at each subject's defining line; without one, at line 1
        raise ParseError([(lines_of.get(subject, 1), 1, v.message)
                          for v in violations for subject in v.subjects or [None]])
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
        return DiskDeclaration(kv["disk"], kv["partner"], *_disk_tags(kv)), None
    except ValueError as exc:
        return None, str(exc)


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

    errors: list[tuple[int, int, str]] = []
    staged: list[tuple[int, str, MoveKind, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].rstrip()
        if not line:
            continue
        tokens = line.split()
        try:
            name = normalize_kind_token(tokens[0])
        except UnknownIdError:
            errors.append((lineno, 1, f"unknown move kind token {tokens[0]!r}"))
            continue
        if name in FORBIDDEN_KINDS:
            errors.append((lineno, 1, f"move {name} violates the t-descendent "
                           "condition (R2+, R3+ and R5+ are excluded)"))
            continue
        staged.append((lineno, line, MoveKind[name], tokens[1:]))
    if errors:
        raise ParseError(errors)
    moves: list[MoveInstance] = []
    for lineno, line, kind, args in staged:
        kv, bad = _parse_kv(args)
        if bad is not None:
            errors.append((lineno, list(re.finditer(r"\S+", line))[1 + bad].start() + 1,
                           f"bad or repeated key=value token {args[bad]!r}"))
            continue
        move, err = _build_move(kind, kv)
        if err:
            errors.append((lineno, 1, err))
            continue
        moves.append(move)
    if errors:
        raise ParseError(errors)
    return tuple(moves)


# -- schematic export -------------------------------------------------------

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
    lines = []
    for c in cx.curves:
        lines.append(f"{c.kind.value} curve {c.id}: " + " ".join(c.edges))
    return lines
