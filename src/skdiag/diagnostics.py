"""Where a `.skd` text goes wrong: its lines read one at a time to place each
diagnostic, and the token checks that word why a line is rejected. Only a
document that fails loads this module."""

import re

from .formats import _ID, _SKD_PATTERNS, _disk_tags, _parse_kv
from .singularity import LineType

_ID_RE = re.compile(_ID + r"\Z")

ORACLE_VERDICTS = ("trivial", "nontrivial")


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


# Per record kind of formats._RULES, to word a line its pattern rejects: a
# test of the token count and shape, the usage message when it fails, and
# the field checks.
_SHAPES = {
    "triple": (lambda args: len(args) == 2 and args[1].startswith("lines="),
               "triple record needs: triple <id> lines=<t>,<t>,<t>", _triple_fields),
    "branch": (lambda args: len(args) == 1,
               "branch record needs: branch <id>", lambda args, cols: ()),
    "edge": (lambda args: len(args) == 3,
             "edge record needs: edge <id> <endpoint> <endpoint>", _edge_fields),
    "circle": (lambda args: len(args) == 1,
               "circle record needs: circle <id>", lambda args, cols: ()),
    "disk": (lambda args: len(args) >= 1, "disk record needs an id", _disk_fields),
    "oracle": (lambda args: len(args) == 2 and args[1] in ORACLE_VERDICTS,
               "oracle record needs: oracle <fingerprint> trivial|nontrivial",
               lambda args, cols: [(cols[0], f"oracle fingerprint {args[0]!r} "
                                    "is not 64 lowercase hex digits")]),
}


def rejections(line: str):
    """Why a `.skd` line fails its record pattern, as (column, message)
    pairs: its usage when its tokens have the wrong count or shape, else
    the problems its field checks find, in order, else a bad id."""
    tokens = list(re.finditer(r"\S+", line))  # those of str.split, and their columns
    (record, *args), (_, *cols) = [m[0] for m in tokens], [m.start() + 1 for m in tokens]
    if record not in _SHAPES:
        return [(1, f"unknown record kind {record!r}")]
    shape, usage, fields = _SHAPES[record]
    if not shape(args):
        return [(1, usage)]
    problems = list(fields(args, cols))
    if not problems and not _ID_RE.match(args[0]):
        problems.append((cols[0], f"bad id {args[0]!r}"))
    return problems


def located(text: str):
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
                       rejections(line) or [(1, f"malformed {keyword} record")]]
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
