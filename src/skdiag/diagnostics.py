"""Where a `.skd` text goes wrong: its lines read one at a time to place each
diagnostic, and the wording of why a line is rejected, its tokens checked with
the patterns ``formats`` reads them with. Only a document that fails loads it."""

import re

from .formats import (_DISK_KEYS, _END, _ENDPOINTS, _FIELDS, _FINGERPRINT, _LINE_TYPE, _LINES,
                      _LINES_KEY, _RID, _SKD_PATTERNS, _TAGS, _VERDICT, ORACLE_VERDICTS,
                      _disk_tags, _parse_kv)

# each endpoint prefix's wording of its first bad part, in the order of its parts
_ENDPOINT_PARTS = {"B:": ("bad branch id in endpoint {!r}",),
                   "T:": ("bad triple point id in endpoint {!r}",
                          "endpoint {!r}: line index must be 0, 1 or 2",
                          "endpoint {!r}: slot must be a or b")}


def _endpoint(token: str, col: int):
    prefix = next((p for p in _ENDPOINTS if token.startswith(p)), None)
    if prefix is None:
        return [(col, f"endpoint {token!r} must start with B: or T:")]
    patterns = _ENDPOINTS[prefix]
    parts = token[len(prefix):].rsplit(".", len(patterns) - 1)
    if len(parts) != len(patterns):
        return [(col, f"endpoint {token!r} is not of the form T:<id>.<line>.<a|b>")]
    return [(col, why.format(token)) for part, pattern, why in
            zip(parts, patterns, _ENDPOINT_PARTS[prefix]) if not re.fullmatch(pattern, part)][:1]


def _lines(token: str, col: int):
    if not token.startswith(_LINES_KEY):
        return None
    problems, at = [], col + len(_LINES_KEY)
    for item in token[len(_LINES_KEY):].split(","):
        if not re.fullmatch(_LINE_TYPE, item):
            problems.append((at, f"unknown line type {item!r} (expected bm, bt or mt)"))
        at += len(item) + 1
    return problems + [(1, "a triple point has exactly three lines")]


# Each token pattern of formats._FIELDS: how a usage writes it, and why a
# token does not match it, as (column, message) pairs (None: the line is
# worded by its usage alone).
_TOKENS = {
    _RID: ("<id>", lambda token, col: [(col, f"bad id {token!r}")]),
    _LINES: (f"{_LINES_KEY}<t>,<t>,<t>", _lines),
    _END: ("<endpoint>", _endpoint),
    _FINGERPRINT: ("<fingerprint>", lambda token, col: [
        (col, f"oracle fingerprint {token!r} is not 64 lowercase hex digits")]),
    _VERDICT: ("|".join(ORACLE_VERDICTS), lambda token, col: None),
}


def _disk_fields(args: list[str], cols: list[int]):
    kv, bad = _parse_kv(args)
    if bad is not None:
        return [(cols[bad], f"bad or repeated key=value token {args[bad]!r}")]
    keys, given = set(_DISK_KEYS), set(kv)
    parts = [f"{word} {', '.join(sorted(found))}" for word, found in
             (("missing", keys - given), ("unknown", given - keys)) if found]
    if parts:
        return [(1, "disk record: " + "; ".join(parts))]
    try:
        _disk_tags(kv[key] for key in _TAGS)
    except ValueError as exc:
        return [(1, f"disk record: {exc}")]
    return []


def rejections(line: str):
    """Why a `.skd` line fails its record pattern, as (column, message) pairs:
    its usage when its tokens have the wrong count or shape, else the
    problems of those after the id, in order, else a bad id."""
    tokens = list(re.finditer(r"\S+", line))  # those of str.split, and their columns
    (record, *args), (_, *cols) = [m[0] for m in tokens], [m.start() + 1 for m in tokens]
    if record not in _SKD_PATTERNS:
        return [(1, f"unknown record kind {record!r}")]
    fields = _FIELDS.get(record, (_RID,))  # a disk's key=value tokens follow its id
    usage = [(1, "disk record needs an id" if record == "disk" else f"{record} record "
              f"needs: {' '.join([record, *(_TOKENS[field][0] for field in fields)])}")]
    if record == "disk" and args:
        problems = _disk_fields(args[1:], cols[1:])
    elif len(args) != len(fields):
        return usage
    else:
        whys = [_TOKENS[field][1](token, col) for field, token, col
                in zip(fields[1:], args[1:], cols[1:]) if not re.fullmatch(field, token)]
        if None in whys:
            return usage
        problems = [problem for why in whys for problem in why]
    if not problems and not re.fullmatch(fields[0], args[0]):
        problems = _TOKENS[fields[0]][1](args[0], cols[0])
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
