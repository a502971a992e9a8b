"""The `.skm` move-script reader: ``<KIND> key=value ...`` records with the
keys of each kind (see the README). Only ``apply`` reads a script, so that
reading a `.skd` file never loads this module or the move engine."""

import re

from .errors import ParseError, UnknownIdError
from .formats import _ID, _LINE_INDEX, _SLOT, _TAGS, _disk_tags, _parse_kv
from .moves import (FORBIDDEN_KINDS, MOVE_TYPES, DiskDeclaration, MoveInstance, MoveKind,
                    normalize_kind_token)
from .singularity import TripleSlot

_SLOT_RE = re.compile(_SLOT + r"\Z")


def _id(value: str) -> str:
    """An id by the `.skd` rule; raises ValueError worded as the `.skd` reader's."""
    if not re.fullmatch(_ID, value):
        raise ValueError(f"bad id {value!r}")
    return value


def _slot(token: str) -> TripleSlot:
    if not (m := _SLOT_RE.match(token)):
        raise ValueError(f"bad slot reference {token!r} (expected <triple>.<line>.<a|b>)")
    return TripleSlot(m[1], _LINE_INDEX[m[2]], m[3])


def _splice(value: str) -> tuple[tuple[TripleSlot, TripleSlot], ...]:
    """A splice map ``<slot>:<slot>,...``; raises ValueError naming its
    first bad pair or slot."""
    pairs = []
    for chunk in value.split(","):
        halves = chunk.split(":")
        if len(halves) != 2:
            raise ValueError(f"bad splice pair {chunk!r} (expected <slot>:<slot>)")
        pairs.append(tuple(map(_slot, halves)))
    return tuple(pairs)


def _ids(count: int | None = None, wrong: str = ""):
    """The parser of a comma-separated id list: of any length, or of
    exactly ``count`` ids, raising ValueError(wrong) on another."""
    def parse(value: str) -> tuple[str, ...]:
        ids = tuple(_id(v) for v in value.split(",") if v)
        if count is not None and len(ids) != count:
            raise ValueError(wrong)
        return ids
    return parse


_DISK_KEYS = ("disk", "partner", *_TAGS)  # the disk, its partner, then the `.skd` tags


def _declaration(kv: dict[str, str]) -> DiskDeclaration:
    """The disk declared by the five ``_DISK_KEYS``; raises ValueError
    naming the missing keys, or the first bad id, pair or level."""
    if missing := [k for k in _DISK_KEYS if k not in kv]:
        raise ValueError("incomplete disk declaration: missing " + ", ".join(missing))
    return DiskDeclaration(_id(kv["disk"]), _id(kv["partner"]),
                           *_disk_tags(kv[key] for key in _TAGS))


# Each kind's keys, in the order of its record's fields (moves.MOVE_TYPES),
# with the parser of their value: an id, an id list (of an exact count),
# the splice map, or the disk declaration, whose five keys make one field. A
# key is optional when its field has a default. Keyed by kind name, which a
# MoveKind (a str enum) also looks up.
_DECLARATION, _DROP = (_DISK_KEYS, _declaration), ("drop_disks", _ids())
_MOVE_KEYS = {
    "R1_PLUS": (("circle", _id), _DECLARATION),
    "R1_MINUS": (("circle", _id), _DROP),
    "R2_MINUS": (("t1", _id), ("t2", _id),
                 ("curves", _ids(2, "curves must name exactly two closed curves")),
                 ("splice", _splice), _DROP),
    "R3_MINUS": (("triples", _ids(6, "triples must name exactly six triple points")),
                 ("curves", _ids(3, "curves must name exactly three closed curves")),
                 ("center", _id), ("splice", _splice), _DROP),
    "R4_PLUS": (("edge", _id), ("branch1", _id), ("branch2", _id), _DECLARATION),
    "R4_MINUS": (("edge", _id), _DROP),
    "R5_MINUS": (("t", _id), ("edge", _id), ("splice", _splice), _DROP),
    "R6": (("disk", _id),),
}


def _build_move(kind: MoveKind, kv: dict[str, str]) -> MoveInstance:
    """The move of a kind's key=value pairs; raises ValueError naming its
    first problem: missing keys, unknown keys, or a bad value (the splice
    map's before those of the fields in order)."""
    record = MOVE_TYPES[kind]
    fields = [(field, (key,) if isinstance(key, str) else key, parse)
              for field, (key, parse) in zip(record._fields, _MOVE_KEYS[kind], strict=True)]
    required = {k for field, keys, _ in fields if field not in record._field_defaults
                for k in keys}
    if missing := sorted(required - set(kv)):
        raise ValueError("missing key(s) " + ", ".join(missing))
    if extra := sorted(set(kv).difference(*(keys for _, keys, _ in fields))):
        raise ValueError("unknown key(s) " + ", ".join(extra))
    # the splice map is read first; a field none of whose keys is given is
    # optional, and takes its default
    first = sorted(fields, key=lambda f: f[2] is not _splice)
    return record(**{field: parse(kv[keys[0]] if len(keys) == 1 else kv)
                     for field, keys, parse in first if not kv.keys().isdisjoint(keys)})


def parse_skm(text: str) -> tuple[MoveInstance, ...]:
    """Parse a `.skm` move script.

    Bad kind tokens are reported alone: a script naming a forbidden forward
    move is rejected for that, whatever its loci say. Each kind's key=value
    vocabulary is checked strictly.
    """
    kind_errors: list[tuple[int, int, str]] = []
    key_errors: list[tuple[int, int, str]] = []
    moves: list[MoveInstance] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].rstrip()
        if not line:
            continue
        tokens = line.split()
        try:
            name = normalize_kind_token(tokens[0])
        except UnknownIdError as exc:
            kind_errors.append((lineno, 1, str(exc)))
            continue
        if name in FORBIDDEN_KINDS:
            kind_errors.append((lineno, 1, f"move {name} violates the t-descendent "
                                "condition (R2+, R3+ and R5+ are excluded)"))
            continue
        kv, bad = _parse_kv(tokens[1:])
        if bad is not None:
            key_errors.append((lineno, list(re.finditer(r"\S+", line))[1 + bad].start() + 1,
                               f"bad or repeated key=value token {tokens[1 + bad]!r}"))
            continue
        try:
            moves.append(_build_move(MoveKind[name], kv))
        except ValueError as exc:
            key_errors.append((lineno, 1, f"{name}: {exc}"))
    if kind_errors or key_errors:
        raise ParseError(kind_errors or key_errors)
    return tuple(moves)
