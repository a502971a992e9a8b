"""Text formats: the `.skd` complex format, and what the `.skm` move-script
reader (``skm``) shares with it.

Both formats are line oriented and diff friendly: one record per line,
``#`` starts a comment, ids are drawn from ``[A-Za-z0-9_.+-]``. Parse
errors are collected, not short-circuited; a ParseError carries every
diagnostic with its line and column (worded by ``diagnostics``).

`.skd` records::

    triple <id> lines=<t>,<t>,<t>     # a permutation of bm,bt,mt
    branch <id>
    edge <id> <endpoint> <endpoint>   # endpoint: B:<id> | T:<id>.<line>.<a|b>
    circle <id>
    disk <id> e1=<edge> e2=<edge> pair=cross|parallel
              level1=upper|lower level2=upper|lower
    oracle <fingerprint> trivial|nontrivial

``parse_skm``, ``export_schematic`` and ``curve_summary`` resolve here
too, from the modules that define them (PEP 562), so that reading a `.skd`
file compiles neither the `.skm` reader nor the exports.
"""

import re
from importlib import import_module
from itertools import product
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import ParseError, StructuralError
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
    validate,
)

_ID = r"[A-Za-z0-9_.+-]+"
_TYPES_OF = {",".join(types): types for types in product(LineType, repeat=3)}  # by lines= value
_LINE_INDEX = {"0": 0, "1": 1, "2": 2}


class SkdDocument(NamedTuple):
    """A parsed `.skd` file: the complex plus any oracle annotations. The
    default is read-only, because every instance shares it."""

    complex: SingularityComplex
    oracle: Mapping[str, str] = MappingProxyType({})


# used by the `.skm` reader and the `.skd` rejection wording alike
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


def _disk_tags(values) -> tuple[Pairing, Level, Level]:
    """A disk's pairing and two levels, from their values in ``_TAGS`` order;
    raises ValueError naming the first bad one."""
    return tuple(tag(value.lower()) for tag, value in zip(_TAGS.values(), values))


# Every token of the `.skd` format, written once. ``_RULES`` joins each kind's
# into the pattern (after the keyword) that alone accepts a record and yields
# its fields, the id (an oracle's fingerprint) first; ``diagnostics`` words a
# rejected line by matching each token against its own pattern. ``[^\S\n]`` is
# the whitespace str.split splits on, less the line break; ``(?ai:...)``
# ignores ASCII case only, as ``str.lower`` does.
_S = r"[^\S\n]"
_FIELD = "({})".format  # a token part the pattern yields
_RID = _FIELD(_ID)
# an endpoint: B:<id>, or a triple slot T:<id>.<line>.<a|b>, whose line and
# slot are its last two "."-separated parts (as in a `.skm` splice map's slots)
_ENDPOINTS = {"B:": (_ID,), "T:": (_ID, "[012]", "[ab]")}
_SLOT = r"\.".join(map(_FIELD, _ENDPOINTS["T:"]))
_END = "(?:" + "|".join(prefix + r"\.".join(map(_FIELD, parts))
                        for prefix, parts in _ENDPOINTS.items()) + ")"
_LINE_TYPE = f"(?ai:{'|'.join(LineType)})"
_LINES_KEY = "lines="  # then a triple point's three line types, ","-separated
_LINES = _LINES_KEY + _FIELD(",".join([_LINE_TYPE] * 3))
_FINGERPRINT = _FIELD("[0-9a-f]{64}")  # a SHA-256 digest: 64 lowercase hex digits
ORACLE_VERDICTS = ("trivial", "nontrivial")  # explorer.Verdict's, bound by a test
_VERDICT = _FIELD("|".join(ORACLE_VERDICTS))
# a disk's tags by key; its five keys are its two edges', then the tags'
_TAGS = {"pair": Pairing, "level1": Level, "level2": Level}
_DISK_VALUES = {"e1": r"(\S*)", "e2": r"(\S*)"} | {
    key: rf"(?ai:({'|'.join(tag)}))(?!\S)" for key, tag in _TAGS.items()}
_DISK_KEYS = tuple(_DISK_VALUES)
# each positional kind's tokens after its keyword
_FIELDS = {"triple": (_RID, _LINES), "branch": (_RID,), "edge": (_RID, _END, _END),
           "circle": (_RID,), "oracle": (_FINGERPRINT, _VERDICT)}
_RULES = {kind: f"{_S}+".join(fields) for kind, fields in _FIELDS.items()}
# a disk's key=value tokens in any order, each key present: so each once
_RULES["disk"] = (_RID + "".join(f"(?=.*{_S}{key}={value})" for key, value in _DISK_VALUES.items())
                  + rf"(?:{_S}+(?:{'|'.join(_DISK_KEYS)})=\S*){{{len(_DISK_KEYS)}}}")
# A record is a whole line, its keyword at the start of the text or of a line
# (the lookbehind): keyword first, so that a scan searches for it in C.
_SKD_PATTERNS = {kind: re.compile(rf"{kind}(?<![^\n]{kind}){_S}+{rule}{_S}*(?![^\n])")
                 for kind, rule in _RULES.items()}


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
        disks = [new(DescendentDisk, (rid, e1, e2, *_disk_tags(tags)))
                 for rid, e1, e2, *tags in scan["disk"].findall(flat)]
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
    if cx and not (check and (violations := validate(cx).violations)):
        return SkdDocument(cx, oracle)
    from .diagnostics import located  # only a failing document is read by line

    errors, lines_of = located(text)
    if not cx:
        raise ParseError(errors or [(1, 1, "malformed record")])
    # at each subject's defining line; without one, at line 1
    raise ParseError([(lines_of.get(subject, 1), 1, v.message)
                      for v in violations for subject in v.subjects or [None]])


def parse_skd(text: str) -> SingularityComplex:
    """Parse `.skd` text into a validated complex (oracle lines allowed
    and ignored). Raises ParseError with located diagnostics."""
    return parse_skd_document(text).complex


def __getattr__(name: str):
    # the `.skm` reader and the exports, from their modules on first use (PEP 562)
    if name not in ("parse_skm", "export_schematic", "curve_summary"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(__package__), name)
