"""Canonical text form and fingerprinting of a singularity complex.

The canonical text lists records sorted by id within each record kind
(triple, branch, edge, circle, disk), one per line, with normalized
spacing. Two complexes that differ only in record order serialize
identically; the fingerprint is the SHA-256 of the canonical text.
Oracle annotations are not part of the complex and never enter the
fingerprint.
"""

from .singularity import DescendentDisk, SingularityComplex, TriplePoint


def triple_line(t: TriplePoint) -> str:
    return f"triple {t.id} lines={','.join(t.line_types)}\n"  # each LineType is its str


def disk_line(d: DescendentDisk) -> str:
    return (f"disk {d.id} e1={d.edge1} e2={d.edge2} pair={d.pair.value} "
            f"level1={d.level1.value} level2={d.level2.value}\n")


#: the line format of each record kind, in canonical text order
LINE_FORMATS = (triple_line, lambda b: f"branch {b.id}\n",
                lambda e: f"edge {e.id} {e.end1} {e.end2}\n",
                lambda e: f"circle {e.id}\n", disk_line)


def canonical_lines(cx: SingularityComplex) -> list:
    """The canonical lines of each record kind, in text order: those the
    complex holds, or else every record formatted afresh on each call."""
    lines = vars(cx).get("canonical_lines")
    if lines is None:
        lines = [tuple(map(fmt, records)) for records, fmt in zip(cx.kinds, LINE_FORMATS)]
    return lines


def middle_block(cx: SingularityComplex) -> str:
    """The branch, edge and circle lines, which no crossing change alters."""
    return "".join(map("".join, canonical_lines(cx)[1:4]))


def serialize_canonical(cx: SingularityComplex) -> str:
    """Deterministic `.skd` text for a complex (no comments, sorted ids)."""
    # each kind's tuple joined in place, not one list of every line first
    return "".join(map("".join, canonical_lines(cx)))


def digest(text: str) -> str:
    """SHA-256 hex digest of a canonical text."""
    import hashlib  # here, so that a command that never hashes never loads it

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(cx: SingularityComplex) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return digest(serialize_canonical(cx))
