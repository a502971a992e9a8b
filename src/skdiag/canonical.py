"""Canonical text form and fingerprinting of a singularity complex.

The canonical text lists records sorted by id within each record kind
(triple, branch, edge, circle, disk), one per line, with normalized
spacing. Two complexes that differ only in record order serialize
identically; the fingerprint is the SHA-256 of the canonical text.
Oracle annotations are not part of the complex and never enter the
fingerprint.
"""

import hashlib

from .singularity import DescendentDisk, SingularityComplex, TriplePoint


def triple_line(t: TriplePoint) -> str:
    types = ",".join(lt.value for lt in t.line_types)
    return f"triple {t.id} lines={types}\n"


def disk_line(d: DescendentDisk) -> str:
    return (f"disk {d.id} e1={d.edge1} e2={d.edge2} pair={d.pair.value} "
            f"level1={d.level1.value} level2={d.level2.value}\n")


def middle_block(cx: SingularityComplex) -> str:
    """The branch, edge and circle lines, which no crossing change alters."""
    return "".join([*(f"branch {b.id}\n" for b in cx.branch_points),
                    *(f"edge {e.id} {e.end1} {e.end2}\n" for e in cx.arcs),
                    *(f"circle {e.id}\n" for e in cx.circles)])


def serialize_canonical(cx: SingularityComplex) -> str:
    """Deterministic `.skd` text for a complex (no comments, sorted ids)."""
    return "".join([*map(triple_line, cx.triple_points), middle_block(cx),
                    *map(disk_line, cx.disks)])


def digest(text: str) -> str:
    """SHA-256 hex digest of a canonical text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(cx: SingularityComplex) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return digest(serialize_canonical(cx))
