"""Enumeration of exchangeable unions and du-exchange-index upper bounds.

Unknottedness of a surface-knot diagram is not decided here: a
TrivialityOracle is a declared annotation set mapping complex fingerprints
to trivial/nontrivial verdicts, and lookups of unannotated diagrams return
unknown. The du report therefore certifies upper bounds only, and only
relative to the single diagram it was computed on; the index itself is a
minimum over all diagrams of the surface-knot, which no finite run can
reach. Every report says so.
"""

from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .crossing import (
    changed_fingerprinter,
    curve_bits,
    dd_holds,
    disk_masks,
    first_invalid_triple,
    triple_masks,
)
from .errors import EnumerationCapExceeded, OracleConflict
from .singularity import SingularityComplex

#: Enumerating more candidate subsets than this requires an explicit
#: max_size bound.
ENUMERATION_CAP = 2 ** 20

DIAGRAM_BOUND_NOTE = (
    "upper bound relative to this diagram only; the du-exchange index is a "
    "minimum over all du-exchangeable diagrams of the surface-knot")


class Verdict(str, Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    UNKNOWN = "unknown"


class _OracleEntries(NamedTuple):
    entries: tuple[tuple[str, Verdict], ...] = ()


class TrivialityOracle(_OracleEntries):
    """Declared triviality annotations keyed by canonical fingerprint. It
    declares no ``__slots__``, so its cached index gets an instance dict;
    assigning any attribute raises."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: an oracle is immutable")

    @classmethod
    def from_mapping(cls, mapping) -> "TrivialityOracle":
        return cls(tuple(sorted((fp, Verdict(v)) for fp, v in dict(mapping).items())))

    @cached_property
    def _index(self) -> dict[str, Verdict]:
        return dict(self.entries)

    def lookup(self, fp: str) -> Verdict:
        return self._index.get(fp, Verdict.UNKNOWN)

    def merged_with(self, other: "TrivialityOracle") -> "TrivialityOracle":
        """Both annotation sets; raises OracleConflict when they give one
        fingerprint different verdicts."""
        combined = dict(self.entries)
        for fp, verdict in other.entries:
            if combined.setdefault(fp, verdict) is not verdict:
                raise OracleConflict(
                    f"oracle {fp} is {combined[fp].value} in one annotation set "
                    f"and {verdict.value} in the other")
        return TrivialityOracle.from_mapping(combined)


EMPTY_ORACLE = TrivialityOracle()


class DuWitness(NamedTuple):
    gamma: tuple[str, ...]
    size: int
    exchangeable: bool
    dd: bool
    verdict: Verdict


class DuReport(NamedTuple):
    witnesses: tuple[DuWitness, ...]
    best_size: int | None
    note: str = DIAGRAM_BOUND_NOTE

    def best_witness(self) -> DuWitness | None:
        candidates = [w for w in self.witnesses
                      if w.exchangeable and w.dd and w.verdict is Verdict.TRIVIAL]
        return min(candidates, key=lambda w: (w.size, w.gamma), default=None)


class DuStatus(str, Enum):
    DU_EXCHANGEABLE = "du-exchangeable"
    UNKNOWN = "unknown"


class DuVerdict(NamedTuple):
    status: DuStatus
    witness: tuple[str, ...] | None = None


def enumerate_exchangeable(cx: SingularityComplex, max_size: int | None = None,
                           cap: int = ENUMERATION_CAP) -> list[frozenset[str]]:
    """All exchangeable unions of double curves, in size-then-lexicographic
    order (size bounded by max_size when given).

    Refuses with the cap value when the candidate-subset count would
    exceed ``cap`` and no max_size was supplied. Candidates are checked as
    curve masks against triple-point masks compiled once."""
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be non-negative, not {max_size}")
    bits = curve_bits(cx)
    n = len(bits)
    if max_size is None and 2 ** n > cap:
        raise EnumerationCapExceeded(
            cap, f"2^{n} candidate subsets exceed the enumeration cap {cap}; "
            "pass max_size to bound the scan")
    limit = n if max_size is None else min(max_size, n)
    masks = triple_masks(cx, bits)
    bit = bits.__getitem__
    return [frozenset(combo) for k in range(limit + 1)
            for combo in combinations(bits, k)
            if first_invalid_triple(sum(map(bit, combo)), masks) is None]


def du_index_upper_bound(cx: SingularityComplex, oracle: TrivialityOracle,
                         max_size: int | None = None,
                         cap: int = ENUMERATION_CAP) -> DuReport:
    """Filter exchangeable unions through the descendent disk condition,
    apply the crossing change, and look each result up in the oracle.

    best_size is the smallest union size whose changed diagram the oracle
    marks trivial; the already-unknotted branch appears as the empty union
    (size 0, identity change). Unknown verdicts are carried, never dropped.
    Changed diagrams are fingerprinted without being built, and not at all
    when the oracle is empty (every verdict is then unknown).
    """
    unions = enumerate_exchangeable(cx, max_size=max_size, cap=cap)
    bits = curve_bits(cx)
    dmasks = disk_masks(cx, bits)
    changed = changed_fingerprinter(cx, bits) if oracle.entries else None
    witnesses = []
    for gamma in unions:
        g = sum(map(bits.__getitem__, gamma))
        dd = dd_holds(g, dmasks)
        verdict = oracle.lookup(changed(g)) if dd and changed else Verdict.UNKNOWN
        witnesses.append(DuWitness(tuple(sorted(gamma)), len(gamma), True, dd, verdict))
    best = min((w.size for w in witnesses
                if w.dd and w.verdict is Verdict.TRIVIAL), default=None)
    return DuReport(tuple(witnesses), best)


def is_du_exchangeable(cx: SingularityComplex, oracle: TrivialityOracle,
                       max_size: int | None = None) -> DuVerdict:
    """du-exchangeability relative to the oracle: yes with a witness union
    when some enumerated union (possibly the empty one) passes all three
    conditions, unknown otherwise. Never 'no'."""
    report = du_index_upper_bound(cx, oracle, max_size=max_size)
    witness = report.best_witness()
    if witness is not None:
        return DuVerdict(DuStatus.DU_EXCHANGEABLE, witness.gamma)
    return DuVerdict(DuStatus.UNKNOWN)


def __getattr__(name: str):
    # the generator is imported on first use (PEP 562), so that a scan
    # never loads ``random`` or ``logging``
    if name in ("SizeBudget", "generate_random_complex"):
        from . import generator
        return getattr(generator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
