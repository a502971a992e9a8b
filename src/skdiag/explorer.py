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
from functools import cache, cached_property
from itertools import combinations, starmap
from typing import NamedTuple

from .crossing import changed_fingerprinter, exchangeable_unions, flip_words
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


def _exchangeable_layers(cx: SingularityComplex, max_size: int | None, cap: int):
    """The low bits of the disk fields of the flip words, and the
    exchangeable unions (curve-id tuples) of each size with their words,
    smallest first, each in lexicographic order: checked at the call,
    scanned when taken."""
    n = len(cx.curves)
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be non-negative, not {max_size}")
    if max_size is None and 2 ** n > cap:
        raise EnumerationCapExceeded(
            cap, f"2^{n} candidate subsets exceed the enumeration cap {cap}; "
            "pass max_size to bound the scan")
    words, low, disk_low = flip_words(cx)
    return disk_low, (exchangeable_unions(combinations(words, k), words, low)
                      for k in range((n if max_size is None else min(max_size, n)) + 1))


def enumerate_exchangeable(cx: SingularityComplex, max_size: int | None = None,
                           cap: int = ENUMERATION_CAP) -> list[frozenset[str]]:
    """All exchangeable unions of double curves, in size-then-lexicographic
    order (size bounded by max_size when given).

    Refuses with the cap value when the candidate-subset count would
    exceed ``cap`` and no max_size was supplied. Each candidate ORs one
    flip word per curve and tests every triple point at once."""
    return [frozenset(gamma) for layer in _exchangeable_layers(cx, max_size, cap)[1]
            for gamma, _ in layer]


def _du_layers(cx: SingularityComplex, oracle: TrivialityOracle,
               max_size: int | None, cap: int):
    """The witnesses of each size layer, as ``_exchangeable_layers``. A
    changed diagram depends on the flip word alone: each is hashed once."""
    disk_low, layers = _exchangeable_layers(cx, max_size, cap)
    changed = changed_fingerprinter(cx) if oracle.entries else None
    verdict_of = cache(lambda w: oracle.lookup(changed(w)))

    def witness(gamma: tuple[str, ...], w: int) -> DuWitness:
        dd = not (w ^ w >> 1) & disk_low  # each disk's two edge bits agree
        verdict = verdict_of(w) if dd and changed else Verdict.UNKNOWN
        return DuWitness(gamma, len(gamma), True, dd, verdict)
    return (tuple(starmap(witness, layer)) for layer in layers)


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
    witnesses = tuple(w for layer in _du_layers(cx, oracle, max_size, cap)
                      for w in layer)
    best = min((w.size for w in witnesses
                if w.dd and w.verdict is Verdict.TRIVIAL), default=None)
    return DuReport(witnesses, best)


def is_du_exchangeable(cx: SingularityComplex, oracle: TrivialityOracle,
                       max_size: int | None = None) -> DuVerdict:
    """du-exchangeability relative to the oracle: yes with a witness union
    when some enumerated union (possibly the empty one) passes all three
    conditions, unknown otherwise. Never 'no'. The scan stops at the first
    size layer that holds a witness; the cap applies as to the full scan."""
    for layer in _du_layers(cx, oracle, max_size, ENUMERATION_CAP):
        witness = DuReport(layer, None).best_witness()
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
