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
        """``best_union``'s pick: in scan order, the first passing witness is the smallest."""
        return best_union((w, w.exchangeable and w.dd, w.verdict) for w in self.witnesses)


class DuStatus(str, Enum):
    DU_EXCHANGEABLE = "du-exchangeable"
    UNKNOWN = "unknown"


class DuVerdict(NamedTuple):
    status: DuStatus
    witness: tuple[str, ...] | None = None


def enumerate_exchangeable(cx: SingularityComplex,
                           max_size: int | None = None) -> list[frozenset[str]]:
    """All exchangeable unions of double curves, in size-then-lexicographic
    order (size bounded by max_size when given): the unions of the records
    of ``du_records`` with no oracle, which refuses a scan past the cap."""
    ids, records = du_records(cx, EMPTY_ORACLE, max_size)
    return [frozenset(map(ids.__getitem__, u)) for u, _, _ in records]


def du_records(cx: SingularityComplex, oracle: TrivialityOracle,
               max_size: int | None = None):
    """The curve ids in sorted order, and the witness of each exchangeable
    union as its (curve indices, dd flag, verdict), smallest size first,
    each size in lexicographic order. The cap and max_size are checked at
    the call, and the unions scanned when taken: layer k extends the flip
    word of each (k-1)-subset by each later curve's, one OR and one test
    each. A changed diagram depends on the flip word alone: each is hashed
    once."""
    n = len(cx.curves)
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be non-negative, not {max_size}")
    if max_size is None and 2 ** n > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            ENUMERATION_CAP, f"2^{n} candidate subsets exceed the enumeration cap "
            f"{ENUMERATION_CAP}; pass max_size to bound the scan")
    words, low, disk_low = flip_words(cx)
    ids, words = list(words), list(words.values())
    limit = n if max_size is None else min(max_size, n)
    changed = changed_fingerprinter(cx) if oracle.entries else None
    verdict_of = cache(lambda w: oracle.lookup(changed(w)))

    def records():
        prefixes = [((), 0)]  # every (k-1)-subset and its word, while a layer follows
        for k in range(limit + 1):
            layer = prefixes if not k else (((*u, j), w | words[j]) for u, w in prefixes
                                            for j in range(u[-1] + 1 if u else 0, n))
            if k < limit:
                prefixes = layer = list(layer)
            for u, w in exchangeable_unions(layer, low):
                dd = not (w ^ w >> 1) & disk_low  # each disk's two edge bits agree
                yield u, dd, verdict_of(w) if dd and changed else Verdict.UNKNOWN
    return ids, records()


def best_union(records):
    """The best witness among ``du_records``' records, taken up to it: the first dd-passing
    union that the oracle marks trivial (the smallest, first of its size), or None."""
    return next((u for u, dd, verdict in records if dd and verdict is Verdict.TRIVIAL), None)


def du_index_upper_bound(cx: SingularityComplex, oracle: TrivialityOracle,
                         max_size: int | None = None) -> DuReport:
    """Filter exchangeable unions through the descendent disk condition,
    apply the crossing change, and look each result up in the oracle.

    best_size is the smallest union size whose changed diagram the oracle
    marks trivial; the already-unknotted branch appears as the empty union
    (size 0, identity change). Unknown verdicts are carried, never dropped.
    Changed diagrams are fingerprinted without being built, and not at all
    when the oracle is empty (every verdict is then unknown).
    """
    ids, records = du_records(cx, oracle, max_size)
    records = list(records)
    best = best_union(records)
    return DuReport(tuple(DuWitness(tuple(map(ids.__getitem__, u)), len(u), True, dd, verdict)
                          for u, dd, verdict in records), None if best is None else len(best))


def is_du_exchangeable(cx: SingularityComplex, oracle: TrivialityOracle,
                       max_size: int | None = None) -> DuVerdict:
    """du-exchangeability relative to the oracle: yes with a witness union
    when some enumerated union (possibly the empty one) passes all three
    conditions, unknown otherwise. Never 'no'. The scan stops at the first
    size layer that holds a witness; the cap applies as to the full scan."""
    ids, records = du_records(cx, oracle, max_size)
    best = best_union(records)
    return DuVerdict(DuStatus.UNKNOWN) if best is None else DuVerdict(
        DuStatus.DU_EXCHANGEABLE, tuple(map(ids.__getitem__, best)))


def __getattr__(name: str):
    # the generator is imported on first use (PEP 562), so that a scan
    # never loads ``random`` or ``logging``
    if name in ("SizeBudget", "generate_random_complex"):
        from . import generator
        return getattr(generator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
