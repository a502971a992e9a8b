"""Combinatorics of surface-knot diagram singularity sets.

Double-curve tracing over an abstract singularity complex, crossing
changes along exchangeable unions of double curves, t-descendent
Roseman-move rewriting with transport of the exchanged union, and
enumeration toward du-exchange-index upper bounds.
"""

from .canonical import fingerprint, serialize_canonical
from .crossing import (
    ExchangeSet,
    FlipSet,
    all_curves,
    crossing_change,
    exchange_set,
    flip_sets,
    is_exchangeable,
    is_valid_flip,
    satisfies_dd_condition,
)
from .errors import (
    DiagramError,
    EnumerationCapExceeded,
    MoveRejected,
    NotExchangeableError,
    OracleConflict,
    ParseError,
    SequenceAborted,
    StructuralError,
    UnknownIdError,
)
from .explorer import (
    ENUMERATION_CAP,
    DuReport,
    DuStatus,
    DuVerdict,
    DuWitness,
    SizeBudget,
    TrivialityOracle,
    Verdict,
    du_index_upper_bound,
    enumerate_exchangeable,
    generate_random_complex,
    is_du_exchangeable,
)
from .formats import (
    SkdDocument,
    curve_summary,
    export_schematic,
    parse_skd,
    parse_skd_document,
    parse_skm,
)
from .moves import (
    FORBIDDEN_KINDS,
    DiskDeclaration,
    MoveInstance,
    MoveKind,
    R1Minus,
    R1Plus,
    R2Minus,
    R3Minus,
    R4Minus,
    R4Plus,
    R5Minus,
    R6,
    SequenceResult,
    TrailEntry,
    apply_move,
    apply_sequence,
    apply_with_transport,
    normalize_kind_token,
    relabel_locus_for_change,
    transport,
    validate_t_descendent,
)
from .singularity import (
    Arc,
    BranchPoint,
    BranchRef,
    CensusRecord,
    Circle,
    CurveKind,
    DescendentDisk,
    DoubleCurve,
    DoubleEdge,
    EndpointRef,
    Level,
    LineType,
    Pairing,
    SingularityComplex,
    TriplePoint,
    TripleSlot,
    ValidationReport,
    Violation,
    census,
    curve_of,
    trace_curves,
    validate,
)

__version__ = "0.1.0"
