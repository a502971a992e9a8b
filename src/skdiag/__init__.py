"""Combinatorics of surface-knot diagram singularity sets.

Double-curve tracing over an abstract singularity complex, crossing
changes along exchangeable unions of double curves, t-descendent
Roseman-move rewriting with transport of the exchanged union, and
enumeration toward du-exchange-index upper bounds.

The public names are exported lazily (PEP 562): a module is imported on
the first use of one of its names, so a command pays only for the
modules it runs. The submodules resolve the same way.
"""

from importlib import import_module

_EXPORTS = {
    "canonical": "fingerprint serialize_canonical",
    "crossing": "ExchangeSet FlipSet all_curves crossing_change exchange_set "
                "flip_sets is_exchangeable is_valid_flip satisfies_dd_condition",
    "edit": "rebuilt",
    "errors": "DiagramError EnumerationCapExceeded MoveRejected "
              "NotExchangeableError OracleConflict ParseError SequenceAborted "
              "StructuralError UnknownIdError",
    "explorer": "ENUMERATION_CAP DuReport DuStatus DuVerdict DuWitness "
                "TrivialityOracle Verdict du_index_upper_bound "
                "enumerate_exchangeable is_du_exchangeable",
    "formats": "SkdDocument parse_skd parse_skd_document",
    "generator": "SizeBudget generate_random_complex",
    "moves": "FORBIDDEN_KINDS DiskDeclaration MoveInstance MoveKind R1Minus R1Plus "
             "R2Minus R3Minus R4Minus R4Plus R5Minus R6 SequenceResult TrailEntry "
             "apply_move apply_sequence apply_with_transport normalize_kind_token "
             "relabel_locus_for_change transport validate_t_descendent",
    "output": "curve_summary export_schematic",
    "singularity": "Arc BranchPoint BranchRef CensusRecord Circle CurveKind "
                   "DescendentDisk DoubleCurve DoubleEdge EndpointRef Level LineType "
                   "Pairing SingularityComplex TriplePoint TripleSlot "
                   "ValidationReport Violation census trace_curves validate",
    "skm": "parse_skm",
}

#: the module defining each public name
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
