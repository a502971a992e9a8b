"""Bundled example diagrams."""

from importlib import resources

from ..explorer import TrivialityOracle
from ..formats import parse_skd_document
from ..singularity import SingularityComplex


def fixture_text(name: str) -> str:
    return (resources.files(__package__) / name).read_text(encoding="utf-8")


def trefoil() -> SingularityComplex:
    """The bundled t-minimal 2-twist spun trefoil diagram."""
    return parse_skd_document(fixture_text("trefoil.skd")).complex


def trefoil_oracle() -> TrivialityOracle:
    """Triviality annotation for the trefoil diagram: the crossing change
    along its closed double curve yields a trivial 2-knot diagram."""
    doc = parse_skd_document(fixture_text("trefoil.oracle.skd"))
    return TrivialityOracle.from_mapping(doc.oracle)
