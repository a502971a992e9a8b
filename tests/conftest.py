from pathlib import Path

import pytest

from skdiag import fixtures as bundled
from skdiag import parse_skd
from skdiag.moves import R2Minus, R3Minus, R5Minus, R6
from skdiag.singularity import TripleSlot

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def load_fixture(name: str):
    return parse_skd(fixture_text(f"{name}.skd"))


def smooth(*triples: str):
    """Per-line splice pairs (slot a to slot b of line 0) at each triple."""
    return tuple((TripleSlot(t, 0, "a"), TripleSlot(t, 0, "b")) for t in triples)


def r2_move(p: str = "") -> R2Minus:
    """The cancellation of the r2 site, whose ids carry the prefix ``p``."""
    return R2Minus(p + "T1", p + "T2", (p + "u1", p + "v1"), smooth(p + "T1", p + "T2"))


def r3_move(p: str = "") -> R3Minus:
    triples = tuple(p + t for t in ("Ta", "Tb", "Tc", "Td", "Te", "Tf"))
    return R3Minus(triples, (p + "f1", p + "g1", p + "h1"), p + "T0", smooth(*triples))


def r5_move(p: str = "") -> R5Minus:
    return R5Minus(p + "T1", p + "e0", tuple(
        (TripleSlot(p + "T1", line, "a"), TripleSlot(p + "T1", line, "b"))
        for line in range(3)))


def r6_move() -> R6:
    return R6("DD")


@pytest.fixture
def trefoil():
    return bundled.trefoil()


@pytest.fixture
def trefoil_oracle():
    return bundled.trefoil_oracle()


@pytest.fixture
def r2():
    return load_fixture("r2")


@pytest.fixture
def r3():
    return load_fixture("r3")


@pytest.fixture
def r5():
    return load_fixture("r5")


@pytest.fixture
def r6():
    return load_fixture("r6")
