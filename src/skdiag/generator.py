"""Seeded random complexes, the fuel of the property tests and the benchmark.

Kept apart from the union scan so that a command never loads ``random`` or
``logging``; ``skdiag.explorer`` and ``skdiag`` still export both names.
"""

import logging
import random
from dataclasses import dataclass

from .singularity import (
    Arc,
    BranchPoint,
    Circle,
    DescendentDisk,
    Level,
    LineType,
    Pairing,
    SingularityComplex,
    TriplePoint,
    endpoints,
)

# the explorer's name, which callers of the generator already listen on
logger = logging.getLogger("skdiag.explorer")


@dataclass(frozen=True)
class SizeBudget:
    triples: int = 2
    branches: int = 2
    circles: int = 1


def generate_random_complex(seed: int, budget: SizeBudget = SizeBudget(),
                            disks: int = 0) -> SingularityComplex:
    """A uniformly wired well-formed complex, deterministic per seed.

    All triple slots and branch points are paired into arcs at random; when
    the endpoint count is odd one extra branch point is added (logged).
    Optionally declares consistent descendent disks on random edge pairs.
    """
    rng = random.Random(seed)
    n_branches = budget.branches
    if (6 * budget.triples + n_branches) % 2:
        logger.info("seed %d: odd endpoint count, adding one branch point", seed)
        n_branches += 1
    triples = []
    for i in range(budget.triples):
        types = [LineType.BM, LineType.BT, LineType.MT]
        rng.shuffle(types)
        triples.append(TriplePoint(f"T{i + 1}", tuple(types)))
    branches = [BranchPoint(f"B{i + 1}") for i in range(n_branches)]
    refs = list(endpoints(triples, branches))
    rng.shuffle(refs)
    edges: list[Arc | Circle] = []
    for i in range(0, len(refs), 2):
        edges.append(Arc(f"E{i // 2 + 1}", refs[i], refs[i + 1]))
    edges.extend(Circle(f"C{i + 1}") for i in range(budget.circles))
    registry = []
    if disks and len(edges) >= 2:
        ids = [e.id for e in edges]
        for i in range(disks):
            e1, e2 = rng.sample(ids, 2)
            level = rng.choice((Level.UPPER, Level.LOWER))
            registry.append(DescendentDisk(
                f"D{i + 1}", e1, e2,
                rng.choice((Pairing.CROSS, Pairing.PARALLEL)), level, level))
    return SingularityComplex.build(triples, branches, edges, registry)
