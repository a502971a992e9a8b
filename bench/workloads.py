"""Seeded inputs, command lists and references for the three workloads.

Set-up generates every input from the run's seed, writes it to the work
directory, and computes what the correctness checks compare against. The
program under test only ever sees the written `.skd`/`.skm` files, through
its command line.

- ``du-scan``: ``du-bound --oracle`` and ``enumerate`` on a batch of small
  complexes (full 2^n scans, plus one complex past the enumeration cap
  scanned with ``--max-size``). Work unit: candidate subsets.
- ``rewrite``: a 100-move script on a complex of about 1,000 triple
  points, applied in four ``apply`` commands of about 25 moves, each to
  the same input. Work unit: moves.
- ``ingest``: the read-path commands on a T=5000 and a T=1000 complex.
  Work unit: input arcs.
"""

import json
import random
import re
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

from checks import (
    SkdCensus,
    SkdText,
    check_census,
    check_crossing_change,
    check_du_bound,
    check_rewritten,
    check_schematic,
    check_trace,
    check_trail,
    check_unions,
    sha256_text,
)
from skdiag.canonical import fingerprint, serialize_canonical
from skdiag.crossing import crossing_change, role_permutation
from skdiag.explorer import SizeBudget, generate_random_complex
from skdiag.formats import parse_skd
from skdiag.singularity import (
    SHEET_PAIR,
    TYPE_OF_PAIR,
    BranchRef,
    CurveKind,
    LineType,
    SingularityComplex,
)

SITES = Path(__file__).parent / "sites"


@dataclass
class Command:
    """One CLI invocation: ``argv`` follows ``python -m skdiag.cli``;
    ``check(returncode, stdout)`` returns the problems with its output."""

    argv: list[str]
    work: int
    check: Callable[[int, str], list[str]]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    unit: str
    commands: list[Command]
    params: dict = field(default_factory=dict)


def _expect_ok(check):
    def run(returncode: int, stdout: str) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        return check(stdout)
    return run


def _seeded_rng(workload: str, seed: int, label: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{label}")


# -- du-scan -------------------------------------------------------------

# (label, budget, disks, curves, max_size, exchangeable range, dd-passing
# range). Dense complexes have few triple points per curve and no disks, so
# most unions pass and du-bound changes and fingerprints thousands of them;
# sparse ones have more triple points and declared disks, so few unions
# pass. The capped complex has 2^21 subsets, above ENUMERATION_CAP, and is
# scanned to size 3. The curve count and the output counts are pinned per
# entry (to their most common values over random complexes) so that every
# seed asks for the same amount of work.
DU_SCAN_BATCH = (
    ("dense-12", SizeBudget(3, 18, 2), 0, 12, None, (2304, 2304), (2304, 2304)),
    ("dense-13", SizeBudget(3, 20, 2), 0, 13, None, (4608, 4608), (4608, 4608)),
    ("sparse-12", SizeBudget(8, 16, 2), 3, 12, None, (384, 768), (64, 192)),
    ("sparse-13", SizeBudget(8, 18, 2), 3, 13, None, (768, 1344), (96, 256)),
    ("capped-21", SizeBudget(6, 36, 2), 2, 21, 3, (600, 1000), (400, 520)),
)


def reference_unions(cx: SingularityComplex,
                     max_size: int | None = None) -> dict[tuple, bool]:
    """Every exchangeable union of at most ``max_size`` curves, mapped to
    its dd flag, from the flip rule (role_permutation) and the curve on
    each line (line_curve) alone."""
    ids = sorted(cx.curves_by_id)
    bit = {c: 1 << i for i, c in enumerate(ids)}
    constraints = []
    for t in cx.triple_points:
        masks = [bit[cx.line_curve(t.id, i)] for i in range(3)]
        valid = [role_permutation(frozenset(t.line_types[i] for i in range(3)
                                            if pattern >> i & 1)) is not None
                 for pattern in range(8)]
        constraints.append((masks, valid))
    disks = [(bit[cx.curve_of(d.edge1)], bit[cx.curve_of(d.edge2)])
             for d in cx.disks]
    limit = len(ids) if max_size is None else min(max_size, len(ids))
    out = {}
    for k in range(limit + 1):
        for combo in combinations(range(len(ids)), k):
            m = sum(1 << i for i in combo)
            if all(valid[(m & a != 0) | (m & b != 0) << 1 | (m & c != 0) << 2]
                   for (a, b, c), valid in constraints):
                dd = all((m & d1 != 0) == (m & d2 != 0) for d1, d2 in disks)
                out[tuple(ids[i] for i in combo)] = dd
    return out


def _candidates(n: int, max_size: int | None) -> int:
    limit = n if max_size is None else min(max_size, n)
    return sum(comb(n, k) for k in range(limit + 1))


def setup_du_scan(seed: int, work: Path) -> Workload:
    commands = []
    params = {}
    for label, budget, disks, n, max_size, exchangeable, dd_passing \
            in DU_SCAN_BATCH:
        rng = _seeded_rng("du-scan", seed, label)
        candidates = _candidates(n, max_size)
        for tries in range(1, 5001):
            cx = generate_random_complex(rng.randrange(2 ** 31), budget, disks)
            if len(cx.curves) != n:
                continue
            reference = reference_unions(cx, max_size)
            passing = [g for g, dd in sorted(reference.items(),
                                             key=lambda kv: (len(kv[0]), kv[0]))
                       if dd]
            if exchangeable[0] <= len(reference) <= exchangeable[1] \
                    and dd_passing[0] <= len(passing) <= dd_passing[1]:
                break
        else:
            raise RuntimeError(f"du-scan {label}: no complex in 5000 tries")

        # plant a trivial diagram at a dd-passing union of middle size, and
        # nontrivial ones at the empty union and a few smaller unions
        sizes = sorted({len(g) for g in passing if g})
        planted_size = sizes[len(sizes) // 2]
        planted = rng.choice([g for g in passing if len(g) == planted_size])
        trivial_fp = fingerprint(crossing_change(cx, planted))
        nontrivial = {fingerprint(cx)}
        smaller = [g for g in passing if 0 < len(g) < planted_size]
        for g in rng.sample(smaller, min(3, len(smaller))):
            nontrivial.add(fingerprint(crossing_change(cx, g)))
        nontrivial.discard(trivial_fp)

        skd = work / f"du-{label}.skd"
        oracle = work / f"du-{label}.oracle.skd"
        skd.write_text(serialize_canonical(cx), encoding="utf-8")
        oracle.write_text(
            f"oracle {trivial_fp} trivial\n"
            + "".join(f"oracle {fp} nontrivial\n" for fp in sorted(nontrivial)),
            encoding="utf-8")
        bound = ["--max-size", str(max_size)] if max_size is not None else []

        changed = {}

        def changed_fp(gamma, cx=cx, changed=changed):
            if gamma not in changed:
                changed[gamma] = fingerprint(crossing_change(cx, gamma))
            return changed[gamma]

        def du_check(stdout, reference=reference, planted_size=planted_size,
                     trivial={trivial_fp}, changed_fp=changed_fp):
            return check_du_bound(json.loads(stdout), reference, planted_size,
                                  trivial, changed_fp)

        def enum_check(stdout, reference=reference):
            return check_unions(json.loads(stdout)["unions"], reference,
                                "enumerate")

        commands.append(Command(
            ["du-bound", str(skd), "--oracle", str(oracle), "--json", *bound],
            candidates, _expect_ok(du_check)))
        commands.append(Command(
            ["enumerate", str(skd), "--json", *bound],
            candidates, _expect_ok(enum_check)))
        params[label] = {
            "budget": list(vars(budget).values()), "disks": disks,
            "curves": n, "max_size": max_size, "candidates": candidates,
            "exchangeable": len(reference), "dd_passing": len(passing),
            "planted_size": planted_size, "tries": tries,
            "kib": round(skd.stat().st_size / 1024, 1)}
    return Workload("du-scan", "candidates", commands, params)


# -- rewrite -------------------------------------------------------------

REWRITE_BUDGET = SizeBudget(1000, 2000, 10)
REWRITE_SITES = {"r2": 12, "r5": 12}
REWRITE_SADDLES = 16    # R4+ with a declared disk, then R6 along it
REWRITE_BIRTHS = 16     # R1+ of a fresh circle
REWRITE_DEATHS = 8      # R1- of original circles (as many again of born ones)
REWRITE_R4_DEATHS = 12  # R4- of original branch-bounded arcs
REWRITE_GAMMA = 48      # curves in the carried union
# The script is applied in four parts, each an `apply` of about 25 moves
# to the same input: four commands a pass, each timed on its own, give the
# run's median four times the samples that one 100-move `apply` would.
REWRITE_PARTS = 4
REWRITE_KINDS = ("R1_PLUS", "R1_MINUS", "R2_MINUS", "R4_PLUS", "R4_MINUS",
                 "R5_MINUS", "R6")


def _site_text(kind: str, prefix: str) -> str:
    """A cancellation site from ``sites/<kind>.skd`` with every id
    prefixed, so that copies can be spliced into one complex."""
    out = []
    for raw in (SITES / f"{kind}.skd").read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        renamed = [tokens[0], prefix + tokens[1]]
        for tok in tokens[2:]:
            if tok[:2] in ("B:", "T:"):
                tok = tok[:2] + prefix + tok[2:]
            renamed.append(tok)
        out.append(" ".join(renamed))
    return "\n".join(out) + "\n"


def _splice(prefix: str, triples: list[str], lines=(0,)) -> str:
    return ",".join(f"{prefix}{t}.{line}.a:{prefix}{t}.{line}.b"
                    for t in triples for line in lines)


def _exchangeable_union(cx: SingularityComplex, rng: random.Random,
                        size: int) -> list[str]:
    """A random exchangeable union built greedily: a curve joins when every
    triple point it passes keeps a valid flip set (role_permutation)."""
    ids = sorted(cx.curves_by_id)
    rng.shuffle(ids)
    lines_of: dict[str, list] = {}
    for t in cx.triple_points:
        for i in range(3):
            lines_of.setdefault(cx.line_curve(t.id, i), []).append(t)
    chosen: set[str] = set()
    for cid in ids:
        trial = chosen | {cid}
        if all(role_permutation(frozenset(
                t.line_types[i] for i in range(3)
                if cx.line_curve(t.id, i) in trial)) is not None
               for t in lines_of.get(cid, ())):
            chosen = trial
            if len(chosen) == size:
                break
    return sorted(chosen)


def setup_rewrite(seed: int, work: Path) -> Workload:
    rng = _seeded_rng("rewrite", seed)
    base = generate_random_complex(rng.randrange(2 ** 31), REWRITE_BUDGET)
    text = serialize_canonical(base)
    text += "".join(_site_text(kind, f"{kind}_{k}_")
                    for kind, count in REWRITE_SITES.items()
                    for k in range(count))
    cx = parse_skd(text)
    gamma = _exchangeable_union(cx, rng, REWRITE_GAMMA)

    carried = set(gamma)
    bb_arcs = {a.id for a in base.arcs
               if isinstance(a.end1, BranchRef) and isinstance(a.end2, BranchRef)}
    r4_targets = rng.sample(sorted(bb_arcs), REWRITE_R4_DEATHS)
    # half the saddles pair the new arc with a carried curve, so that the
    # union's transport across R4+ and R6 is exercised
    partner_pool = {True: [], False: []}
    for c in base.curves:
        if c.kind is CurveKind.OPEN:
            partner_pool[c.id in carried].extend(
                e for e in c.edges if e not in bb_arcs)
    partners = [(e, True) for e in rng.sample(partner_pool[True],
                                              REWRITE_SADDLES // 2)]
    partners += [(e, False) for e in rng.sample(
        partner_pool[False], REWRITE_SADDLES - len(partners))]
    circles = [c.id for c in base.circles]

    # each unit: moves with the change each makes to the carried union's
    # size, by the transport rules (a birth whose disk partner is carried
    # joins; deleted curves drop out; followed curves stay). A group holds
    # the units that must go into the same part: a born circle's birth and
    # death.
    groups: list[list[list[tuple[str, int]]]] = []
    for i, (partner, is_carried) in enumerate(partners):
        level = rng.choice(("upper", "lower"))
        pair = rng.choice(("cross", "parallel"))
        groups.append([[
            (f"R4_PLUS edge=w{i} branch1=wb{i}a branch2=wb{i}b disk=wd{i} "
             f"partner={partner} pair={pair} level1={level} level2={level}",
             int(is_carried)),
            (f"R6 disk=wd{i}", 0)]])
    born_deaths = range(REWRITE_BIRTHS - REWRITE_DEATHS, REWRITE_BIRTHS)
    for i in range(REWRITE_BIRTHS):
        birth = [[(f"R1_PLUS circle=n{i}", 0)]]
        death = [[(f"R1_MINUS circle=n{i}", 0)]] if i in born_deaths else []
        groups.append(birth + death)
    for cid in rng.sample(circles, REWRITE_DEATHS):
        groups.append([[(f"R1_MINUS circle={cid}", -int(cid in carried))]])
    for eid in r4_targets:
        groups.append([[(f"R4_MINUS edge={eid}", -int(eid in carried))]])
    for k in range(REWRITE_SITES["r2"]):
        p = f"r2_{k}_"
        dropped = -sum(f"{p}{c}" in carried for c in ("u1", "v1"))
        groups.append([[(f"R2_MINUS t1={p}T1 t2={p}T2 curves={p}u1,{p}v1 "
                         f"splice={_splice(p, ['T1', 'T2'])}", dropped)]])
    for k in range(REWRITE_SITES["r5"]):
        p = f"r5_{k}_"
        groups.append([[(f"R5_MINUS t={p}T1 edge={p}e0 "
                         f"splice={_splice(p, ['T1'], (0, 1, 2))}", 0)]])
    # deal the groups into parts of near-equal move counts; no move refers
    # to another part's moves, so every part applies to the input on its own
    rng.shuffle(groups)
    parts: list[list[list[tuple[str, int]]]] = [[] for _ in range(REWRITE_PARTS)]
    for group in groups:
        min(parts, key=lambda units: sum(map(len, units))).extend(group)

    skd = work / "rewrite.skd"
    skd.write_text(text, encoding="utf-8")
    start = SkdText.parse(text).census()
    commands = []
    kinds: dict[str, int] = {}
    for n, units in enumerate(parts):
        rng.shuffle(units)
        # a born circle dies after its birth
        for i in born_deaths:
            birth = [(f"R1_PLUS circle=n{i}", 0)]
            death = [(f"R1_MINUS circle=n{i}", 0)]
            if birth in units and units.index(death) < units.index(birth):
                a, b = units.index(birth), units.index(death)
                units[a], units[b] = units[b], units[a]
        script = [move for unit in units for move, _ in unit]
        sizes = []
        for unit in units:
            for _, delta in unit:
                sizes.append((sizes[-1] if sizes else len(gamma)) + delta)
        count = {k: sum(m.startswith(k + " ") for m in script)
                 for k in REWRITE_KINDS}
        for k, v in count.items():
            kinds[k] = kinds.get(k, 0) + v
        births, deaths = count["R1_PLUS"], count["R1_MINUS"]
        r2, r5 = count["R2_MINUS"], count["R5_MINUS"]
        saddles, r4_deaths = count["R4_PLUS"], count["R4_MINUS"]
        expected = SkdCensus(
            triple_points=start.triple_points - 2 * r2 - r5,
            branch_points=start.branch_points + 2 * saddles - 2 * r4_deaths,
            arc_edges=start.arc_edges + saddles - r4_deaths - 6 * r2 - 3 * r5,
            circles=start.circles + births - deaths + r5,
            open_curves=start.open_curves + saddles - r4_deaths,
            closed_curves=start.closed_curves + births - deaths - 2 * r2)

        skm = work / f"rewrite-{n}.skm"
        out = work / f"rewrite-{n}.out.skd"
        trail = work / f"rewrite-{n}.trail.json"
        skm.write_text("\n".join(script) + "\n", encoding="utf-8")

        def apply_check(stdout, out=out, trail=trail, sizes=sizes,
                        expected=expected):
            problems = check_trail(
                json.loads(trail.read_text(encoding="utf-8"))["trail"], sizes)
            return problems + check_rewritten(out.read_text(encoding="utf-8"),
                                              expected)

        commands.append(Command(
            ["apply", str(skd), str(skm), "--gamma", ",".join(gamma),
             "-o", str(out), "--trail", str(trail)],
            len(script), _expect_ok(apply_check)))

    params = {"budget": list(vars(REWRITE_BUDGET).values()),
              "sites": REWRITE_SITES, "moves": sum(kinds.values()),
              "parts": [c.work for c in commands],
              "gamma": len(gamma), "triples": start.triple_points,
              "kib": round(skd.stat().st_size / 1024, 1), "kinds": kinds}
    return Workload("rewrite", "moves", commands, params)


# -- ingest --------------------------------------------------------------

def _full_flip_text(text: str) -> str:
    """Canonical text changed along the union of all curves: every line of
    every triple point flips, so each line type is relabelled by the sheet
    permutation role_permutation gives for flipping all three."""
    perm = role_permutation(frozenset(LineType))
    relabel = {lt.value: TYPE_OF_PAIR[frozenset(perm[r] for r in SHEET_PAIR[lt])].value
               for lt in LineType}
    return re.sub(r"(?m)^(triple \S+ lines=)(\w+),(\w+),(\w+)$",
                  lambda m: m[1] + ",".join(relabel[t] for t in m.groups()[1:]),
                  text)


INGEST_FILES = (("large", SizeBudget(5000, 10000, 10)),
                ("medium", SizeBudget(1000, 2000, 10)))


def setup_ingest(seed: int, work: Path) -> Workload:
    rng = _seeded_rng("ingest", seed)
    commands = []
    params = {}
    for label, budget in INGEST_FILES:
        cx = generate_random_complex(rng.randrange(2 ** 31), budget)
        text = serialize_canonical(cx)
        skd = work / f"ingest-{label}.skd"
        skd.write_text(text, encoding="utf-8")
        doc = SkdText.parse(text)
        census = doc.census()
        budget_census = (budget.triples, budget.branches,
                         (6 * budget.triples + budget.branches) // 2,
                         budget.circles, budget.branches // 2)
        if budget_census != (census.triple_points, census.branch_points,
                             census.arc_edges, census.circles,
                             census.open_curves):
            raise RuntimeError(f"ingest {label}: generated census {census} "
                               f"does not match the budget {budget}")
        fp = sha256_text(text)
        gamma = sorted(min(edges) for edges, _ in doc.curves())
        changed, dot = work / f"ingest-{label}.cc.skd", work / f"ingest-{label}.dot"
        arcs = census.arc_edges

        def change_back(out_text, gamma=gamma, memo={}):
            # outputs repeat byte for byte across passes: re-check each
            # distinct text once
            key = sha256_text(out_text)
            if key not in memo:
                memo[key] = fingerprint(crossing_change(parse_skd(out_text),
                                                        gamma))
            return memo[key]

        def cc_check(stdout, changed=changed, fp=fp,
                     expected=sha256_text(_full_flip_text(text)),
                     change_back=change_back):
            return check_crossing_change(
                json.loads(stdout), changed.read_text(encoding="utf-8"),
                expected, fp, change_back)

        def fp_check(stdout, fp=fp):
            got = json.loads(stdout)["fingerprint"]
            return [] if got == fp else [f"fingerprint {got} != {fp}"]

        commands += [
            Command(["validate", str(skd)], arcs, _expect_ok(lambda s: [])),
            Command(["census", str(skd), "--json"], arcs, _expect_ok(
                lambda s, c=census: check_census(json.loads(s), c))),
            Command(["trace", str(skd), "--json"], arcs, _expect_ok(
                lambda s, c=census: check_trace(json.loads(s), c))),
            Command(["fingerprint", str(skd), "--json"], arcs,
                    _expect_ok(fp_check)),
            Command(["crossing-change", str(skd), "--gamma", ",".join(gamma),
                     "-o", str(changed), "--json"], arcs, _expect_ok(cc_check)),
            Command(["schematic", str(skd), "-o", str(dot)], arcs, _expect_ok(
                lambda s, c=census, dot=dot: check_schematic(
                    dot.read_text(encoding="utf-8"), c))),
        ]
        params[label] = {"budget": list(vars(budget).values()), "arcs": arcs,
                         "curves": len(gamma),
                         "kib": round(len(text.encode()) / 1024, 1)}
    return Workload("ingest", "arcs", commands, params)


SETUP = {"du-scan": setup_du_scan, "rewrite": setup_rewrite,
         "ingest": setup_ingest}
