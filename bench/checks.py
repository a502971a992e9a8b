"""Correctness checks for the benchmark's workloads.

Every check is a pure function from a command's output (and the reference
that set-up computed) to a list of problems; an empty list means the output
is correct. The `.skd` reader below is deliberately independent of
``skdiag``: it recomputes counts, slot coverage and curve membership from
the text alone, so a program defect cannot hide behind itself.
"""

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class SkdCensus:
    triple_points: int
    branch_points: int
    arc_edges: int
    circles: int
    open_curves: int
    closed_curves: int


@dataclass(frozen=True)
class SkdText:
    """The records of one `.skd` text, as plain tuples."""

    triples: dict        # id -> tuple of three line-type tokens
    branches: tuple      # ids
    arcs: dict           # id -> (end1 token, end2 token)
    circles: tuple       # ids

    @classmethod
    def parse(cls, text: str) -> "SkdText":
        triples, arcs = {}, {}
        branches, circles = [], []
        for raw in text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            kind = tokens[0]
            if kind == "triple":
                triples[tokens[1]] = tuple(tokens[2].removeprefix("lines=").split(","))
            elif kind == "branch":
                branches.append(tokens[1])
            elif kind == "edge":
                arcs[tokens[1]] = (tokens[2], tokens[3])
            elif kind == "circle":
                circles.append(tokens[1])
            elif kind not in ("disk", "oracle"):
                raise ValueError(f"unknown record {kind!r}")
        return cls(triples, tuple(branches), arcs, tuple(circles))

    def problems(self) -> list[str]:
        """Structural violations: slot/branch coverage, line-type
        bijections and the counting identity 2*arcs = 6*triples + branches."""
        out = []
        uses: dict[str, int] = {}
        for ends in self.arcs.values():
            for end in ends:
                uses[end] = uses.get(end, 0) + 1
        expected = {f"T:{t}.{line}.{slot}" for t in self.triples
                    for line in range(3) for slot in "ab"}
        expected.update(f"B:{b}" for b in self.branches)
        for ref in sorted(expected):
            if uses.get(ref, 0) != 1:
                out.append(f"endpoint {ref} used {uses.get(ref, 0)} times")
        for ref in sorted(set(uses) - expected):
            out.append(f"endpoint {ref} does not exist")
        for tid, types in self.triples.items():
            if sorted(types) != ["bm", "bt", "mt"]:
                out.append(f"triple {tid}: line types {types} are not a bijection")
        if 2 * len(self.arcs) != 6 * len(self.triples) + len(self.branches):
            out.append("counting identity 2*arcs = 6*triples + branches fails")
        return out

    def curves(self) -> list[tuple[set, bool]]:
        """Edge sets of the double curves, with an is-open flag: two edges
        belong to one curve when they occupy the two slots of a line."""
        parent = {e: e for e in self.arcs}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        at_line: dict[str, str] = {}
        for eid, ends in self.arcs.items():
            for end in ends:
                if end.startswith("T:"):
                    line = end[:-2]
                    other = at_line.setdefault(line, eid)
                    if other != eid:
                        parent[find(eid)] = find(other)
        groups: dict[str, set] = {}
        for eid in self.arcs:
            groups.setdefault(find(eid), set()).add(eid)
        out = []
        for members in groups.values():
            is_open = any(end.startswith("B:")
                          for e in members for end in self.arcs[e])
            out.append((members, is_open))
        out.extend(({c}, False) for c in self.circles)
        return out

    def census(self) -> SkdCensus:
        curves = self.curves()
        n_open = sum(1 for _, is_open in curves if is_open)
        return SkdCensus(len(self.triples), len(self.branches), len(self.arcs),
                         len(self.circles), n_open, len(curves) - n_open)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- du-scan -------------------------------------------------------------


def check_unions(rows: list[dict], reference: dict[tuple, bool],
                 label: str) -> list[str]:
    """Rows of an `enumerate`/`du-bound` report against the reference map
    from each exchangeable union (sorted curve ids) to its dd flag."""
    got = {tuple(sorted(r["gamma"])): r["dd"] for r in rows}
    out = []
    if len(rows) != len(reference) or len(got) != len(rows):
        out.append(f"{label}: {len(rows)} unions reported, "
                   f"reference has {len(reference)}")
    missing = sorted(set(reference) - set(got))
    extra = sorted(set(got) - set(reference))
    if missing:
        out.append(f"{label}: {len(missing)} exchangeable union(s) missing, "
                   f"e.g. {missing[0]}")
    if extra:
        out.append(f"{label}: {len(extra)} non-exchangeable union(s) reported, "
                   f"e.g. {extra[0]}")
    wrong_dd = [g for g in set(got) & set(reference) if got[g] != reference[g]]
    if wrong_dd:
        out.append(f"{label}: dd flag wrong for {len(wrong_dd)} union(s)")
    return out


def check_du_bound(payload: dict, reference: dict[tuple, bool],
                   planted_size: int, trivial: set[str],
                   changed_fingerprint) -> list[str]:
    """A `du-bound --json` report: the witness set matches the reference,
    best_size is at most the planted size and agrees with the witnesses,
    and the best witness's crossing change (fingerprinted by the caller's
    function) is an annotated trivial diagram."""
    out = check_unions(payload["witnesses"], reference, "du-bound")
    best = payload["best_size"]
    if best is None or best > planted_size:
        out.append(f"du-bound: best_size {best} exceeds the planted size "
                   f"{planted_size}")
        return out
    trivial_rows = [r for r in payload["witnesses"]
                    if r["dd"] and r["verdict"] == "trivial"]
    if not trivial_rows:
        out.append("du-bound: best_size given but no trivial witness reported")
        return out
    witness = min(trivial_rows, key=lambda r: (r["size"], sorted(r["gamma"])))
    if witness["size"] != best or len(witness["gamma"]) != best:
        out.append(f"du-bound: best_size {best} but the smallest trivial "
                   f"witness has size {witness['size']}")
    if changed_fingerprint(tuple(sorted(witness["gamma"]))) not in trivial:
        out.append(f"du-bound: crossing change along {witness['gamma']} is "
                   "not an annotated trivial diagram")
    return out


# -- rewrite -------------------------------------------------------------


def check_trail(trail: list[dict], sizes: list[int]) -> list[str]:
    """One entry per move, each exchangeable and dd-satisfying, carrying a
    union of the size the script implies after that move."""
    out = []
    if len(trail) != len(sizes):
        out.append(f"apply: trail has {len(trail)} entries for {len(sizes)} moves")
    for entry, size in zip(trail, sizes):
        if not (entry["exchangeable"] and entry["dd"]):
            out.append(f"apply: trail entry {entry['index']} ({entry['kind']}) "
                       f"exchangeable={entry['exchangeable']} dd={entry['dd']}")
            break
        if len(entry["gamma"]) != size:
            out.append(f"apply: trail entry {entry['index']} ({entry['kind']}) "
                       f"carries {len(entry['gamma'])} curves, expected {size}")
            break
    return out


def check_rewritten(text: str, expected: SkdCensus) -> list[str]:
    """The final complex is well-formed and its census is the input's
    census plus the deltas the move script implies."""
    doc = SkdText.parse(text)
    out = [f"apply output: {p}" for p in doc.problems()[:5]]
    got = doc.census()
    if got != expected:
        out.append(f"apply output: census {got} != expected {expected}")
    return out


# -- ingest --------------------------------------------------------------


def check_census(payload: dict, expected: SkdCensus) -> list[str]:
    got = payload["counts"]
    want = vars(expected)
    if got != want:
        return [f"census: {got} != expected {want}"]
    return []


def check_trace(payload: dict, expected: SkdCensus) -> list[str]:
    curves = payload["curves"]
    n_edges = sum(len(c["edges"]) for c in curves)
    out = []
    if len(curves) != expected.open_curves + expected.closed_curves:
        out.append(f"trace: {len(curves)} curves, expected "
                   f"{expected.open_curves + expected.closed_curves}")
    if n_edges != expected.arc_edges + expected.circles:
        out.append(f"trace: curves cover {n_edges} edges, expected "
                   f"{expected.arc_edges + expected.circles}")
    return out


def check_schematic(text: str, expected: SkdCensus) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("graph ") or lines[-1] != "}":
        return ["schematic: not a DOT graph"]
    n_edges = sum(1 for line in lines if " -- " in line)
    if n_edges != expected.arc_edges + expected.circles:
        return [f"schematic: {n_edges} graph edges, expected "
                f"{expected.arc_edges + expected.circles}"]
    return []


def check_crossing_change(payload: dict, text: str, expected_fingerprint: str,
                          input_fingerprint: str, change_back) -> list[str]:
    """The written text is the expected changed diagram and its reported
    fingerprint is the text's hash; changing it again along the same union
    (``change_back(text)``, which re-parses it and returns the fingerprint)
    restores the input."""
    out = []
    got = sha256_text(text)
    if payload["fingerprint"] != got:
        out.append("crossing-change: reported fingerprint is not the output's")
    if got != expected_fingerprint:
        out.append("crossing-change: output is not the input with every "
                   "triple point relabelled by the full flip")
    if change_back(text) != input_fingerprint:
        out.append("crossing-change: changing the output again along the "
                   "same union does not restore the input")
    return out
