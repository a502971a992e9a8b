"""In-process span tracer for the traced run.

The traced run executes each workload command through ``skdiag.cli.main``
in this process. While a :class:`Tracer` is installed, the public functions
of each layer are replaced, in every ``skdiag`` module that refers to them,
by wrappers that record a span (name, parent span, command index, start,
end) and a few counters derived from arguments and results. Nothing inside
``src/`` is changed; uninstalling restores every replaced reference.

Calls that a layer makes to another layer show up as child spans (for
example ``singularity.trace_curves`` under ``moves.apply.R6``), so a
span's self time is its duration minus the time of its children.
"""

import sys
import time
from dataclasses import dataclass, field
from math import comb

import skdiag.cli
import skdiag.explorer
import skdiag.moves
from skdiag.errors import MoveRejected

# (module, function) pairs wrapped under the name "<module>.<function>"
LAYER_FUNCTIONS = (
    ("formats", "parse_skd_document"),
    ("formats", "parse_skm"),
    ("formats", "export_schematic"),
    ("singularity", "validate"),
    ("singularity", "trace_curves"),
    ("singularity", "census"),
    ("crossing", "is_exchangeable"),
    ("crossing", "satisfies_dd_condition"),
    ("crossing", "crossing_change"),
    ("canonical", "fingerprint"),
    ("canonical", "serialize_canonical"),
    ("explorer", "enumerate_exchangeable"),
    ("explorer", "du_index_upper_bound"),
    ("moves", "apply_sequence"),
)

# Move kinds the rewrite script uses; each move is timed as
# "moves.apply.<KIND>" around the engine's per-move step (moves._apply).
MOVE_KINDS = ("R1_PLUS", "R1_MINUS", "R2_MINUS", "R4_PLUS", "R4_MINUS",
              "R5_MINUS", "R6")

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in LAYER_FUNCTIONS) \
    + ("explorer.oracle_lookup",) + tuple(f"moves.apply.{k}" for k in MOVE_KINDS)

# counters reported per pass; explorer.candidates is fixed by the input,
# the sum over scans of C(n, k) for every scanned size k
COUNTERS = ("singularity.edges_traced", "explorer.candidates",
            "explorer.exchangeable", "explorer.dd_passing",
            "explorer.verdict.trivial", "explorer.verdict.nontrivial",
            "explorer.verdict.unknown", "moves.rejected")


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    command: int
    start: float
    end: float = 0.0
    error: str | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    command: int = 0
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        rec = Span(name, self._stack[-1] if self._stack else None,
                   self.command, 0.0)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            result = self.span(name if isinstance(name, str) else name(*args),
                               fn, *args, **kwargs)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("skdiag") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        observers = {
            "singularity.trace_curves": lambda curves, *a, **k: self.count(
                "singularity.edges_traced", sum(len(c.edges) for c in curves)),
            "crossing.is_exchangeable": lambda ok, *a, **k: self.count(
                "crossing.exchangeable", int(ok)),
            "explorer.enumerate_exchangeable": self._observe_enumerate,
            "explorer.du_index_upper_bound": self._observe_du_bound,
        }
        # a function the program no longer has is skipped: its spans read 0
        for mod, fn_name in LAYER_FUNCTIONS:
            name = f"{mod}.{fn_name}"
            original = getattr(sys.modules.get(f"skdiag.{mod}"), fn_name, None)
            if original is not None:
                self._replace_everywhere(
                    original, self._wrap(name, original, observers.get(name)))
        self._set(skdiag.explorer.TrivialityOracle, "lookup",
                  "explorer.oracle_lookup", lambda verdict, *a, **k: self.count(
                      f"explorer.verdict.{verdict.value}"))
        self._set(skdiag.moves, "_apply",
                  lambda cx, move: f"moves.apply.{move.kind.name}")

    def _set(self, owner, attr: str, name, observe=None) -> None:
        original = getattr(owner, attr, None)
        if original is not None:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def _observe_enumerate(self, unions, cx, max_size=None, *args, **kwargs):
        n = len(cx.curves_by_id)
        limit = n if max_size is None else min(max_size, n)
        self.count("explorer.candidates", sum(comb(n, k) for k in range(limit + 1)))
        self.count("explorer.exchangeable", len(unions))

    def _observe_du_bound(self, report, *args, **kwargs):
        self.count("explorer.du_exchangeable", len(report.witnesses))
        self.count("explorer.dd_passing", sum(w.dd for w in report.witnesses))

    def run_command(self, argv: list[str]) -> int:
        """``skdiag.cli.main(argv)`` inside a root span ``cli.<command>``."""
        return self.span(f"cli.{argv[0]}", skdiag.cli.main, argv)

    def rejected(self) -> int:
        """Moves the engine rejected (a MoveRejected escaping moves._apply)."""
        return sum(1 for s in self.spans if s.name.startswith("moves.apply.")
                   and s.error == MoveRejected.__name__)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - c)
        return out

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s.end - s.start)
        return out
