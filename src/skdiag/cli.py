"""Command-line driver.

Exit codes: 0 for success and true verdicts, 1 for false verdicts (an
invalid complex, a non-exchangeable union, a failed dd check), 2 for input
and structural errors. Every subcommand takes ``--json`` for a
machine-readable report with a top-level ``format_version`` field.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from .errors import DiagramError, NotExchangeableError, ParseError, UnknownIdError

# Each subcommand imports the layers it calls where it calls them, so a
# command loads only the modules it runs (reading a file never loads the
# move engine or the union scan).

FORMAT_VERSION = 1

OK, FALSE_VERDICT, ERROR = 0, 1, 2

# compact: without ``indent``, json runs its C encoder
_JSON = {"sort_keys": True, "separators": (",", ":")}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DiagramError(f"cannot read {path}: {exc}") from exc


def _load_document(path: str):
    from .formats import parse_skd_document

    try:
        return parse_skd_document(_read(path))
    except ParseError as exc:
        for line, col, message in exc.diagnostics:
            print(f"{path}:{line}:{col}: {message}", file=sys.stderr)
        raise SystemExit(ERROR) from exc


def _load_oracle(doc, oracle_path: str | None):
    from .explorer import TrivialityOracle

    oracle = TrivialityOracle.from_mapping(doc.oracle)
    if oracle_path:
        sidecar = _load_document(oracle_path)
        oracle = oracle.merged_with(TrivialityOracle.from_mapping(sidecar.oracle))
    return oracle


def _resolve_gamma(cx, selector: str | None) -> frozenset[str]:
    """Curve selection: comma-separated curve ids; an edge id selects the
    curve containing it. The empty string is the empty union."""
    if not selector:
        return frozenset()
    out = set()
    for token in selector.split(","):
        token = token.strip()
        if not token:
            continue
        if token in cx.curves_by_id:
            out.add(token)
        elif token in cx.edges_by_id:
            out.add(cx.curve_of(token))
        else:
            raise UnknownIdError(f"--gamma: no curve or edge named {token!r}")
    return frozenset(out)


def _emit(args, payload: dict, human: Callable[[], list[str]]) -> None:
    """Print the payload under --json, else the lines ``human()`` builds."""
    if args.json:
        print(json.dumps({"format_version": FORMAT_VERSION, **payload}, **_JSON))
    else:
        for line in human():
            print(line)


def _to_file(args) -> bool:
    return bool(args.output) and args.output != "-"


def _write_out(args, text: str, payload: dict) -> None:
    """Write produced text to -o, or to stdout (embedded under --json)."""
    if _to_file(args):
        Path(args.output).write_text(text, encoding="utf-8")
    elif args.json:
        payload["text"] = text
    else:
        sys.stdout.write(text)


def _size(token: str) -> int:
    if not token.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, not {token!r}")
    return int(token)


# -- subcommands ------------------------------------------------------------


def _cmd_validate(args) -> int:
    from .formats import parse_skd_document
    from .singularity import validate

    # syntax problems are input errors (exit 2); a parseable complex that
    # violates invariants is a false verdict (exit 1)
    try:
        doc = parse_skd_document(_read(args.skd), check=False)
    except ParseError as exc:
        for line, col, message in exc.diagnostics:
            print(f"{args.skd}:{line}:{col}: {message}", file=sys.stderr)
        return ERROR
    report = validate(doc.complex)
    _emit(args,
          {"command": "validate", "ok": report.ok,
           "diagnostics": [{"code": v.code, "message": v.message}
                           for v in report.violations]},
          lambda: [f"{args.skd}: well-formed complex"] if report.ok
          else [f"{args.skd}: {v.message}" for v in report.violations])
    return OK if report.ok else FALSE_VERDICT


def _cmd_trace(args) -> int:
    from .formats import curve_summary

    cx = _load_document(args.skd).complex
    curves = [{"id": c.id, "kind": c.kind.value, "edges": list(c.edges)}
              for c in cx.curves]
    _emit(args, {"command": "trace", "curves": curves}, lambda: curve_summary(cx))
    return OK


def _cmd_census(args) -> int:
    from .singularity import census

    cx = _load_document(args.skd).complex
    counts = census(cx)._asdict()
    _emit(args, {"command": "census", "counts": counts},
          lambda: [f"{k}: {v}" for k, v in counts.items()])
    return OK


def _cmd_check_exchangeable(args) -> int:
    from .crossing import first_invalid_flip

    cx = _load_document(args.skd).complex
    gamma = _resolve_gamma(cx, args.gamma)
    bad = first_invalid_flip(cx, gamma)
    ok = bad is None
    payload = {"command": "check-exchangeable", "gamma": sorted(gamma),
               "exchangeable": ok,
               "failing_triple": None if ok else bad.triple_id}

    def human():
        if ok:
            return [f"exchangeable: yes ({len(gamma)} curve(s))"]
        types = ", ".join(sorted(t.value for t in bad.flipped_types))
        return [f"exchangeable: no (flip set {{{types}}} at triple point "
                f"{bad.triple_id} is invalid)"]
    _emit(args, payload, human)
    return OK if ok else FALSE_VERDICT


def _cmd_check_dd(args) -> int:
    from .crossing import satisfies_dd_condition

    cx = _load_document(args.skd).complex
    gamma = _resolve_gamma(cx, args.gamma)
    ok = satisfies_dd_condition(cx, gamma)
    _emit(args, {"command": "check-dd", "gamma": sorted(gamma), "dd": ok},
          lambda: [f"descendent disk condition: {'yes' if ok else 'no'}"])
    return OK if ok else FALSE_VERDICT


def _cmd_crossing_change(args) -> int:
    from .canonical import digest, serialize_canonical
    from .crossing import crossing_change

    cx = _load_document(args.skd).complex
    gamma = _resolve_gamma(cx, args.gamma)
    try:
        changed = crossing_change(cx, gamma)
    except NotExchangeableError as exc:
        print(f"crossing-change: {exc}", file=sys.stderr)
        return FALSE_VERDICT
    # serialized once: the fingerprint is the digest of the written text
    text = serialize_canonical(changed)
    fp = digest(text)
    payload = {"command": "crossing-change", "gamma": sorted(gamma),
               "output": args.output, "fingerprint": fp}
    _write_out(args, text, payload)
    _emit(args, payload, lambda: [f"fingerprint: {fp}"] if _to_file(args) else [])
    return OK


def _cmd_apply(args) -> int:
    from .canonical import digest, serialize_canonical
    from .formats import parse_skm
    from .moves import apply_sequence

    cx = _load_document(args.skd).complex
    moves = parse_skm(_read(args.skm))
    gamma = _resolve_gamma(cx, args.gamma)
    result = apply_sequence(cx, gamma, moves)
    trail = [{"index": t.index, "kind": t.kind, "fingerprint": t.fingerprint,
              "gamma": list(t.gamma), "exchangeable": t.exchangeable,
              "dd": t.dd} for t in result.trail]
    if args.trail:
        Path(args.trail).write_text(
            json.dumps({"format_version": FORMAT_VERSION, "trail": trail}, **_JSON)
            + "\n", encoding="utf-8")
    text = serialize_canonical(result.complex)
    fp = digest(text)
    payload = {"command": "apply", "moves": len(moves),
               "gamma": sorted(result.gamma), "fingerprint": fp, "trail": trail}
    _write_out(args, text, payload)
    _emit(args, payload, lambda: [
        f"applied {len(moves)} move(s); gamma: "
        + (",".join(sorted(result.gamma)) or "(empty)"),
        f"fingerprint: {fp}"] if _to_file(args) else [])
    return OK


def _union_rows(report, verdicts: bool) -> list[dict]:
    return [{"gamma": list(w.gamma), "size": w.size, "dd": w.dd}
            | ({"verdict": w.verdict.value} if verdicts else {})
            for w in report.witnesses]


def _cmd_enumerate(args) -> int:
    from .explorer import du_index_upper_bound

    doc = _load_document(args.skd)
    with_verdicts = args.oracle is not None or bool(doc.oracle)
    report = du_index_upper_bound(doc.complex, _load_oracle(doc, args.oracle),
                                  max_size=args.max_size)
    rows = _union_rows(report, with_verdicts)
    _emit(args, {"command": "enumerate", "unions": rows}, lambda: [
        f"size={r['size']} gamma={','.join(r['gamma']) or '(empty)'} "
        f"dd={'yes' if r['dd'] else 'no'}"
        + (f" verdict={r['verdict']}" if with_verdicts else "") for r in rows])
    return OK


def _cmd_du_bound(args) -> int:
    from .explorer import Verdict, du_index_upper_bound

    doc = _load_document(args.skd)
    oracle = _load_oracle(doc, args.oracle)
    report = du_index_upper_bound(doc.complex, oracle, max_size=args.max_size)
    rows = _union_rows(report, verdicts=True)

    def human():
        lines = [f"note: {report.note}"]
        if report.best_size is None:
            lines.append("best_size: unknown (no annotated trivial result)")
        else:
            witness = report.best_witness()
            lines.append(f"best_size: {report.best_size} "
                         f"(gamma={','.join(witness.gamma) or '(empty)'})")
        for w in report.witnesses:
            if w.dd and w.verdict is not Verdict.UNKNOWN:
                lines.append(f"  size={w.size} gamma={','.join(w.gamma) or '(empty)'}"
                             f" -> {w.verdict.value}")
        return lines
    _emit(args,
          {"command": "du-bound", "best_size": report.best_size,
           "note": report.note, "witnesses": rows}, human)
    return OK


def _cmd_schematic(args) -> int:
    from .formats import export_schematic

    cx = _load_document(args.skd).complex
    payload = {"command": "schematic", "output": args.output}
    _write_out(args, export_schematic(cx), payload)
    _emit(args, payload, lambda: [f"wrote {args.output}"] if _to_file(args) else [])
    return OK


def _cmd_fingerprint(args) -> int:
    from .canonical import fingerprint

    cx = _load_document(args.skd).complex
    fp = fingerprint(cx)
    _emit(args, {"command": "fingerprint", "fingerprint": fp}, lambda: [fp])
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skdiag",
        description="Surface-knot diagram singularity-set toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("skd", help=".skd diagram file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, help="check structural invariants")
    add("trace", _cmd_trace, help="list the traced double curves")
    add("census", _cmd_census, help="point/edge/curve counts")

    p = add("check-exchangeable", _cmd_check_exchangeable,
            help="is the union exchangeable?")
    p.add_argument("--gamma", default="", help="comma-separated curve or edge ids")

    p = add("check-dd", _cmd_check_dd,
            help="does the union satisfy the descendent disk condition?")
    p.add_argument("--gamma", default="")

    p = add("crossing-change", _cmd_crossing_change,
            help="apply the crossing change along a union")
    p.add_argument("--gamma", default="")
    p.add_argument("-o", "--output", default=None, help="output .skd path")

    p = add("apply", _cmd_apply, help="apply a t-descendent move script")
    p.add_argument("skm", help=".skm move script")
    p.add_argument("--gamma", default="")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--trail", default=None, help="write the per-move trail (JSON)")

    p = add("enumerate", _cmd_enumerate, help="list exchangeable unions")
    p.add_argument("--max-size", type=_size, default=None)
    p.add_argument("--oracle", default=None, help="triviality annotation file")

    p = add("du-bound", _cmd_du_bound,
            help="du-exchange-index upper bound against an oracle")
    p.add_argument("--oracle", default=None, help="triviality annotation file")
    p.add_argument("--max-size", type=_size, default=None)

    p = add("schematic", _cmd_schematic, help="export a DOT schematic")
    p.add_argument("-o", "--output", default=None)

    add("fingerprint", _cmd_fingerprint, help="canonical fingerprint")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else ERROR
    except ParseError as exc:
        for line, col, message in exc.diagnostics:
            print(f"{line}:{col}: {message}", file=sys.stderr)
        return ERROR
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    raise SystemExit(main())
