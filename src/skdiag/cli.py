"""Command-line driver.

Exit codes: 0 for success and true verdicts, 1 for false verdicts (an
invalid complex, a non-exchangeable union, a failed dd check), 2 for input
and structural errors and failed reads or writes. ``--json`` gives every
subcommand's machine-readable report, with a top-level ``format_version``.
"""

import gc
import os
import re
import sys
from types import SimpleNamespace

from .errors import DiagramError, NotExchangeableError, ParseError, UnknownIdError

# Each subcommand imports the layers it calls where it calls them, so a
# command loads only the modules it runs (reading a file never loads the
# move engine or the union scan).

FORMAT_VERSION = 1

OK, FALSE_VERDICT, ERROR = 0, 1, 2


def _dumps(value) -> str:
    """Compact JSON text with sorted keys: without ``indent``, json runs its C encoder."""
    import json  # here, so that a command that writes no JSON never loads it
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read().removeprefix("\ufeff")  # a UTF-8 byte-order mark
    except (OSError, UnicodeDecodeError) as exc:
        raise DiagramError(f"cannot read {path}: {exc}") from exc


def _parsed(path: str, parse, **kw):
    """``parse`` of the file's text; its diagnostics print as
    ``path:line:col: message``, and the command exits 2."""
    try:
        return parse(_read(path), **kw)
    except ParseError as exc:
        for line, col, message in exc.diagnostics:
            print(f"{path}:{line}:{col}: {message}", file=sys.stderr)
        raise SystemExit(ERROR) from exc


def _load_document(path: str):
    from .formats import parse_skd_document

    return _parsed(path, parse_skd_document)


def _resolve_gamma(cx, selector: str) -> frozenset[str]:
    """Curve selection: comma-separated curve ids; an edge id selects the
    curve containing it. The empty string is the empty union."""
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


def _emit(args, payload: dict, human, rows=None) -> None:
    """Print the payload under --json, after its ``format_version`` and ``command``, else
    the lines ``human()`` builds. ``rows``, a (key, JSON texts) pair, is an array written
    after the payload's keys, which its key must sort after."""
    if args.json:
        text = _dumps({"format_version": FORMAT_VERSION, "command": args.command, **payload})
        if rows is not None:
            text = f'{text[:-1]},"{rows[0]}":[{",".join(rows[1])}]}}'
        print(text)
    else:
        for line in human():
            print(line)


def _produce(args, payload: dict, text: str, human, *files) -> None:
    """Route a command's produced ``text`` to -o, else to stdout (under --json, into the
    payload). The other ``files`` (path, text), such as --trail's, are written with -o's,
    all or none, before anything prints. The report follows, whose ``human`` lines
    print only when the text went to -o."""
    to_file = args.output not in (None, "", "-")
    if to_file or files:
        from .output import write_files

        write_files([(args.output, text), *files] if to_file else [*files])
    if not to_file:
        if args.json:
            payload["text"] = text
        else:
            sys.stdout.write(text)
        human = list  # with the text on stdout, the report has no lines
    _emit(args, payload, human)


def _size(token: str, name) -> int:
    return int(token) if token.isdecimal() else _usage(
        name, f"argument --max-size: must be a non-negative integer, not {token!r}")


# -- subcommands ------------------------------------------------------------


def _cmd_validate(args) -> int:
    from .formats import parse_skd_document
    from .singularity import validate

    # syntax problems are input errors (exit 2); a parseable complex that
    # violates invariants is a false verdict (exit 1)
    report = validate(_parsed(args.skd, parse_skd_document, check=False).complex)
    _emit(args, {"ok": report.ok, "diagnostics": [{"code": v.code, "message": v.message}
                                                 for v in report.violations]},
          lambda: [f"{args.skd}: well-formed complex"] if report.ok
          else [f"{args.skd}: {v.message}" for v in report.violations])
    return OK if report.ok else FALSE_VERDICT


def _cmd_trace(args) -> int:
    from .output import curve_summary

    cx = _load_document(args.skd).complex
    curves = [{"id": c.id, "kind": c.kind.value, "edges": list(c.edges)}
              for c in cx.curves]
    _emit(args, {"curves": curves}, lambda: curve_summary(cx))
    return OK


def _cmd_census(args) -> int:
    from .singularity import census

    cx = _load_document(args.skd).complex
    counts = census(cx)._asdict()
    _emit(args, {"counts": counts}, lambda: [f"{k}: {v}" for k, v in counts.items()])
    return OK


def _cmd_check_exchangeable(args) -> int:
    from .crossing import first_invalid_flip

    cx = _load_document(args.skd).complex
    gamma = _resolve_gamma(cx, args.gamma)
    bad = first_invalid_flip(cx, gamma)
    ok = bad is None
    _emit(args, {"gamma": sorted(gamma), "exchangeable": ok,
                 "failing_triple": None if ok else bad.triple_id},
          lambda: [f"exchangeable: yes ({len(gamma)} curve(s))" if ok
                   else f"exchangeable: no ({bad} is invalid)"])
    return OK if ok else FALSE_VERDICT


def _cmd_check_dd(args) -> int:
    from .crossing import satisfies_dd_condition

    cx = _load_document(args.skd).complex
    gamma = _resolve_gamma(cx, args.gamma)
    ok = satisfies_dd_condition(cx, gamma)
    _emit(args, {"gamma": sorted(gamma), "dd": ok},
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
    _produce(args, {"gamma": sorted(gamma), "output": args.output, "fingerprint": fp}, text,
             lambda: [f"fingerprint: {fp}"])
    return OK


def _cmd_apply(args) -> int:
    from .canonical import digest, serialize_canonical
    from .moves import apply_sequence
    from .skm import parse_skm

    cx = _load_document(args.skd).complex
    moves = _parsed(args.skm, parse_skm)
    gamma = _resolve_gamma(cx, args.gamma)
    result = apply_sequence(cx, gamma, moves)
    trail = [t._asdict() for t in result.trail]
    text = serialize_canonical(result.complex)
    fp = digest(text)
    files = ([(args.trail, _dumps({"format_version": FORMAT_VERSION, "trail": trail}) + "\n")]
             if args.trail else [])
    _produce(args, {"moves": len(moves), "gamma": sorted(result.gamma), "fingerprint": fp,
                    "trail": trail}, text,
             lambda: [f"applied {len(moves)} move(s); gamma: "
                      + (",".join(sorted(result.gamma)) or "(empty)"), f"fingerprint: {fp}"],
             *files)
    return OK


def _named(ids, union) -> str:
    return ",".join(map(ids.__getitem__, union)) or "(empty)"


def _rows(ids, records, verdicts: bool):
    """The JSON text of each witness record's row (keys sorted: dd, gamma,
    size, and the verdict when asked), each curve id quoted once."""
    from .explorer import Verdict

    quoted = [_dumps(c) for c in ids]
    head = ('{"dd":false,"gamma":[', '{"dd":true,"gamma":[')
    tail = {v: f',"verdict":{_dumps(v.value)}}}' if verdicts else "}" for v in Verdict}
    return (f'{head[dd]}{",".join(map(quoted.__getitem__, u))}],"size":{len(u)}{tail[v]}'
            for u, dd, v in records)


def _cmd_enumerate(args) -> int:
    from .explorer import EMPTY_ORACLE, du_records

    # no oracle: verdicts are du-bound's, so the scan never fingerprints
    ids, records = du_records(_load_document(args.skd).complex, EMPTY_ORACLE, args.max_size)
    _emit(args, {}, lambda: [
        f"size={len(u)} gamma={_named(ids, u)} dd={'yes' if dd else 'no'}"
        for u, dd, _ in records], ("unions", _rows(ids, records, verdicts=False)))
    return OK


def _cmd_du_bound(args) -> int:
    from .explorer import DIAGRAM_BOUND_NOTE, TrivialityOracle, Verdict, best_union, du_records

    doc = _load_document(args.skd)
    oracle = TrivialityOracle.from_mapping(doc.oracle)
    if args.oracle:
        sidecar = _load_document(args.oracle)
        oracle = oracle.merged_with(TrivialityOracle.from_mapping(sidecar.oracle))
    ids, records = du_records(doc.complex, oracle, args.max_size)
    records = list(records)
    best = best_union(records)

    def human():
        return [f"note: {DIAGRAM_BOUND_NOTE}",
                "best_size: unknown (no annotated trivial result)" if best is None
                else f"best_size: {len(best)} (gamma={_named(ids, best)})"] + [
            f"  size={len(u)} gamma={_named(ids, u)} -> {v.value}"
            for u, dd, v in records if dd and v is not Verdict.UNKNOWN]
    _emit(args, {"best_size": None if best is None else len(best),
                 "note": DIAGRAM_BOUND_NOTE}, human,
          ("witnesses", _rows(ids, records, verdicts=True)))
    return OK


def _cmd_schematic(args) -> int:
    from .output import export_schematic

    cx = _load_document(args.skd).complex
    _produce(args, {"output": args.output}, export_schematic(cx), lambda: [f"wrote {args.output}"])
    return OK


def _cmd_fingerprint(args) -> int:
    from .canonical import fingerprint

    cx = _load_document(args.skd).complex
    fp = fingerprint(cx)
    _emit(args, {"fingerprint": fp}, lambda: [fp])
    return OK


#: each option's strings, default and help; every command takes -h and --json
OPTIONS = {"help": ("-h/--help", None, "show this help and exit"),
           "json": ("--json", False, "machine-readable output"),
           "gamma": ("--gamma", "", "comma-separated curve or edge ids"),
           "output": ("-o/--output", None, "output file (- or none: stdout)"),
           "trail": ("--trail", None, "per-move trail file (JSON; -: stdout)"),
           "oracle": ("--oracle", None, "triviality annotation file"),
           "max_size": ("--max-size", None, "largest union size scanned")}
#: each command's help line, positionals, and options besides -h and --json
COMMANDS = {"validate": ("check structural invariants", "skd"),
            "trace": ("list the traced double curves", "skd"),
            "census": ("point/edge/curve counts", "skd"),
            "check-exchangeable": ("is the union exchangeable?", "skd", "gamma"),
            "check-dd": ("does the union satisfy the descendent disk condition?", "skd", "gamma"),
            "crossing-change": ("crossing change along a union", "skd", "gamma", "output"),
            "apply": ("apply a t-descendent move script", "skd skm", "gamma", "output", "trail"),
            "enumerate": ("list exchangeable unions", "skd", "max_size"),
            "du-bound": ("du-exchange-index bound from an oracle", "skd", "oracle", "max_size"),
            "schematic": ("export a DOT schematic", "skd", "output"),
            "fingerprint": ("canonical fingerprint", "skd")}


def _usage(name, text, code=ERROR):
    """Print a usage line and the help ``text``, or on stderr argparse's error ``text``; exit."""
    print(f"usage: skdiag {name or '<command>'} [options] {COMMANDS[name][1] if name else '...'}",
          f"skdiag {name}".rstrip() + f": error: {text}" if code else text, sep="\n",
          file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


#: an option string or the start of one, and its attached value (-oV, -o=V, --opt=V)
#: if any; no match for a value: -, a negative number, a word not starting with -
_OPTION = re.compile(r"(?s)(?!-\d+$|-\d*\.\d+$)(--[^=]*|-[^-])(?:(?=.)=?(.*))?").match


def parse_args(argv: list[str]) -> SimpleNamespace:
    """``argv`` as argparse read it: the command, then its positionals and options in any
    order to the first ``--``; an option takes its attached value or the next word; last wins."""
    name, opts, wanted, values, extras, rest = "", ["help"], ["command"], {}, [], iter(argv)
    took = False
    for arg in rest:
        m = opts and _OPTION(arg)
        o = m and next((o for o in opts if f"/{m[1]}" in "/" + OPTIONS[o][0]), None)
        before, took = took, not m and bool(wanted)  # whether a positional takes arg
        if arg == "--" and opts:
            opts = []  # the rest are positionals, a later -- too
            extras += [] if before or wanted else [arg]  # dropped beside a positional
        elif took:
            values[wanted.pop(0)] = arg
            if not name:
                if arg not in COMMANDS:
                    _usage("", f"argument command: invalid choice: {arg!r} "
                              f"(choose from {', '.join(map(repr, COMMANDS))})")
                name, opts, wanted = (arg, ["help", "json", *COMMANDS[arg][2:]],
                                      COMMANDS[arg][1].split())
                values |= {o: OPTIONS[o][1] for o in opts[1:]}
        elif not o:
            extras.append(arg)
        elif m[1] == "--" and len(opts) > 1:  # --=V: a bare -- prefixes each long option
            _usage(name, f"ambiguous option: {arg} could match "
                   + ", ".join(OPTIONS[k][0].split("/")[-1] for k in opts))
        elif o in ("help", "json") and arg.startswith(f"{m[1]}="):  # a flag given =V
            _usage(name, f"argument {OPTIONS[o][0]}: ignored explicit argument {m[2]!r}")
        elif o == "help":  # -hV too: Python 3.13 reads it as -h -V, 3.10-3.12 reject it
            _usage(name, "\n".join(f"  {k:20}{v}" for k, v in [OPTIONS[o][::2] for o in opts] + [
                (n, c[0]) for n, c in COMMANDS.items() if not name]), OK)
        elif o != "json" and (value := m[2]) is None and _OPTION(value := next(rest, "--")):
            _usage(name, f"argument {OPTIONS[o][0]}: expected one argument")
        else:
            values[o] = o == "json" or (_size(value, name) if o == "max_size" else value)
    if wanted:
        _usage(name, "the following arguments are required: " + ", ".join(wanted))
    if extras:
        _usage("", "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else ERROR
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


def run() -> None:
    """The process entry: ``main`` on ``sys.argv``, then flush stdout and end by ``os._exit``,
    skipping the interpreter's teardown and any ``atexit`` handler. It alone handles a failed
    or closed stdout or stderr (exit 2); a bug's exception propagates through the normal exit."""
    if sys.stdout is None:  # fd 1 was closed: a closed pipe before the first write
        os._exit(ERROR)
    sys.stderr = sys.stderr or open(os.devnull)  # fd 2 closed: read-only, each write fails
    # a buffered binary layer: under python -u a short write to a closed pipe passes unseen
    sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                      errors=sys.stdout.errors, closefd=False)
    gc.disable()  # a command's objects live until os._exit: nothing for it to reclaim
    try:
        try:
            code = main()
        except SystemExit as exc:  # -h, a rejected command line
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:  # what is still buffered is written nowhere
        code = ERROR
    except OSError as exc:  # no space left, an I/O error, on stdout or on stderr
        code = ERROR
        try:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        except OSError:  # stderr fails too
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
