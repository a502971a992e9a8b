"""skdiag benchmark: drive the CLI on seeded inputs and report metrics.

Usage, from the repository root:

    python3 bench/run.py --workload du-scan --seed 1 --seconds 38 --trace 0

Workloads: du-scan, rewrite, ingest (see workloads.py and README.md).

With ``--trace 0`` the run is a closed loop with one client: it runs the
workload's commands one after another as ``python -m skdiag.cli`` child
processes (``src`` on PYTHONPATH, interpreter start-up included) until
``--seconds`` have passed, checks every output, and reports the end-to-end
metrics, the timed ones scaled to a reference host (see REFERENCE_CAL_S).
With ``--trace 1`` it runs the same commands in this process through
``skdiag.cli.main``, alternating untraced passes with passes under the span
tracer, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is a JSON record with the run's metadata (seed, commit, Python, nproc,
input parameters, and each metric's median, quartiles and reps). The exit
code is 0 when every output passed its check, 1 when any failed, and 2
when the benchmark could not run.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3
STARTUP_REPS = 5
# child commands still running this long after start are killed, so a run
# ends in well under three minutes
HARD_LIMIT_S = 150.0

# The host's speed drifts by tens of percent over minutes, so the timed
# end-to-end metrics are scaled to a host of fixed speed. Each run times a
# fixed pure-Python task (calibration_s) before every set-up and every
# command, and multiplies its wall times by the square root of
# REFERENCE_CAL_S over the median of those calibration times. The square
# root because the commands slow down less than the pure-compute task when
# the host slows (start-up and memory stalls): on three sets of six to ten
# runs the fitted exponent was 0.56-0.76, and scaling by the full ratio
# left a spread of 0.06-0.13 where its square root left 0.05 (without
# scaling: 0.13-0.20). REFERENCE_CAL_S is about the task's median on a
# 2-vCPU Xeon VM with Python 3.11.7.
REFERENCE_CAL_S = 0.020

THROUGHPUT_NAME = {"candidates": "candidates_per_s", "moves": "moves_per_s",
                   "arcs": "arcs_per_s"}


def summary(values: list[float]) -> dict:
    """Median, quartiles and reps of a sample."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "reps": len(values)}


def tail(values: list[float]) -> dict:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond
    it (nearest rank), or none when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = max(0, min(n - 1, int(-(-pct * n // 100)) - 1))
            return {"pct": pct, "value": ordered[rank], "n": n}
    return {"pct": None, "value": None, "n": n}


def calibration_s() -> float:
    """Seconds a fixed pure-Python task takes now, with the garbage
    collector off: a bitmask scan in the manner of the union scan, then
    small objects built, hashed and sorted in the manner of the parsers.
    It is the benchmark's own code, so it does not change with skdiag."""
    masks = [((i * 37) % 4093, (i * 91) % 4091, (i * 53) % 4079)
             for i in range(48)]
    gc.disable()
    try:
        t0 = time.perf_counter()
        passing = 0
        for m in range(2048):
            for a, b, c in masks:
                if (m & a != 0) | (m & b != 0) << 1 | (m & c != 0) << 2 == 5:
                    break
            else:
                passing += 1
        table: dict[tuple, int] = {}
        for i in range(6000):
            key = (f"e{i % 997}", frozenset((i % 13, i % 7)))
            table[key] = table.get(key, 0) + 1
        sorted(f"{k[0]}:{v}" for k, v in table.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


class Runner:
    """Runs CLI commands as child processes and keeps the deadline."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.calibrations: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def calibrate(self) -> None:
        self.calibrations.append(calibration_s())

    def scale(self) -> float:
        """Factor that turns this run's wall times into reference-host
        times: below 1 when the host ran slower than the reference."""
        return (REFERENCE_CAL_S / statistics.median(self.calibrations)) ** 0.5

    def cli(self, argv: list[str]) -> tuple[int, str, float]:
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "skdiag.cli", *argv],
                              cwd=self.work, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 and proc.stderr:
            print(f"[{argv[0]}] {proc.stderr.strip()[:500]}", file=sys.stderr)
        return proc.returncode, proc.stdout, elapsed


class Outcome:
    """Attempted and failed operations; failures are printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, command, returncode: int, stdout: str) -> None:
        self.attempted += 1
        try:
            problems = command.check(returncode, stdout)
        except Exception:  # an unreadable output is a failed check
            problems = ["check raised:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"CHECK FAILED [{command.name}] {p}", file=sys.stderr)


def set_up(seed: int, work: Path, runner: Runner, setup_fn):
    """Set up ``SETUP_REPS`` times (inputs, references, one warm-up
    invocation each) and return the last workload and every duration."""
    times = []
    workload = None
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner.calibrate()
        t0 = time.perf_counter()
        workload = setup_fn(seed, work)
        returncode, _, _ = runner.cli(["--help"])
        if returncode != 0:
            raise RuntimeError("warm-up invocation failed")
        times.append(time.perf_counter() - t0)
    return workload, times


def measure_cli(workload, seconds: float, runner: Runner, outcome: Outcome):
    """Closed loop over the workload's commands, in order, until
    ``seconds`` have passed; returns each command's wall times, indexed
    like ``workload.commands``. Every command runs at least once, and the
    loop may stop inside a pass, so a run overruns by at most the one
    command it was in."""
    deadline = time.perf_counter() + seconds
    samples: list[list[float]] = [[] for _ in workload.commands]
    while True:
        for command, times in zip(workload.commands, samples):
            if times and time.perf_counter() >= deadline:
                return samples
            runner.calibrate()
            returncode, stdout, elapsed = runner.cli(command.argv)
            times.append(elapsed)
            outcome.record(command, returncode, stdout)


def in_process(command, tracer=None) -> tuple[int, str]:
    import skdiag.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            returncode = skdiag.cli.main(command.argv)
        else:
            returncode = tracer.run_command(command.argv)
    return returncode, out.getvalue()


def measure_traced(workload, seconds: float, outcome: Outcome):
    """After one untimed warm-up pass, alternate untraced and traced
    in-process passes while another pair still fits in ``seconds`` (the
    warm-up included; at least one pair); returns the pass times of each
    kind and the tracers of the traced passes."""
    from tracer import Tracer

    def run_pass(tracer=None) -> float:
        busy = 0.0
        for i, command in enumerate(workload.commands):
            if tracer is not None:
                tracer.command = i
            t0 = time.perf_counter()
            returncode, stdout = in_process(command, tracer)
            busy += time.perf_counter() - t0
            outcome.record(command, returncode, stdout)
        return busy

    deadline = time.perf_counter() + seconds
    run_pass()
    plain, traced, tracers = [], [], []
    while True:
        pair_start = time.perf_counter()
        plain.append(run_pass())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        now = time.perf_counter()
        if now + (now - pair_start) > deadline:
            return plain, traced, tracers


def layer_metrics(tracers, plain, traced, startup) -> tuple[dict, dict]:
    """Per-layer metrics (per traced pass) and the self-time shares."""
    from tracer import COUNTERS, SPAN_NAMES

    passes = len(tracers)
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for t in tracers:
        for name, values in t.durations().items():
            durations.setdefault(name, []).extend(values)
        for name, value in t.self_times().items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in t.counters.items():
            counters[name] = counters.get(name, 0) + value
        counters["moves.rejected"] = counters.get("moves.rejected", 0) + t.rejected()

    metrics = {"cli.startup_s": (statistics.median(startup), "s")}
    tails = {}
    for name in SPAN_NAMES:
        values = durations.get(name, [])
        metrics[f"{name}.s"] = (sum(values) / passes, "s")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
        metrics[f"{name}.calls"] = (len(values) / passes, "count")
        metrics[f"{name}.p50_us"] = (
            statistics.median(values) * 1e6 if values else 0.0, "us")
        tails[name] = tail(values)

    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0) / passes, "count")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["crossing.exchangeable_ratio"] = (ratio(
        counters.get("crossing.exchangeable", 0),
        len(durations.get("crossing.is_exchangeable", []))), "1")
    metrics["explorer.dd_ratio"] = (ratio(
        counters.get("explorer.dd_passing", 0),
        counters.get("explorer.du_exchangeable", 0)), "1")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%")

    total = sum(self_s.values())
    shares = {name: value / total for name, value in
              sorted(self_s.items(), key=lambda kv: -kv[1])} if total else {}
    return metrics, {"self_share": shares, "tails": tails}


def write_spans(tracer, name: str, seed: int) -> Path:
    """The last traced pass's spans, written when the run ends."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    names = sorted({s.name for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    rows = [[index[s.name], s.parent, s.command,
             round((s.start - t0) * 1e6, 1), round((s.end - s.start) * 1e6, 1),
             s.error] for s in tracer.spans]
    path.write_text(json.dumps(
        {"fields": ["name", "parent", "command", "start_us", "dur_us", "error"],
         "names": names, "spans": rows}), encoding="utf-8")
    return path


def end_to_end(workload, setup_times, seconds, runner, outcome):
    samples = measure_cli(workload, seconds, runner, outcome)
    # throughput of the typical pass: one pass's work over the sum of each
    # command's median time, so a slow spell in one pass moves only the
    # commands it overlapped
    work_total = sum(c.work for c in workload.commands)
    medians = [statistics.median(t) for t in samples]
    every = [v for times in samples for v in times]
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    scale = runner.scale()
    metrics = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "work_per_s": (work_total / (sum(medians) * scale), "1/s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    per_command: dict[str, list[float]] = {}
    for command, times in zip(workload.commands, samples):
        per_command.setdefault(command.name, []).extend(times)
    # the times below are wall times, not scaled
    stats = {"scale": scale, "calibration_s": summary(runner.calibrations),
             "wall_setup_s": summary(setup_times),
             "wall_work_per_s": work_total / sum(medians),
             "wall_work_per_s_by_pass": summary(
                 [work_total / sum(p) for p in zip(*samples)]),
             # printed, not declared: it rests on one or two commands'
             # medians, so it spreads more from run to run than work_per_s
             "cmd_p50_s": {"value": statistics.median(medians) * scale,
                           "invocations": len(every),
                           "wall_pooled": summary(every)},
             "wall_cmd_tail_s": tail(every),
             "wall_per_command_s": {k: summary(v)
                                    for k, v in per_command.items()}}
    return metrics, stats


def per_layer(workload, name, seed, seconds, runner, outcome):
    startup = [runner.cli(["--help"])[2] for _ in range(STARTUP_REPS)]
    plain, traced, tracers = measure_traced(workload, seconds, outcome)
    metrics, extra = layer_metrics(tracers, plain, traced, startup)
    spans = write_spans(tracers[-1], name, seed)
    stats = {"startup_s": summary(startup), "untraced_pass_s": summary(plain),
             "traced_pass_s": summary(traced), **extra,
             "spans_file": str(spans.relative_to(ROOT))}
    return metrics, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("du-scan", "rewrite", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    if not (SRC / "skdiag" / "cli.py").is_file():
        print(f"bench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SETUP

    work = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(work, started)
    outcome = Outcome()
    try:
        workload, setup_times = set_up(args.seed, work, runner,
                                       SETUP[args.workload])
        if args.trace:
            metrics, stats = per_layer(workload, args.workload, args.seed,
                                       args.seconds, runner, outcome)
        else:
            metrics, stats = end_to_end(workload, setup_times, args.seconds,
                                        runner, outcome)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_ratio = outcome.failed / outcome.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "unit_of_work": workload.unit, "params": workload.params,
        "fail_ratio": fail_ratio, "stats": stats,
        "elapsed_s": time.perf_counter() - started,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        top = ", ".join(f"{n} {100 * s:.0f}%" for n, s in
                        list(stats["self_share"].items())[:6])
        print(f"{args.workload} self-time: {top}")
    else:
        print(f"{THROUGHPUT_NAME[workload.unit]} = "
              f"{metrics['work_per_s'][0]:.6g} 1/s (work_per_s on {args.workload})")
        cmd = stats["cmd_p50_s"]
        print(f"cmd_p50_s = {cmd['value']:.6g} s ({cmd['invocations']} invocations)")
    print(f"fail_ratio = {fail_ratio:.6g} 1 ({outcome.failed}/{outcome.attempted})")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
