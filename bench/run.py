"""Benchmark of the configspaces command line, run in-process.

Usage, from the repository root:

    python3 bench/run.py --workload classify-uniform --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all                # every workload, untraced then traced
    python3 bench/run.py --baselines          # the ROADMAP baseline commands
    python3 bench/run.py --record-pins        # re-record bench/pins.json

One process runs one workload as a single closed-loop client: it calls
``configspaces.cli.main`` with the next command line only after the
previous one returned, in passes over the workload's command list,
until one more pass would end after ``--seconds``.  Every output is
checked (see ``workloads.check``).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of bench/README.md.  Times are in reference seconds
(see ``calibrate``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from tracer import TRACED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = Path(".bench")
PINS = BENCH / "pins.json"

SETUP_PROBES = 5
# weighted-sweep passes whose outputs are pinned for the default seed.
PINNED_WEIGHTED_PASSES = 2
BASELINES = (
    "mobius --name path-24",
    "classify --name star-12-6",
    "classify --name path-18",
    "right-angled --name path-14",
    "verify --name path-14 --t 1/8",
    "verify --name star-10-5 --t 1/20",
)


def _import_cli():
    if not (SRC / "configspaces" / "cli.py").is_file():
        raise SystemExit(f"error: no configspaces sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from configspaces import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: configspaces was imported from {cli.__file__}, not {SRC}")
    return cli


def timed_setup(workload: str, seed: int):
    """Import the program and make the first pass's inputs; returns
    (reference seconds, cli module, first pass)."""
    before = calibrate.speed_reading()
    start = perf_counter()
    cli = _import_cli()
    first = workloads.build_pass(workload, seed, 0, WORKDIR)
    raw = perf_counter() - start
    return raw * calibrate.factor(before, calibrate.speed_reading()), cli, first


class Pass:
    """Results of one pass over a command list."""

    def __init__(self) -> None:
        self.latency: list[float] = []  # reference seconds per command
        self.outputs: list[tuple] = []  # (exit code, stdout) per command
        self.failures: list[str] = []


def run_pass(cli, commands, pins: dict, require_pin: bool, tracer: Tracer | None = None) -> Pass:
    """Run the commands in order, timing each call of ``cli.main`` in
    reference seconds."""
    result = Pass()
    before = calibrate.speed_reading()
    previous_stdout = ""
    for command in commands:
        if command.argv[0] == "verify" and "--t" not in command.argv:
            try:
                workloads.bind_verify(command, previous_stdout)
            except (ValueError, KeyError, TypeError) as exc:
                result.failures.append(f"{command.line}: no t0 to verify at ({exc})")
                result.outputs.append((None, ""))
                continue
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_command()
        code = None
        gc.collect()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command.argv)
        except Exception:  # a traceback is a failed command, never a crash
            err.write(traceback.format_exc())
        raw = perf_counter() - start
        after = calibrate.speed_reading()
        factor = calibrate.factor(before, after)
        before = after
        if tracer is not None:
            tracer.end_command(raw, factor)
        stdout = out.getvalue()
        previous_stdout = stdout
        result.latency.append(raw * factor)
        result.outputs.append((code, stdout))
        why = workloads.check(command, code, stdout, err.getvalue(), pins, require_pin)
        if why is not None:
            result.failures.append(f"{command.line}: {why}")
    return result


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _setup_samples(workload: str, seed: int, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def _layer_metrics(tracer: Tracer, traced: list[Pass], untraced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics, per traced pass, and the tracing self-check."""
    problems: list[str] = []
    passes = len(traced)
    self_time = tracer.self_times()
    by_name: dict[str, float] = {}
    root_raw = [0.0] * len(tracer.latencies)
    for span in tracer.spans:
        sid, parent, name, command = span[0], span[1], span[2], span[3]
        value = self_time[sid]
        if value < -1e-6:
            problems.append(f"span {sid} ({name}) has negative self time {value}")
        by_name[name] = by_name.get(name, 0.0) + value * tracer.factors[command]
        if parent == 0:
            if name != "cli.main":
                problems.append(f"span {sid} ({name}) has no parent")
            root_raw[command] += span[6]
    # The self times of a command sum to its root span; what the command
    # timer saw beyond the root span is the unwrapped residual.
    residual = 0.0
    for command, raw in enumerate(tracer.latencies):
        gap = raw - root_raw[command]
        if gap < -1e-6:
            problems.append(f"command {command}: root span longer than the command")
        residual += gap * tracer.factors[command]
    traced_wall = sum(sum(p.latency) for p in traced) / passes
    self_sum = sum(by_name.values()) / passes
    if abs(self_sum + residual / passes - traced_wall) > 1e-6 * max(1.0, traced_wall):
        problems.append(f"self times {self_sum} + residual != traced wall {traced_wall}")
    counts = tracer.counts
    commands = len(tracer.latencies)
    metrics = {}
    for name, _, _, _, kind in TRACED:
        if kind == "span" or kind == "generator":
            metrics[f"{name}.self_s"] = (by_name.get(name, 0.0) / passes, "s")
    per_pass = {
        "core.relative_configuration.calls": counts["core.relative_configuration.calls"],
        "core.enumerate.members": counts["core.enumerate.members"],
        "mobius.relative.calls": counts["mobius.relative.calls"],
        "poly.first_positive_root.calls": counts["poly.first_positive_root.calls"],
        "probspace.event_probability.calls": counts["probspace.event_probability.calls"],
    }
    for name, total in per_pass.items():
        metrics[name] = (total / passes, "count")
    metrics["mobius.relative.distinct_ratio"] = (
        _ratio(counts["mobius.relative.distinct"], counts["mobius.relative.calls"]), "ratio")
    metrics["mobius.families_per_cmd"] = (
        _ratio(counts["mobius.family_init.calls"], commands), "1/cmd")
    metrics["poly.roots_per_t0"] = (
        _ratio(counts["poly.first_positive_root.calls"], counts["mobius.critical_root.calls"]),
        "ratio")
    metrics["probspace.dense_cells_per_member"] = (
        _ratio(counts["dense.cells"], counts["dense.members"]), "ratio")
    untraced_wall = statistics.median(sum(p.latency) for p in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (statistics.median(sum(p.latency) for p in traced) - untraced_wall, "s")
    metrics["trace.residual_s"] = (residual / passes, "s")
    return metrics, problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_workload(args) -> int:
    setup, cli, first = timed_setup(args.workload, args.seed)
    setup_s = statistics.median(_setup_samples(args.workload, args.seed, setup))
    pins = json.loads(PINS.read_text(encoding="utf-8"))[args.workload]
    default_seed = args.seed == workloads.DEFAULT_SEED
    tracer = Tracer() if args.trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    failures: list[str] = []
    attempted = 0
    # Start another pass only if it can end before the deadline, judged
    # by the last one, so a run lasts at most --seconds after the first pass.
    deadline = perf_counter() + args.seconds
    index = 0
    last = 0.0
    while index == 0 or perf_counter() + last <= deadline:
        started = perf_counter()
        require_pin = default_seed and (
            args.workload != "weighted-sweep" or index < PINNED_WEIGHTED_PASSES)
        commands = first if index == 0 else workloads.build_pass(
            args.workload, args.seed, index, WORKDIR)
        plain = run_pass(cli, commands, pins, require_pin)
        untraced.append(plain)
        attempted += len(plain.outputs)
        failures += plain.failures
        if tracer is not None:
            commands = workloads.build_pass(args.workload, args.seed, index, WORKDIR)
            tracer.install()
            try:
                seen = run_pass(cli, commands, pins, require_pin, tracer)
            finally:
                tracer.uninstall()
            traced.append(seen)
            attempted += len(seen.outputs)
            failures += seen.failures
            for i, (a, b) in enumerate(zip(plain.outputs, seen.outputs)):
                if a != b:
                    failures.append(f"{commands[i].line}: traced output differs from untraced")
        for path in WORKDIR.glob("weighted-*.json"):
            path.unlink()
        index += 1
        last = perf_counter() - started
    if tracer is None:
        latency = [x for p in untraced for x in p.latency]
        metrics = {
            "wall_s": (statistics.median(sum(p.latency) for p in untraced), "s"),
            "cmd_p50_s": (statistics.median(latency), "s"),
            "cmd_p90_s": (_p90(latency), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"latency samples: {len(latency)}")
    else:
        metrics, problems = _layer_metrics(tracer, traced, untraced)
        failures += [f"trace self-check: {why}" for why in problems]
        WORKDIR.mkdir(exist_ok=True)
        spans = WORKDIR / f"spans-{args.workload}.jsonl"
        tracer.dump(spans)
        print(f"{len(tracer.spans)} spans written to {spans}; import sites wrapped: "
              + ", ".join(f"{k}={v}" for k, v in tracer.sites.items()))
    print(f"workload {args.workload} seed {args.seed}: {index} passes, "
          f"{attempted} commands, {len(failures)} failed "
          f"(fail_frac {len(failures) / attempted:.4f})")
    for why in failures[:20]:
        print(f"FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def setup_probe(args) -> int:
    setup, _, _ = timed_setup(args.workload, args.seed)
    print(repr(setup))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, untraced then traced."""
    status = 0
    for workload in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} (exit {proc.returncode})")
            print("\n".join(lines[:-1]))
            if proc.returncode or not lines:
                print(proc.stderr)
                status = 1
    return status


def baselines(args) -> int:
    """Median of three in-process runs of each ROADMAP baseline command."""
    cli = _import_cli()
    for line in BASELINES:
        times = []
        for _ in range(3):
            gc.collect()
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(line.split())
            times.append(perf_counter() - start)
        print(f"{line:40s} exit {code}  {statistics.median(times):8.3f} s")
    return 0


def record_pins(args) -> int:
    """Record exit code and stdout digest of every default-seed command."""
    cli = _import_cli()
    pins: dict = {}
    for workload in workloads.NAMES:
        passes = PINNED_WEIGHTED_PASSES if workload == "weighted-sweep" else 1
        table = pins[workload] = {}
        for index in range(passes):
            for command in workloads.build_pass(workload, workloads.DEFAULT_SEED, index, WORKDIR):
                if command.argv[0] == "verify" and "--t" not in command.argv:
                    workloads.bind_verify(command, previous)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(command.argv)
                previous = out.getvalue()
                table[command.line] = [code, workloads.digest(previous)]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(len(t) for t in pins.values())} commands in {PINS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--baselines", action="store_true", help="time the ROADMAP baselines")
    mode.add_argument("--record-pins", action="store_true", help="re-record bench/pins.json")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.all:
        return run_all(args)
    if args.baselines:
        return baselines(args)
    if args.record_pins:
        return record_pins(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
