"""cegkit benchmark: the `ceg` CLI driven in-process on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process and one thread runs a closed loop: the next
command starts only when the previous one has returned.  Each command is a
call of the real entry point ``cegkit.cli.main`` with stdout and stderr
captured and the exit code kept.  The workload's documents are generated
from ``--seed``; every report is checked (exit code, effects against a
raw-document enumeration, frozen fixture values, identical output on every
repetition) outside the timed region.

The loop repeats a round of commands for ``--seconds``.  Every latency is
scaled to a nominal machine speed by a probe timed next to it (see
``calibrate.py``), because other tenants of a shared host slow everything
for long stretches.  ``cmd_p50_ms`` and ``cmd_p90_ms`` are percentiles of
the scaled latencies of every execution, ``cmds_per_s`` is executions over
their sum, and ``setup_s`` is the median scaled set-up time of several
fresh processes.  Raw wall times are kept in the run report.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates each
command untraced and traced, with layer wrappers installed only around the
traced call, and prints the per-layer metrics as medians over the traced
commands.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Spans, scaling rows and per-command figures are written under
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "cmds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Which per-layer metric should move which end-to-end metric, and where.
LAYER_EFFECTS = [
    {"layer_metrics": ["staging.self_ms", "staging.compute_stages_calls"],
     "moves": ["cmd_p50_ms", "cmds_per_s"], "on": "build-ladder",
     "flat_on": "query-merged"},
    {"layer_metrics": ["ceg.enumerations", "ceg.paths_enumerated", "ceg.path_prob_calls",
                       "intervention.conditioned_graphs", "ceg.self_ms", "intervention.self_ms"],
     "moves": ["cmd_p50_ms", "cmds_per_s"], "on": "query-merged"},
    {"layer_metrics": ["ceg.paths_enumerated"], "moves": ["peak_rss_mb"], "on": "query-merged"},
    {"layer_metrics": ["causal.candidates_checked", "causal.comparisons",
                       "causal.candidate_pass_ratio", "causal.self_ms"],
     "moves": ["cmd_p50_ms", "cmd_p90_ms"], "on": "query-search-miss"},
    {"layer_metrics": ["cli.self_ms", "model_io.self_ms", "event_tree.self_ms"],
     "moves": ["cmd_p50_ms"], "on": "fixtures-mix"},
]


def per_layer_units() -> dict:
    units = {}
    for layer in spans.LAYER_NAMES:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    for key in spans.COUNTERS:
        units[key] = "ratio" if key.endswith("ratio") else "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- set-up -------------------------------------------------------------------


def set_up(workload: str, seed: int):
    """Import the program and write the workload's documents.

    Returns (cli entry point, work directory, commands, models).
    """
    sys.path.insert(0, str(SRC))
    import click  # noqa: F401
    from cegkit.cli import main

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    commands, models = workloads.BUILDERS[workload](seed, workdir)
    return main, workdir, commands, models


def timed_setups(workload: str, seed: int, probe) -> list:
    """Process start to ready of fresh interpreters: (wall s, scaled s) each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe.measure()
        start, started = time.monotonic(), time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        ended = time.perf_counter()
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed: {child.stderr.strip()}")
        probe.measure()
        wall = float(child.stdout.split()[-1]) - start
        samples.append((wall, wall * probe.scale(started, ended)))
    return samples


# -- running commands -----------------------------------------------------------


def invoke(main, args):
    """One CLI command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args=args, prog_name="ceg")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a traceback is a program failure, not a crash here
            print(f"unhandled {type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


class Loop:
    """Closed-loop runner over whole rounds of commands."""

    def __init__(self, main, commands, probe, tracer=None):
        self.main = main
        self.commands = commands
        self.probe = probe
        self.tracer = tracer
        self.reference = [None] * len(commands)
        # per command: (start, end) perf_counter of each execution
        self.untraced = [[] for _ in commands]
        self.traced = [[] for _ in commands]
        self.traced_ids = [[] for _ in commands]  # tracer command ids
        self.mismatches = [0] * len(commands)
        self.attempted = 0
        self.rounds = 0

    def _execute(self, i: int, run) -> tuple:
        # each command starts from a collected heap, so garbage the previous
        # command left behind is not collected on this one's time
        gc.collect()
        self.probe.maybe_measure()
        start = time.perf_counter()
        output = run()
        end = time.perf_counter()
        self.attempted += 1
        # the first output is the command's reference report
        if self.reference[i] is None:
            self.reference[i] = output
        elif output != self.reference[i]:
            self.mismatches[i] += 1
        return start, end

    def run(self, seconds: float) -> None:
        """Whole rounds until the next one would end well past ``seconds``."""
        start = time.perf_counter()
        while True:
            for i, cmd in enumerate(self.commands):
                # a traced run alternates which side goes first, since the
                # second run of a command finds warmer caches
                traced_first = self.tracer is not None and self.rounds % 2 == 1
                if traced_first:
                    self._traced(i, cmd)
                self.untraced[i].append(self._execute(i, lambda: invoke(self.main, cmd.args)))
                if self.tracer is not None and not traced_first:
                    self._traced(i, cmd)
            self.rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / self.rounds >= seconds:
                break
        self.probe.measure()

    def _traced(self, i: int, cmd) -> None:
        command_id = sum(map(len, self.traced_ids))
        self.tracer.install()
        try:
            interval = self._execute(
                i, lambda: self.tracer.command(command_id, lambda: invoke(self.main, cmd.args)))
        finally:
            self.tracer.uninstall()
        self.traced[i].append(interval)
        self.traced_ids[i].append(command_id)

    def scaled(self, intervals: list) -> list:
        """Latencies in seconds at the probe's nominal machine speed."""
        return [(end - start) * self.probe.scale(start, end) for start, end in intervals]

    def failures(self):
        """(failed executions, problems by command label)."""
        problems = {}
        failed = 0
        for i, cmd in enumerate(self.commands):
            code, stdout, stderr = self.reference[i]
            try:
                found = cmd.check(code, stdout, stderr)
            except Exception as exc:  # a failing reference is a failed check
                found = [f"check raised {type(exc).__name__}: {exc}"]
            # a wrong reference report fails every execution of the command
            if found:
                failed += len(self.untraced[i]) + len(self.traced[i])
            else:
                failed += self.mismatches[i]
            if self.mismatches[i]:
                found.append(f"{self.mismatches[i]} repetitions changed the report")
            if found:
                problems[cmd.label] = found
        return failed, problems


# -- summaries ---------------------------------------------------------------------


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def scaling_rows(latency: list, commands: list, models: dict) -> list:
    """Per model: structure and the median scaled time of its commands."""
    by_model = {}
    for cmd, samples in zip(commands, latency):
        by_model.setdefault(cmd.model, []).extend(samples)
    rows = []
    for name, info in models.items():
        times = by_model[name]
        rows.append({
            "model": name, "vertices": info.vertices, "positions": info.positions,
            "paths": info.paths, "commands": len(times),
            "median_ms": statistics.median(times) * 1e3,
        })
    return sorted(rows, key=lambda r: (r["paths"], r["vertices"], r["model"]))


def context() -> dict:
    src_lines = 0
    for path in sorted((SRC / "cegkit").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def trace_metrics(loop: Loop, tracer, latency: list) -> tuple:
    rows = tracer.per_command()
    traced = [rows[c] for ids in loop.traced_ids for c in ids if c in rows]
    metrics = spans.medians(traced)
    with_trace = [s for intervals in loop.traced for s in loop.scaled(intervals)]
    without = [s for samples in latency for s in samples]
    metrics["trace.overhead_ratio"] = statistics.median(with_trace) / statistics.median(without)

    calls = {}
    for span in tracer.spans:
        calls.setdefault(span[6], Counter())[f"{span[1]}.{span[2]}"] += 1
    per_label = {}
    for cmd, ids in zip(loop.commands, loop.traced_ids):
        summary = spans.medians([rows[c] for c in ids if c in rows])
        summary["function_calls"] = dict(sorted(calls.get(ids[0], Counter()).items())) if ids else {}
        per_label[cmd.label] = summary
    return metrics, per_label


def write_spans(path: Path, tracer) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "layer", "function", "start", "end",
                                        "parent", "command", "ceg_error"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cegkit" / "__init__.py").is_file():
        print(f"error: no cegkit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CEG_TOLERANCE", None)

    if args.setup_only:
        _, workdir, _, _ = set_up(args.workload, args.seed)
        print(f"ready {time.monotonic()!r}", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    probe = calibrate.SpeedProbe()
    setups = timed_setups(args.workload, args.seed, probe) if args.trace == 0 else []
    cli_main, workdir, commands, models = set_up(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    try:
        loop = Loop(cli_main, commands, probe, tracer)
        loop.run(args.seconds)
        failed, problems = loop.failures()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latency = [loop.scaled(intervals) for intervals in loop.untraced]
    samples = [s for per_cmd in latency for s in per_cmd]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": loop.rounds, "commands_per_round": len(commands),
        "context": context(), "scaling": scaling_rows(latency, commands, models),
        "problems": problems, "layer_effects": LAYER_EFFECTS,
        "probe_kernel_s": probe.kernel_s,
        "commands": [
            {"label": c.label, "exit_code": ref[0],
             "stdout_sha256": hashlib.sha256(ref[1].encode()).hexdigest(),
             "scaled_ms": [x * 1e3 for x in scaled],
             "wall_ms": [(end - start) * 1e3 for start, end in intervals]}
            for c, ref, scaled, intervals in zip(commands, loop.reference, latency, loop.untraced)
        ],
    }
    if args.trace:
        values, per_label = trace_metrics(loop, tracer, latency)
        units = per_layer_units()
        report["per_command"] = per_label
        report["missing_boundaries"] = tracer.missing
        stem = f"{args.workload}-seed{args.seed}-trace1"
        write_spans(OUT / f"{stem}.spans.jsonl.gz", tracer)
    else:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "cmd_p50_ms": statistics.median(samples) * 1e3,
            "cmd_p90_ms": p90(samples) * 1e3,
            "cmds_per_s": len(samples) / sum(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / loop.attempted,
        }
        units = END_TO_END
        report["setup_s"] = [{"wall": wall, "scaled": scaled} for wall, scaled in setups]
        stem = f"{args.workload}-seed{args.seed}-trace0"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for row in report["scaling"]:
        print("scaling " + json.dumps(row))
    print("context " + json.dumps(report["context"]))
    print(f"samples {len(samples)} untraced executions of {len(commands)} commands"
          f" in {loop.rounds} rounds")
    if args.trace:
        for label, summary in report["per_command"].items():
            shown = {k: summary[k] for k in (
                "ceg.enumerations", "intervention.conditioned_graphs",
                "causal.candidates_checked")}
            shown["staged_tree_from_document"] = summary["function_calls"].get(
                "staging.staged_tree_from_document", 0)
            print(f"per-command {label}: " + json.dumps(shown))
    for label, found in problems.items():
        print(f"check failed: {label}: {'; '.join(found)}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
