"""Seeded benchmark of the pushpull command-line interface.

    python3 perfbench/run.py --workload frontier_exact --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The script imports `pushpull` from
`src/` of that checkout and nothing else; without it, it exits with code 2.

Each run:

1. pins BLAS and OpenMP to one thread, then imports the program;
2. sets up three times: starts the CLI in a fresh interpreter (interpreter
   and import), writes the workload's inputs from `--seed` and runs the same
   commands once on tiny inputs as a warm-up; `setup_s` is the median;
3. drives the real click entry point in-process, one command after another
   (a closed loop with one client), in whole passes over the workload's
   command list, stopping at the pass boundary nearest to `--seconds` once
   at least three passes ran;
4. checks the outputs outside the timed region: every pass must write the
   same bytes, and each workload compares sampled outputs with an
   independent computation (see workloads.py);
5. prints a report line, then the result as the last line of stdout.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
untraced and traced passes alternate; the traced ones record a span per
layer call (spans.py) and the result holds the per-layer metrics, each per
traced pass. The spans are written to `perfbench/.work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SETUP_REPEATS = 3
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.subset_dp_s": "s",
    "solver.dp_cells": "cells_computed",
    "solver.ns_per_dp_cell": "ns",
    "solver.grid_calls": "count",
    "solver.grid_rows": "count",
    "solver.distinct_orders_share": "ratio",
    "solver.tie_broken_share": "ratio",
    "solver.solve_calls": "count",
    "metrics.solves_per_call": "count",
    "solver.local_search_s": "s",
    "solver.sort_s": "s",
    "solver.geometric_index_s": "s",
    "solver.brute_force_s": "s",
    "solver.calls": "count",
    "solver.self_s": "s",
    "io.load.calls": "count",
    "io.load.self_s": "s",
    "io.render.calls": "count",
    "io.render.self_s": "s",
    "core.calls": "count",
    "core.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "inference.calls": "count",
    "inference.self_s": "s",
    "metrics.calls": "count",
    "metrics.self_s": "s",
    "scenarios.generate_s": "s",
    "io.failures": "count",
    "solver.failures": "count",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "output_mismatches": "count",
    "ops_failed_ratio": "ratio",
    "objective_gap_max": "ratio",
    "objective_gap_mean": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("frontier_exact", "ingest_population", "frontier_heuristic", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke tests")
    return parser.parse_args(argv)


def run_command(cli, argv) -> str | None:
    """Run one command through the click entry point; return an error or None."""
    try:
        code = cli.main.main(argv, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return traceback.format_exc(limit=-3)
    if code not in (None, 0):
        return f"{argv[0]}: exit code {code}"
    return None


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def nearest_rank(count: int, pct: float) -> int:
    """1-based nearest rank of a percentile among `count` sorted samples."""
    return max(1, int(-(-count * pct // 100)))


def percentile(sorted_values, pct: float) -> float:
    if not sorted_values:
        return 0.0  # every op failed; `failed` and `correct` say so
    return sorted_values[nearest_rank(len(sorted_values), pct) - 1]


def typical(samples) -> float:
    """Mean of the samples without the fastest and the slowest one."""
    ordered = sorted(samples)
    return statistics.fmean(ordered[1:-1] or ordered)


def typical_pass(passes) -> float:
    """Time of one pass, summing each command's typical time over the passes."""
    return sum(typical(column) for column in zip(*passes))


def install_op_clock(cli, sink):
    """Time each user of an ingest: wraps the per-user metrics call."""
    original = cli.agency_metrics

    def timed(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter_ns() - start)

    cli.agency_metrics = timed
    return lambda: setattr(cli, "agency_metrics", original)


def environment(root: Path) -> dict:
    import numpy as np

    sha = None
    if (root / ".git").exists():  # a plain source checkout has no history
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "pushpull").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "machine": platform.machine(),
    }


class Bench:
    """One run of one workload: set-up, timed passes, checks, result."""

    def __init__(self, args, root: Path, modules, import_s: float):
        from workloads import WORKLOADS

        self.args = args
        self.root = root
        self.cli = modules["cli"]
        self.modules = modules
        self.import_s = import_s
        self.build, self.tail_pct = WORKLOADS[args.workload]
        self.work = root / "perfbench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    def setup(self):
        """Set up SETUP_REPEATS times; each time start the CLI in a fresh
        interpreter, write the inputs and warm up on tiny inputs."""
        clock = time.perf_counter_ns
        start_cli = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import pushpull.cli",
                     str(self.root / "src")]
        totals, generate, input_digests = [], [], []
        plan = None
        for r in range(SETUP_REPEATS):
            start = clock()
            started = subprocess.run(start_cli, capture_output=True, text=True, timeout=120)
            if started.returncode != 0:
                self.errors.append(f"cli start: {started.stderr.strip()[-500:]}")
            plan = self.build(self.args.seed, self.work / f"setup{r}", self.args.size)
            warm = self.build(self.args.seed, self.work / f"warm{r}", "tiny")
            for argv in warm.commands:
                err = run_command(self.cli, argv)
                if err:
                    self.errors.append(f"warm-up: {err}")
            totals.append(clock() - start)
            generate.append(plan.generate_ns + warm.generate_ns)
            input_digests.append([digest(path) for path in plan.inputs])
        if any(d != input_digests[0] for d in input_digests):
            self.mismatches.append("set-up: one seed wrote different inputs")
        return plan, statistics.median(totals) / 1e9, statistics.median(generate) / 1e9, totals

    def passes(self, plan, tracer):
        """Run whole passes until the time is up.

        Returns the per-pass command times keyed by traced, the per-pass op
        times of the untraced passes (commands, or users of an ingest), the
        traced wall time and the attempted and failed op counts.
        """
        clock = time.perf_counter_ns
        args = self.args
        commands = {False: [], True: []}
        ops = []
        traced_wall = 0
        hashes = []
        attempted = failed = 0
        per_pass = plan.users_per_pass or len(plan.commands)
        started = clock()
        while True:
            traced = bool(args.trace) and len(commands[True]) < len(commands[False])
            users: list[int] = []
            if traced:
                tracer.install()
            elif plan.users_per_pass:
                restore = install_op_clock(self.cli, users)
            command_ns = []
            failures = 0
            pass_start = clock()
            for j, argv in enumerate(plan.commands):
                op_start = clock()
                if traced:
                    close = tracer.root(f"cli.{argv[0]}", len(hashes) * len(plan.commands) + j)
                    try:
                        err = run_command(self.cli, argv)
                    finally:
                        close()
                else:
                    err = run_command(self.cli, argv)
                command_ns.append(clock() - op_start)
                if err:
                    self.errors.append(err)
                    failures += 1
            last = clock() - pass_start
            if traced:
                traced_wall += last
                tracer.uninstall()
            else:
                if plan.users_per_pass:
                    restore()
                ops.append(users if plan.users_per_pass else command_ns)
            commands[traced].append(command_ns)
            attempted += per_pass
            # A failed command leaves every user of its ingest pass unserved.
            failed += per_pass if failures and plan.users_per_pass else failures
            hashes.append([digest(out) for out in plan.outputs])
            # Stop at the pass boundary nearest to --seconds.
            ending = (clock() - started + last / 2) / 1e9 >= args.seconds
            if args.trace:
                if ending and len(commands[True]) == len(commands[False]):
                    break
            elif ending and len(commands[False]) >= MIN_PASSES:
                break
        for n, pass_hashes in enumerate(hashes[1:], start=1):
            for out, first, now in zip(plan.outputs, hashes[0], pass_hashes):
                if now is None or now != first:
                    self.mismatches.append(f"pass {n}: {out.name} differs from pass 0")
        return commands, ops, traced_wall, attempted, failed, per_pass

    def run(self):
        import spans

        args = self.args
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            plan, setup_s, generate_s, setup_totals = self.setup()
            tracer = spans.Tracer(self.modules)
            times, ops, traced_wall, attempted, failed, per_pass = self.passes(plan, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            try:
                bad, quality = plan.check()
            except Exception as exc:
                # An output the check cannot even parse is a wrong output.
                bad, quality = [f"check failed: {exc!r}"], {}
            self.mismatches.extend(bad)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        wall_ns = typical_pass(times[False])
        # An op's latency is its mean over the untraced passes without the
        # fastest and the slowest one. A shared host flips between fast and
        # slow spells of a second to a minute: the mean follows the share of
        # each in the run, where a median jumps from one to the other, and the
        # trim keeps one pass caught in a rare spell from moving it.
        latencies = sorted(typical(column) for column in zip(*ops))
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "environment": environment(self.root),
            "setup_runs_s": [t / 1e9 for t in setup_totals],
            "import_s": self.import_s,
            "passes": {"untraced": len(times[False]), "traced": len(times[True]), "ops_per_pass": per_pass,
                       "untraced_pass_s": [sum(p) / 1e9 for p in times[False]],
                       "command_s": [[c / 1e9 for c in p] for p in times[False]] if len(plan.commands) < 30 else None},
            "latency": {"samples": len(latencies), "tail_percentile": self.tail_pct,
                        "samples_beyond_tail": len(latencies) - nearest_rank(len(latencies), self.tail_pct)},
            "quality": quality,
            "input_properties": plan.properties,
            "output_mismatches": self.mismatches[:20],
            "errors": self.errors[:5],
        }
        failed_ratio = failed / attempted
        if args.trace:
            values, solver_props = spans.layer_metrics(tracer, len(times[True]), traced_wall)
            report["input_properties"]["solver"] = solver_props
            values["trace.overhead_ratio"] = typical_pass(times[True]) / wall_ns
            values["scenarios.generate_s"] = generate_s
            values["output_mismatches"] = len(self.mismatches)
            values["ops_failed_ratio"] = failed_ratio
            values["objective_gap_max"] = quality.get("objective_gap_max", 0.0)
            values["objective_gap_mean"] = quality.get("objective_gap_mean", 0.0)
            units = PER_LAYER
            spans_path = self.work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            report["spans_file"] = str(spans_path.relative_to(self.root))
            report["span_tree_problems"] = spans.check_tree(tracer.spans)[:5]
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": wall_ns / 1e9,
                "ops_per_s": per_pass / (wall_ns / 1e9),
                "op_p50_ms": percentile(latencies, 50.0) / 1e6,
                "op_tail_ms": percentile(latencies, self.tail_pct) / 1e6,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
        result = {
            "correct": not self.mismatches and not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "pushpull" / "__init__.py").is_file():
        print(f"perfbench: no pushpull sources under {src}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(src))
    start = time.perf_counter_ns()
    import pushpull.cli as cli
    import_s = (time.perf_counter_ns() - start) / 1e9
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported pushpull from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from pushpull import core, inference, io, metrics, scenarios, solver

    modules = {"cli": cli, "metrics": metrics, "solver": solver, "core": core,
               "inference": inference, "io": io, "scenarios": scenarios}
    Bench(args, root, modules, import_s).run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
