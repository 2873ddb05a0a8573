"""In-memory span tracer for the pushpull layers.

The tracer wraps public functions where the calling module looks them up:
`cli` imports the `metrics`, `solver`, `core`, `inference` and `scenarios`
functions by name and reaches `io` through the module object; `metrics`
imports `solver.solve`/`solve_grid` by name; `solver` imports
`core.build_allocation`/`allocation_value` by name. Patching those names
records one span per call, with its parent span and the command (op) that
caused it. Nothing under `src/` changes, and `uninstall` puts every original
back, so untraced passes run the unmodified program.

A layer's self time is the duration of its spans minus the time covered by
their direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (importing module, attribute, layer). `io` functions are patched on the io
# module itself, which is where `cli` looks them up (`io.render_report`).
WRAPS = (
    ("cli", "agency_metrics", "metrics"),
    ("cli", "aggregate", "metrics"),
    ("cli", "critical_lambda", "metrics"),
    ("cli", "frontier", "metrics"),
    ("cli", "noise_sweep", "metrics"),
    ("cli", "refine_compare", "metrics"),
    ("cli", "solve", "solver"),
    ("cli", "brute_force_oracle", "solver"),
    ("cli", "combined_scores", "solver"),
    ("cli", "allocation_value", "core"),
    ("cli", "refine_partition", "core"),
    ("cli", "singletonize", "core"),
    ("cli", "expected_scores", "inference"),
    ("cli", "posterior", "inference"),
    ("cli", "prior_posterior", "inference"),
    ("cli", "generate", "scenarios"),
    ("metrics", "solve", "solver"),
    ("metrics", "solve_grid", "solver"),
    ("metrics", "garble", "inference"),
    ("metrics", "posterior", "inference"),
    ("metrics", "signal_marginal", "inference"),
    ("metrics", "is_refinement", "core"),
    ("solver", "build_allocation", "core"),
    ("solver", "allocation_value", "core"),
    ("solver", "expected_scores", "inference"),
    ("solver", "prior_posterior", "inference"),
    ("io", "make_discount", "core"),
    ("io", "prior_posterior", "inference"),
    ("io", "read_instance_json", "io.load"),
    ("io", "load_instance", "io.load"),
    ("io", "read_relevance_log", "io.load"),
    ("io", "ingest_relevance_log", "io.load"),
    ("io", "read_user_metrics_csv", "io.load"),
    ("io", "file_digest", "io.load"),
    ("io", "render_report", "io.render"),
    ("io", "instance_digest", "io.render"),
    ("io", "solve_payload", "io.render"),
    ("io", "metrics_payload", "io.render"),
    ("io", "frontier_payload", "io.render"),
    ("io", "refine_payload", "io.render"),
    ("io", "noise_payload", "io.render"),
    ("io", "summary_payload", "io.render"),
    ("io", "metrics_csv", "io.render"),
    ("io", "frontier_csv", "io.render"),
    ("io", "user_metrics_csv", "io.render"),
)

LAYERS = ("cli", "io.load", "io.render", "metrics", "solver", "core", "inference", "scenarios")

SOLVER_STRATEGIES = ("subset_dp", "local_search", "sort", "geometric_index", "brute_force")


def _probe_solve(args, result):
    return args[0].instance.partition.block_count, (result,)


def _probe_solve_grid(args, result):
    return args[0].partition.block_count, result


def _probe_brute_force(args, result):
    return args[0].block_count, None


PROBES = {
    "solve": _probe_solve,
    "solve_grid": _probe_solve_grid,
    "brute_force_oracle": _probe_brute_force,
}

# Span record fields, kept as plain lists so recording stays cheap.
NAME, LAYER, START, END, PARENT, OP, INFO = range(7)


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.failures: Counter = Counter()
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, attr, layer in WRAPS:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{mod_name}.{attr}", layer, PROBES.get(attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, layer, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        failures = self.failures

        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failures[layer] += 1
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[INFO] = probe(args, result)
            return result

        return wrapper

    def root(self, name: str, op: int):
        """Open a root span for one CLI command; returns a closer."""
        self.op = op
        span = [name, "cli", time.perf_counter_ns(), 0, -1, op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)

        def close():
            span[END] = time.perf_counter_ns()
            self.stack.pop()

        return close

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "parent": s[PARENT],
                    "op": s[OP],
                    "name": s[NAME],
                    "layer": s[LAYER],
                    "start_ns": s[START],
                    "end_ns": s[END],
                    "self_ns": selfs[i],
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans) -> list[int]:
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def check_tree(spans) -> list[str]:
    """Problems with the span tree: children outside parents, negative self time."""
    problems = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} ({s[NAME]}) ends before it starts")
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            if p >= i:
                problems.append(f"span {i} ({s[NAME]}) has a later parent {p}")
            if s[START] < parent[START] or s[END] > parent[END]:
                problems.append(f"span {i} ({s[NAME]}) lies outside its parent {p} ({parent[NAME]})")
            if s[OP] != parent[OP]:
                problems.append(f"span {i} ({s[NAME]}) belongs to another op than its parent")
    for i, value in enumerate(self_times(spans)):
        if value < 0:
            problems.append(f"span {i} ({spans[i][NAME]}) has negative self time {value}")
    return problems


def layer_metrics(tracer: Tracer, passes: int, traced_wall_ns: int) -> tuple[dict, dict]:
    """Per-layer figures per traced pass, and the solver properties they imply.

    Returns (metrics, properties): metrics maps a per-layer metric name to
    its value; properties records strategy mix, distinct orders per grid and
    tie-break shares for the input-property report.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    strategy_ns: Counter = Counter()
    strategy_rows: Counter = Counter()
    dp_cells = 0
    solve_calls = grid_calls = grid_rows = distinct = 0
    dp_results = dp_ties = 0
    metrics_solver_children = 0
    grids = []
    for i, s in enumerate(spans):
        layer = s[LAYER]
        calls[layer] += 1
        self_ns[layer] += selfs[i]
        if layer == "solver" and s[PARENT] >= 0 and spans[s[PARENT]][LAYER] == "metrics":
            metrics_solver_children += s[NAME].endswith((".solve", ".solve_grid"))
        if s[INFO] is None:
            continue
        k, results = s[INFO]
        if results is None:
            strategy = "brute_force"
            rows = 1
        else:
            strategy = results[0].strategy_used if results else "none"
            rows = len(results)
        strategy_ns[strategy] += selfs[i]
        strategy_rows[strategy] += rows
        if strategy == "subset_dp":
            dp_cells += rows * k * (1 << (k - 1))
            dp_results += rows
            dp_ties += sum(r.tie_broken for r in results)
        if s[NAME].endswith(".solve_grid"):
            grid_calls += 1
            grid_rows += rows
            orders = len({r.allocation.block_order for r in results})
            distinct += orders
            grids.append({"strategy": strategy, "blocks": k, "rows": rows, "distinct_orders": orders,
                          "tie_broken": sum(r.tie_broken for r in results)})
        elif s[NAME].endswith(".solve"):
            solve_calls += 1
    covered = sum(self_ns[layer] for layer in LAYERS)
    out = {}
    for layer in ("io.load", "io.render", "core", "cli", "inference", "metrics"):
        out[f"{layer}.calls"] = calls[layer] / passes
        out[f"{layer}.self_s"] = self_ns[layer] / passes / 1e9
    out["solver.calls"] = calls["solver"] / passes
    out["solver.self_s"] = self_ns["solver"] / passes / 1e9
    for strategy in SOLVER_STRATEGIES:
        out[f"solver.{strategy}_s"] = strategy_ns[strategy] / passes / 1e9
    out["solver.dp_cells"] = dp_cells / passes
    out["solver.ns_per_dp_cell"] = strategy_ns["subset_dp"] / dp_cells if dp_cells else 0.0
    out["solver.solve_calls"] = solve_calls / passes
    out["solver.grid_calls"] = grid_calls / passes
    out["solver.grid_rows"] = grid_rows / passes
    out["solver.distinct_orders_share"] = distinct / grid_rows if grid_rows else 0.0
    out["solver.tie_broken_share"] = dp_ties / dp_results if dp_results else 0.0
    out["metrics.solves_per_call"] = metrics_solver_children / calls["metrics"] if calls["metrics"] else 0.0
    out["io.failures"] = (tracer.failures["io.load"] + tracer.failures["io.render"]) / passes
    out["solver.failures"] = tracer.failures["solver"] / passes
    out["trace.coverage"] = covered / traced_wall_ns if traced_wall_ns else 0.0
    total_rows = sum(strategy_rows.values())
    by_strategy: dict = defaultdict(Counter)
    for g in grids:
        by_strategy[g["strategy"]].update(calls=1, rows=g["rows"], distinct_orders=g["distinct_orders"],
                                          tie_broken=g["tie_broken"])
    properties = {
        "strategy_mix": {k: v / total_rows for k, v in sorted(strategy_rows.items())} if total_rows else {},
        "grid_calls_by_strategy": {k: dict(v) for k, v in sorted(by_strategy.items())},
        "subset_dp_tie_broken_share": out["solver.tie_broken_share"],
    }
    if len(grids) <= 25 * passes:
        properties["grids_in_first_pass"] = grids[: len(grids) // passes]
    return out, properties
