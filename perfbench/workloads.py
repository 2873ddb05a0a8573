"""Seeded inputs, command lists and output checks for each workload.

Each workload function writes its input files from the seed, using the
program's own generators, and returns a `Plan`: the argv of every command in
one timed pass (each writes its report with `--out`), a `check` that
verifies the outputs of a pass outside the timed region, and the input
properties worth recording. The program only ever sees the generated files
through argv.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pushpull import io, scenarios
from pushpull.metrics import agency_metrics, frontier, lambda_grid
from pushpull.solver import BRUTE_FORCE_LIMIT, SolveRequest, solve, solve_grid

# A local-search point more than this far below the subset-DP optimum (as a
# share of the optimum) counts as a wrong output, not just a weaker one.
GAP_CEILING = 0.05

# Relative tolerance for the property checks on rendered report numbers.
CHECK_TOL = 1e-9


@dataclass
class Plan:
    commands: list[list[str]]
    outputs: list[Path]
    check: Callable[[], tuple[list[str], dict]]
    inputs: list[Path]
    properties: dict = field(default_factory=dict)
    generate_ns: int = 0
    # When nonzero an op is one user of the relevance log, not one command.
    users_per_pass: int = 0


class _Inputs:
    """Writes generated instance files and times the generator calls."""

    def __init__(self, work: Path, seed: int, stream: int):
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng([seed, stream])
        self.generate_ns = 0
        self.paths: list[Path] = []

    def child_seed(self) -> int:
        return int(self.rng.integers(2**63))

    def instance(self, name: str, **spec) -> Path:
        start = time.perf_counter_ns()
        inst = scenarios.generate(scenarios.ScenarioSpec(seed=self.child_seed(), **spec))
        self.generate_ns += time.perf_counter_ns() - start
        path = self.work / f"{name}.json"
        io.write_instance_json(inst, path)
        self.paths.append(path)
        return path

    def out(self, name: str) -> Path:
        return self.work / name


def _report(path: Path) -> dict:
    return json.loads(path.read_text())["report"]


def _lam_text(rng) -> str:
    return str(float(rng.choice([0.25, 0.4, 0.5, 0.6, 0.75])))


def _row_check(bad, out: Path, inst_path: Path, grid_n: int, picks) -> None:
    """Frontier rows at the picked grid points must equal single solves."""
    inst = io.read_instance_json(inst_path)
    lams = lambda_grid(0.0, 1.0, grid_n)
    rows = out.read_text().splitlines()
    if len(rows) != grid_n + 1:
        bad.append(f"{out.name}: {len(rows) - 1} rows, expected {grid_n}")
        return
    for i in picks:
        m = agency_metrics(inst, lams[i])
        if rows[i + 1] != io.metrics_csv([m]).splitlines()[1]:
            bad.append(f"{out.name}: row {i} differs from the single-solve metrics")


# -- frontier_exact ---------------------------------------------------------

EXACT_SIZES = {
    "full": {"objects": 100, "blocks": 15, "types": 8, "grid": 101, "cutoff": 20, "dp_blocks": 20},
    "tiny": {"objects": 12, "blocks": 5, "types": 2, "grid": 6, "cutoff": 3, "dp_blocks": 6},
}


def frontier_exact(seed: int, work: Path, size: str) -> Plan:
    p = EXACT_SIZES[size]
    gen = _Inputs(work, seed, 1)
    dims = {"objects": p["objects"], "blocks": p["blocks"], "types": p["types"]}
    frontiers = [
        gen.instance("random_dcg", kind="random", discount=("dcg", {}), **dims),
        gen.instance("anti_aligned_dcg", kind="anti_aligned", **dims),
        gen.instance("random_cutoff", kind="random", discount=("cutoff", {"cutoff": p["cutoff"]}), **dims),
    ]
    big = gen.instance(
        "random_dcg_k20", kind="random", discount=("dcg", {}),
        objects=p["objects"], blocks=p["dp_blocks"], types=p["types"],
    )
    lam = _lam_text(gen.rng)
    grid = f"0:1:{p['grid']}"
    commands, outputs = [], []
    for path in frontiers:
        outputs.append(gen.out(f"{path.stem}.frontier.csv"))
        commands.append(["frontier", str(path), "--grid", grid, "--out", str(outputs[-1])])
    for cmd in ("solve", "metrics"):
        outputs.append(gen.out(f"{big.stem}.{cmd}.json"))
        commands.append([cmd, str(big), "--lambda", lam, "--out", str(outputs[-1])])
    picks = sorted({0, p["grid"] - 1, *(int(i) for i in gen.rng.choice(p["grid"], 2, replace=False))})

    def check():
        bad: list[str] = []
        lams = lambda_grid(0.0, 1.0, p["grid"])
        for path, out in zip(frontiers, outputs):
            inst = io.read_instance_json(path)
            grid_results = solve_grid(inst, [lams[i] for i in picks])
            for i, got in zip(picks, grid_results):
                if got != solve(SolveRequest(inst, lams[i])):
                    bad.append(f"{path.stem}: grid point {i} is not bit-identical to a single solve")
            _row_check(bad, out, path, p["grid"], picks)
        solved, measured = _report(outputs[3]), _report(outputs[4])
        if sorted(solved["block_order"]) != list(range(p["dp_blocks"])):
            bad.append("solve: block_order is not a permutation of the blocks")
        if (solved["agent_value"], solved["advocate_value"]) != (measured["U_lambda"], measured["V_lambda"]):
            bad.append("solve and metrics disagree on U_lambda/V_lambda")
        return bad, {}

    return Plan(
        commands, outputs, check, gen.paths,
        properties={"instances": [path.stem for path in frontiers + [big]], "sampled_grid_points": picks},
        generate_ns=gen.generate_ns,
    )


# -- ingest_population ------------------------------------------------------

INGEST_SIZES = {
    "full": {"users": 1000, "objects": 20, "groups": 4, "blocks": 7, "other_share": 0.25, "sampled": 8},
    "tiny": {"users": 12, "objects": 8, "groups": 2, "blocks": 3, "other_share": 0.25, "sampled": 3},
}


def _composition(rng, total: int, parts: int) -> list[int]:
    cuts = np.sort(rng.choice(np.arange(1, total), parts - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [total]))).tolist()


def ingest_population(seed: int, work: Path, size: str) -> Plan:
    p = INGEST_SIZES[size]
    gen = _Inputs(work, seed, 2)
    rng = gen.rng
    modal = _composition(rng, p["objects"], p["blocks"])
    lines = [",".join(io.LOG_HEADER)]
    signatures: Counter = Counter()
    # Other layouts stay within the brute-force limit so any user can be checked.
    other_counts = range(max(2, p["blocks"] - 2), min(BRUTE_FORCE_LIMIT, p["objects"] - 1) + 1)
    for u in range(p["users"]):
        if rng.random() < p["other_share"]:
            lengths = _composition(rng, p["objects"], int(rng.choice(other_counts)))
        else:
            lengths = modal
        signatures[tuple(lengths)] += 1
        agent = rng.random(p["objects"])
        advocate = rng.random(p["objects"])
        group = f"g{rng.integers(p['groups'])}"
        j = 0
        for b, length in enumerate(lengths):
            for _ in range(length):
                lines.append(f"u{u:05d},{group},o{j:02d},b{b},{float(agent[j])!r},{float(advocate[j])!r}")
                j += 1
    log = gen.out("relevance_log.csv")
    log.write_text("\n".join(lines) + "\n")
    gen.paths.append(log)
    lam = _lam_text(rng)
    metrics_out, summary_out = gen.out("users.csv"), gen.out("aggregate.json")
    commands = [
        ["ingest", str(log), "--lambda", lam, "--out", str(metrics_out)],
        ["aggregate", str(metrics_out), "--out", str(summary_out)],
    ]
    sampled = sorted(int(i) for i in rng.choice(p["users"], p["sampled"], replace=False))

    def check():
        bad: list[str] = []
        users = io.ingest_relevance_log(io.read_relevance_log(log))
        rows = metrics_out.read_text().splitlines()
        if len(rows) != len(users) + 1:
            bad.append(f"ingest: {len(rows) - 1} user rows, expected {len(users)}")
        by_user = {row.split(",", 1)[0]: row for row in rows[1:]}
        for j in sampled:
            user = users[j]
            m = agency_metrics(user.instance, float(lam), user.posterior, "brute_force")
            expect = io.user_metrics_csv([(user.user_id, user.group_label, m)]).splitlines()[1]
            if by_user.get(user.user_id) != expect:
                bad.append(f"ingest: user {user.user_id} differs from the brute-force oracle")
        if _report(summary_out)["count"] != len(users):
            bad.append("aggregate: count differs from the number of users")
        return bad, {}

    modal_count = signatures[tuple(modal)]
    return Plan(
        commands, [metrics_out, summary_out], check, gen.paths,
        properties={
            "users": p["users"],
            "modal_signature": modal,
            "modal_signature_share": modal_count / p["users"],
            "distinct_signatures": len(signatures),
            "block_count_mix": dict(sorted(Counter(len(s) for s in signatures.elements()).items())),
            "sampled_users": sampled,
        },
        generate_ns=gen.generate_ns,
        users_per_pass=p["users"],
    )


# -- frontier_heuristic -----------------------------------------------------

HEURISTIC_SIZES = {
    "full": {
        "ls": (2000, 400, 11), "sort": (5000, 21), "geo": (2000, 400, 101), "types": 4,
        "corpus": 20, "corpus_objects": 100, "corpus_blocks": 14, "corpus_grid": 11,
    },
    "tiny": {
        "ls": (44, 22, 3), "sort": (30, 3), "geo": (20, 10, 5), "types": 2,
        "corpus": 2, "corpus_objects": 12, "corpus_blocks": 6, "corpus_grid": 3,
    },
}


def frontier_heuristic(seed: int, work: Path, size: str) -> Plan:
    p = HEURISTIC_SIZES[size]
    gen = _Inputs(work, seed, 3)
    t = p["types"]
    (ls_m, ls_k, ls_n), (sort_m, sort_n), (geo_m, geo_k, geo_n) = p["ls"], p["sort"], p["geo"]
    big = [
        (gen.instance("local_search_dcg", kind="random", discount=("dcg", {}), objects=ls_m, blocks=ls_k, types=t), ls_n),
        (gen.instance("sort_singletons", kind="random", discount=("dcg", {}), objects=sort_m, blocks=sort_m, types=t), sort_n),
        (gen.instance("geometric", kind="random", discount=("geometric", {"beta": 0.9}), objects=geo_m, blocks=geo_k, types=t), geo_n),
    ]
    corpus = [
        gen.instance(
            f"corpus{i:02d}", kind="random", discount=("dcg", {}),
            objects=p["corpus_objects"], blocks=p["corpus_blocks"], types=t,
        )
        for i in range(p["corpus"])
    ]
    big_commands, corpus_commands, outputs = [], [], []
    for path, n in big:
        outputs.append(gen.out(f"{path.stem}.frontier.csv"))
        big_commands.append(["frontier", str(path), "--grid", f"0:1:{n}", "--out", str(outputs[-1])])
    cn = p["corpus_grid"]
    for path in corpus:
        outputs.append(gen.out(f"{path.stem}.frontier.csv"))
        corpus_commands.append(
            ["frontier", str(path), "--grid", f"0:1:{cn}", "--strategy", "local_search", "--out", str(outputs[-1])]
        )
    # A corpus command takes milliseconds. Run them in three groups between
    # the long commands, so that they sample three moments of a pass and a
    # short fast or slow spell of a shared host moves a third of them, not all.
    share = -(-len(corpus_commands) // len(big_commands))
    commands = []
    for i, command in enumerate(big_commands):
        commands += [command, *corpus_commands[i * share:(i + 1) * share]]
    picks = [int(gen.rng.integers(n)) for _, n in big]

    def check():
        bad: list[str] = []
        for (path, n), out, i in zip(big, outputs, picks):
            _row_check(bad, out, path, n, [i])
        lams = lambda_grid(0.0, 1.0, cn)
        gaps = []
        for path, out in zip(corpus, outputs[len(big):]):
            inst = io.read_instance_json(path)
            heuristic = frontier(inst, (0.0, 1.0, cn), strategy="local_search")
            if out.read_text() != io.frontier_csv(heuristic):
                bad.append(f"{path.stem}: frontier output differs from the library frontier")
            exact = solve_grid(inst, lams, strategy="subset_dp")
            for point, best in zip(heuristic.points, exact):
                value = point.lam * point.u_lambda + (1.0 - point.lam) * point.v_lambda
                scale = max(abs(best.objective), 1e-300)
                gap = (best.objective - value) / scale
                if gap < -CHECK_TOL:
                    bad.append(f"{path.stem}: local search beats subset_dp at lambda={point.lam}")
                if gap > GAP_CEILING:
                    bad.append(f"{path.stem}: gap {gap:.4g} at lambda={point.lam} exceeds {GAP_CEILING}")
                gaps.append(max(gap, 0.0))
        quality = {
            "objective_gap_max": max(gaps, default=0.0),
            "objective_gap_mean": sum(gaps) / len(gaps) if gaps else 0.0,
            "gap_nonzero_share": sum(g > CHECK_TOL for g in gaps) / len(gaps) if gaps else 0.0,
            "gap_points": len(gaps),
        }
        return bad, quality

    return Plan(
        commands, outputs, check, gen.paths,
        properties={
            "instances": [path.stem for path, _ in big],
            "corpus": {"instances": len(corpus), "blocks": p["corpus_blocks"], "grid": cn},
        },
        generate_ns=gen.generate_ns,
    )


# -- cli_mix ----------------------------------------------------------------

MIX_SIZES = {
    "full": {"files": 120, "objects": 14, "blocks": (4, 5, 6, 7), "types": 3, "signals": 3},
    "tiny": {"files": 4, "objects": 8, "blocks": (3, 4), "types": 2, "signals": 2},
}

MIX_KINDS = ("aligned", "anti_aligned", "orthogonal", "random")


def cli_mix(seed: int, work: Path, size: str) -> Plan:
    p = MIX_SIZES[size]
    gen = _Inputs(work, seed, 4)
    commands, outputs = [], []
    files = []
    for i in range(p["files"]):
        kind = MIX_KINDS[i % len(MIX_KINDS)]
        blocks = p["blocks"][(i // len(MIX_KINDS)) % len(p["blocks"])]
        path = gen.instance(
            f"mix{i:03d}", kind=kind, objects=p["objects"], blocks=blocks,
            types=p["types"], signals=p["signals"],
        )
        lam = _lam_text(gen.rng)
        names = ("validate", "solve", "metrics", "noise", "refine")
        outs = [gen.out(f"{path.stem}.{name}.json") for name in names]
        commands += [
            ["validate", str(path), "--out", str(outs[0])],
            ["solve", str(path), "--lambda", lam, "--out", str(outs[1])],
            ["metrics", str(path), "--lambda", lam, "--out", str(outs[2])],
            ["noise-sweep", str(path), "--out", str(outs[3])],
            ["refine-compare", str(path), "--grid", "0:1:11", "--out", str(outs[4])],
        ]
        outputs += outs
        files.append((path, kind, blocks, outs))

    def check():
        bad: list[str] = []
        for path, _, _, (v_out, s_out, m_out, n_out, r_out) in files:
            validated = _report(v_out)
            if validated["invalid"] != 0 or not all(f["ok"] and f["oracle_checked"] for f in validated["files"]):
                bad.append(f"{path.stem}: validate did not report oracle_checked: true")
            solved, measured = _report(s_out), _report(m_out)
            if (solved["agent_value"], solved["advocate_value"]) != (measured["U_lambda"], measured["V_lambda"]):
                bad.append(f"{path.stem}: solve and metrics disagree on U_lambda/V_lambda")
            for point in _report(r_out)["points"]:
                if point["delta"] < -CHECK_TOL * max(1.0, abs(point["base_objective"])):
                    bad.append(f"{path.stem}: refinement lost value at lambda={point['lambda']}")
            sweep = [point["avg_U1"] for point in _report(n_out)]
            if any(b > a + CHECK_TOL * max(1.0, abs(a)) for a, b in zip(sweep, sweep[1:])):
                bad.append(f"{path.stem}: garbling raised the signal-averaged U_1")
        return bad, {}

    return Plan(
        commands, outputs, check, gen.paths,
        properties={
            "files": len(files),
            "kind_mix": dict(sorted(Counter(kind for _, kind, _, _ in files).items())),
            "block_count_mix": dict(sorted(Counter(blocks for _, _, blocks, _ in files).items())),
        },
        generate_ns=gen.generate_ns,
    )


# name -> (build function, tail percentile). The tail percentile is fixed per
# workload so the metric means the same thing in every run; it is chosen so
# that at least ten samples lie beyond it where the op count allows.
WORKLOADS = {
    "frontier_exact": (frontier_exact, 90.0),
    "ingest_population": (ingest_population, 99.0),
    "frontier_heuristic": (frontier_heuristic, 90.0),
    "cli_mix": (cli_mix, 98.0),
}
