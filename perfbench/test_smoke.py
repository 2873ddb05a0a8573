"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from pushpull import cli, core, inference, io, metrics, scenarios, solver  # noqa: E402
from run import run_command, typical, typical_pass  # noqa: E402

MODULES = {"cli": cli, "metrics": metrics, "solver": solver, "core": core,
           "inference": inference, "io": io, "scenarios": scenarios}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _traced_pass(plan):
    tracer = spans.Tracer(MODULES)
    tracer.install()
    try:
        for j, argv in enumerate(plan.commands):
            close = tracer.root(f"cli.{argv[0]}", j)
            try:
                assert run_command(cli, argv) is None
            finally:
                close()
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_span_tree_is_well_formed(workload, tmp_path):
    build, _ = workloads.WORKLOADS[workload]
    plan = build(7, tmp_path, "tiny")
    original = cli.solve
    tracer = _traced_pass(plan)
    assert cli.solve is original
    assert tracer.spans and not tracer.stack
    assert spans.check_tree(tracer.spans) == []
    assert all(value >= 0 for value in spans.self_times(tracer.spans))
    roots = [s for s in tracer.spans if s[spans.PARENT] < 0]
    assert len(roots) == len(plan.commands)
    values, _ = spans.layer_metrics(tracer, 1, sum(s[spans.END] - s[spans.START] for s in roots))
    assert values["trace.coverage"] == pytest.approx(1.0)


def test_typical_drops_the_fastest_and_the_slowest_pass():
    assert typical([5.0, 1.0, 3.0, 100.0]) == 4.0
    assert typical([7.0, 9.0]) == 8.0
    assert typical_pass([[1.0, 10.0], [2.0, 30.0], [9.0, 20.0]]) == 22.0


def test_check_tree_reports_a_child_outside_its_parent():
    parent = ["cli.solve", "cli", 100, 200, -1, 0, None]
    child = ["cli.solve", "solver", 120, 260, 0, 0, None]
    problems = spans.check_tree([parent, child])
    assert any("outside its parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def _perturb_row(path: Path, prefix: str, replacement: str) -> None:
    lines = path.read_text().splitlines()
    index = max(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[index] = replacement
    path.write_text("\n".join(lines) + "\n")


PERTURB = {
    "frontier_exact": lambda plan: _perturb_row(plan.outputs[0], "1,", "1,0,0,0,1,1,false,false"),
    "ingest_population": lambda plan: _perturb_row(
        plan.outputs[0], f"u{plan.properties['sampled_users'][0]:05d},",
        f"u{plan.properties['sampled_users'][0]:05d},g0,0.5,0,0,0,1,1,false,false",
    ),
    "frontier_heuristic": lambda plan: _perturb_row(plan.outputs[3], "1,", "1,0,0,0,1,1,false,false"),
    "cli_mix": lambda plan: plan.outputs[0].write_text(
        plan.outputs[0].read_text().replace('"oracle_checked": true', '"oracle_checked": false')
    ),
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_perturbed_output_raises_the_mismatch_count(workload, tmp_path):
    build, _ = workloads.WORKLOADS[workload]
    plan = build(11, tmp_path, "tiny")
    for argv in plan.commands:
        assert run_command(cli, argv) is None
    clean, _ = plan.check()
    assert clean == []
    PERTURB[workload](plan)
    perturbed, _ = plan.check()
    assert len(perturbed) > len(clean)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
