"""Golden bytes of the CLI on seeded instances.

Each command of the corpus runs in-process in a temporary working
directory, on files named relative to it, so no path of the machine reaches
a report. The test stores one sha256 per command over its exit code, stdout
and stderr, and compares them with the recorded values. The corpus covers
`gen`, `validate`, `solve`, `metrics`, `frontier`, `refine-compare`,
`noise-sweep`, `ingest` and `aggregate`, in every `--format` each one has,
a few commands that exit 2 or 3, and `--help` of the group and of each
command (`CliRunner` renders help 80 columns wide). Most commands run with
`--summary`, so the stderr notes are pinned too. Malformed metrics CSVs are
left out: `tests/test_cli.py` checks their messages.

The digests change only in a change that states which outputs changed and
why. To re-record after such a change, run
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from pushpull import io
from pushpull.cli import main

from helpers import E1_DOC

GOLDEN = Path(__file__).with_name("golden_cli.json")

# name -> gen flags; every file is written with --out <name>.json.
INSTANCES = {
    "rand": ["--kind", "random", "--seed", "3", "-M", "10", "-K", "5", "-T", "3", "-S", "3"],
    "anti": ["--kind", "anti-aligned", "--seed", "7", "-M", "8", "-K", "3", "-T", "2", "-S", "2"],
    "ties": ["--kind", "aligned", "--seed", "4", "-M", "9", "-K", "6", "-T", "2", "-S", "2",
             "--discount", "cutoff", "--cutoff", "3"],
    "dcg": ["--kind", "orthogonal", "--seed", "5", "-M", "12", "-K", "7", "-T", "2", "-S", "3",
            "--discount", "dcg"],
    "single": ["--kind", "random", "--seed", "6", "-M", "7", "-K", "7", "-T", "2", "-S", "2",
               "--discount", "custom", "--weights", "1,0.8,0.8,0.5,0.2,0.1,0"],
    "geo": ["--kind", "random", "--seed", "8", "-M", "14", "-K", "9", "-T", "3", "-S", "2",
            "--discount", "geometric", "--beta", "0.7"],
    "content": ["--kind", "preset", "--preset", "content", "--seed", "2"],
    "wide": ["--kind", "random", "--seed", "9", "-M", "30", "-K", "24", "-T", "2", "-S", "2"],
}
GRIDS = ("0:1:101", "0.2:0.7:11")
DISCOUNTS = {
    "dcg": ["--discount", "dcg"],
    "cutoff": ["--discount", "cutoff", "--cutoff", "4"],
    "geometric": ["--discount", "geometric", "--beta", "0.5", "--strategy", "subset_dp"],
}


def relevance_log() -> str:
    """40 users over 8 objects in 4 groups; a third carry integer scores."""
    rng = np.random.default_rng(17)
    lines = [",".join(io.LOG_HEADER)]
    for u in range(40):
        blocks = int(rng.integers(1, 9))
        cuts = np.sort(rng.choice(np.arange(1, 8), blocks - 1, replace=False))
        block_of = np.searchsorted(cuts, np.arange(8), side="right")
        if rng.random() < 0.35:
            agent, advocate = rng.integers(0, 3, (2, 8)).astype(float)
        else:
            agent, advocate = rng.random((2, 8))
        group = f"g{rng.integers(4)}"
        for j in range(8):
            lines.append(f"u{u:02d},{group},o{j},b{block_of[j]},{float(agent[j])!r},{float(advocate[j])!r}")
    return "\n".join(lines) + "\n"


def commands() -> list[tuple[str, list[str]]]:
    out = []
    for name, flags in INSTANCES.items():
        out.append((f"gen-{name}", ["gen", *flags]))
        out.append((f"gen-{name}-summary", ["gen", *flags, "--summary"]))
    out.append(("gen-bad-flags", ["gen", "--kind", "random", "--seed", "1", "--cutoff", "3", "--beta", "0.5"]))
    files = [f"{name}.json" for name in INSTANCES]
    out.append(("validate", ["validate", *files, "e1.json", "--summary"]))
    out.append(("validate-no-oracle", ["validate", *files, "--no-oracle", "--summary"]))
    out.append(("validate-invalid", ["validate", "rand.json", "bad.json", "--summary"]))
    for name in INSTANCES:
        path = f"{name}.json"
        for fmt in ("json", "csv"):
            for lam in ("0", "0.35", "1"):
                out.append((f"solve-{name}-{fmt}-{lam}", ["solve", path, "--lambda", lam, "--format", fmt, "--summary"]))
                out.append((f"metrics-{name}-{fmt}-{lam}", ["metrics", path, "--lambda", lam, "--format", fmt, "--summary"]))
            signal = ["--lambda", "0.6", "--signal", "s1", "--format", fmt, "--summary"]
            out.append((f"solve-{name}-{fmt}-signal", ["solve", path, *signal]))
            out.append((f"metrics-{name}-{fmt}-signal", ["metrics", path, *signal]))
            out.append((f"noise-sweep-{name}-{fmt}", ["noise-sweep", path, "--format", fmt, "--summary"]))
            for grid in GRIDS:
                span = ["--grid", grid, "--format", fmt, "--summary"]
                out.append((f"frontier-{name}-{fmt}-{grid}", ["frontier", path, *span]))
                out.append((f"refine-{name}-{fmt}-{grid}", ["refine-compare", path, *span]))
            out.append((f"frontier-{name}-{fmt}-signal", ["frontier", path, "--grid", "0:1:21", "--signal", "s0", "--format", fmt]))
            out.append((f"refine-{name}-{fmt}-split", ["refine-compare", path, "--split", "0:1;2:1", "--grid", "0:1:21", "--format", fmt, "--summary"]))
    out.append(("noise-sweep-epsilons", ["noise-sweep", "rand.json", "--epsilons", "0,0.1,0.9", "--format", "csv"]))
    out.append(("noise-sweep-no-model", ["noise-sweep", "e1.json"]))
    out.append(("solve-no-model", ["solve", "e1.json", "--lambda", "0.5", "--signal", "s0"]))
    out.append(("solve-contract", ["solve", "rand.json", "--lambda", "0.5", "--strategy", "sort"]))
    out.append(("frontier-local-search", ["frontier", "wide.json", "--grid", "0:1:5", "--strategy", "local_search", "--format", "json"]))
    for name, flags in DISCOUNTS.items():
        for fmt in ("csv", "json"):
            for lam in ("0", "0.4", "1"):
                out.append((f"ingest-{name}-{fmt}-{lam}", ["ingest", "log.csv", "--lambda", lam, "--format", fmt, *flags, "--summary"]))
    out.append(("ingest-out", ["ingest", "log.csv", "--out", "users.csv"]))
    out.append(("aggregate", ["aggregate", "users.csv", "--summary"]))
    out.append(("ingest-cutoff-out", ["ingest", "log.csv", "--lambda", "0.7", *DISCOUNTS["cutoff"], "--out", "users-cutoff.csv"]))
    out.append(("aggregate-cutoff", ["aggregate", "users-cutoff.csv", "--summary"]))
    out.append(("help", ["--help"]))
    for command in main.commands:
        out.append((f"help-{command}", [command, "--help"]))
    return out


def _setup(workdir: Path) -> None:
    (workdir / "e1.json").write_text(json.dumps(E1_DOC))
    (workdir / "bad.json").write_text(json.dumps({**E1_DOC, "prior": [2.0], "catalog": ["o0", "o0", "o2"]}))
    (workdir / "log.csv").write_text(relevance_log())
    runner = CliRunner()
    for name, flags in INSTANCES.items():
        result = runner.invoke(main, ["gen", *flags, "--out", f"{name}.json"])
        assert result.exit_code == 0, result.output


def digests(workdir: Path) -> dict[str, str]:
    """sha256 of (exit code, stdout, stderr) per corpus command, run in workdir."""
    home = Path.cwd()
    os.chdir(workdir)
    try:
        _setup(workdir)
        runner = CliRunner()
        out = {}
        for name, args in commands():
            result = runner.invoke(main, args)
            assert not isinstance(result.exception, Exception) or isinstance(
                result.exception, SystemExit
            ), (name, result.exception)
            record = json.dumps([result.exit_code, result.stdout, result.stderr])
            out[name] = hashlib.sha256(record.encode("utf-8")).hexdigest()
        return out
    finally:
        os.chdir(home)


def test_cli_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
