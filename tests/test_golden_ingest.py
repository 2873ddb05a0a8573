"""Golden bytes of `ingest` on a seeded relevance log.

The log holds 300 users over 18 objects. About 3/4 share one 7-block
layout, as in a real population; the rest draw from a pool of layouts with
2 to 15 blocks, so several layouts repeat and some reach past 13 blocks.
About a third of the users carry integer scores, which makes ties common.

The test runs `ingest` under dcg, cutoff and geometric discounts at lambda
0, 0.4 and 1 and compares the sha256 of each CSV with the recorded value.
Auto solves a geometric curve with the index rule, so the geometric runs
name subset_dp to keep every run on the subset DP. Floats in the CSV are
rendered to at most 12 significant digits.

To re-record after a change that states which outputs changed and why, run
`PYTHONPATH=src python tests/test_golden_ingest.py`.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from pushpull import io
from pushpull.cli import main

GOLDEN = Path(__file__).with_name("golden_ingest.json")
USERS, OBJECTS, MODAL_BLOCKS = 300, 18, 7
DISCOUNTS = {
    "dcg": ["--discount", "dcg"],
    "cutoff": ["--discount", "cutoff", "--cutoff", "5"],
    "geometric": ["--discount", "geometric", "--beta", "0.5", "--strategy", "subset_dp"],
}
LAMBDAS = ("0", "0.4", "1")


def _layout(rng, blocks):
    cuts = np.sort(rng.choice(np.arange(1, OBJECTS), blocks - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [OBJECTS]))).tolist()


def relevance_log() -> str:
    rng = np.random.default_rng(61)
    modal = _layout(rng, MODAL_BLOCKS)
    pool = [_layout(rng, blocks) for blocks in range(2, 16) for _ in range(2)]
    lines = [",".join(io.LOG_HEADER)]
    for u in range(USERS):
        lengths = modal if rng.random() < 0.75 else pool[int(rng.integers(len(pool)))]
        if rng.random() < 0.35:
            agent, advocate = rng.integers(0, 3, (2, OBJECTS)).astype(float)
        else:
            agent, advocate = rng.random((2, OBJECTS))
        group = f"g{rng.integers(4)}"
        j = 0
        for b, length in enumerate(lengths):
            for _ in range(length):
                lines.append(f"u{u:03d},{group},o{j:02d},b{b},{float(agent[j])!r},{float(advocate[j])!r}")
                j += 1
    return "\n".join(lines) + "\n"


def digests(tmp: Path) -> dict[str, str]:
    log = tmp / "log.csv"
    log.write_text(relevance_log())
    runner = CliRunner()
    out = {}
    for name, flags in DISCOUNTS.items():
        for lam in LAMBDAS:
            result = runner.invoke(main, ["ingest", str(log), "--lambda", lam, *flags])
            assert result.exit_code == 0, result.output
            out[f"{name}-{lam}"] = hashlib.sha256(result.stdout.encode()).hexdigest()
    return out


def test_ingest_outputs_match_the_golden_digests(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=1) + "\n")
