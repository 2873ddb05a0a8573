"""Golden block orders of every solver strategy on a seeded corpus.

Each instance stores one sha256 over its rows under every strategy at
lambda 0, 0.5 and 1: the block order, the tie_broken flag and the strategy
used, or "refused" when the strategy's precondition fails. Floats are left
out, so a different summation order in the host's BLAS cannot fail the
test; the corpus keeps its near-tie scores on a grid far wider than a few
ulps for the same reason.

The tie rule decides which of several optimal rankings the platform serves,
so these digests pin what pull and push measure. They change only in a
change that states which outputs changed and why. To re-record after such
a change, run `PYTHONPATH=src python tests/test_golden_solver.py`.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

import pushpull as pp

from helpers import make_instance, random_partition

GOLDEN = Path(__file__).with_name("golden_solver.json")
LAMBDAS = (0.0, 0.5, 1.0)
DISCOUNTS = (("dcg", {}), ("cutoff", {"cutoff": 3}), ("geometric", {"beta": 0.5}), ("geometric", {"beta": 0.01}))


def _tie_heavy(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    m = k + int(rng.integers(0, 4))
    kind, params = DISCOUNTS[seed % len(DISCOUNTS)]
    if kind == "cutoff":
        params = {"cutoff": int(rng.integers(1, m + 1))}
    u = rng.integers(0, 3, size=m).tolist()
    v = rng.integers(0, 3, size=m).tolist()
    part = random_partition(rng, m, k)
    return make_instance(agent=[u], advocate=[v], blocks=part.blocks, discount=pp.make_discount(kind, m, **params))


def _near_tie(seed):
    # Scores 1 + j * 3e-12 put objective gaps near TIE_TOL, yet every gap
    # sits hundreds of ulps away from the tolerance itself.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    m = k + int(rng.integers(0, 3))
    kind, params = DISCOUNTS[seed % len(DISCOUNTS)]
    if kind == "cutoff":
        params = {"cutoff": int(rng.integers(1, m + 1))}
    u = (rng.integers(0, 2, size=m) * 1.0).tolist()
    v = (1.0 + rng.integers(0, 4, size=m) * 3e-12).tolist()
    part = random_partition(rng, m, k)
    return make_instance(agent=[u], advocate=[v], blocks=part.blocks, discount=pp.make_discount(kind, m, **params))


def _large(kind, k):
    # Layouts of 10 to 20 blocks, on both sides of the subset DP's low-block
    # width: random scores under dcg, integer scores in {0, 1, 2}
    # (tie-heavy) under dcg, or random scores under a cutoff.
    rng = np.random.default_rng(1000 + k)
    m = k + int(rng.integers(1, 5))
    if kind == "tie-heavy":
        u, v = rng.integers(0, 3, size=m).tolist(), rng.integers(0, 3, size=m).tolist()
    else:
        u, v = (rng.random(m) * 10).tolist(), (rng.random(m) * 10).tolist()
    if kind == "cutoff":
        discount = pp.make_discount("cutoff", m, cutoff=int(rng.integers(2, m)))
    else:
        discount = pp.make_discount("dcg", m)
    part = random_partition(rng, m, k)
    return make_instance(agent=[u], advocate=[v], blocks=part.blocks, discount=discount)


def _zero_tail(k):
    # A custom curve that falls as 1 / (n + 1) and then ends in zeros, so its
    # horizon (the number of positive weights) lies below M without being a
    # cutoff step. Integer scores at K=14 add ties in front of the horizon.
    rng = np.random.default_rng(2000 + k)
    m = k + int(rng.integers(1, 5))
    horizon = int(rng.integers(2, m // 2 + 2))
    weights = [1.0 / (n + 1) if n < horizon else 0.0 for n in range(m)]
    if k == 14:
        u, v = rng.integers(0, 3, size=m).tolist(), rng.integers(0, 3, size=m).tolist()
    else:
        u, v = (rng.random(m) * 10).tolist(), (rng.random(m) * 10).tolist()
    part = random_partition(rng, m, k)
    return make_instance(agent=[u], advocate=[v], blocks=part.blocks, weights=weights)


def _underflow(k, m=170):
    # geometric beta=0.01 underflows to 0.0 from position 162 on: a curve kind
    # that is not a cutoff still has a horizon below M.
    rng = np.random.default_rng(3000 + k)
    u, v = (rng.random(m) * 10).tolist(), (rng.random(m) * 10).tolist()
    part = random_partition(rng, m, k)
    discount = pp.make_discount("geometric", m, beta=0.01)
    return make_instance(agent=[u], advocate=[v], blocks=part.blocks, discount=discount)


def corpus():
    """(name, instance) pairs: 222 seeded instances."""
    for kind in ("aligned", "anti_aligned", "orthogonal", "random"):
        for k in range(1, 10):
            for d, (discount, params) in enumerate(DISCOUNTS):
                # Brute force at K=8 costs about 25 ms a lambda, so one kind keeps it.
                if (k + d) % 2 or (k == 8 and kind != "random"):
                    continue
                m = k + (k * 7 + d) % 4
                if discount == "cutoff":
                    params = {"cutoff": min(3, m)}
                spec = pp.ScenarioSpec(kind=kind, seed=k * 10 + d, objects=m, blocks=k, types=2, discount=(discount, params))
                yield f"{kind}-K{k}-{discount}{params.get('beta', '')}", pp.generate(spec)
    for seed in range(100):
        yield f"tie-heavy-{seed}", _tie_heavy(seed)
    for seed in range(34):
        yield f"near-tie-{seed}", _near_tie(seed)
    for k in (10, 11, 13, 14, 16, 20):
        for kind in ("random", "tie-heavy", "cutoff"):
            yield f"large-{kind}-K{k}", _large(kind, k)
    for k in (8, 14, 20):
        yield f"large-zero-tail-K{k}", _zero_tail(k)
    yield "large-geometric0.01-M170-K20", _underflow(20)


def digest(instance) -> str:
    rows = []
    for strategy in pp.STRATEGIES:
        try:
            results = pp.solve_grid(instance, LAMBDAS, strategy=strategy)
        except pp.SolverContractError:
            rows.append([strategy, "refused"])
            continue
        rows.extend([strategy, list(r.allocation.block_order), r.tie_broken, r.strategy_used] for r in results)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_solver_outputs_match_the_golden_corpus():
    golden = json.loads(GOLDEN.read_text())
    got = {name: digest(instance) for name, instance in corpus()}
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, f"solver outputs changed on {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: digest(inst) for name, inst in corpus()}, indent=1) + "\n")
