"""Shared builders for the test suite."""

import numpy as np

import pushpull as pp

E1_DOC = {
    "schema_version": 1,
    "catalog": ["o0", "o1", "o2"],
    "partition": [["o0"], ["o1"], ["o2"]],
    "types": ["t0"],
    "prior": [1.0],
    "agent_u": {"t0": [3, 1, 2]},
    "advocate_v": {"t0": [0, 4, 0]},
    "discount": {"kind": "custom", "params": {"weights": [1, 0.5, 0]}},
    "signal_model": None,
}

SIGNAL_DOC = {
    **E1_DOC,
    "signal_model": {"signals": ["s0", "s1"], "likelihood": [[0.5, 0.5]]},
}

E1_LOG = (
    "user_id,group_label,object_id,block_id,agent_score,advocate_score\n"
    "u1,A,o0,b0,3,0\n"
    "u1,A,o1,b1,1,4\n"
    "u1,A,o2,b2,2,0\n"
)


def e1_instance(weights=(1, 0.5, 0)):
    """Three singleton blocks, u=(3,1,2), v=(0,4,0), hand-solvable."""
    return make_instance(
        agent=[[3, 1, 2]],
        advocate=[[0, 4, 0]],
        blocks=((0,), (1,), (2,)),
        weights=weights,
    )


def make_instance(agent, advocate, blocks, weights=None, discount=None, prior=None, signal_model=None):
    agent = [list(map(float, row)) for row in agent]
    m = len(agent[0])
    t = len(agent)
    if discount is None:
        if weights is None:
            weights = tuple(1.0 for _ in range(m))
        discount = pp.make_discount("custom", m, weights=weights)
    if prior is None:
        prior = tuple(1.0 / t for _ in range(t))
    return pp.Instance(
        catalog=pp.Catalog(tuple(f"o{i}" for i in range(m))),
        partition=pp.Partition(tuple(tuple(b) for b in blocks)),
        type_space=pp.TypeSpace(tuple(f"t{i}" for i in range(t)), prior),
        utilities=pp.UtilityTable(agent=agent, advocate=advocate),
        discount=discount,
        signal_model=signal_model,
    )


def random_partition(rng, m, k):
    """k nonempty blocks over a random permutation of range(m)."""
    perm = rng.permutation(m).tolist()
    if k == 1:
        return pp.Partition((tuple(perm),))
    cuts = sorted(rng.choice(np.arange(1, m), size=k - 1, replace=False).tolist())
    blocks, prev = [], 0
    for c in cuts + [m]:
        blocks.append(tuple(perm[prev:c]))
        prev = c
    return pp.Partition(tuple(blocks))


def random_discount(rng, m):
    pick = int(rng.integers(3))
    if pick == 0:
        return pp.make_discount("dcg", m)
    if pick == 1:
        return pp.make_discount("cutoff", m, cutoff=int(rng.integers(1, m + 1)))
    return pp.make_discount("geometric", m, beta=float(rng.choice([0.3, 0.5, 0.9])))


def block_major_contribs(partition, scores, weights):
    """contrib[b, off], shape (K, M+1): the value of block b when its run
    starts at position off, 0.0 past its last start. The solver keeps the
    same values position-major, entry off * K + b."""
    m = partition.size
    scores = np.asarray(scores, dtype=float)
    contrib = np.zeros((partition.block_count, m + 1))
    for b, block in enumerate(partition.blocks):
        contrib[b, : m - len(block) + 1] = np.correlate(weights, scores[list(block)], mode="valid")
    return contrib
