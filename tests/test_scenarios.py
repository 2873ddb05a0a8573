import dataclasses

import numpy as np
import pytest

import pushpull as pp


def test_generate_is_seed_deterministic():
    spec = pp.ScenarioSpec(kind="random", seed=99, objects=10, blocks=4, types=3, signals=3)
    a = pp.generate(spec)
    b = pp.generate(spec)
    assert a == b


def test_different_seeds_differ():
    a = pp.generate(pp.ScenarioSpec(kind="random", seed=1, objects=10, blocks=4, types=2, signals=2))
    b = pp.generate(pp.ScenarioSpec(kind="random", seed=2, objects=10, blocks=4, types=2, signals=2))
    assert not np.array_equal(a.utilities.agent, b.utilities.agent)


def test_generated_instances_validate():
    for kind in pp.KINDS[:4]:
        inst = pp.generate(pp.ScenarioSpec(kind=kind, seed=7, objects=9, blocks=3, types=2, signals=2))
        assert inst.size == 9
        assert inst.partition.block_count == 3
        assert inst.signal_model is not None


def test_aligned_tables_are_identical():
    inst = pp.generate(pp.ScenarioSpec(kind="aligned", seed=3, objects=8, blocks=2, types=2, signals=2))
    assert np.array_equal(inst.utilities.agent, inst.utilities.advocate)


def test_anti_aligned_tables_sum_to_ceiling():
    inst = pp.generate(pp.ScenarioSpec(kind="anti_aligned", seed=3, objects=8, blocks=2, types=2, signals=2))
    total = inst.utilities.agent + inst.utilities.advocate
    assert np.allclose(total, total.flat[0])
    assert (inst.utilities.advocate >= 0).all()


def test_orthogonal_agent_rows_are_constant():
    inst = pp.generate(pp.ScenarioSpec(kind="orthogonal", seed=3, objects=8, blocks=2, types=3, signals=2))
    for row in inst.utilities.agent:
        assert np.all(row == row[0])
        assert row[0] > 0


def test_orthogonal_lambda_one_returns_identity_order():
    # constant agent scores: every order ties at lambda=1, agent values tie
    # too, so the contract picks the lexicographically smallest block order
    inst = pp.generate(pp.ScenarioSpec(kind="orthogonal", seed=11, objects=7, blocks=3, types=2, signals=2))
    r = pp.solve(pp.SolveRequest(inst, 1.0))
    assert r.allocation.block_order == tuple(range(inst.partition.block_count))
    assert r.tie_broken


def test_prior_is_dyadic_and_sums_to_one():
    for seed in range(10):
        inst = pp.generate(pp.ScenarioSpec(kind="random", seed=seed, objects=6, blocks=2, types=5, signals=2))
        prior = inst.type_space.prior
        assert float(prior.sum()) == 1.0  # dyadic halving sums exactly
        for p in prior:
            assert p > 0
            mantissa = float(p) * 2 ** 52
            assert mantissa == int(mantissa)


def test_partition_blocks_are_balanced_chunks():
    inst = pp.generate(pp.ScenarioSpec(kind="random", seed=4, objects=10, blocks=4, types=2, signals=2))
    lengths = sorted(inst.partition.block_lengths())
    assert lengths == [2, 2, 3, 3]


def test_preset_requires_name():
    with pytest.raises(pp.ValidationError):
        pp.ScenarioSpec(kind="preset", seed=1)


def test_preset_dims_apply():
    spec = pp.ScenarioSpec(kind="preset", seed=1, preset_name="content")
    inst = pp.generate(spec)
    assert inst.size == 40
    assert inst.partition.block_count == 12
    assert inst.discount.kind == "cutoff"


def test_explicit_dims_override_preset():
    spec = pp.ScenarioSpec(kind="preset", seed=1, preset_name="content", objects=15, blocks=5)
    inst = pp.generate(spec)
    assert inst.size == 15
    assert inst.partition.block_count == 5


def test_discount_override_wins():
    spec = pp.ScenarioSpec(
        kind="aligned", seed=6, objects=6, blocks=2, types=2, signals=2,
        discount=("geometric", {"beta": 0.5}),
    )
    inst = pp.generate(spec)
    assert inst.discount.kind == "geometric"
    assert inst.discount.params["beta"] == 0.5


def test_spec_validates_dims_and_kind():
    with pytest.raises(pp.ValidationError):
        pp.ScenarioSpec(kind="diagonal", seed=1)
    with pytest.raises(pp.ValidationError):
        pp.ScenarioSpec(kind="random", seed=1, objects=0)
    with pytest.raises(pp.ValidationError):
        pp.ScenarioSpec(kind="random", seed=-1)
    with pytest.raises(pp.ValidationError):
        pp.ScenarioSpec(kind="random", seed=1, objects=3, blocks=5).dims()


def test_kind_helpers_rewrite_kind():
    spec = pp.ScenarioSpec(kind="random", seed=8, objects=6, blocks=2, types=2, signals=2)
    aligned = pp.generate(dataclasses.replace(spec, kind="aligned"))
    assert np.array_equal(aligned.utilities.agent, aligned.utilities.advocate)
    anti = pp.generate(dataclasses.replace(spec, kind="anti_aligned"))
    total = anti.utilities.agent + anti.utilities.advocate
    assert np.allclose(total, total.flat[0])
    orth = pp.generate(dataclasses.replace(spec, kind="orthogonal"))
    assert np.all(orth.utilities.agent[0] == orth.utilities.agent[0][0])


def test_random_utilities_land_in_unit_interval():
    inst = pp.generate(pp.ScenarioSpec(kind="random", seed=21, objects=12, blocks=3, types=3, signals=2))
    assert (inst.utilities.agent >= 0).all() and (inst.utilities.agent < 1).all()
    assert (inst.utilities.advocate >= 0).all() and (inst.utilities.advocate < 1).all()
