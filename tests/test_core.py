import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushpull as pp

from helpers import make_instance, random_partition


def test_make_discount_dcg_values():
    d = pp.make_discount("dcg", 3)
    assert d.weights[0] == 1.0
    assert d.weights[2] == pytest.approx(0.5)
    assert d.weights[1] == pytest.approx(1.0 / math.log2(3))


def test_make_discount_cutoff_table():
    d = pp.make_discount("cutoff", 4, cutoff=2)
    assert tuple(d.weights) == (1.0, 1.0, 0.0, 0.0)


def test_make_discount_geometric_table():
    d = pp.make_discount("geometric", 3, beta=0.5)
    assert tuple(d.weights) == (1.0, 0.5, 0.25)


def test_make_discount_custom_passthrough():
    d = pp.make_discount("custom", 3, weights=(1, 0.5, 0))
    assert tuple(d.weights) == (1.0, 0.5, 0.0)
    assert d.kind == "custom"


def test_discount_rejects_increasing_table():
    with pytest.raises(pp.ValidationError):
        pp.make_discount("custom", 3, weights=(1, 0.4, 0.6))


def test_discount_rejects_head_not_one():
    with pytest.raises(pp.ValidationError):
        pp.make_discount("custom", 2, weights=(0.9, 0.5))


def test_discount_rejects_bad_beta():
    for beta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(pp.ValidationError):
            pp.make_discount("geometric", 3, beta=beta)


def test_discount_rejects_unknown_kind():
    with pytest.raises(pp.ValidationError):
        pp.make_discount("zipf", 3)


def test_allocation_value_identity_example():
    # scores (3,1,2) against (1,0.5,0) in stored order
    part = pp.Partition(((0,), (1,), (2,)))
    d = pp.make_discount("custom", 3, weights=(1, 0.5, 0))
    alloc = pp.build_allocation(part, range(part.block_count))
    assert pp.allocation_value(alloc, [3, 1, 2], d) == 3.5


def test_allocation_value_cutoff_counts_head_only():
    part = pp.Partition(((2,), (0,), (1,)))
    d = pp.make_discount("cutoff", 3, cutoff=1)
    alloc = pp.build_allocation(part, range(part.block_count))
    assert pp.allocation_value(alloc, [3, 1, 2], d) == 2.0


def test_allocation_positions_invert_order():
    part = pp.Partition(((0, 1), (2,)))
    alloc = pp.build_allocation(part, (1, 0))
    assert alloc.object_order == (2, 0, 1)
    assert alloc.object_order.index(2) == 0
    assert alloc.object_order.index(0) == 1


def test_build_allocation_rejects_non_permutation():
    part = pp.Partition(((0,), (1,)))
    with pytest.raises(pp.ValidationError):
        pp.build_allocation(part, (0, 0))


@given(
    scores=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=6),
    scale=st.floats(0.01, 50),
    shift=st.lists(st.floats(0, 10), min_size=2, max_size=6),
)
@settings(max_examples=120, deadline=None)
def test_allocation_value_is_linear_in_scores(scores, scale, shift):
    m = len(scores)
    shift = (shift * m)[:m]
    part = pp.Partition(tuple((i,) for i in range(m)))
    d = pp.make_discount("dcg", m)
    alloc = pp.build_allocation(part, range(part.block_count))
    lhs = pp.allocation_value(alloc, [scale * a + b for a, b in zip(scores, shift)], d)
    rhs = scale * pp.allocation_value(alloc, scores, d) + pp.allocation_value(alloc, shift, d)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_enumerate_allocations_counts_singletons():
    for m in range(1, 6):
        part = pp.Partition(tuple((i,) for i in range(m)))
        assert len(list(pp.enumerate_allocations(part))) == math.factorial(m)


def test_enumerate_allocations_single_block_is_unique():
    part = pp.Partition(((2, 0, 1),))
    allocs = list(pp.enumerate_allocations(part))
    assert len(allocs) == 1
    assert allocs[0].object_order == (2, 0, 1)


def test_enumeration_is_lexicographic_in_block_order():
    part = pp.Partition(((0,), (1,), (2,)))
    orders = [a.block_order for a in pp.enumerate_allocations(part)]
    assert orders == sorted(orders)


def test_refine_partition_split_example():
    part = pp.Partition(((0, 1, 2),))
    refined = pp.refine_partition(part, {0: [1]})
    assert refined.blocks == ((0,), (1, 2))


def test_refine_partition_empty_spec_is_weak_refinement():
    part = pp.Partition(((0, 1), (2,)))
    refined = pp.refine_partition(part, {})
    assert refined.blocks == part.blocks
    assert pp.is_refinement(part, refined)
    assert refined.block_count == part.block_count


def test_singletonize_grows_allocation_count():
    part = pp.Partition(((0, 1), (2,)))
    before = len(list(pp.enumerate_allocations(part)))
    refined = pp.singletonize(part)
    after = len(list(pp.enumerate_allocations(refined)))
    assert (before, after) == (2, 6)
    assert pp.is_refinement(part, refined)
    assert refined.block_count > part.block_count


def test_refine_partition_rejects_bad_offsets():
    part = pp.Partition(((0, 1, 2),))
    for spec in ({0: [0]}, {0: [3]}, {1: [1]}):
        with pytest.raises(pp.ValidationError):
            pp.refine_partition(part, spec)


def test_refine_partition_duplicate_offsets_collapse():
    # a repeated offset means one cut, not an empty middle piece
    part = pp.Partition(((0, 1, 2),))
    assert pp.refine_partition(part, {0: [1, 1]}) == pp.refine_partition(part, {0: [1]})


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_random_splits_are_refinements(data):
    m = data.draw(st.integers(2, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    k = int(rng.integers(1, m + 1))
    part = random_partition(rng, m, k)
    spec = {}
    for b, block in enumerate(part.blocks):
        if len(block) > 1 and rng.random() < 0.6:
            spec[b] = [int(rng.integers(1, len(block)))]
    refined = pp.refine_partition(part, spec)
    assert pp.is_refinement(part, refined)
    assert (refined.block_count > part.block_count) == bool(spec)


def test_refinement_allocations_nest():
    # every allocation available under the coarse partition stays available
    part = pp.Partition(((0, 1), (2, 3)))
    refined = pp.refine_partition(part, {0: [1]})
    coarse = {a.object_order for a in pp.enumerate_allocations(part)}
    fine = {a.object_order for a in pp.enumerate_allocations(refined)}
    assert coarse <= fine


def test_is_refinement_rejects_reordered_interior():
    base = pp.Partition(((0, 1, 2),))
    assert not pp.is_refinement(base, pp.Partition(((1, 0), (2,))))
    assert not pp.is_refinement(base, pp.Partition(((0, 2), (1,))))


def test_is_refinement_ignores_block_listing_order():
    # feasible sets only see block contents, so how the fine blocks are
    # listed cannot matter
    base = pp.Partition(((0, 1, 2),))
    assert pp.is_refinement(base, pp.Partition(((1,), (0,), (2,))))


def test_partition_rejects_overlap_and_gap():
    with pytest.raises(pp.ValidationError):
        pp.Partition(((0, 1), (1, 2)))
    with pytest.raises(pp.ValidationError):
        pp.Partition(((0,), (2,)))


def test_partition_rejects_empty_block():
    with pytest.raises(pp.ValidationError):
        pp.Partition(((0, 1), ()))


def test_catalog_rejects_duplicate_ids():
    with pytest.raises(pp.ValidationError):
        pp.Catalog(("a", "a"))


def test_type_space_prior_must_sum_to_one():
    with pytest.raises(pp.ValidationError):
        pp.TypeSpace(("t0", "t1"), (0.7, 0.7))


def test_utilities_reject_negative_scores():
    with pytest.raises(pp.ValidationError) as err:
        make_instance(agent=[[1, -2]], advocate=[[0, 0]], blocks=((0,), (1,)))
    assert any("agent_u" in v for v in err.value.violations)


def test_validation_collects_multiple_problems():
    inst_errors = []
    try:
        pp.Instance(
            catalog=pp.Catalog(("a", "b")),
            partition=pp.Partition(((0,), (1,))),
            type_space=pp.TypeSpace(("t0",), (1.0,)),
            utilities=pp.UtilityTable(agent=[[1, 2, 3]], advocate=[[1, 2, 3]]),
            discount=pp.make_discount("dcg", 5),
        )
    except pp.ValidationError as err:
        inst_errors = list(err.violations)
    assert len(inst_errors) >= 2


def test_validate_instance_passes_on_good_input():
    # Construction runs the cross-component checks; rebuilding runs them again.
    inst = make_instance(agent=[[1, 2]], advocate=[[2, 1]], blocks=((0,), (1,)))
    assert dataclasses.replace(inst) == inst


def test_empty_prior_and_likelihood_are_validation_errors():
    with pytest.raises(pp.ValidationError, match="prior"):
        pp.TypeSpace((), [])
    with pytest.raises(pp.ValidationError, match="likelihood"):
        pp.SignalChannel((), [[]])


def _signal_instance():
    channel = pp.SignalChannel(("s0", "s1"), [[0.5, 0.5], [0.9, 0.1]])
    return make_instance(
        agent=[[3, 1, 2], [1, 1, 1]], advocate=[[0, 4, 0], [1, 0, 1]],
        blocks=((0,), (1, 2)), weights=(1, 0.5, 0), signal_model=channel,
    )


# Each value type: a builder of a fresh copy, and a change of one array field.
VALUE_TYPES = {
    "DiscountCurve": (
        lambda: pp.make_discount("custom", 3, weights=(1, 0.5, 0)),
        lambda d: dataclasses.replace(d, weights=(1, 0.5, 0.25)),
    ),
    "TypeSpace": (
        lambda: pp.TypeSpace(("t0", "t1"), (0.5, 0.5)),
        lambda t: dataclasses.replace(t, prior=(0.25, 0.75)),
    ),
    "UtilityTable": (
        lambda: pp.UtilityTable(agent=[[3, 1, 2]], advocate=[[0, 4, 0]]),
        lambda u: dataclasses.replace(u, agent=[[3, 1, 2.5]]),
    ),
    "Instance": (
        _signal_instance,
        lambda i: dataclasses.replace(
            i, utilities=dataclasses.replace(i.utilities, advocate=[[0, 4, 0], [1, 0, 2]])
        ),
    ),
    "SignalChannel": (
        lambda: pp.SignalChannel(("s0", "s1"), [[0.5, 0.5], [0.9, 0.1]]),
        lambda c: dataclasses.replace(c, likelihood=[[0.5, 0.5], [0.8, 0.2]]),
    ),
    "PosteriorModel": (
        lambda: pp.PosteriorModel((0.25, 0.75), observed_signal="s0"),
        lambda p: dataclasses.replace(p, weights=(0.75, 0.25)),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_compare_by_value_and_are_unhashable(name):
    build, change = VALUE_TYPES[name]
    value, copy = build(), build()
    assert type(value).__name__ == name
    assert value is not copy and value == copy and not value != copy
    changed = change(value)
    assert changed != value and not changed == value
    assert value != object() and not value == object()
    with pytest.raises(TypeError):
        hash(value)


@pytest.mark.parametrize(
    "build, field, noun",
    [
        (lambda ids: pp.Catalog(ids), "catalog", "object"),
        (lambda ids: pp.TypeSpace(ids, [1.0 / max(1, len(ids))] * len(ids)), "types", "type"),
        (lambda ids: pp.SignalChannel(ids, [[1.0 / max(1, len(ids))] * len(ids)]), "signals", "signal"),
    ],
)
def test_identifier_lists_must_be_nonempty_and_unique(build, field, noun):
    with pytest.raises(pp.ValidationError) as err:
        build(())
    assert f"{field}: must contain at least one {noun}" in err.value.violations
    with pytest.raises(pp.ValidationError) as err:
        build(("a", "a"))
    assert err.value.violations == (f"{field}: {noun} identifiers must be unique",)
