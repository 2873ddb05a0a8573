import math

import numpy as np
import pytest

import pushpull as pp
from pushpull import metrics

from helpers import e1_instance, make_instance


def test_lambda_grid_endpoints_and_spacing():
    grid = pp.lambda_grid(0.0, 1.0, 101)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert len(grid) == 101
    assert grid[50] == 0.5


def test_lambda_grid_rejects_bad_ranges():
    for lo, hi, n in ((0.5, 0.5, 3), (-0.1, 1.0, 3), (0.0, 1.2, 3), (0.0, 1.0, 1)):
        with pytest.raises(pp.ValidationError):
            pp.lambda_grid(lo, hi, n)


def test_agency_metrics_e1_midpoint():
    m = pp.agency_metrics(e1_instance(), 0.5)
    assert m.u_lambda == 2.5
    assert m.v_lambda == 4.0
    assert m.p_lambda == 6.5
    assert m.u_1 == 4.0
    assert m.v_0 == 4.0
    assert m.pull == 0.625
    assert m.push == 1.0
    assert not m.degenerate_pull and not m.degenerate_push


def test_metrics_pull_one_at_lambda_one():
    m = pp.agency_metrics(e1_instance(), 1.0)
    assert m.pull == 1.0


def test_metrics_push_one_at_lambda_zero():
    m = pp.agency_metrics(e1_instance(), 0.0)
    assert m.push == 1.0


def test_p_equals_u_plus_v():
    inst = pp.generate(pp.ScenarioSpec(kind="random", seed=2, objects=8, blocks=3, types=2, signals=2))
    for lam in (0.0, 0.3, 0.7, 1.0):
        m = pp.agency_metrics(inst, lam)
        assert m.p_lambda == pytest.approx(m.u_lambda + m.v_lambda, rel=1e-12)


def test_degenerate_pull_flags_zero_denominator():
    inst = make_instance(agent=[[0, 0]], advocate=[[1, 2]], blocks=((0,), (1,)), weights=(1, 0.5))
    m = pp.agency_metrics(inst, 0.5)
    assert m.degenerate_pull
    assert m.pull == 1.0


def test_degenerate_push_flags_zero_denominator():
    inst = make_instance(agent=[[1, 2]], advocate=[[0, 0]], blocks=((0,), (1,)), weights=(1, 0.5))
    m = pp.agency_metrics(inst, 0.5)
    assert m.degenerate_push
    assert m.push == 1.0


def test_metrics_permutation_equivariance():
    # relabeling objects together with utilities leaves pull/push unchanged
    inst = make_instance(
        agent=[[3, 1, 2]], advocate=[[0, 4, 0]], blocks=((0,), (1,), (2,)), weights=(1, 0.5, 0)
    )
    swapped = make_instance(
        agent=[[1, 3, 2]], advocate=[[4, 0, 0]], blocks=((0,), (1,), (2,)), weights=(1, 0.5, 0)
    )
    a = pp.agency_metrics(inst, 0.5)
    b = pp.agency_metrics(swapped, 0.5)
    assert a.pull == b.pull
    assert a.push == b.push


def test_uniform_agent_scaling_preserves_pull():
    base = pp.agency_metrics(e1_instance(), 1.0)
    scaled = make_instance(
        agent=[[6, 2, 4]], advocate=[[0, 4, 0]], blocks=((0,), (1,), (2,)), weights=(1, 0.5, 0)
    )
    top = pp.agency_metrics(scaled, 1.0)
    assert top.pull == base.pull == 1.0
    assert pp.solve(pp.SolveRequest(scaled, 1.0)).allocation.object_order == pp.solve(
        pp.SolveRequest(e1_instance(), 1.0)
    ).allocation.object_order


def test_frontier_two_point_grid():
    front = pp.frontier(e1_instance(), (0.0, 1.0, 2))
    p0, p1 = front.points
    assert p0.lam == 0.0 and p1.lam == 1.0
    assert p1.pull == 1.0
    assert p0.push == 1.0
    # U_0 / U_1 and V_1 / V_0 at the ends
    assert p0.pull == pytest.approx(p0.u_lambda / p1.u_lambda)
    assert p1.push == pytest.approx(p1.v_lambda / p0.v_lambda)


def test_frontier_shares_endpoint_normalizers():
    front = pp.frontier(e1_instance(), (0.0, 1.0, 5))
    u1s = {p.u_1 for p in front.points}
    v0s = {p.v_0 for p in front.points}
    assert len(u1s) == 1 and len(v0s) == 1


def test_frontier_interior_grid_still_normalizes_by_endpoints():
    front = pp.frontier(e1_instance(), (0.25, 0.75, 3))
    full = pp.agency_metrics(e1_instance(), 0.5)
    mid = front.points[1]
    assert mid.lam == 0.5
    assert mid.pull == full.pull
    assert mid.push == full.push


def test_critical_lambda_needs_three_points():
    front = pp.frontier(e1_instance(), (0.0, 1.0, 2))
    with pytest.raises(pp.ValidationError):
        pp.critical_lambda(front)


def test_critical_lambda_flat_frontier_is_none():
    inst = pp.generate(pp.ScenarioSpec(kind="aligned", seed=5, objects=8, blocks=3, types=2, signals=2))
    front = pp.frontier(inst, (0.0, 1.0, 21))
    assert pp.critical_lambda(front) is None


def test_critical_lambda_detects_anti_aligned_jump():
    inst = pp.generate(pp.ScenarioSpec(kind="anti_aligned", seed=5, objects=8, blocks=3, types=2, signals=2))
    front = pp.frontier(inst, (0.0, 1.0, 101))
    crit = pp.critical_lambda(front)
    assert crit is not None
    assert abs(crit - 0.5) <= 0.01 + 1e-12


def test_aggregate_example_means_and_gap():
    def fake(pull):
        return pp.AgencyMetrics(
            lam=0.5, u_lambda=1.0, v_lambda=1.0, p_lambda=2.0, u_1=1.0, v_0=1.0,
            pull=pull, push=1.0, degenerate_pull=False, degenerate_push=False,
        )

    summary = pp.aggregate([("A", fake(0.4)), ("B", fake(0.8))])
    assert summary.pull.mean == pytest.approx(0.6)
    gap = {(g.group_a, g.group_b): g.pull_gap for g in summary.gaps}
    assert gap[("A", "B")] == pytest.approx(-0.4)
    assert gap[("B", "A")] == pytest.approx(0.4)


def test_aggregate_replication_idempotence():
    def fake(pull):
        return pp.AgencyMetrics(
            lam=0.5, u_lambda=1.0, v_lambda=1.0, p_lambda=2.0, u_1=1.0, v_0=1.0,
            pull=pull, push=1.0, degenerate_pull=False, degenerate_push=False,
        )

    once = pp.aggregate([("A", fake(0.4)), ("B", fake(0.8))])
    twice = pp.aggregate([("A", fake(0.4)), ("B", fake(0.8))] * 2)
    assert once.pull.mean == twice.pull.mean
    assert once.pull.variance == twice.pull.variance
    assert once.push.variance == twice.push.variance


def test_aggregate_rejects_empty_population():
    with pytest.raises(pp.ValidationError):
        pp.aggregate([])


def test_aggregate_groups_sorted_by_label():
    def fake():
        return pp.AgencyMetrics(
            lam=0.5, u_lambda=1.0, v_lambda=1.0, p_lambda=2.0, u_1=1.0, v_0=1.0,
            pull=0.5, push=1.0, degenerate_pull=False, degenerate_push=False,
        )

    summary = pp.aggregate([("z", fake()), ("a", fake()), ("m", fake())])
    assert [g.label for g in summary.groups] == ["a", "m", "z"]


def test_noise_sweep_requires_signal_model():
    with pytest.raises(pp.ValidationError):
        pp.noise_sweep(e1_instance(), (0.0, 1.0))


def test_noise_sweep_monotone_and_exact_at_one():
    inst = pp.generate(pp.ScenarioSpec(kind="random", seed=31, objects=8, blocks=3, types=4, signals=4))
    points = pp.noise_sweep(inst, (0.0, 0.25, 0.5, 0.75, 1.0))
    for a, b in zip(points, points[1:]):
        assert b.avg_u1 <= a.avg_u1 + 1e-9 * max(1.0, abs(a.avg_u1))
    prior_u1 = pp.solve(pp.SolveRequest(inst, 1.0)).agent_value
    prior_v0 = pp.solve(pp.SolveRequest(inst, 0.0)).advocate_value
    assert points[-1].avg_u1 == prior_u1
    assert points[-1].avg_v0 == prior_v0


def test_noise_sweep_perfect_channel_beats_prior():
    # identity channel at eps=0 extracts full type information
    ident = pp.SignalChannel(signals=("s0", "s1"), likelihood=[[1.0, 0.0], [0.0, 1.0]])
    inst = make_instance(
        agent=[[5, 0], [0, 5]],
        advocate=[[1, 1], [1, 1]],
        blocks=((0,), (1,)),
        weights=(1, 0),
        signal_model=ident,
    )
    points = pp.noise_sweep(inst, (0.0, 1.0))
    assert points[0].avg_u1 == 5.0
    assert points[-1].avg_u1 == 2.5


def _sweep_one_solve_per_signal(inst, epsilons):
    """noise_sweep as one two-row solve_grid per epsilon and signal."""
    points = []
    for eps in epsilons:
        noisy = pp.garble(inst.signal_model, eps)
        marginal = pp.signal_marginal(inst.type_space, noisy)
        u_terms, v_terms = [], []
        for idx, signal in enumerate(noisy.signals):
            weight = float(marginal[idx])
            if weight == 0.0:
                continue
            at_1, at_0 = pp.solve_grid(inst, (1.0, 0.0), pp.posterior(inst.type_space, noisy, signal))
            u_terms.append(weight * at_1.agent_value)
            v_terms.append(weight * at_0.advocate_value)
        points.append(pp.NoisePoint(epsilon=eps, avg_u1=math.fsum(u_terms), avg_v0=math.fsum(v_terms)))
    return tuple(points)


def _swept(kind, seed, objects, blocks, discount):
    spec = pp.ScenarioSpec(
        kind=kind, seed=seed, objects=objects, blocks=blocks, types=3, signals=3, discount=discount
    )
    return pp.generate(spec)


def _singletons_with_a_silent_signal():
    # Signal s2 never fires, so at epsilon 0 its weight is 0 and it is skipped.
    channel = pp.SignalChannel(("s0", "s1", "s2"), [[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0]])
    return make_instance(
        agent=[[3, 1, 2, 0, 4], [1, 4, 0, 2, 2], [2, 2, 3, 1, 0]],
        advocate=[[0, 4, 0, 1, 1], [2, 0, 1, 3, 0], [1, 1, 1, 1, 1]],
        blocks=((0,), (1,), (2,), (3,), (4,)),
        discount=pp.make_discount("dcg", 5),
        signal_model=channel,
    )


def _blocks_with_tied_rows():
    # Small integer scores tie many rows before the cutoff, so posteriors
    # that differ share chunks of the agent-value pass.
    likelihood = [[1 / 2, 1 / 3, 1 / 6], [1 / 7, 3 / 7, 3 / 7], [1 / 3, 1 / 3, 1 / 3]]
    channel = pp.SignalChannel(("s0", "s1", "s2"), likelihood)
    return make_instance(
        agent=[[1, 0, 0, 0, 2, 1, 1, 2], [2, 2, 1, 2, 2, 2, 2, 2], [2, 2, 0, 0, 1, 1, 0, 2]],
        advocate=[[1, 0, 1, 0, 2, 2, 1, 2], [0, 2, 0, 2, 1, 1, 2, 2], [1, 2, 1, 2, 2, 0, 0, 1]],
        blocks=((0, 1), (2,), (3, 4), (5,), (6, 7)),
        discount=pp.make_discount("cutoff", 8, cutoff=5),
        prior=(0.5, 0.25, 0.25),
        signal_model=channel,
    )


@pytest.mark.parametrize(
    "build, strategy",
    [
        (lambda: _swept("random", 5, 14, 6, ("dcg", {})), "subset_dp"),
        (lambda: _swept("anti_aligned", 6, 14, 7, ("cutoff", {"cutoff": 5})), "subset_dp"),
        (_blocks_with_tied_rows, "subset_dp"),
        (lambda: _swept("random", 7, 14, 6, ("geometric", {"beta": 0.6})), "geometric_index"),
        (_singletons_with_a_silent_signal, "sort"),
        (lambda: _swept("random", 8, 30, 21, ("dcg", {})), "local_search"),
    ],
    ids=["subset_dp-dcg", "subset_dp-cutoff", "subset_dp-ties", "geometric_index", "sort", "local_search"],
)
def test_noise_sweep_equals_one_solve_per_signal_in_one_solver_call(monkeypatch, build, strategy):
    inst = build()
    assert pp.solve(pp.SolveRequest(inst, 0.5)).strategy_used == strategy
    epsilons = (0.0, 0.25, 0.5, 0.75, 1.0)
    want = _sweep_one_solve_per_signal(inst, epsilons)
    calls = []
    solve_rows = metrics._solve_rows

    def spy(*args):
        calls.append(args)
        return solve_rows(*args)

    monkeypatch.setattr(metrics, "_solve_rows", spy)
    assert pp.noise_sweep(inst, epsilons) == want
    assert len(calls) == 1


def test_empty_noise_sweep_solves_nothing():
    # Nine blocks are past brute force's limit, but no epsilon asks for a solve.
    inst = _swept("random", 9, 9, 9, ("dcg", {}))
    assert pp.noise_sweep(inst, [], "brute_force") == ()


def test_refine_compare_requires_actual_refinement():
    inst = e1_instance()
    coarser = pp.Partition(((0, 1), (2,)))
    with pytest.raises(pp.ValidationError):
        pp.refine_compare(inst, coarser, (0.0, 1.0, 3))


def test_refine_compare_single_block_vs_singletons():
    inst = make_instance(agent=[[0, 0.1]], advocate=[[0, 0]], blocks=((0, 1),), weights=(1, 0.5))
    refined = pp.singletonize(inst.partition)
    comparison = pp.refine_compare(inst, refined, (0.0, 1.0, 21))
    deltas = {p.lam: p.delta for p in comparison.points}
    assert deltas[1.0] > 0.0
    assert all(d >= -1e-12 for d in deltas.values())
    assert comparison.refined_u1 > comparison.base_u1


def test_refine_compare_identical_partition_zero_delta_everywhere():
    inst = e1_instance()
    comparison = pp.refine_compare(inst, inst.partition, (0.0, 1.0, 11))
    assert all(p.delta == 0.0 for p in comparison.points)


@pytest.mark.parametrize("objects, points", [(2000, 101), (5000, 21), (100, 10001)])
def test_grid_bound_admits_the_largest_grids_in_use(monkeypatch, objects, points):
    # The benchmark's largest frontiers, and a 10001-point frontier at M=100.
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(pp.metrics, "lambda_grid", reached)
    inst = make_instance(agent=[[1.0] * objects], advocate=[[0.0] * objects], blocks=[(i,) for i in range(objects)])
    with pytest.raises(Reached):
        pp.frontier(inst, (0.0, 1.0, points))
    with pytest.raises(Reached):
        pp.refine_compare(inst, inst.partition, (0.0, 1.0, points))


def test_grid_bound_counts_points_times_objects():
    inst = make_instance(agent=[[1.0] * 1000], advocate=[[0.0] * 1000], blocks=[(i,) for i in range(1000)])
    with pytest.raises(pp.ValidationError, match="points x objects"):
        pp.frontier(inst, (0.0, 1.0, pp.metrics.MAX_GRID_CELLS // 1000 + 1))
