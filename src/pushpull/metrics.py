"""Agency metrics and comparative statics.

pull = U_lam / U_1 measures how much of the attainable agent value the
platform delivers at weight lam; push = V_lam / V_0 is the advocate-side
analog. A zero denominator forces the numerator to zero too (utilities are
nonnegative), so the ratio is defined as 1 and flagged degenerate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

from .core import Instance, Partition, ValidationError, is_refinement
from .inference import PosteriorModel, garble, posterior, signal_marginal
# solve is unused here, but perfbench/spans.py traces metrics.solve.
from .solver import SolveResult, _solve_rows, solve, solve_grid

__all__ = [
    "AgencyMetrics",
    "Frontier",
    "MetricStats",
    "GroupSummary",
    "GroupGap",
    "PopulationSummary",
    "NoisePoint",
    "RefinePoint",
    "RefineComparison",
    "lambda_grid",
    "agency_metrics",
    "frontier",
    "critical_lambda",
    "aggregate",
    "noise_sweep",
    "refine_compare",
]


@dataclass(frozen=True)
class AgencyMetrics:
    lam: float
    u_lambda: float
    v_lambda: float
    p_lambda: float
    u_1: float
    v_0: float
    pull: float
    push: float
    degenerate_pull: bool
    degenerate_push: bool


@dataclass(frozen=True)
class Frontier:
    points: tuple[AgencyMetrics, ...]
    grid_spec: tuple[float, float, int]

    def __post_init__(self):
        lams = [p.lam for p in self.points]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValidationError("frontier: lambda values must be strictly increasing")


@dataclass(frozen=True)
class MetricStats:
    mean: float
    variance: float
    min: float
    max: float


@dataclass(frozen=True)
class GroupSummary:
    label: str
    count: int
    pull: MetricStats
    push: MetricStats


@dataclass(frozen=True)
class GroupGap:
    group_a: str
    group_b: str
    pull_gap: float
    push_gap: float


@dataclass(frozen=True)
class PopulationSummary:
    count: int
    pull: MetricStats
    push: MetricStats
    groups: tuple[GroupSummary, ...]
    gaps: tuple[GroupGap, ...]


@dataclass(frozen=True)
class NoisePoint:
    epsilon: float
    avg_u1: float
    avg_v0: float


@dataclass(frozen=True)
class RefinePoint:
    lam: float
    base_objective: float
    refined_objective: float
    delta: float


@dataclass(frozen=True)
class RefineComparison:
    points: tuple[RefinePoint, ...]
    base_u1: float
    base_v0: float
    refined_u1: float
    refined_v0: float


# Upper bound on grid points x catalog objects. A frontier holds one object
# order per point, so 10^7 cells keep those tuples near 100 MB.
MAX_GRID_CELLS = 10_000_000


def _bounded_grid(instance: Instance, grid: tuple[float, float, int]) -> tuple[float, ...]:
    """lambda_grid(*grid), once points x objects is checked against MAX_GRID_CELLS."""
    cells = int(grid[2]) * instance.partition.size
    if cells > MAX_GRID_CELLS:
        raise ValidationError(f"grid: points x objects ({cells}) exceed the limit {MAX_GRID_CELLS}")
    return lambda_grid(*grid)


def lambda_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Evenly spaced lambda values with both endpoints hit exactly."""
    lo, hi, count = float(lo), float(hi), int(count)
    problems = []
    if count < 2:
        problems.append("grid: need at least 2 points")
    if not 0.0 <= lo < hi <= 1.0:
        problems.append(f"grid: need 0 <= min < max <= 1, got [{lo!r}, {hi!r}]")
    if problems:
        raise ValidationError(problems)
    span = hi - lo
    vals = [lo + span * (i / (count - 1)) for i in range(count)]
    vals[0], vals[-1] = lo, hi
    return tuple(vals)


def _ratio(numerator: float, denominator: float) -> tuple[float, bool]:
    if denominator == 0.0:
        return 1.0, True
    return numerator / denominator, False


def _endpoints(
    instance: Instance,
    results: Sequence[SolveResult],
    posterior: PosteriorModel | None,
    strategy: str,
) -> tuple[float, float]:
    """(U_1, V_0), reusing any of `results` already solved at lambda 1 or 0.

    The endpoints missing from `results` are solved in one grid call.
    """
    by_lam = {r.lam: r for r in results}
    missing = [lam for lam in (1.0, 0.0) if lam not in by_lam]
    if missing:
        by_lam.update((r.lam, r) for r in solve_grid(instance, missing, posterior, strategy))
    return by_lam[1.0].agent_value, by_lam[0.0].advocate_value


def _point(at_lam: SolveResult, u_1: float, v_0: float) -> AgencyMetrics:
    pull, degenerate_pull = _ratio(at_lam.agent_value, u_1)
    push, degenerate_push = _ratio(at_lam.advocate_value, v_0)
    return AgencyMetrics(
        lam=at_lam.lam,
        u_lambda=at_lam.agent_value,
        v_lambda=at_lam.advocate_value,
        p_lambda=at_lam.agent_value + at_lam.advocate_value,
        u_1=u_1,
        v_0=v_0,
        pull=pull,
        push=push,
        degenerate_pull=degenerate_pull,
        degenerate_push=degenerate_push,
    )


def agency_metrics(
    instance: Instance,
    lam: float,
    posterior: PosteriorModel | None = None,
    strategy: str = "auto",
) -> AgencyMetrics:
    """Metrics at a single lambda: one grid call solves lam and whichever of 1 and 0 lam is not."""
    results = solve_grid(instance, dict.fromkeys((float(lam), 1.0, 0.0)), posterior, strategy)
    return _point(results[0], *_endpoints(instance, results, posterior, strategy))


def frontier(
    instance: Instance,
    grid: tuple[float, float, int] = (0.0, 1.0, 101),
    posterior: PosteriorModel | None = None,
    strategy: str = "auto",
) -> Frontier:
    """Metrics across a lambda grid; U_1 and V_0 computed once and shared."""
    lams = _bounded_grid(instance, grid)
    results = solve_grid(instance, lams, posterior, strategy)
    u_1, v_0 = _endpoints(instance, results, posterior, strategy)
    points = tuple(_point(r, u_1, v_0) for r in results)
    return Frontier(points=points, grid_spec=(float(grid[0]), float(grid[1]), int(grid[2])))


_CRITICAL_JUMP = 0.25


def critical_lambda(front: Frontier) -> float | None:
    """Grid lambda where the largest pull jump lands, or None if too flat.

    The jump must exceed _CRITICAL_JUMP * (pull range over the grid);
    returns the right endpoint of the jumping step.
    """
    points = front.points
    if len(points) < 3:
        raise ValidationError("frontier: critical lambda needs at least 3 points")
    pulls = [p.pull for p in points]
    spread = max(pulls) - min(pulls)
    if spread == 0.0:
        return None
    jumps = [abs(b - a) for a, b in zip(pulls, pulls[1:])]
    best = max(jumps)
    if best <= _CRITICAL_JUMP * spread:
        return None
    return points[jumps.index(best) + 1].lam


def _stats(values: Sequence[float]) -> MetricStats:
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    return MetricStats(mean=mean, variance=variance, min=min(values), max=max(values))


def aggregate(entries: Sequence[tuple[str, AgencyMetrics]]) -> PopulationSummary:
    """Population statistics of pull and push, grouped by label.

    Variance is the population variance (replicating every group leaves the
    summary unchanged); groups and gaps are ordered lexicographically.
    """
    if not entries:
        raise ValidationError("aggregate: need at least one entry")
    pulls = [m.pull for _, m in entries]
    pushes = [m.push for _, m in entries]
    by_label: dict[str, list[AgencyMetrics]] = {}
    for label, m in entries:
        by_label.setdefault(str(label), []).append(m)
    labels = sorted(by_label)
    groups = tuple(
        GroupSummary(
            label=label,
            count=len(by_label[label]),
            pull=_stats([m.pull for m in by_label[label]]),
            push=_stats([m.push for m in by_label[label]]),
        )
        for label in labels
    )
    means = {g.label: g for g in groups}
    gaps = tuple(
        GroupGap(
            group_a=a,
            group_b=b,
            pull_gap=means[a].pull.mean - means[b].pull.mean,
            push_gap=means[a].push.mean - means[b].push.mean,
        )
        for a in labels
        for b in labels
        if a != b
    )
    return PopulationSummary(
        count=len(entries), pull=_stats(pulls), push=_stats(pushes), groups=groups, gaps=gaps
    )


def noise_sweep(
    instance: Instance, epsilons: Sequence[float], strategy: str = "auto"
) -> tuple[NoisePoint, ...]:
    """Signal-averaged U_1 and V_0 along a garbling chain.

    Expectations are enumerated exactly over signals; zero-probability
    signals are skipped rather than conditioned on.
    """
    channel = instance.signal_model
    if channel is None:
        raise ValidationError("noise sweep: instance has no signal model")
    eps_list = [float(e) for e in epsilons]
    for e in eps_list:
        if not 0.0 <= e <= 1.0:
            raise ValidationError(f"epsilon: must lie in [0, 1], got {e!r}")
    # One solver pass serves every signal of every epsilon: equal posteriors,
    # such as all those at epsilon 1, are solved once.
    beliefs: dict[bytes, PosteriorModel] = {}
    sweep = []
    for eps in eps_list:
        noisy = garble(channel, eps)
        marginal = signal_marginal(instance.type_space, noisy)
        terms = []
        for idx, signal in enumerate(noisy.signals):
            weight = float(marginal[idx])
            if weight == 0.0:
                continue
            belief = posterior(instance.type_space, noisy, signal)
            key = belief.weights.tobytes()
            beliefs.setdefault(key, belief)
            terms.append((weight, key))
        sweep.append((eps, terms))
    solved = _solve_rows(instance, [(belief, (1.0, 0.0)) for belief in beliefs.values()], strategy)
    endpoints = {key: (at_1.agent_value, at_0.advocate_value) for key, (at_1, at_0) in zip(beliefs, solved)}
    return tuple(
        NoisePoint(
            epsilon=eps,
            avg_u1=math.fsum(weight * endpoints[key][0] for weight, key in terms),
            avg_v0=math.fsum(weight * endpoints[key][1] for weight, key in terms),
        )
        for eps, terms in sweep
    )


def refine_compare(
    instance: Instance,
    refined_partition: Partition,
    grid: tuple[float, float, int] = (0.0, 1.0, 101),
    posterior: PosteriorModel | None = None,
    strategy: str = "auto",
) -> RefineComparison:
    """Optimal-objective deltas between a partition and a refinement of it."""
    if not is_refinement(instance.partition, refined_partition):
        raise ValidationError("refine: new partition does not refine the instance partition")
    refined = dataclasses.replace(instance, partition=refined_partition)
    lams = _bounded_grid(instance, grid)
    base_results = solve_grid(instance, lams, posterior, strategy)
    refined_results = solve_grid(refined, lams, posterior, strategy)
    points = tuple(
        RefinePoint(
            lam=b.lam,
            base_objective=b.objective,
            refined_objective=r.objective,
            delta=r.objective - b.objective,
        )
        for b, r in zip(base_results, refined_results)
    )
    base_u1, base_v0 = _endpoints(instance, base_results, posterior, strategy)
    refined_u1, refined_v0 = _endpoints(refined, refined_results, posterior, strategy)
    return RefineComparison(
        points=points,
        base_u1=base_u1,
        base_v0=base_v0,
        refined_u1=refined_u1,
        refined_v0=refined_v0,
    )
