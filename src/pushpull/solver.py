"""Allocation optimizers.

Every strategy maximizes the same objective: the position-discounted sum
of a per-object score vector over feasible block orders. The platform
objective lam * E[U] + (1 - lam) * E[V] reduces to that form because both
sides are linear in per-object scores.

Tie-break contract, shared by all strategies: among objective maximizers,
(1) prefer the larger expected agent value, (2) then the lexicographically
smallest block order. Candidates count as tied when their objectives agree
within _tol(scale) = TIE_TOL * max(1, |scale|); results carry a tie_broken
flag whenever that rule fired. The exact strategies agree whenever every
gap between rival objectives is 0 or far above TIE_TOL. Near that
tolerance they apply it at different places: the index rules tie a block
with the first member of its run, brute force ties whole orders, and the
DP walk ties each step, so its slack can add up. Those disagreements, and
the geometric tail whose weights fall below TIE_TOL, are known and pinned
by strict xfail tests.

Strategies live in one table keyed by name. Each row pairs a precondition,
which names why a strategy cannot solve an instance, with an order
function that solves a whole lambda list at once. `auto` runs the first of
sort, geometric_index, subset_dp and local_search whose precondition
holds; solve() is solve_grid() on one lambda.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    Allocation,
    DiscountCurve,
    Instance,
    Partition,
    ValidationError,
    allocation_value,
    build_allocation,
)
from .inference import PosteriorModel, expected_scores, prior_posterior

__all__ = [
    "TIE_TOL",
    "DP_SUBSET_LIMIT",
    "BRUTE_FORCE_LIMIT",
    "STRATEGIES",
    "SolverContractError",
    "SolveRequest",
    "SolveResult",
    "combined_scores",
    "brute_force_oracle",
    "solve",
    "solve_grid",
]

# Absolute tolerance for tie detection on max(1, |value|)-normalized objectives.
TIE_TOL = 1e-12

DP_SUBSET_LIMIT = 20
BRUTE_FORCE_LIMIT = 8

STRATEGIES = ("auto", "sort", "subset_dp", "geometric_index", "local_search", "brute_force")

# Cap on rows * subsets held in memory at once when solving a lambda grid.
_DP_CELL_BUDGET = 1 << 24


class SolverContractError(RuntimeError):
    """A strategy was asked to run outside its stated preconditions."""


@dataclass(frozen=True)
class SolveRequest:
    instance: Instance
    lam: float
    posterior: PosteriorModel | None = None
    strategy: str = "auto"

    def __post_init__(self):
        lam = float(self.lam)
        object.__setattr__(self, "lam", lam)
        problems = []
        if not np.isfinite(lam) or not 0.0 <= lam <= 1.0:
            problems.append(f"lambda: must lie in [0, 1], got {lam!r}")
        if self.strategy not in STRATEGIES:
            problems.append(f"strategy: unknown strategy {self.strategy!r}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class SolveResult:
    allocation: Allocation
    objective: float
    agent_value: float
    advocate_value: float
    lam: float
    strategy_used: str
    tie_broken: bool


def combined_scores(lam: float, agent_scores, advocate_scores) -> np.ndarray:
    """Collapse the two-sided objective into one per-object score vector."""
    u = np.asarray(agent_scores, dtype=float)
    v = np.asarray(advocate_scores, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValidationError("scores: agent and advocate vectors must share one length")
    if not 0.0 <= float(lam) <= 1.0:
        raise ValidationError(f"lambda: must lie in [0, 1], got {lam!r}")
    return float(lam) * u + (1.0 - float(lam)) * v


def _checked_scores(scores, size: int, label: str = "scores") -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size != size:
        raise ValidationError(f"{label}: expected a vector of length {size}")
    if not np.isfinite(s).all():
        raise ValidationError(f"{label}: entries must be finite")
    return s


def _tol(scale) -> float:
    """The tie tolerance for values of magnitude scale."""
    return TIE_TOL * max(1.0, abs(scale))


def _runs(values, tol=_tol):
    """(start, stop) of each maximal run of values tied with its first member.

    A value joins the run while it lies within tol(anchor) of the run's
    first value, the anchor; values are walked in the order given.
    """
    k = 0
    while k < len(values):
        anchor = values[k]
        limit = tol(anchor)
        j = k + 1
        while j < len(values) and abs(values[j] - anchor) <= limit:
            j += 1
        yield k, j
        k = j


def _near_best(values: np.ndarray) -> np.ndarray:
    """Mask of the values within tolerance of the largest."""
    best = values.max()
    return values >= best - _tol(best)


def _tiered_order(primary, secondary) -> tuple[list[int], bool]:
    """Order candidates by primary desc, resolving ties per the contract.

    Candidates whose primary values chain within tolerance of the first
    member of their group count as tied; inside a group the order is
    secondary desc, and secondary-level ties fall back to ascending index.
    """
    idx = sorted(range(len(primary)), key=lambda i: (-primary[i], -secondary[i], i))
    order: list[int] = []
    tie = False
    for k, j in _runs([primary[i] for i in idx]):
        group = sorted(idx[k:j], key=lambda i: (-secondary[i], i))
        if j - k > 1:
            tie = True
            for g, h in _runs([secondary[i] for i in group]):
                group[g:h] = sorted(group[g:h])
        order.extend(group)
    return order, tie


def _order_singleton_blocks(partition: Partition, discount: DiscountCurve, scores, agent):
    primary = [float(scores[b[0]]) for b in partition.blocks]
    secondary = [float(agent[b[0]]) for b in partition.blocks]
    order, tie = _tiered_order(primary, secondary)
    # Equal-weight stretches of the discount leave both the objective and
    # the agent value blind to the arrangement inside them, so the
    # lexicographic step of the contract owns those positions outright.
    for p, q in _runs(discount.weights.tolist(), lambda weight: 0.0):
        if q - p > 1:
            tie = True
            order[p:q] = sorted(order[p:q])
    return tuple(order), tie


def _order_geometric(partition: Partition, discount: DiscountCurve, scores, agent):
    # Exchange argument: under geometric weights, placing block B before C
    # is weakly better iff r(B) >= r(C), so a sort on r is globally optimal.
    beta = float(discount.params["beta"])
    primary = []
    secondary = []
    for block in partition.blocks:
        powers = beta ** np.arange(len(block))
        denom = 1.0 - beta ** len(block)
        objs = list(block)
        primary.append(float(np.dot(powers, scores[objs])) / denom)
        secondary.append(float(np.dot(powers, agent[objs])) / denom)
    order, tie = _tiered_order(primary, secondary)
    return tuple(order), tie


def _block_contribs(partition: Partition, scores, weights: np.ndarray) -> np.ndarray:
    """contrib[b, off] = value of block b when its run starts at position off.

    Shape (K, M+1); the column at off = M - len(block) is the last valid
    start, later columns stay zero and are never indexed.
    """
    m = partition.size
    contrib = np.zeros((partition.block_count, m + 1))
    for b, block in enumerate(partition.blocks):
        vals = scores[list(block)]
        contrib[b, : m - len(block) + 1] = np.correlate(weights, vals, mode="valid")
    return contrib


def _subset_offsets(lengths) -> np.ndarray:
    n = 1 << len(lengths)
    subs = np.arange(n)
    off = np.zeros(n, dtype=np.intp)
    for i, ln in enumerate(lengths):
        off += ((subs >> i) & 1).astype(np.intp) * ln
    return off


def _popcount_levels(k: int) -> list[np.ndarray]:
    subs = np.arange(1 << k)
    pc = np.zeros(subs.size, dtype=np.int64)
    for i in range(k):
        pc += (subs >> i) & 1
    return [subs[pc == level] for level in range(k + 1)]


def _dp_steps(offsets: np.ndarray, levels):
    """The backward pass of the subset DP, one step per (level, block).

    Yields (i, sel, off, nxt): block i, the subsets sel at the level that
    lack it, the position off = offsets[sel] where block i would start, and
    the subsets nxt = sel | (1 << i) after placing it. Levels run from K-1
    down to 0, so every nxt is final before any sel reads it.
    """
    k = len(levels) - 1
    for level in range(k - 1, -1, -1):
        for i in range(k):
            bit = 1 << i
            sel = levels[level]
            sel = sel[(sel & bit) == 0]
            if sel.size:
                yield i, sel, offsets[sel], sel | bit


def _dp_value_to_go(contrib: np.ndarray, offsets: np.ndarray, levels) -> np.ndarray:
    """go[r, S] = best achievable value of the blocks outside S, given that
    the blocks in S already fill the first offsets[S] positions.

    The offset of the next block depends only on the set S (sum of placed
    lengths), never on their order, which is what makes the subset DP
    exact (the Held-Karp recursion). contrib has one row of block tables
    per objective row r.
    """
    rows, k, _ = contrib.shape
    n = 1 << k
    go = np.full((rows, n), -np.inf)
    go[:, n - 1] = 0.0
    for i, sel, off, nxt in _dp_steps(offsets, levels):
        cand = contrib[:, i, off] + go[:, nxt]
        cur = go[:, sel]
        go[:, sel] = np.where(cand > cur, cand, cur)
    return go


def _dp_agent_to_go(contrib_obj, contrib_agent, go, offsets, levels, tol) -> np.ndarray:
    """Best agent value over continuations that stay objective-tied.

    Only continuations within tol of the optimal value-to-go at every step
    participate; everything else is excluded with -inf.
    """
    n = go.size
    gu = np.full(n, -np.inf)
    gu[n - 1] = 0.0
    for i, sel, off, nxt in _dp_steps(offsets, levels):
        ok = np.abs(contrib_obj[i, off] + go[nxt] - go[sel]) <= tol
        cand = np.where(ok, contrib_agent[i, off] + gu[nxt], -np.inf)
        gu[sel] = np.maximum(gu[sel], cand)
    return gu


def _dp_walk(contrib_obj, contrib_agent, go, offsets, levels):
    """Greedy reconstruction of one DP row along tied-optimal branches.

    The agent table is built on the first tie, so a row without ties never
    pays for the agent pass.
    """
    k = contrib_obj.shape[0]
    full = (1 << k) - 1
    tol = _tol(go[0])
    gu = None
    state = 0
    order: list[int] = []
    tie = False
    while state != full:
        off = offsets[state]
        target = go[state]
        cands = [
            i
            for i in range(k)
            if not (state >> i) & 1
            and abs(contrib_obj[i, off] + go[state | (1 << i)] - target) <= tol
        ]
        if not cands:
            raise SolverContractError("internal: reconstruction lost the optimum")
        if len(cands) > 1:
            tie = True
            if gu is None:
                gu = _dp_agent_to_go(contrib_obj, contrib_agent, go, offsets, levels, tol)
            uvals = np.array([contrib_agent[i, off] + gu[state | (1 << i)] for i in cands])
            cands = [i for i, near in zip(cands, _near_best(uvals)) if near]
        choice = cands[0]
        order.append(choice)
        state |= 1 << choice
    return tuple(order), tie


def _dp_orders(lengths, contrib_obj, contrib_agent):
    """Solve one subset DP per objective row; contrib_obj is (rows, K, M+1)."""
    offsets = _subset_offsets(lengths)
    levels = _popcount_levels(len(lengths))
    go = _dp_value_to_go(contrib_obj, offsets, levels)
    return [_dp_walk(contrib_obj[r], contrib_agent, go[r], offsets, levels) for r in range(len(go))]


def _block_keys(partition: Partition, scores) -> tuple[tuple[float, ...], ...]:
    s = np.asarray(scores, dtype=float)
    return tuple(tuple(float(s[j]) for j in block) for block in partition.blocks)


def _order_local_search(partition: Partition, contrib_obj, contrib_agent, block_keys, seed_order):
    """Adjacent-transposition hill climb over block orders.

    Accepts a swap when it improves the objective beyond tolerance, or when
    it is objective-neutral (delta in [0, tol]) and improves the tie-break
    key: agent value, then descending block score sequence, then smaller
    block index first. The score-sequence tier carries the search across
    equal-weight plateaus in the discount curve; without it, singleton
    instances under flat stretches can stall below the sort optimum. The
    objective never decreases during the search.
    """
    k = partition.block_count
    lengths = partition.block_lengths()
    if seed_order is None:
        order = list(range(k))
    else:
        order = [int(i) for i in seed_order]
        if sorted(order) != list(range(k)):
            raise ValidationError("seed_order: must be a permutation of the block indices")
    cur = 0.0
    off = 0
    for b in order:
        cur += contrib_obj[b, off]
        off += lengths[b]
    tie = False
    tol = _tol(cur)
    for _ in range(8 * k + 32):
        changed = False
        off = 0
        for pos in range(k - 1):
            a, b = order[pos], order[pos + 1]
            before = contrib_obj[a, off] + contrib_obj[b, off + lengths[a]]
            after = contrib_obj[b, off] + contrib_obj[a, off + lengths[b]]
            delta = after - before
            swap = False
            if delta > tol:
                swap = True
            elif abs(delta) <= tol:
                tie = True
                if delta >= 0.0:
                    u_before = contrib_agent[a, off] + contrib_agent[b, off + lengths[a]]
                    u_after = contrib_agent[b, off] + contrib_agent[a, off + lengths[b]]
                    du = u_after - u_before
                    tol_u = _tol(u_before)
                    if du > tol_u:
                        swap = True
                    elif abs(du) <= tol_u:
                        if block_keys[b] > block_keys[a]:
                            swap = True
                        elif block_keys[b] == block_keys[a] and b < a:
                            swap = True
            if swap:
                order[pos], order[pos + 1] = b, a
                cur += delta
                tol = _tol(cur)
                changed = True
            off += lengths[order[pos]]
        if not changed:
            break
    return tuple(order), tie


def _order_brute(partition: Partition, discount: DiscountCurve, scores, agent):
    blocks = partition.blocks
    perms = list(itertools.permutations(range(partition.block_count)))
    orders = np.array(
        [[obj for b in perm for obj in blocks[b]] for perm in perms], dtype=np.intp
    )
    values = np.asarray(scores, dtype=float)[orders] @ discount.weights
    tied = np.nonzero(_near_best(values))[0]
    tie = tied.size > 1
    if tie:
        agent_vals = np.asarray(agent, dtype=float)[orders[tied]] @ discount.weights
        tied = tied[_near_best(agent_vals)]
    # itertools yields permutations in lexicographic order, so the first
    # survivor is the lexicographically smallest block order.
    return perms[int(tied[0])], tie


def brute_force_oracle(partition: Partition, scores, discount: DiscountCurve, *, agent_scores=None) -> Allocation:
    """Exhaustive enumeration of block orders; the ground-truth reference."""
    refusal = _refuse_brute_force(partition, discount)
    if refusal is not None:
        raise SolverContractError(refusal)
    s = _checked_scores(scores, partition.size)
    if len(discount) != partition.size:
        raise ValidationError("discount: horizon must match the partition size")
    agent = np.zeros(s.size) if agent_scores is None else _checked_scores(
        agent_scores, s.size, "agent_scores"
    )
    order, _ = _order_brute(partition, discount, s, agent)
    return build_allocation(partition, order)


# Preconditions: the SolverContractError message for an instance a strategy
# cannot solve, or None when it can.


def _refuse_sort(partition: Partition, discount: DiscountCurve) -> str | None:
    if any(len(b) != 1 for b in partition.blocks):
        return "sort handles singleton blocks only; use subset_dp for multi-object blocks"
    return None


def _refuse_geometric_index(partition: Partition, discount: DiscountCurve) -> str | None:
    if discount.kind != "geometric":
        return "geometric_index requires a geometric discount curve"
    beta = float(discount.params.get("beta", 0.0))
    if not 0.0 < beta < 1.0:
        return f"geometric index rule requires a base strictly inside (0, 1), got {beta!r}"
    return None


def _refuse_subset_dp(partition: Partition, discount: DiscountCurve) -> str | None:
    if partition.block_count > DP_SUBSET_LIMIT:
        return (
            f"subset DP limited to {DP_SUBSET_LIMIT} blocks (got {partition.block_count});"
            " use local_search"
        )
    return None


def _refuse_brute_force(partition: Partition, discount: DiscountCurve) -> str | None:
    if partition.block_count > BRUTE_FORCE_LIMIT:
        return (
            f"brute force refuses partitions with more than {BRUTE_FORCE_LIMIT} blocks"
            f" (got {partition.block_count})"
        )
    return None


# Order functions: one (block order, tie_broken) pair per lambda in lams.


def _per_lambda(order):
    """Order function that calls order(partition, discount, scores, agent) once per lambda."""

    def orders(instance, u_bar, v_bar, lams):
        partition, discount = instance.partition, instance.discount
        return [order(partition, discount, combined_scores(lam, u_bar, v_bar), u_bar) for lam in lams]

    return orders


def _contribs(instance, u_bar, v_bar):
    weights = instance.discount.weights
    return (
        _block_contribs(instance.partition, u_bar, weights),
        _block_contribs(instance.partition, v_bar, weights),
    )


def _local_search_orders(instance, u_bar, v_bar, lams):
    partition = instance.partition
    contrib_u, contrib_v = _contribs(instance, u_bar, v_bar)
    return [
        _order_local_search(
            partition,
            lam * contrib_u + (1.0 - lam) * contrib_v,
            contrib_u,
            _block_keys(partition, combined_scores(lam, u_bar, v_bar)),
            None,
        )
        for lam in lams
    ]


def _subset_dp_orders(instance, u_bar, v_bar, lams):
    # All lambdas share one vectorized DP, one row each, in chunks that
    # keep rows * subsets within _DP_CELL_BUDGET.
    partition = instance.partition
    contrib_u, contrib_v = _contribs(instance, u_bar, v_bar)
    lengths = partition.block_lengths()
    chunk = max(1, _DP_CELL_BUDGET >> partition.block_count)
    out = []
    for start in range(0, len(lams), chunk):
        rows = np.array(lams[start : start + chunk])[:, None, None]
        contrib_obj = rows * contrib_u + (1.0 - rows) * contrib_v
        out.extend(_dp_orders(lengths, contrib_obj, contrib_u))
    return out


class _Strategy(NamedTuple):
    refuse: Callable[[Partition, DiscountCurve], str | None]
    orders: Callable[..., list]


_TABLE = {
    "sort": _Strategy(_refuse_sort, _per_lambda(_order_singleton_blocks)),
    "subset_dp": _Strategy(_refuse_subset_dp, _subset_dp_orders),
    "geometric_index": _Strategy(_refuse_geometric_index, _per_lambda(_order_geometric)),
    "local_search": _Strategy(lambda partition, discount: None, _local_search_orders),
    "brute_force": _Strategy(_refuse_brute_force, _per_lambda(_order_brute)),
}

# auto runs the first of these whose precondition holds.
_AUTO = ("sort", "geometric_index", "subset_dp", "local_search")


def _result_for(instance, u_bar, v_bar, lam, order, resolved, tie) -> SolveResult:
    alloc = build_allocation(instance.partition, order)
    agent_value = allocation_value(alloc, u_bar, instance.discount)
    advocate_value = allocation_value(alloc, v_bar, instance.discount)
    objective = lam * agent_value + (1.0 - lam) * advocate_value
    return SolveResult(alloc, objective, agent_value, advocate_value, lam, resolved, tie)


def solve(request: SolveRequest) -> SolveResult:
    """Solve one instance at one lambda: solve_grid on a one-point grid."""
    [result] = solve_grid(request.instance, [request.lam], request.posterior, request.strategy)
    return result


def solve_grid(
    instance: Instance,
    lambdas,
    posterior: PosteriorModel | None = None,
    strategy: str = "auto",
) -> tuple[SolveResult, ...]:
    """Solve one instance across many lambda values.

    Each result equals the solve() at its lambda bit for bit; the subset-DP
    strategy batches all rows through a single vectorized DP.
    """
    lams = [float(l) for l in lambdas]
    for l in lams:
        if not 0.0 <= l <= 1.0:
            raise ValidationError(f"lambda: must lie in [0, 1], got {l!r}")
    belief = posterior if posterior is not None else prior_posterior(instance.type_space)
    u_bar = expected_scores(instance, belief, "agent")
    v_bar = expected_scores(instance, belief, "advocate")
    partition, discount = instance.partition, instance.discount
    if strategy == "auto":
        strategy = next(s for s in _AUTO if _TABLE[s].refuse(partition, discount) is None)
    elif strategy not in _TABLE:
        raise ValidationError(f"strategy: unknown strategy {strategy!r}")
    else:
        refusal = _TABLE[strategy].refuse(partition, discount)
        if refusal is not None:
            raise SolverContractError(refusal)
    orders = _TABLE[strategy].orders(instance, u_bar, v_bar, lams)
    return tuple(
        _result_for(instance, u_bar, v_bar, lam, order, strategy, tie)
        for lam, (order, tie) in zip(lams, orders)
    )
