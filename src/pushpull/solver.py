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
function that solves the lambda lists of one or more beliefs at once.
`auto` runs the first of sort, geometric_index, subset_dp and local_search
whose precondition holds; solve() is solve_grid() on one lambda.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from itertools import compress, pairwise
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

# Cap on the (M + 1) * K cells of each of local search's four block tables
# (agent, advocate, objective and a buffer): 128 MB apiece at the cap.
_LOCAL_SEARCH_CELLS = 1 << 24

# Cap on rows * subsets of value-to-go held at once when solving a lambda
# grid: one row at DP_SUBSET_LIMIT blocks.
_DP_CELL_BUDGET = 1 << DP_SUBSET_LIMIT

# The subset DP splits each subset into its first h blocks, the low bits,
# and the rest, the high bits (see _Subsets). h is the widest width up to
# _DP_LOW_MAX whose 2**h subsets hold at most _DP_BLOCK_CELLS cells of a
# chunk's rows; a step of the pass holds a few times that many.
_DP_LOW_MAX = 13
_DP_BLOCK_CELLS = 1 << 15


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


def _run_stop(values, k: int) -> int:
    """The stop of the run that starts at k: the values after values[k], the
    anchor, join it while they lie within _tol(anchor) of it."""
    anchor = values[k]
    limit = _tol(anchor)
    j = k + 1
    while j < len(values) and abs(values[j] - anchor) <= limit:
        j += 1
    return j


def _runs(values):
    """(start, stop) of each maximal run of values tied with its first member,
    walking the values in the order given."""
    k = 0
    while k < len(values):
        j = _run_stop(values, k)
        yield k, j
        k = j


def _near_best(values: np.ndarray) -> np.ndarray:
    """Mask of the values within tolerance of the largest."""
    best = values.max()
    return values >= best - _tol(best)


def _tiered_order(primary: np.ndarray, secondary: np.ndarray, stretches) -> tuple[tuple[int, ...], bool]:
    """Order candidates by primary desc, resolving ties per the contract.

    Candidates whose primary values chain within tolerance of the first
    member of their group count as tied; inside a group the order is
    secondary desc, and secondary-level ties fall back to ascending index.
    Each (p, q) in stretches then orders positions p..q-1 by index, as a tie.
    """
    # Equal primaries fall into one near run, whose walk below orders them
    # by (-secondary, index), so the stable sort needs no secondary key.
    order = np.argsort(-primary, kind="stable")
    ranked = primary[order]
    # A run of two or more can start only where the next value lies within
    # tolerance; every other position is a run of one.
    near = np.abs(ranked[1:] - ranked[:-1]) <= TIE_TOL * np.maximum(1.0, np.abs(ranked[:-1]))
    order, values, agent = order.tolist(), ranked.tolist(), secondary.tolist()
    tie = bool(stretches)
    stop = 0
    for k in np.flatnonzero(near).tolist():
        if k < stop:
            continue
        stop = _run_stop(values, k)
        tie = True
        group = sorted(order[k:stop], key=lambda i: (-agent[i], i))
        for g, h in _runs([agent[i] for i in group]):
            group[g:h] = sorted(group[g:h])
        order[k:stop] = group
    for p, q in stretches:
        order[p:q] = sorted(order[p:q])
    return tuple(order), tie


def _block_contribs(partition: Partition, scores, weights: np.ndarray) -> np.ndarray:
    """contrib[off * K + b] = value of block b when its run starts at position off.

    Past a block's last valid start, off = M - len(block), its entries stay
    zero and are never indexed.
    """
    m = partition.size
    contrib = np.zeros((m + 1, partition.block_count))
    for b, block in enumerate(partition.blocks):
        vals = scores[list(block)]
        contrib[: m - len(block) + 1, b] = np.correlate(weights, vals, mode="valid")
    return contrib.ravel()


class _Plan(NamedTuple):
    """The subset-DP index plan of the first n blocks of a K-block layout.

    Bit b of a plan subset is block b. offsets[S] is the summed length of
    the blocks in S, and levels[L] lists the subsets of L blocks in
    ascending order. steps[L] holds (at, nxt) for all of level L,
    candidate-major: for the c-th block b absent from levels[L][j], at[c, j]
    is its row off * K + b of the block tables when placed at off =
    offsets[levels[L][j]], and nxt[c, j] the subset after placing it.

    A plan with a limit was asked for the subsets whose offset lies below
    it; when some subset's offset does not, the plan is cut: its levels and
    steps keep only the subsets below.
    """

    offsets: np.ndarray
    levels: list[np.ndarray]
    steps: list[tuple[np.ndarray, np.ndarray]]
    limit: int | None = None

    @property
    def cut(self) -> bool:
        return self.limit is not None and self.limit <= self.offsets[-1]


class _Run(NamedTuple):
    """The high subsets of one block count that share their high offset off.

    base is off * K, the row of the block tables from which the run's low
    plan reads. plan is the low plan cut to what off leaves of the horizon;
    whole picks the subsets of a block that it solves, all of them or those
    of a cut plan, and scaled holds their low offsets * K. blocks lists the
    run's high subsets in ascending order.
    """

    base: int
    plan: _Plan
    whole: slice | np.ndarray
    scaled: np.ndarray
    blocks: list[int]


class _Subsets(NamedTuple):
    """Subset tables for one tuple of block lengths; block i is bit i.

    The first h blocks are the low bits of a subset, the rest its high
    bits. The subsets that share their high bits H fill one block of 2**h
    rows of the value table, rows H << h on. A layout of h or fewer blocks
    is a single block, high subset 0. Under a horizon the low plan carries
    it as its limit and is cut to it.

    horizon is the walk's: P, or M without a cut. runs holds the runs of
    the high subsets whose offset lies below it, most blocks first.
    """

    low: _Plan
    lengths: tuple[int, ...]
    horizon: int
    runs: list[_Run]


class _Memo:
    """Read-only tables shared across calls, least recently used first out.

    Holds at most limit bytes. Its values depend on neither cell budget:
    plans are keyed by their block lengths and K, and cut plans by those
    and their limit. An entry counts sys.getsizeof of its value and of
    every list, tuple and array in it; an array that owns its data, as
    every memoized one does, counts that data too. A lock keeps its
    bookkeeping whole when threads solve at once.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0
        self._lock = threading.RLock()

    def clear(self):
        with self._lock:
            self.entries.clear()
            self.nbytes = 0

    def get(self, key, build):
        """The value memoized for key, from build() on a miss."""
        with self._lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                return entry[0]
            value = build()
            size = 0
            for node in _nodes(value):
                if isinstance(node, np.ndarray):
                    node.flags.writeable = False
                size += sys.getsizeof(node)
            self.entries[key] = (value, size)
            self.nbytes += size
            while self.nbytes > self.limit:
                self.nbytes -= self.entries.popitem(last=False)[1][1]
            return value


def _nodes(value):
    """value and everything in it, down through lists and tuples to arrays."""
    yield value
    if not isinstance(value, np.ndarray):
        for item in value:
            yield from _nodes(item)


# Every layout takes its plans from here. A plan of n blocks holds
# (2 + n) * 2**n index cells: about 0.96 MB for a low plan of 13 blocks;
# a plan cut to a horizon holds part of that.
_memo = _Memo(8 << 20)


def _plan(lengths, k: int, limit: int | None = None) -> _Plan:
    """The plan of the first blocks of a K-block layout, whose lengths are
    lengths, for the subsets whose offset lies below limit. The absent
    blocks of a subset are the zero bits of its row of the bit table."""
    key = (tuple(lengths), k)
    cut = limit is not None and limit <= sum(key[0])

    def build():
        n = len(lengths)
        subsets = np.arange(1 << n)
        bits = subsets[:, None] >> np.arange(n) & 1
        offsets = bits @ np.array(key[0], dtype=np.intp)
        count = bits.sum(axis=1)
        below = offsets < limit if cut else True
        levels, steps = [], []
        for level in range(n + 1):
            sel = subsets[(count == level) & below]
            levels.append(sel)
            if level < n:
                absent = np.nonzero(bits[sel] == 0)[1].reshape(len(sel), n - level).T.copy()
                steps.append((offsets[sel] * k + absent, sel | 1 << absent))
        return offsets, levels, steps

    return _Plan(*_memo.get((*key, limit) if cut else key, build), limit)


def _horizon(weights: np.ndarray) -> int | None:
    """P, the number of positive weights, when it is below M; else None.

    The weights decrease weakly from 1 to at least 0, so they are all
    positive exactly when the last one is.
    """
    return None if weights[-1] > 0 else int(np.count_nonzero(weights))


def _low_width(lengths, rows: int, horizon: int | None = None) -> int:
    """h for a layout solved in chunks of rows rows: the widest whose block
    solves at most _DP_BLOCK_CELLS cells. That is 2**h subsets, or under a
    horizon P those whose first h blocks fill fewer than P positions."""
    if horizon is None:
        fit = (_DP_BLOCK_CELLS // rows).bit_length() - 1
        return max(0, min(len(lengths), _DP_LOW_MAX, fit))
    # below[off]: the subsets of the first h blocks that fill off positions.
    below = np.zeros(horizon, dtype=np.int64)
    below[0] = 1
    h = 0
    for length in lengths[:_DP_LOW_MAX]:
        if length < horizon:
            below[length:] += below[: horizon - length].copy()
        if below.sum() * rows > _DP_BLOCK_CELLS:
            break
        h += 1
    return h


def _subset_tables(lengths, rows: int, horizon: int | None = None) -> _Subsets:
    """The subset tables of a layout for chunks of rows rows, for the subsets
    that fill fewer than horizon positions; None solves them all.

    Every plan is built here, before a pass allocates its tables: a plan
    built in a pass sits above them on the heap and keeps their memory from
    the system (peak RSS of frontier_exact 59 -> 65 MB).
    """
    lengths = tuple(lengths)
    k = len(lengths)
    h = _low_width(lengths, rows, horizon)
    low = _plan(lengths[:h], k, horizon)
    scaled = low.offsets * k
    # The high subsets, most blocks first, grouped by block count and offset.
    parts: dict[tuple[int, int], list[int]] = {}
    for high in sorted(range(1 << (k - h)), key=int.bit_count, reverse=True):
        off = sum(length for c, length in enumerate(lengths[h:]) if high >> c & 1)
        if horizon is None or off < horizon:
            parts.setdefault((high.bit_count(), off), []).append(high)
    runs = []
    for (_, off), blocks in parts.items():
        plan = low if horizon is None else _plan(lengths[:h], k, horizon - off)
        whole = np.concatenate(plan.levels) if plan.cut else slice(None)
        runs.append(_Run(off * k, plan, whole, scaled[whole], blocks))
    return _Subsets(low, lengths, sum(lengths) if horizon is None else horizon, runs)


def _dp_steps(tables: _Subsets, *pairs):
    """The backward pass of the subset DP, one step at a time.

    pairs are (contrib, values): block tables, row off * K + b, with one
    column per column of values or one that all share, and a (2**K, rows)
    table indexed by subset. Yields (views, sel, sums, merge): for each
    values table a view t of one block of 2**h subsets, whose t[sel] takes
    the best candidate of the step, and for each pair a fresh array of the
    step's candidates, candidate-major: sums[p][c, j] is values at the
    subset after placing the c-th candidate block of the j-th subset of
    sel, plus contrib at that block's row. merge says that the best joins
    what t[sel] already holds.

    The runs go most high blocks first, one block at a time. A block below
    the top first takes its whole-block step, which places its absent high
    blocks, the zero bits of its high subset: sel is the whole block, the
    gather of contrib for high block b reads from row base + b at the low
    offsets * K, and the blocks of a run share those gathers. Then the block
    runs its low plan, levels from the top, on the plan's own at and nxt:
    they index t and contrib from the run's base on, and the best merges
    with what the whole-block step left. The top block and a single block
    place no high block and never merge. Every values row a step reads is
    final before it.

    Under a horizon P only the subsets that fill fewer than P positions are
    solved: the runs hold only the blocks whose high offset is below P,
    each block runs the low plan cut to what its offset leaves of P, and a
    cut block's whole-block step solves the subsets of that plan alone.
    Every other subset keeps the 0.0 that the tables start from, which is
    its value: every weight it could still reach is 0.
    """
    k = len(tables.lengths)
    h = len(tables.low.levels) - 1
    top = (1 << (k - h)) - 1
    blocks = [values.reshape(-1, 1 << h, values.shape[1]) for _, values in pairs]
    for run in tables.runs:
        views = [[t[high] for t in blocks] for high in run.blocks]
        merge = run.blocks[0] != top
        if merge:
            whole = run.whole
            gathers = {}
            for high, block_views in zip(run.blocks, views):
                absent = [b for b in range(h, k) if not high >> (b - h) & 1]
                sums = []
                for p, ((contrib, _), t) in enumerate(zip(pairs, blocks)):
                    cand = np.empty((len(absent), len(run.scaled), t.shape[2]))
                    for c, b in enumerate(absent):
                        gathered = gathers.get((p, b))
                        if gathered is None:
                            gathered = gathers[p, b] = contrib[run.base + b :].take(run.scaled, axis=0)
                        np.add(t[high | 1 << (b - h), whole], gathered, out=cand[c])
                    sums.append(cand)
                yield block_views, whole, sums, False
            del gathers
        for sel, (at, nxt) in zip(run.plan.levels[h - 1 :: -1], run.plan.steps[::-1]):
            if not len(sel):
                continue
            gathered = [contrib[run.base :].take(at, axis=0) for contrib, _ in pairs]
            for block_views in views:
                sums = [view.take(nxt, axis=0) for view in block_views]
                for cand, add in zip(sums, gathered):
                    cand += add
                yield block_views, sel, sums, merge


def _best(cand: np.ndarray) -> np.ndarray:
    """The best of candidate-major cand: its max over the candidates, axis 0."""
    return np.maximum.reduce(cand, axis=0)


def _dp_value_to_go(contrib: np.ndarray, tables: _Subsets) -> np.ndarray:
    """go[S, r] = best achievable value of the blocks outside S, given that
    the blocks in S already fill the first offsets[S] positions.

    The offset of the next block depends only on the set S (sum of placed
    lengths), never on their order, which is what makes the subset DP
    exact (the Held-Karp recursion). contrib ((M+1) * K, rows) holds the
    block table of objective row r in column r. Each step takes the max over
    a set of absent blocks at once; max is exact, so their order is moot.
    """
    go = np.zeros((1 << len(tables.lengths), contrib.shape[1]))
    for (table,), sel, (cand,), merge in _dp_steps(tables, (contrib, go)):
        best = _best(cand)
        if merge:
            np.maximum(best, table[sel], out=best)
        table[sel] = best
    return go


def _dp_agent_to_go(contrib_obj, contrib_agent, go, tables, tol) -> np.ndarray:
    """Best agent value over continuations that stay objective-tied.

    One column per objective row r of contrib_obj, whose value-to-go is
    go[:, r] and whose tolerance is tol[r]. contrib_agent is the agent
    table every row shares, as one column, or one column per row. Only
    continuations within tol[r] of the optimal value-to-go at every step
    participate; everything else is excluded with -inf.
    """
    gu = np.zeros(go.shape)
    for (value, agent), sel, (obj, cand), merge in _dp_steps(tables, (contrib_obj, go), (contrib_agent, gu)):
        obj -= value[sel]
        ok = np.abs(obj, out=obj) <= tol
        cand[~ok] = -np.inf
        best = _best(cand)
        if merge:
            np.maximum(best, agent[sel], out=best)
        agent[sel] = best
    return gu


def _dp_walk(obj, agent, go, walk, order, gu=None, gaps=None):
    """Greedy reconstruction of one DP row along tied-optimal branches.

    obj and agent are the row's objective and agent block tables as lists,
    entry off * K + b, and go and gu its value and agent tables. walk is
    (lengths, P): the block lengths, whose sum over the blocks placed so
    far is the offset of the next, and the horizon P, from which on the
    remaining blocks follow in ascending order. order is the block order
    walked so far; the walk extends it in place and returns the tie
    flag. Without gu the walk returns None at its first tie before P, so a
    row without one never needs the agent pass. order then holds the
    choices before that tie, which a walk with gu makes too, so that walk
    resumes from it. With gaps, a list, the walk appends the gap of each
    step before P that leaves a choice: the chosen block's value less the
    best other block's.
    """
    lengths, horizon = walk
    k = len(lengths)
    full = (1 << k) - 1
    tol = _tol(go.item(0))
    value = go.item
    if gu is not None:
        agent_value = gu.item
    state = sum(1 << b for b in order)
    off = sum(lengths[b] for b in order)
    tie = False
    while state != full:
        if off >= horizon:
            rest = [i for i in range(k) if not (state >> i) & 1]
            order += rest
            return tie or len(rest) > 1
        base = off * k
        target = value(state)
        cands = [
            i
            for i in range(k)
            if not (state >> i) & 1
            and abs(obj[base + i] + value(state | (1 << i)) - target) <= tol
        ]
        if not cands:
            raise SolverContractError("internal: reconstruction lost the optimum")
        if len(cands) > 1:
            if gu is None:
                return None
            tie = True
            uvals = np.array([agent[base + i] + agent_value(state | (1 << i)) for i in cands])
            cands = [i for i, near in zip(cands, _near_best(uvals)) if near]
        choice = cands[0]
        if gaps is not None:
            rivals = [
                obj[base + i] + value(state | (1 << i))
                for i in range(k)
                if not (state >> i) & 1 and i != choice
            ]
            if rivals:
                gaps.append(obj[base + choice] + value(state | (1 << choice)) - max(rivals))
        order.append(choice)
        state |= 1 << choice
        off += lengths[choice]
    return tie


def _dp_orders(tables: _Subsets, contrib_obj, contrib_agent, margins: bool = False):
    """Solve one subset DP per objective row, column r of contrib_obj.

    contrib_agent is the agent table that every row shares, as one column,
    or one column per row. Rows whose walk meets a tie share one agent
    pass, then resume their walk from that tie. Each row gives its order
    and tie flag; with margins, also its margin and its tolerance. The
    margin is the smallest gap of the walk (_dp_walk), inf without one,
    and -inf for a row that tied before P.
    """
    go = _dp_value_to_go(contrib_obj, tables)
    walk = tables.lengths, tables.horizon
    # The walk reads no offset past its horizon. A row's list lives for one
    # walk: tied rows' lists kept through the agent pass pinned the heap
    # above its tables more often and raised the peak RSS of frontier_exact.
    read = tables.horizon * len(tables.lengths)
    rows = range(contrib_obj.shape[1])
    orders = [[] for _ in rows]
    gaps = [[] if margins else None for _ in rows]
    ties = [
        _dp_walk(contrib_obj[:read, r].tolist(), None, go[:, r], walk, orders[r], gaps=gaps[r])
        for r in rows
    ]
    tied = [r for r in rows if ties[r] is None]
    if tied:
        # When every row tied, the agent pass reads go itself, not a copy.
        tied_go = go if len(tied) == len(rows) else go.take(tied, axis=1)
        tol = np.array([_tol(go[0, r]) for r in tied])
        shared = contrib_agent.shape[1] == 1
        agents = contrib_agent if shared else contrib_agent.take(tied, axis=1)
        gu = _dp_agent_to_go(contrib_obj.take(tied, axis=1), agents, tied_go, tables, tol)
        agent_lists = agents[:read].T.tolist()
        for j, r in enumerate(tied):
            obj = contrib_obj[:read, r].tolist()
            ties[r] = _dp_walk(obj, agent_lists[0 if shared else j], go[:, r], walk, orders[r], gu[:, j])
    out = [(tuple(order), tie) for order, tie in zip(orders, ties)]
    if not margins:
        return out
    return [
        (*out[r], -math.inf if r in tied else min(gaps[r], default=math.inf), _tol(go.item(0, r)))
        for r in rows
    ]


def _block_keys(partition: Partition, scores) -> tuple[tuple[float, ...], ...]:
    s = np.asarray(scores, dtype=float)
    return tuple(tuple(float(s[j]) for j in block) for block in partition.blocks)


def _order_local_search(partition: Partition, contrib_obj, contrib_agent, bound, scores, start):
    """Adjacent-transposition hill climb over block orders, from start.

    The climb starts from the identity order instead when that order's
    objective is strictly higher, so it never ends below the identity order.
    Accepts a swap when it improves the objective beyond tolerance, or when
    it is objective-neutral (delta in [0, tol]) and improves the tie-break
    key: agent value, then descending block score sequence, then smaller
    block index first. The score-sequence tier carries the search across
    equal-weight plateaus in the discount curve; without it, singleton
    instances under flat stretches can stall below the sort optimum. The
    objective never decreases during the search.

    A sweep compares only the dirty positions: those whose pair a swap has
    touched since the pair last lost by more than safe. A clean pair would
    lose again, with no tie, so the swaps, the sweeps and the tie flag are
    those of comparing every pair in every sweep.

    bound is at least the largest |entry| of contrib_obj. scores() gives
    the per-object scores of the block keys; the climb calls it when a pair
    first ties on both objective and agent value, and most climbs never do.
    """
    k = partition.block_count
    # Both tables are read as flat views of Python floats, entry (b, off) at
    # base + b with base = off * K: a block of length l moves base by l * K.
    # bases[pos] is the base of the block at pos.
    steps = [length * k for length in partition.block_lengths()]
    obj, agent = memoryview(contrib_obj), memoryview(contrib_agent)

    def placed(order):
        # The bases of an order and its objective, summed by position.
        bases, cur, base = [], 0.0, 0
        for b in order:
            bases.append(base)
            cur += obj[base + b]
            base += steps[b]
        return list(order), bases, cur

    order, bases, cur = placed(start)
    identity = placed(range(k))
    if identity[2] > cur:
        order, bases, cur = identity
    tie = False
    # No order's objective exceeds K * bound in magnitude, so no _tol(cur)
    # the search meets reaches safe: a delta above safe always swaps, one
    # below floor = -safe neither swaps nor ties, and only one between them
    # reads _tol. A larger bound only sends more deltas down that path.
    safe = 2.0 * _tol(k * bound)
    floor = -safe
    block_keys = None
    # dirty[pos] for the pair at pos and pos + 1. compress reads it as the
    # sweep goes, so a swap that marks pos + 1 compares it next, with the
    # block it moved. dirty[k - 1] belongs to no pair: the marks past either
    # end, of pos - 1 at 0 and pos + 1 at k - 2, land there.
    pairs = range(k - 1)
    dirty = [True] * k
    for _ in range(8 * k + 32):
        changed = False
        for pos in compress(pairs, dirty):
            a, b = order[pos], order[pos + 1]
            base = bases[pos]
            la, lb = steps[a], steps[b]
            at_a, at_b = base + a, base + b
            before = obj[at_a] + obj[at_b + la]
            after = obj[at_b] + obj[at_a + lb]
            delta = after - before
            if delta < floor:
                dirty[pos] = False
                continue
            if delta <= safe:
                tol = _tol(cur)
                swap = False
                if delta > tol:
                    swap = True
                elif abs(delta) <= tol:
                    tie = True
                    if delta >= 0.0:
                        u_before = agent[at_a] + agent[at_b + la]
                        u_after = agent[at_b] + agent[at_a + lb]
                        du = u_after - u_before
                        tol_u = _tol(u_before)
                        if du > tol_u:
                            swap = True
                        elif abs(du) <= tol_u:
                            if block_keys is None:
                                block_keys = _block_keys(partition, scores())
                            if block_keys[b] > block_keys[a]:
                                swap = True
                            elif block_keys[b] == block_keys[a] and b < a:
                                swap = True
                if not swap:
                    continue
            order[pos], order[pos + 1] = b, a
            cur += delta
            changed = True
            bases[pos + 1] = base + lb
            dirty[pos - 1] = dirty[pos + 1] = True
        if not changed:
            break
    return tuple(order), tie


def _brute_tables(partition: Partition):
    """Every block order in lexicographic order, one column per order, and
    the entry b * (M + 1) + off of each of its blocks b, where off is the
    summed length of the blocks before it.

    Only the partition shapes them, so one build serves every lambda.
    """
    perms = np.zeros((0, 1), dtype=np.intp)
    for n in range(1, partition.block_count + 1):
        # The orders of n blocks: each first block f in turn, then every
        # order of n - 1 blocks with the values at or above f shifted up.
        first = np.repeat(np.arange(n, dtype=np.intp), perms.shape[1])
        rest = np.tile(perms, n)
        rest += rest >= first
        perms = np.vstack((first, rest))
    run = np.array(partition.block_lengths(), dtype=np.intp)[perms]
    return perms, perms * (partition.size + 1) + np.cumsum(run, axis=0) - run


def _brute_values(partition: Partition, weights: np.ndarray, scores) -> np.ndarray:
    """Block values, entry b * (M + 1) + off of a flat K x (M + 1) table:
    block b's scores against the window of the weights that it covers from
    off on. Past a block's last start its entries stay 0. Built here, not
    by _block_contribs, so that the oracle shares no table with the
    strategies it checks."""
    m = partition.size
    table = np.zeros((partition.block_count, m + 1))
    for b, block in enumerate(partition.blocks):
        table[b, : m - len(block) + 1] = np.correlate(weights, scores[list(block)], mode="valid")
    return table.ravel()


def _order_brute(tables, values, agent):
    """The order of tables (_brute_tables) that the contract picks, each
    order scored by the sum of the block values at its starts, and the
    tied ones by the sum of the agent's block values there."""
    perms, starts = tables
    tied = np.nonzero(_near_best(values[starts].sum(axis=0)))[0]
    tie = tied.size > 1
    if tie:
        tied = tied[_near_best(agent[starts[:, tied]].sum(axis=0))]
    # The columns run in lexicographic order, so the first survivor is the
    # lexicographically smallest block order.
    return tuple(perms[:, int(tied[0])].tolist()), tie


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
    values, agent_values = (_brute_values(partition, discount.weights, side) for side in (s, agent))
    order, _ = _order_brute(_brute_tables(partition), values, agent_values)
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


# Order functions: one (block order, tie_broken) pair per lambda, for each
# (u_bar, v_bar, lams) belief of beliefs in turn.


def _sort_indices(instance, u_bar, v_bar):
    # A singleton block's index is its one score. Equal-weight stretches of
    # the discount hide the arrangement inside them from both tiers, so the
    # lexicographic step of the contract owns those positions outright.
    # The stretches are the maximal runs of equal neighbouring weights.
    first = [block[0] for block in instance.partition.blocks]
    w = instance.discount.weights
    bounds = [0, *(np.flatnonzero(w[1:] != w[:-1]) + 1).tolist(), len(w)]
    return u_bar[first], v_bar[first], [(p, q) for p, q in zip(bounds, bounds[1:]) if q - p > 1]


def _geometric_indices(instance, u_bar, v_bar):
    # Exchange argument: under geometric weights, placing block B before C
    # is weakly better iff r(B) >= r(C), so a sort on r is globally optimal.
    beta = float(instance.discount.params["beta"])
    r = np.empty((2, instance.partition.block_count))
    for b, block in enumerate(instance.partition.blocks):
        powers, objs = beta ** np.arange(len(block)), list(block)
        r[:, b] = np.dot(powers, u_bar[objs]), np.dot(powers, v_bar[objs])
        r[:, b] /= 1.0 - beta ** len(block)
    return r[0], r[1], ()


def _index_orders(indices, instance, beliefs):
    """An index rule's order function. An index is affine in lambda, so
    indices gives each block's agent and advocate index once per belief, and
    each lambda ranks by lam * r_u + (1 - lam) * r_v, with r_u as the agent tier."""
    out = []
    for u_bar, v_bar, lams in beliefs:
        r_u, r_v, stretches = indices(instance, u_bar, v_bar)
        out += [_tiered_order(lam * r_u + (1.0 - lam) * r_v, r_u, stretches) for lam in lams]
    return out


def _contribs(instance, u_bar, v_bar):
    weights = instance.discount.weights
    return (
        _block_contribs(instance.partition, u_bar, weights),
        _block_contribs(instance.partition, v_bar, weights),
    )


def _local_search_orders(instance, beliefs):
    partition = instance.partition
    k = partition.block_count
    cells = (partition.size + 1) * k
    if cells > _LOCAL_SEARCH_CELLS:
        raise ValidationError(
            f"local_search: block-table cells (M + 1) x K ({cells}) exceed the limit {_LOCAL_SEARCH_CELLS}"
        )
    # Each climb starts from the head-weight ratio order: a block's value at
    # offset 0 over the weight its run covers there, at least w[0] = 1. That
    # is the score of a singleton and 1 - beta times Smith's index under a
    # geometric curve, so the start is exact in both cases. The index is
    # affine in lambda, like the index rules'.
    heads = np.cumsum(instance.discount.weights)[np.array(partition.block_lengths()) - 1]
    out = []
    for u_bar, v_bar, lams in beliefs:
        contrib_u, contrib_v = _contribs(instance, u_bar, v_bar)
        r_u, r_v = contrib_u[:k] / heads, contrib_v[:k] / heads
        # Each lambda's table lam * contrib_u + (1 - lam) * contrib_v is
        # written into the same two buffers; the search keeps no reference.
        # Its entries lie within lam * max_u + (1 - lam) * max_v, since
        # rounding is monotone. max and min, not np.abs, which would
        # allocate a table-sized temporary.
        combined, advocate = np.empty_like(contrib_u), np.empty_like(contrib_v)
        max_u, max_v = (float(max(t.max(), -t.min())) for t in (contrib_u, contrib_v))
        for lam in lams:
            np.multiply(lam, contrib_u, out=combined)
            np.multiply(1.0 - lam, contrib_v, out=advocate)
            combined += advocate
            bound = lam * max_u + (1.0 - lam) * max_v
            # Descending index; a stable sort keeps tied blocks by index.
            start = np.argsort(-(lam * r_u + (1.0 - lam) * r_v), kind="stable").tolist()
            scores = partial(combined_scores, lam, u_bar, v_bar)
            out.append(_order_local_search(partition, combined, contrib_u, bound, scores, start))
    return out


def _brute_force_orders(instance, beliefs):
    partition = instance.partition
    tables = _brute_tables(partition)
    weights = instance.discount.weights
    out = []
    for u_bar, v_bar, lams in beliefs:
        # Block values are linear in the scores, so a lambda mixes the
        # agent's and the advocate's values as combined_scores mixes scores.
        agent, advocate = (_brute_values(partition, weights, side) for side in (u_bar, v_bar))
        out += [_order_brute(tables, lam * agent + (1.0 - lam) * advocate, agent) for lam in lams]
    return out


def _dp_pass(instance, contribs, rows, margins: bool = False):
    """_dp_orders of each (belief, lambda) pair of rows, whose belief
    indexes contribs, the (agent, advocate) block tables of each belief.

    The rows go through the DP in chunks that keep rows * subsets within
    _DP_CELL_BUDGET; the chunks of one size share one set of subset
    tables, and every set is built before the first chunk. A chunk whose
    rows all hold one belief shares its agent table, which broadcasts. A
    belief's rows are consecutive, so a chunk's first and last row tell.
    """
    partition = instance.partition
    chunk = max(1, _DP_CELL_BUDGET >> partition.block_count)
    starts = range(0, len(rows), chunk)
    lengths, horizon = partition.block_lengths(), _horizon(instance.discount.weights)
    tables = {n: _subset_tables(lengths, n, horizon) for n in {min(chunk, len(rows) - s) for s in starts}}
    out = []
    for start in starts:
        held, lams = zip(*rows[start : start + chunk])
        if held[0] == held[-1]:
            contrib_u, contrib_v = (side[:, None] for side in contribs[held[0]])
        else:
            contrib_u, contrib_v = (np.column_stack(side) for side in zip(*(contribs[b] for b in held)))
        lams = np.array(lams)
        contrib_obj = lams * contrib_u + (1.0 - lams) * contrib_v
        out.extend(_dp_orders(tables[len(lams)], contrib_obj, contrib_u, margins))
    return out


def _subset_dp_orders(instance, beliefs):
    # Each belief's block values are computed once. The first pass solves
    # every lambda of a belief whose lambdas fit one chunk. A belief whose
    # lambdas fill more than one takes two passes over its sorted distinct
    # lambdas: the first solves a lattice of them, every ceil(sqrt(n))-th
    # and the last. Between lattice neighbours a < z that serve one order
    # with no tie before P, a point copies that order and tie flag where
    # the line between their margins exceeds twice the larger tolerance;
    # the second pass solves every other point. For a fixed order the
    # objective is linear in lambda, so the smallest gap to any rival that
    # leaves the order's path is concave and stays on or above that line
    # (README, "Solver strategies").
    chunk = max(1, _DP_CELL_BUDGET >> instance.partition.block_count)
    contribs = [_contribs(instance, u_bar, v_bar) for u_bar, v_bar, _ in beliefs]
    rows, grids = [], {}
    for b, (_, _, lams) in enumerate(beliefs):
        if len(lams) > chunk:
            points = sorted(set(lams))
            step = math.isqrt(len(points) - 1) + 1
            grids[b] = points, [*range(0, len(points) - 1, step), len(points) - 1]
            rows += [(b, points[i]) for i in grids[b][1]]
        else:
            rows += [(b, lam) for lam in lams]
    if not grids:
        return _dp_pass(instance, contribs, rows)
    first = iter(_dp_pass(instance, contribs, rows, margins=True))
    solved, rest = [], []
    for b, (_, _, lams) in enumerate(beliefs):
        if b not in grids:
            solved.append({lam: next(first)[:2] for lam in lams})
            continue
        points, lattice = grids[b]
        ends = [next(first) for _ in lattice]
        found = {points[i]: end[:2] for i, end in zip(lattice, ends)}
        for (i, a), (j, z) in pairwise(zip(lattice, ends)):
            share = a[:2] == z[:2]
            floor = 2.0 * max(a[3], z[3])
            for lam in points[i + 1 : j]:
                t = (lam - points[i]) / (points[j] - points[i])
                if share and (1.0 - t) * a[2] + t * z[2] > floor:
                    found[lam] = a[:2]
                else:
                    rest.append((b, lam))
        solved.append(found)
    for (b, lam), result in zip(rest, _dp_pass(instance, contribs, rest)):
        solved[b][lam] = result
    return [found[lam] for found, (_, _, lams) in zip(solved, beliefs) for lam in lams]


class _Strategy(NamedTuple):
    refuse: Callable[[Partition, DiscountCurve], str | None]
    orders: Callable[..., list]


_TABLE = {
    "sort": _Strategy(_refuse_sort, partial(_index_orders, _sort_indices)),
    "subset_dp": _Strategy(_refuse_subset_dp, _subset_dp_orders),
    "geometric_index": _Strategy(_refuse_geometric_index, partial(_index_orders, _geometric_indices)),
    "local_search": _Strategy(lambda partition, discount: None, _local_search_orders),
    "brute_force": _Strategy(_refuse_brute_force, _brute_force_orders),
}

# The names a request may give: auto, then each table row in order.
STRATEGIES = ("auto", *_TABLE)

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
    [results] = _solve_rows(instance, [(posterior, lambdas)], strategy)
    return results


def _solve_rows(instance: Instance, rows, strategy: str) -> list[tuple[SolveResult, ...]]:
    """solve_grid for each (posterior, lambdas) pair of rows, in one strategy call.

    The strategy is resolved once. A pair's expected scores, and the work
    that depends on them alone, serve all of its lambdas; the subset DP
    solves the rows of every pair in one pass. Each result equals the
    solve() of its posterior and lambda bit for bit. Without pairs, nothing
    is resolved or built.
    """
    if not rows:
        return []
    beliefs = []
    for posterior, lambdas in rows:
        lams = [float(l) for l in lambdas]
        for l in lams:
            if not 0.0 <= l <= 1.0:
                raise ValidationError(f"lambda: must lie in [0, 1], got {l!r}")
        belief = posterior if posterior is not None else prior_posterior(instance.type_space)
        u_bar = expected_scores(instance, belief, "agent")
        v_bar = expected_scores(instance, belief, "advocate")
        beliefs.append((u_bar, v_bar, lams))
    partition, discount = instance.partition, instance.discount
    if strategy == "auto":
        strategy = next(s for s in _AUTO if _TABLE[s].refuse(partition, discount) is None)
    elif strategy not in _TABLE:
        raise ValidationError(f"strategy: unknown strategy {strategy!r}")
    else:
        refusal = _TABLE[strategy].refuse(partition, discount)
        if refusal is not None:
            raise SolverContractError(refusal)
    orders = iter(_TABLE[strategy].orders(instance, beliefs))
    out = []
    for u_bar, v_bar, lams in beliefs:
        # A run of equal consecutive orders shares the allocation and the two
        # values of its first result; only the objective is per lambda, in
        # the expression of _result_for.
        results, last = [], None
        for lam, (order, tie) in zip(lams, orders):
            if order != last:
                last = order
                first = _result_for(instance, u_bar, v_bar, lam, order, strategy, tie)
                results.append(first)
                continue
            agent_value, advocate_value = first.agent_value, first.advocate_value
            objective = lam * agent_value + (1.0 - lam) * advocate_value
            results.append(
                SolveResult(first.allocation, objective, agent_value, advocate_value, lam, strategy, tie)
            )
        out.append(tuple(results))
    return out
