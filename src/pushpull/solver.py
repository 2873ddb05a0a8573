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

# Cap on block orders * objects, the index cells of brute force's table of
# object orders: 128 MB of them, 8 blocks of up to 416 objects or 7 of up to
# 3328. A solve at the cap peaks near 300 MB, the table and one gather of
# scores through it.
_BRUTE_FORCE_CELLS = 1 << 24

# Cap on rows * subsets of value-to-go held at once when solving a lambda
# grid: one row at DP_SUBSET_LIMIT blocks.
_DP_CELL_BUDGET = 1 << DP_SUBSET_LIMIT

# Cap on subsets * absent blocks * rows in one step of the subset DP.
_DP_SLICE_CELLS = 1 << 16

# The subset DP splits each subset into its first _DP_LOW_BLOCKS blocks, the
# low bits, and the rest, the high bits (see _Subsets).
_DP_LOW_BLOCKS = 10


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
    order = np.lexsort((-secondary, -primary))
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


class _Plan(NamedTuple):
    """The subset-DP index plan of n consecutive blocks of a K-block layout.

    Bit c of a plan subset is block first + c of the layout. offsets[S] is
    the summed length of the blocks in S, and levels[L] lists the subsets
    of L blocks in ascending order. steps[L] holds (at, nxt) for all of
    level L: for the c-th block absent from levels[L][j], at[j, c] is its
    row of _by_position's table when placed at offsets[levels[L][j]], and
    nxt[j, c] the subset after placing it.

    key is (lengths, K, first). A plan with a limit was asked for the
    subsets whose offset lies below it; when some subset's offset does not,
    the plan is cut: its levels and steps keep only the subsets below, and
    it is memoized under key and limit.
    """

    offsets: np.ndarray
    levels: list[np.ndarray]
    steps: list[tuple[np.ndarray, np.ndarray]]
    key: tuple = ()
    limit: int | None = None

    @property
    def cut(self) -> bool:
        return self.limit is not None and self.limit <= self.offsets[-1]


class _Subsets(NamedTuple):
    """Subset tables for one tuple of block lengths; block i is bit i.

    The first h = min(K, _DP_LOW_BLOCKS) blocks are the low bits of a
    subset, the rest its high bits. The subsets that share their high bits
    H fill one block of 2**h rows of the value table, rows H << h on. A
    layout of h or fewer blocks is a single block: its high plan has no
    blocks. Under a horizon both plans carry it as their limit and are cut
    to it; each block runs the low plan cut to what its high offset leaves
    (see _low_plans).
    """

    low: _Plan
    high: _Plan


class _Memo:
    """Read-only tables shared across calls, least recently used first out.

    Holds at most limit bytes. Its values depend on neither cell budget:
    plans are keyed by their block lengths, K and first block, and cut
    plans by those and their limit. An entry counts sys.getsizeof of its
    value and of every list, tuple and array in it; an array that owns its
    data, as every memoized one does, counts that data too. A lock keeps
    its bookkeeping whole when threads solve at once.
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
# (2 + n) * 2**n index cells: about 96 kB each for the low and the high
# plan of a K=20 layout; a plan cut to a horizon holds part of that.
_memo = _Memo(8 << 20)


def _plan(lengths, k: int, first: int, limit: int | None = None) -> _Plan:
    """The plan of blocks first, first + 1, ... of a K-block layout, whose
    lengths are lengths, for the subsets whose offset lies below limit. The
    absent blocks of a subset are the zero bits of its row of the bit table."""
    key = (tuple(lengths), k, first)
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
                absent = np.nonzero(bits[sel] == 0)[1].reshape(len(sel), n - level)
                steps.append((offsets[sel, None] * k + first + absent, sel[:, None] | 1 << absent))
        return offsets, levels, steps

    return _Plan(*_memo.get((*key, limit) if cut else key, build), key, limit)


def _horizon(weights: np.ndarray) -> int | None:
    """P, the number of positive weights, when it is below M; else None.

    The weights decrease weakly from 1 to at least 0, so they are all
    positive exactly when the last one is.
    """
    return None if weights[-1] > 0 else int(np.count_nonzero(weights))


def _subset_tables(lengths, horizon: int | None = None) -> _Subsets:
    """The subset tables of a layout, for the subsets that fill fewer than
    horizon positions; None solves them all."""
    k = len(lengths)
    h = min(k, _DP_LOW_BLOCKS)
    low = _plan(lengths[:h], k, 0, horizon)
    high = _plan(lengths[h:], k, h, horizon)
    if k > h:
        # Build the cut low plans before a pass allocates its tables: a plan
        # built inside a pass sits on the heap above them and keeps their
        # memory from going back to the system. That raised the peak RSS of
        # the frontier_exact benchmark from 59 to 65 MB.
        for level in range(len(high.levels)):
            _low_plans(low, high, level)
    return _Subsets(low, high)


def _low_plans(low: _Plan, high: _Plan, level: int):
    """(part, plan) pairs for one high level: the blocks of the high subsets
    high.levels[level][part] run the low plan cut to what their offset
    leaves of the horizon. Without a horizon one part holds them all.
    """
    if low.limit is None:
        return [(slice(None), low)]
    # Every limit past the low blocks' total gets the one uncut plan.
    limits = np.minimum(low.limit - high.offsets[high.levels[level]], low.offsets[-1] + 1)
    return [(np.flatnonzero(limits == limit), _plan(*low.key, limit)) for limit in np.unique(limits).tolist()]


def _plan_slices(plan: _Plan, values):
    """The slices of _dp_slices for a single block: plan's steps, levels
    from the top, on the memoized arrays themselves."""
    n = len(plan.levels) - 1
    rows = values[0].shape[1]
    for level in range(n - 1, -1, -1):
        step = max(1, _DP_SLICE_CELLS // ((n - level) * rows))
        sel, (at, nxt) = plan.levels[level], plan.steps[level]
        for start in range(0, len(sel), step):
            stop = start + step
            yield values, sel[start:stop], at[start:stop], nxt[start:stop], False


def _outer_slices(values, merge, outer, inner):
    """The slices of _dp_slices for every pair (j, i) of rows of the (sel,
    at, nxt) triples outer and inner: subset sel_j | sel_i, at_j + at_i and
    nxt_j | nxt_i, where an at or nxt of one column serves every candidate.
    A slice takes whole outer rows, or one outer row and part of the inner."""
    (sel_j, at_j, nxt_j), (sel_i, at_i, nxt_i) = outer, inner
    if not len(sel_i):
        return
    width = max(at_j.shape[1], at_i.shape[1])
    fit = max(1, _DP_SLICE_CELLS // (width * values[0].shape[1]))
    group, piece = max(1, fit // len(sel_i)), min(fit, len(sel_i))
    for j in range(0, len(sel_j), group):
        sj, aj, nj = (index[j : j + group, None] for index in (sel_j, at_j, nxt_j))
        for i in range(0, len(sel_i), piece):
            si, ai, ni = (index[i : i + piece] for index in (sel_i, at_i, nxt_i))
            sel = (sj | si).ravel()
            yield values, sel, (aj + ai).reshape(len(sel), width), (nj | ni).reshape(len(sel), width), merge


def _dp_slices(tables: _Subsets, *values):
    """The backward pass of the subset DP, one slice at a time.

    values are (2**K, rows) tables indexed by subset. Yields (views, sel,
    at, nxt, merge): for each value table a view t, whose t[sel] takes the
    best candidate of the slice and whose t[nxt[:, c]] is read for the c-th
    candidate block, whose rows of _by_position's table are at[:, c].

    High levels run from the top. At each, whole-block steps first fill
    every block of the level from its absent high blocks: there t views the
    table as blocks of 2**h rows, or as equal pieces of them, sel lists
    blocks and nxt[j, c] is the block after placing the c-th. Then the low
    plan runs inside every block of the level, and merge says that its best
    joins what the whole-block steps left in t[sel]. The top block and a
    single block have no whole-block steps and never merge. Every nxt is
    final before any sel reads it. A slice holds at most _DP_SLICE_CELLS
    candidate cells, or one subset.

    Under a horizon P only the subsets that fill fewer than P positions are
    solved: the high plan holds only the blocks whose high offset is below
    P, each block runs the low plan cut to what its offset leaves of P, and
    a block whose low plan is cut takes its whole-block steps on the
    subsets of that plan alone, with t = the table. Every other subset
    keeps the 0.0 that the tables start from, which is its value: every
    weight it could still reach is 0.
    """
    low, high = tables.low, tables.high
    h, top = len(low.levels) - 1, len(high.levels) - 1
    rows = values[0].shape[1]
    if not top:
        yield from _plan_slices(low, values)
        return
    k = h + top
    scaled = low.offsets * k
    for level in range(top, -1, -1):
        merge = level < top
        for part, plan in _low_plans(low, high, level):
            hs = high.levels[level][part]
            if merge:
                at_high, nxt_high = (index[part] for index in high.steps[level])
                if plan.cut:
                    below = np.concatenate(plan.levels)
                    whole = (hs << h, at_high, nxt_high << h)
                    yield from _outer_slices(values, False, whole, (below, scaled[below, None], below[:, None]))
                else:
                    # A block that overflows a slice goes in 2**cut equal pieces.
                    fit = max(1, _DP_SLICE_CELLS // ((top - level) * rows))
                    cut = max(0, h + 1 - fit.bit_length())
                    pieces = [v.reshape(-1, 1 << (h - cut), rows) for v in values]
                    step = max(1, fit >> h)
                    for start in range(0, len(hs), step):
                        sel, nxt = (index[start : start + step] << cut for index in (hs, nxt_high))
                        col = at_high[start : start + step, :, None]
                        for piece, at in enumerate(np.split(col + scaled, 1 << cut, axis=2)):
                            yield pieces, sel + piece, at, nxt + piece, False
            first = hs << h
            blocks = (first, high.offsets[hs, None] * k, first[:, None])
            for sel, step in zip(plan.levels[h - 1 :: -1], plan.steps[::-1]):
                yield from _outer_slices(values, merge, blocks, (sel, *step))


def _by_position(contrib: np.ndarray) -> np.ndarray:
    """Block tables (rows, K, M+1) as one ((M+1) * K, rows) array: row off * K + b
    holds block b at offset off for every objective row."""
    return np.ascontiguousarray(contrib.transpose(2, 1, 0)).reshape(-1, contrib.shape[0])


def _best(cand: np.ndarray) -> np.ndarray:
    """cand.max(axis=1). Past a few dozen cells a column, one np.maximum per
    candidate column: a reduction over that short middle axis runs many
    times slower."""
    if cand.size < 64 * cand.shape[1]:
        return cand.max(axis=1)
    best = cand[:, 0].copy()
    for column in range(1, cand.shape[1]):
        np.maximum(best, cand[:, column], out=best)
    return best


def _dp_value_to_go(contrib: np.ndarray, tables: _Subsets) -> np.ndarray:
    """go[S, r] = best achievable value of the blocks outside S, given that
    the blocks in S already fill the first offsets[S] positions.

    The offset of the next block depends only on the set S (sum of placed
    lengths), never on their order, which is what makes the subset DP
    exact (the Held-Karp recursion). contrib has one (K, M+1) table of
    block values per objective row r. Each step takes the max over a set
    of absent blocks at once; max is exact, so the order of blocks is moot.
    """
    rows, k, _ = contrib.shape
    flat = _by_position(contrib)
    go = np.zeros((1 << k, rows))
    for (table,), sel, at, nxt, merge in _dp_slices(tables, go):
        cand = np.take(flat, at, axis=0)
        cand += np.take(table, nxt, axis=0)
        best = _best(cand)
        if merge:
            np.maximum(best, table[sel], out=best)
        table[sel] = best
    return go


def _dp_agent_to_go(contrib_obj, contrib_agent, go, tables, tol) -> np.ndarray:
    """Best agent value over continuations that stay objective-tied.

    One column per objective row r of contrib_obj, whose value-to-go is
    go[:, r] and whose tolerance is tol[r]. contrib_agent is the agent table
    every row shares, or one per row. Only continuations within tol[r] of
    the optimal value-to-go at every step participate; everything else is
    excluded with -inf.
    """
    flat_obj = _by_position(contrib_obj)
    flat_agent = _by_position(contrib_agent.reshape(-1, *contrib_obj.shape[1:]))
    gu = np.zeros(go.shape)
    for (value, agent), sel, at, nxt, merge in _dp_slices(tables, go, gu):
        obj = np.take(flat_obj, at, axis=0)
        obj += np.take(value, nxt, axis=0)
        obj -= value[sel][:, None]
        ok = np.abs(obj, out=obj) <= tol
        cand = np.take(agent, nxt, axis=0)
        cand += np.take(flat_agent, at, axis=0)
        cand[~ok] = -np.inf
        best = _best(cand)
        if merge:
            np.maximum(best, agent[sel], out=best)
        agent[sel] = best
    return gu


def _dp_walk(contrib_obj, contrib_agent, go, offsets, gu=None):
    """Greedy reconstruction of one DP row along tied-optimal branches.

    go and gu are the row's value and agent tables. offsets is (low, high,
    h, P), lists whose low[S & (2**h - 1)] + high[S >> h] is the summed
    length of the blocks in S, and the horizon P, from which on the
    remaining blocks follow in ascending order. Without gu the walk returns
    None at its first tie before P, so a row without one never needs the
    agent pass.
    """
    k = contrib_obj.shape[0]
    full = (1 << k) - 1
    low, high, h, horizon = offsets
    mask = (1 << h) - 1
    tol = _tol(go.item(0))
    obj, value = contrib_obj.tolist(), go.item
    if gu is not None:
        agent, agent_value = contrib_agent.tolist(), gu.item
    state = 0
    order: list[int] = []
    tie = False
    while state != full:
        off = low[state & mask] + high[state >> h]
        if off >= horizon:
            rest = [i for i in range(k) if not (state >> i) & 1]
            return (*order, *rest), tie or len(rest) > 1
        target = value(state)
        cands = [
            i
            for i in range(k)
            if not (state >> i) & 1
            and abs(obj[i][off] + value(state | (1 << i)) - target) <= tol
        ]
        if not cands:
            raise SolverContractError("internal: reconstruction lost the optimum")
        if len(cands) > 1:
            if gu is None:
                return None
            tie = True
            uvals = np.array([agent[i][off] + agent_value(state | (1 << i)) for i in cands])
            cands = [i for i, near in zip(cands, _near_best(uvals)) if near]
        choice = cands[0]
        order.append(choice)
        state |= 1 << choice
    return tuple(order), tie


def _dp_orders(tables: _Subsets, contrib_obj, contrib_agent):
    """Solve one subset DP per objective row; contrib_obj is (rows, K, M+1).

    contrib_agent is the agent table (K, M+1) that every row shares, or one
    per row. Rows whose walk meets a tie share one agent pass, then walk again.
    """
    go = _dp_value_to_go(contrib_obj, tables)
    rows = range(len(contrib_obj))
    low, high, m = tables.low, tables.high, contrib_obj.shape[2] - 1
    offsets = low.offsets.tolist(), high.offsets.tolist(), len(low.levels) - 1, low.limit or m
    orders = [_dp_walk(contrib_obj[r], None, go[:, r], offsets) for r in rows]
    tied = [r for r in rows if orders[r] is None]
    if tied:
        # When every row tied, the agent pass reads go itself, not a copy.
        tied_go = go if len(tied) == len(rows) else go.take(tied, axis=1)
        tol = np.array([_tol(go[0, r]) for r in tied])
        shared = contrib_agent.ndim == 2
        agents = contrib_agent if shared else contrib_agent[tied]
        gu = _dp_agent_to_go(contrib_obj[tied], agents, tied_go, tables, tol)
        for j, r in enumerate(tied):
            agent = agents if shared else agents[j]
            orders[r] = _dp_walk(contrib_obj[r], agent, go[:, r], offsets, gu[:, j])
    return orders


def _block_keys(partition: Partition, scores) -> tuple[tuple[float, ...], ...]:
    s = np.asarray(scores, dtype=float)
    return tuple(tuple(float(s[j]) for j in block) for block in partition.blocks)


def _order_local_search(partition: Partition, contrib_obj, contrib_agent, block_keys):
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
    # Both tables are read as flat views of Python floats, entry (b, off) at
    # b * width + off: the same doubles, summed in the same association.
    width = contrib_obj.shape[1]
    obj, agent = memoryview(contrib_obj.ravel()), memoryview(contrib_agent.ravel())
    order = list(range(k))
    cur = 0.0
    off = 0
    for b in order:
        cur += obj[b * width + off]
        off += lengths[b]
    tie = False
    tol = _tol(cur)
    for _ in range(8 * k + 32):
        changed = False
        off = 0
        # a is the block at pos. A swap carries it on to pos + 1, where it
        # meets the next block; otherwise that next block takes its place.
        a = order[0]
        for pos in range(k - 1):
            b = order[pos + 1]
            la, lb = lengths[a], lengths[b]
            at_a, at_b = a * width + off, b * width + off
            before = obj[at_a] + obj[at_b + la]
            after = obj[at_b] + obj[at_a + lb]
            delta = after - before
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
                        if block_keys[b] > block_keys[a]:
                            swap = True
                        elif block_keys[b] == block_keys[a] and b < a:
                            swap = True
            if swap:
                order[pos], order[pos + 1] = b, a
                cur += delta
                tol = _tol(cur)
                changed = True
                off += lb
            else:
                off += la
                a = b
        if not changed:
            break
    return tuple(order), tie


def _brute_tables(partition: Partition):
    """Every block order in lexicographic order, and the object order of
    each, one row per order.

    Only the partition shapes them, so one build serves every lambda.
    """
    perms = np.zeros((1, 0), dtype=np.intp)
    for n in range(1, partition.block_count + 1):
        # The orders of n blocks: each first block f in turn, then every
        # order of n - 1 blocks with the values at or above f shifted up.
        first = np.repeat(np.arange(n, dtype=np.intp), len(perms))
        rest = np.tile(perms, (n, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack((first, rest))
    lengths = np.array(partition.block_lengths(), dtype=np.intp)
    objs = np.array([obj for block in partition.blocks for obj in block], dtype=np.intp)
    seq = perms.ravel()
    run = lengths[seq]
    # Along the concatenated orders, place i inside the run of block b holds
    # objs[starts[b] + i - (the place where that run begins)].
    starts = np.cumsum(lengths) - lengths
    at = np.repeat(starts[seq] - (np.cumsum(run) - run), run)
    at += np.arange(len(at))
    return perms, objs[at].reshape(len(perms), partition.size)


def _order_brute(tables, weights: np.ndarray, scores, agent):
    perms, orders = tables
    values = np.asarray(scores, dtype=float)[orders] @ weights
    tied = np.nonzero(_near_best(values))[0]
    tie = tied.size > 1
    if tie:
        agent_vals = np.asarray(agent, dtype=float)[orders[tied]] @ weights
        tied = tied[_near_best(agent_vals)]
    # The rows run in lexicographic order, so the first survivor is the
    # lexicographically smallest block order.
    return tuple(perms[int(tied[0])].tolist()), tie


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
    order, _ = _order_brute(_brute_tables(partition), discount.weights, s, agent)
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
    cells = math.factorial(partition.block_count) * partition.size
    if cells > _BRUTE_FORCE_CELLS:
        return f"brute force: block orders x objects ({cells}) exceed the limit {_BRUTE_FORCE_CELLS}"
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
    out = []
    for u_bar, v_bar, lams in beliefs:
        contrib_u, contrib_v = _contribs(instance, u_bar, v_bar)
        out += [
            _order_local_search(
                partition,
                lam * contrib_u + (1.0 - lam) * contrib_v,
                contrib_u,
                _block_keys(partition, combined_scores(lam, u_bar, v_bar)),
            )
            for lam in lams
        ]
    return out


def _brute_force_orders(instance, beliefs):
    tables = _brute_tables(instance.partition)
    weights = instance.discount.weights
    return [
        _order_brute(tables, weights, combined_scores(lam, u_bar, v_bar), u_bar)
        for u_bar, v_bar, lams in beliefs
        for lam in lams
    ]


def _subset_dp_orders(instance, beliefs):
    # The rows of every belief share one set of subset tables and go through
    # the DP in chunks that keep rows * subsets within _DP_CELL_BUDGET. Each
    # belief's block values are computed once; a chunk whose rows all hold
    # one belief shares its agent table, which broadcasts. A belief's rows
    # are consecutive, so a chunk's first and last row tell.
    partition = instance.partition
    contribs, lams, which = [], [], []
    for b, (u_bar, v_bar, belief_lams) in enumerate(beliefs):
        contribs.append(_contribs(instance, u_bar, v_bar))
        lams += belief_lams
        which += [b] * len(belief_lams)
    tables = _subset_tables(partition.block_lengths(), _horizon(instance.discount.weights))
    chunk = max(1, _DP_CELL_BUDGET >> partition.block_count)
    out = []
    for start in range(0, len(lams), chunk):
        rows = np.array(lams[start : start + chunk])[:, None, None]
        held = which[start : start + chunk]
        if held[0] == held[-1]:
            contrib_u, contrib_v = contribs[held[0]]
        else:
            contrib_u, contrib_v = (np.array(side) for side in zip(*(contribs[b] for b in held)))
        contrib_obj = rows * contrib_u + (1.0 - rows) * contrib_v
        out.extend(_dp_orders(tables, contrib_obj, contrib_u))
    return out


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
    return [
        tuple(
            _result_for(instance, u_bar, v_bar, lam, order, strategy, tie)
            for lam, (order, tie) in zip(lams, orders)
        )
        for u_bar, v_bar, lams in beliefs
    ]
