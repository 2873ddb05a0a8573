"""The row-batched subset DP against the per-(level, block) recursion it replaced.

The reference below is that recursion as it stood: one step per (level,
block), each filtering the level's subsets that lack the block. The kernel
under test splits each subset into low and high bits. It places the absent
high blocks of a whole block of subsets at once, then runs the low blocks'
plan inside it one slice at a time, so its value and agent tables must
equal the reference bit for bit. The plans come from a memo shared across
calls, so the tables are checked on a cold memo and again on a warm one.
Under a discount horizon P the kernel solves only the subsets that fill
fewer than P positions; every other subset must hold the +0.0 that the
reference computes there.
"""

import dataclasses
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushpull as pp
from pushpull import metrics, solver

from helpers import make_instance, random_partition


def _reference_offsets(lengths):
    subs = np.arange(1 << len(lengths))
    off = np.zeros(subs.size, dtype=np.intp)
    for i, ln in enumerate(lengths):
        off += ((subs >> i) & 1).astype(np.intp) * ln
    return off


def _reference_levels(k):
    subs = np.arange(1 << k)
    pc = np.zeros(subs.size, dtype=np.int64)
    for i in range(k):
        pc += (subs >> i) & 1
    return [subs[pc == level] for level in range(k + 1)]


def _reference_steps(offsets, levels):
    k = len(levels) - 1
    for level in range(k - 1, -1, -1):
        for i in range(k):
            bit = 1 << i
            sel = levels[level]
            sel = sel[(sel & bit) == 0]
            if sel.size:
                yield i, sel, offsets[sel], sel | bit


def _reference_value_to_go(contrib, offsets, levels):
    """go[r, S], one row per objective row of contrib (rows, K, M+1)."""
    rows, k, _ = contrib.shape
    n = 1 << k
    go = np.full((rows, n), -np.inf)
    go[:, n - 1] = 0.0
    for i, sel, off, nxt in _reference_steps(offsets, levels):
        cand = contrib[:, i, off] + go[:, nxt]
        cur = go[:, sel]
        go[:, sel] = np.where(cand > cur, cand, cur)
    return go


def _reference_agent_to_go(contrib_obj, contrib_agent, go, offsets, levels, tol):
    """gu[S] for one objective row (K, M+1) with value table go[S]."""
    n = go.size
    gu = np.full(n, -np.inf)
    gu[n - 1] = 0.0
    for i, sel, off, nxt in _reference_steps(offsets, levels):
        ok = np.abs(contrib_obj[i, off] + go[nxt] - go[sel]) <= tol
        cand = np.where(ok, contrib_agent[i, off] + gu[nxt], -np.inf)
        gu[sel] = np.maximum(gu[sel], cand)
    return gu


def _bits(table):
    return np.ascontiguousarray(table).tobytes()


@st.composite
def instances(draw, max_blocks):
    """Random, tie-heavy integer or cutoff instances with up to max_blocks blocks."""
    k = draw(st.integers(1, max_blocks), label="blocks")
    m = draw(st.integers(k, k + 4), label="objects")
    kind = draw(st.sampled_from(("random", "tie_heavy", "cutoff")), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "tie_heavy":
        u, v = rng.integers(0, 3, m).astype(float), rng.integers(0, 3, m).astype(float)
    else:
        u, v = rng.random(m) * 10, rng.random(m) * 10
    if kind == "cutoff":
        d = pp.make_discount("cutoff", m, cutoff=draw(st.integers(1, m), label="cutoff"))
    else:
        d = pp.make_discount("dcg", m)
    part = random_partition(rng, m, k)
    return make_instance(agent=[u], advocate=[v], blocks=part.blocks, discount=d)


LAMBDAS = st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.75, 1.0))


def _check_tables(inst, lams):
    """Solve the DP tables of inst at lams and compare them with the reference.

    Returns the subset tables the kernel used.
    """
    part, weights = inst.partition, inst.discount.weights
    u, v = inst.utilities.agent[0], inst.utilities.advocate[0]
    contrib_u = solver._block_contribs(part, np.asarray(u, dtype=float), weights)
    contrib_v = solver._block_contribs(part, np.asarray(v, dtype=float), weights)
    rows = np.array(lams)[:, None, None]
    contrib_obj = rows * contrib_u + (1.0 - rows) * contrib_v
    lengths = part.block_lengths()
    offsets, levels = _reference_offsets(lengths), _reference_levels(len(lengths))

    want_go = _reference_value_to_go(contrib_obj, offsets, levels)
    tol = np.array([solver._tol(value) for value in want_go[:, 0]])
    tables = solver._subset_tables(lengths)
    go = solver._dp_value_to_go(contrib_obj, tables)
    gu = solver._dp_agent_to_go(contrib_obj, contrib_u, go, tables, tol)
    assert _bits(go.T) == _bits(want_go)
    for r in range(len(lams)):
        want_gu = _reference_agent_to_go(
            contrib_obj[r], contrib_u, want_go[r], offsets, levels, tol[r]
        )
        assert _bits(gu[:, r]) == _bits(want_gu), r
    return tables


def _low_key(lengths):
    """The memo key of the low plan of a layout: its first h lengths and K."""
    return tuple(lengths[: solver._DP_LOW_BLOCKS]), len(lengths), 0


def _plan_arrays(tables):
    """Every array of a layout's low and high plans."""
    for plan in tables:
        yield plan.offsets
        yield from plan.levels
        for at, nxt in plan.steps:
            yield at
            yield nxt


@given(
    instances(max_blocks=10),
    st.lists(LAMBDAS, min_size=1, max_size=3),
    st.lists(LAMBDAS, min_size=4, max_size=40),
    st.sampled_from((1, 7, 64, 512, 4096, solver._DP_SLICE_CELLS)),
    st.sampled_from((1, 2, 3, solver._DP_LOW_BLOCKS)),
)
@settings(max_examples=200, deadline=None)
def test_value_and_agent_tables_match_the_per_block_recursion(inst, cold, warm, slice_cells, low):
    # Each layout is solved cold, then warm with more rows, which slices a
    # memoized plan with a smaller step than the cold solve that built it.
    # A low width below K splits the layout into blocks over several high
    # levels.
    lengths = inst.partition.block_lengths()
    with mock.patch.object(solver, "_DP_SLICE_CELLS", slice_cells), mock.patch.object(
        solver, "_DP_LOW_BLOCKS", low
    ):
        solver._memo.clear()
        built = _check_tables(inst, cold)
        assert _low_key(lengths) in solver._memo.entries
        reused = _check_tables(inst, warm)
    assert len(built.low.levels) - 1 == min(low, len(lengths))
    assert all(a is b for a, b in zip(_plan_arrays(reused), _plan_arrays(built), strict=True))


def _layout_instance(lengths, seed, discount="cutoff"):
    rng = np.random.default_rng(seed)
    m = sum(lengths)
    u, v = rng.integers(0, 3, m).astype(float), rng.integers(0, 3, m).astype(float)
    cuts = np.cumsum([0, *lengths]).tolist()
    blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    kind = {"cutoff": {"cutoff": m // 2}, "dcg": {}}
    d = pp.make_discount(discount, m, **kind[discount])
    return make_instance(agent=[u], advocate=[v], blocks=blocks, discount=d)


def test_sixteen_blocks_match_the_per_block_recursion_in_both_passes():
    lengths = [1 + i % 3 for i in range(16)]
    for discount in ("cutoff", "dcg"):
        tables = _check_tables(_layout_instance(lengths, 16, discount), [0.0, 0.3, 0.5, 1.0])
        assert len(tables.low.levels) - 1 == solver._DP_LOW_BLOCKS


def test_a_layout_past_the_low_width_reuses_the_plan_of_its_first_blocks():
    solver._memo.clear()
    h = solver._DP_LOW_BLOCKS
    head = [1 + i % 3 for i in range(h)]
    first = _check_tables(_layout_instance(head + [2, 1, 3, 1], 1), [0.0, 0.5, 1.0])
    again = _check_tables(_layout_instance(head + [1, 3, 1, 2], 2), [0.25] * 9)
    assert all(a is b for a, b in zip(_plan_arrays([again.low]), _plan_arrays([first.low]), strict=True))
    assert again.high.steps is not first.high.steps
    # Nothing in the memo is wider than h blocks.
    assert all(
        (key if isinstance(key, int) else len(key[0])) <= h for key in solver._memo.entries
    )


def test_memoized_arrays_are_read_only():
    for lengths in ((2, 1, 3), tuple(1 + i % 4 for i in range(14))):
        for array in _plan_arrays(solver._subset_tables(lengths)):
            with pytest.raises(ValueError):
                array[...] = 0


def _held_bytes(value):
    """sys.getsizeof of value and of every list, tuple and array in it."""
    size = sys.getsizeof(value)
    if isinstance(value, np.ndarray):
        assert value.base is None  # the array owns, and getsizeof counts, its data
        return size
    return size + sum(_held_bytes(item) for item in value)


def test_memo_stays_within_its_byte_bound_and_evicts_least_recently_used():
    solver._memo.clear()
    rng = np.random.default_rng(8)
    layouts = set()
    while len(layouts) < 200:
        k = int(rng.integers(1, 17))
        cuts = np.sort(rng.choice(np.arange(1, 20), k - 1, replace=False))
        layouts.add(tuple(np.diff(np.concatenate(([0], cuts, [20]))).tolist()))
    layouts = sorted(layouts)
    for seed, lengths in enumerate(layouts):
        pp.solve_grid(_layout_instance(lengths, seed, "dcg"), [0.5], strategy="subset_dp")

    held = sum(_held_bytes(value) for value, _ in solver._memo.entries.values())
    assert held == solver._memo.nbytes
    assert held <= solver._memo.limit <= 8 << 20
    # Eviction ran, oldest first: the plans of ten or more blocks alone
    # exceed the bound.
    assert _low_key(layouts[0]) not in solver._memo.entries
    assert _low_key(layouts[-1]) in solver._memo.entries

    # A hit makes an entry the most recently used.
    table = np.zeros(100)
    memo = solver._Memo(5 * sys.getsizeof(table) // 2)
    for key in ("a", "b", "a", "c"):
        memo.get(key, table.copy)
    assert list(memo.entries) == ["a", "c"]


def test_a_twenty_block_solve_allocates_its_value_table_and_at_most_four_mib_more():
    # Random scores leave the row untied, so no agent table is built.
    spec = pp.ScenarioSpec(
        kind="random", seed=5, objects=24, blocks=20, types=2, discount=("dcg", {})
    )
    inst = pp.generate(spec)
    solver._memo.clear()
    tracemalloc.start()
    try:
        [result] = pp.solve_grid(inst, [0.5], strategy="subset_dp")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not result.tie_broken
    assert peak <= (8 << 20) + (4 << 20)


@given(
    instances(max_blocks=7),
    LAMBDAS,
    st.sampled_from(("auto", "subset_dp", "brute_force")),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_agency_metrics_equal_three_single_solves(inst, lam, strategy, one_row_chunks):
    def single(at):
        return pp.solve(pp.SolveRequest(inst, at, strategy=strategy))

    want = metrics._point(single(lam), single(1.0).agent_value, single(0.0).advocate_value)
    budget = 1 if one_row_chunks else solver._DP_CELL_BUDGET
    with mock.patch.object(solver, "_DP_CELL_BUDGET", budget):
        got = pp.agency_metrics(inst, lam, strategy=strategy)
    assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want))


def test_metrics_at_the_block_limit_hold_one_row_of_value_to_go(monkeypatch):
    k = pp.DP_SUBSET_LIMIT
    spec = pp.ScenarioSpec(
        kind="random", seed=5, objects=k + 2, blocks=k, types=2, discount=("dcg", {})
    )
    cells = []
    value_to_go = solver._dp_value_to_go

    def spy(contrib, *args):
        cells.append(contrib.shape[0] << contrib.shape[1])
        return value_to_go(contrib, *args)

    monkeypatch.setattr(solver, "_dp_value_to_go", spy)
    pp.agency_metrics(pp.generate(spec), 0.5, strategy="subset_dp")
    assert len(cells) == 3
    assert max(cells) <= 1 << pp.DP_SUBSET_LIMIT


def test_cutoff_frontier_runs_the_agent_pass_once_per_chunk(monkeypatch):
    # Ten blocks under a cell budget of 2**15 make chunks of 32 rows, so the
    # 101 grid points fall into 4 chunks.
    spec = pp.ScenarioSpec(
        kind="random", seed=3, objects=30, blocks=10, types=4, discount=("cutoff", {"cutoff": 6})
    )
    inst = pp.generate(spec)
    lams = pp.lambda_grid(0.0, 1.0, 101)
    monkeypatch.setattr(solver, "_DP_CELL_BUDGET", 1 << 15)
    passes = []
    agent_to_go = solver._dp_agent_to_go

    def spy(contrib_obj, *args):
        passes.append(len(contrib_obj))
        return agent_to_go(contrib_obj, *args)

    monkeypatch.setattr(solver, "_dp_agent_to_go", spy)
    results = pp.solve_grid(inst, lams, strategy="subset_dp")
    tied = sum(r.tie_broken for r in results)
    assert tied > 4
    assert len(passes) <= 4
    assert sum(passes) == tied


@st.composite
def horizon_instances(draw, max_blocks):
    """Instances under a custom curve with P positive weights, for any P in 1..M.

    The curve falls from 1 through random steps to its P-th weight and is 0
    after it; P = M leaves no zero tail.
    """
    k = draw(st.integers(1, max_blocks), label="blocks")
    m = draw(st.integers(k, k + 4), label="objects")
    p = draw(st.integers(1, m), label="horizon")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="tie_heavy"):
        u, v = rng.integers(0, 3, m).astype(float), rng.integers(0, 3, m).astype(float)
    else:
        u, v = rng.random(m) * 10, rng.random(m) * 10
    positive = np.sort(rng.uniform(0.05, 1.0, p))[::-1]
    positive[0] = 1.0
    weights = np.concatenate((positive, np.zeros(m - p))).tolist()
    part = random_partition(rng, m, k)
    return make_instance(agent=[u], advocate=[v], blocks=part.blocks, weights=weights)


SLICE_CELLS = st.sampled_from((1, 7, 64, 512, 4096, solver._DP_SLICE_CELLS))


@given(
    SLICE_CELLS.flatmap(
        # Budgets below 512 cells take one Python step per subset or two,
        # so they are drawn with at most 12 blocks.
        lambda cells: st.tuples(st.just(cells), horizon_instances(16 if cells >= 512 else 12))
    ),
    st.lists(LAMBDAS, min_size=1, max_size=40),
    st.sampled_from((1, 2, 3, solver._DP_LOW_BLOCKS)),
)
@settings(max_examples=60, deadline=None)
def test_tables_under_a_horizon_match_the_recursion_on_every_subset(case, lams, low):
    # The kernel solves only the subsets that fill fewer than P positions;
    # every other subset must hold the +0.0 that the full recursion gives it.
    slice_cells, inst = case
    part, weights = inst.partition, inst.discount.weights
    u, v = inst.utilities.agent[0], inst.utilities.advocate[0]
    contrib_u = solver._block_contribs(part, np.asarray(u, dtype=float), weights)
    contrib_v = solver._block_contribs(part, np.asarray(v, dtype=float), weights)
    rows = np.array(lams)[:, None, None]
    contrib_obj = rows * contrib_u + (1.0 - rows) * contrib_v
    lengths = part.block_lengths()
    offsets, levels = _reference_offsets(lengths), _reference_levels(len(lengths))
    want_go = _reference_value_to_go(contrib_obj, offsets, levels)
    tol = np.array([solver._tol(value) for value in want_go[:, 0]])
    horizon = solver._horizon(weights)
    assert (horizon is None) == (weights[-1] > 0)
    with mock.patch.object(solver, "_DP_SLICE_CELLS", slice_cells), mock.patch.object(
        solver, "_DP_LOW_BLOCKS", low
    ):
        tables = solver._subset_tables(lengths, horizon)
        go = solver._dp_value_to_go(contrib_obj, tables)
        gu = solver._dp_agent_to_go(contrib_obj, contrib_u, go, tables, tol)
    assert _bits(go.T) == _bits(want_go)
    for r in range(len(lams)):
        want_gu = _reference_agent_to_go(contrib_obj[r], contrib_u, want_go[r], offsets, levels, tol[r])
        assert _bits(gu[:, r]) == _bits(want_gu), r
    past = offsets >= np.count_nonzero(weights)
    for table in (go, gu):
        assert not table[past].any() and not np.signbit(table[past]).any()


def test_a_cutoff_value_pass_computes_a_fiftieth_of_the_cells_of_dcg(monkeypatch):
    # Only 231 of the 32768 subsets of this layout fill fewer than 20 of its
    # 100 positions, so the cutoff pass needs about 1/84 of the cells.
    spec = pp.ScenarioSpec(
        kind="random", seed=5, objects=100, blocks=15, types=8, discount=("cutoff", {"cutoff": 20})
    )
    cutoff = pp.generate(spec)
    dcg = dataclasses.replace(cutoff, discount=pp.make_discount("dcg", 100))
    cells, value_pass = [], []
    best, value_to_go = solver._best, solver._dp_value_to_go

    def spy_best(cand):
        if value_pass:
            cells[-1] += cand.size
        return best(cand)

    def spy_value_to_go(*args):
        value_pass.append(True)
        try:
            return value_to_go(*args)
        finally:
            value_pass.pop()

    monkeypatch.setattr(solver, "_best", spy_best)
    monkeypatch.setattr(solver, "_dp_value_to_go", spy_value_to_go)
    for inst in (cutoff, dcg):
        cells.append(0)
        pp.solve_grid(inst, [0.5], strategy="subset_dp")
    assert cells[1] == 15 << 14
    assert 0 < 50 * cells[0] <= cells[1]
