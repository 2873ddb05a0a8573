"""The row-batched subset DP against the per-(level, block) recursion it replaced.

The reference below is that recursion as it stood: one step per (level,
block), each filtering the level's subsets that lack the block. The kernel
under test takes one step per slice of a level over all absent blocks at
once, so its value and agent tables must equal the reference bit for bit.
Layouts of up to 13 blocks take their index plan from a memo shared across
calls, so the tables are checked on a cold memo and again on a warm one.
"""

import dataclasses
import gc
import weakref
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


def _memoized(k):
    """Whether a K-block layout keeps its plan: all of it fits in one slice."""
    return k * 2 ** (k - 1) <= solver._DP_SLICE_CELLS


@given(
    instances(max_blocks=10),
    st.lists(LAMBDAS, min_size=1, max_size=3),
    st.lists(LAMBDAS, min_size=4, max_size=40),
    st.sampled_from((1, 7, 64, 512, 4096, solver._DP_SLICE_CELLS)),
)
@settings(max_examples=150, deadline=None)
def test_value_and_agent_tables_match_the_per_block_recursion(inst, cold, warm, slice_cells):
    # Each layout is solved cold, then warm with more rows, which slices a
    # memoized plan with a smaller step than the cold solve that built it.
    lengths = inst.partition.block_lengths()
    with mock.patch.object(solver, "_DP_SLICE_CELLS", slice_cells):
        solver._memo.clear()
        built = _check_tables(inst, cold)
        assert (tuple(lengths) in solver._memo.entries) == _memoized(len(lengths))
        reused = _check_tables(inst, warm)
    if _memoized(len(lengths)):
        assert reused.plan is built.plan
    else:
        assert reused.plan is None


def _layout_instance(lengths, seed, discount="cutoff"):
    rng = np.random.default_rng(seed)
    m = sum(lengths)
    u, v = rng.integers(0, 3, m).astype(float), rng.integers(0, 3, m).astype(float)
    cuts = np.cumsum([0, *lengths]).tolist()
    blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    kind = {"cutoff": {"cutoff": m // 2}, "dcg": {}}
    d = pp.make_discount(discount, m, **kind[discount])
    return make_instance(agent=[u], advocate=[v], blocks=blocks, discount=d)


def test_thirteen_blocks_are_memoized_and_fourteen_stream():
    solver._memo.clear()
    for k in (13, 14):
        lengths = [1 + i % 3 for i in range(k)]
        inst = _layout_instance(lengths, seed=k)
        cold = _check_tables(inst, [0.0, 0.5, 1.0])
        warm = _check_tables(inst, [0.25] * 9)
        if k == 13:
            assert cold.plan is not None and warm.plan is cold.plan
        else:
            assert cold.plan is None and warm.plan is None
    assert max(key if isinstance(key, int) else len(key) for key in solver._memo.entries) == 13


def test_memoized_arrays_are_read_only():
    tables = solver._subset_tables((2, 1, 3))
    at, nxt = tables.plan[1]
    for array in (tables.offsets, tables.levels[1], tables.missing[1], at, nxt):
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_budget_change_empties_the_memo(monkeypatch):
    solver._subset_tables((2, 1, 3))
    assert (2, 1, 3) in solver._memo.entries
    monkeypatch.setattr(solver, "_DP_CELL_BUDGET", 1 << 10)
    solver._subset_tables((1, 1))
    assert list(solver._memo.entries) == [2, (1, 1)]


def _held_bytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    return sum(_held_bytes(item) for item in value)


def test_memo_stays_within_its_byte_bound_and_holds_nothing_past_thirteen_blocks(monkeypatch):
    solver._memo.clear()
    rng = np.random.default_rng(8)
    layouts = set()
    while len(layouts) < 200:
        k = int(rng.integers(1, 14))
        cuts = np.sort(rng.choice(np.arange(1, 16), k - 1, replace=False))
        layouts.add(tuple(np.diff(np.concatenate(([0], cuts, [16]))).tolist()))
    for seed, lengths in enumerate(sorted(layouts)):
        pp.solve_grid(_layout_instance(lengths, seed, "dcg"), [0.5], strategy="subset_dp")

    # The K=20 tables must be gone once its solve returns.
    big = []
    offsets = solver._offsets

    def spy(lengths):
        table = offsets(lengths)
        if len(lengths) == 20:
            big.append(weakref.ref(table))
        return table

    monkeypatch.setattr(solver, "_offsets", spy)
    pp.solve_grid(_layout_instance([1] * 18 + [2, 3], 20, "dcg"), [0.5], strategy="subset_dp")
    gc.collect()
    assert len(big) == 1 and big[0]() is None

    held = _held_bytes([value for value, _ in solver._memo.entries.values()])
    assert held == solver._memo.nbytes
    assert held <= solver._memo.limit <= 8 << 20
    # Eviction ran: the distinct K=13 plans alone exceed the bound.
    assert len(solver._memo.entries) < len(layouts)
    assert all(
        (key if isinstance(key, int) else len(key)) <= 13 for key in solver._memo.entries
    )


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
