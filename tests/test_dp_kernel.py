"""The row-batched subset DP against the per-(level, block) recursion it replaced.

The reference below is that recursion as it stood: one step per (level,
block), each filtering the level's subsets that lack the block. The kernel
under test splits each subset into low and high bits, with a low width h
that depends on the rows of a chunk. It takes the high subsets as plain
integers, most blocks first, in runs that share their block count and high
offset. One high block at a time, it places the absent high blocks, the
zero bits of the high subset, of the whole block at once, then runs the low
blocks' plan inside it, so its value and agent tables must equal the
reference bit for bit at every width. The low plans come from a memo shared
across calls, so the tables are checked on a cold memo and again on a
warm one, and from threads that share it. The walk counts its own offset
from the block lengths as it places blocks.
Under a discount horizon P the kernel solves only the subsets that fill
fewer than P positions; every other subset must hold the +0.0 that the
reference computes there.

A lambda grid that fills more than one chunk is solved in two rounds, a
coarse lattice and then the points no margin proves; its results must equal
single solves bit for bit, and the tests count the rows each round solves.
"""

import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushpull as pp
from pushpull import metrics, solver

from helpers import block_major_contribs, make_instance, random_partition


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


def _position_major(contrib):
    """Block-major tables (rows, K, M+1) as the kernel takes them: one
    ((M+1) * K, rows) table whose entry off * K + b holds block b at off."""
    return contrib.transpose(2, 1, 0).reshape(-1, contrib.shape[0])


def _block_tables(inst, lams):
    """The block-major agent table (K, M+1) of inst and its objective
    tables (rows, K, M+1) at lams."""
    part, weights = inst.partition, inst.discount.weights
    contrib_u = block_major_contribs(part, inst.utilities.agent[0], weights)
    contrib_v = block_major_contribs(part, inst.utilities.advocate[0], weights)
    rows = np.array(lams)[:, None, None]
    return contrib_u, rows * contrib_u + (1.0 - rows) * contrib_v


def _kernel_tables(contrib_obj, contrib_u, tables, tol):
    """The kernel's value and agent tables for block-major inputs."""
    obj = _position_major(contrib_obj)
    go = solver._dp_value_to_go(obj, tables)
    gu = solver._dp_agent_to_go(obj, contrib_u.T.reshape(-1, 1), go, tables, tol)
    return go, gu


@st.composite
def instances(draw, max_blocks, kinds=("random", "tie_heavy", "cutoff")):
    """Random, tie-heavy integer, cutoff or anti-aligned instances with up
    to max_blocks blocks."""
    k = draw(st.integers(1, max_blocks), label="blocks")
    m = draw(st.integers(k, k + 4), label="objects")
    kind = draw(st.sampled_from(kinds), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "tie_heavy":
        u, v = rng.integers(0, 3, m).astype(float), rng.integers(0, 3, m).astype(float)
    elif kind == "anti_aligned":
        u = rng.random(m) * 10
        v = u.max() - u
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
    contrib_u, contrib_obj = _block_tables(inst, lams)
    lengths = inst.partition.block_lengths()
    offsets, levels = _reference_offsets(lengths), _reference_levels(len(lengths))

    want_go = _reference_value_to_go(contrib_obj, offsets, levels)
    tol = np.array([solver._tol(value) for value in want_go[:, 0]])
    tables = solver._subset_tables(lengths, len(lams))
    go, gu = _kernel_tables(contrib_obj, contrib_u, tables, tol)
    assert _bits(go.T) == _bits(want_go)
    for r in range(len(lams)):
        want_gu = _reference_agent_to_go(
            contrib_obj[r], contrib_u, want_go[r], offsets, levels, tol[r]
        )
        assert _bits(gu[:, r]) == _bits(want_gu), r
    return tables


def _low_key(lengths, rows):
    """The memo key of the low plan of a layout solved in chunks of rows
    rows: its first h lengths and K."""
    return tuple(lengths[: solver._low_width(lengths, rows)]), len(lengths)


def _width(lengths, rows, horizon=None):
    """The widest h up to _DP_LOW_MAX whose 2**h subsets, or those of them
    that fill fewer than horizon positions, times rows fit _DP_BLOCK_CELLS."""
    h = 0
    for n in range(1, min(len(lengths), solver._DP_LOW_MAX) + 1):
        offsets = _reference_offsets(lengths[:n])
        solved = offsets.size if horizon is None else np.count_nonzero(offsets < horizon)
        if solved * rows > solver._DP_BLOCK_CELLS:
            break
        h = n
    return h


def _plan_arrays(*plans):
    """Every array of plans."""
    for plan in plans:
        yield plan.offsets
        yield from plan.levels
        for at, nxt in plan.steps:
            yield at
            yield nxt


@pytest.mark.parametrize("layout", ["random", "cutoff", "one_object_blocks"])
def test_block_contribs_are_the_transpose_of_the_block_major_build(layout):
    # Bit for bit, the 0.0 entries past each block's last start included.
    rng = np.random.default_rng(19)
    m = 23
    for _ in range(20):
        scores = rng.random(m) * 10
        if layout == "one_object_blocks":
            part = pp.Partition(tuple((i,) for i in range(m)))
        else:
            part = random_partition(rng, m, int(rng.integers(1, m + 1)))
        if layout == "cutoff":
            d = pp.make_discount("cutoff", m, cutoff=int(rng.integers(1, m + 1)))
        else:
            d = pp.make_discount("dcg", m)
        k = part.block_count
        got = solver._block_contribs(part, scores, d.weights)
        assert got.shape == ((m + 1) * k,)
        assert _bits(got) == _bits(block_major_contribs(part, scores, d.weights).T)
        for b, block in enumerate(part.blocks):
            past = got[(m - len(block) + 1) * k + b :: k]
            assert len(past) == len(block) and not past.any() and not np.signbit(past).any()


def test_every_plan_matches_the_reference_subsets_offsets_and_steps():
    # Every block count a plan can have, every limit that cuts the plan up
    # to 10 blocks and a few past them, one that does not, and none.
    rng = np.random.default_rng(12)
    h = solver._DP_LOW_MAX
    k = 2 * h
    solver._memo.clear()
    for n in range(h + 1):
        lengths = rng.integers(1, 4, n).tolist()
        total = sum(lengths)
        offsets, levels = _reference_offsets(lengths), _reference_levels(n)
        limits = range(1, total + 2) if n <= 10 else (1, 2, total // 2, total, total + 1)
        uncut = solver._plan(lengths, k)
        for limit in (*limits, None):
            plan = solver._plan(lengths, k, limit)
            assert plan.cut == (limit is not None and limit <= total)
            assert (plan.levels is uncut.levels) == (not plan.cut)
            assert plan.offsets.tolist() == offsets.tolist()
            kept = [sel[offsets[sel] < (total + 1 if limit is None else limit)] for sel in levels]
            assert [sel.tolist() for sel in plan.levels] == [sel.tolist() for sel in kept]
            assert len(plan.steps) == n
            for level, (sel, (at, nxt)) in enumerate(zip(kept, plan.steps)):
                # Candidate-major: row c holds the c-th absent block of every subset.
                assert at.shape == nxt.shape == (n - level, len(sel))
                absent = [[c for c in range(n) if not s >> c & 1] for s in sel.tolist()]
                assert at.T.tolist() == [[offsets[s] * k + c for c in cs] for s, cs in zip(sel.tolist(), absent)]
                assert nxt.T.tolist() == [[s | 1 << c for c in cs] for s, cs in zip(sel.tolist(), absent)]


def test_runs_hold_the_high_subsets_below_the_horizon_most_blocks_first():
    # A width cap of 3 leaves up to 5 high blocks. Each run holds, in
    # ascending order, the high subsets of one block count and one high
    # offset below the horizon, with the low plan cut to what that offset
    # leaves of it; a layout of h or fewer blocks is one run of subset 0.
    rng = np.random.default_rng(31)
    with mock.patch.object(solver, "_DP_LOW_MAX", 3):
        for k in range(1, 9):
            lengths = rng.integers(1, 4, k).tolist()
            total = sum(lengths)
            h = min(k, 3)
            high_offsets = _reference_offsets(lengths[h:]).tolist()
            for horizon in (*range(1, total + 1), None):
                tables = solver._subset_tables(lengths, 1, horizon)
                assert len(tables.low.levels) - 1 == h
                assert tables.lengths == tuple(lengths)
                assert tables.horizon == (total if horizon is None else horizon)
                want = {}
                for count in range(k - h, -1, -1):
                    for high, off in enumerate(high_offsets):
                        if high.bit_count() == count and (horizon is None or off < horizon):
                            want.setdefault((count, off), []).append(high)
                assert [(run.base, run.blocks) for run in tables.runs] == [
                    (off * k, blocks) for (_, off), blocks in want.items()
                ]
                for run in tables.runs:
                    limit = None if horizon is None else horizon - run.base // k
                    plan = solver._plan(lengths[:h], k, limit)
                    assert all(a is b for a, b in zip(_plan_arrays(run.plan), _plan_arrays(plan), strict=True))
                    whole = np.concatenate(plan.levels) if plan.cut else np.arange(1 << h)
                    assert run.scaled.tolist() == (tables.low.offsets[whole] * k).tolist()
            if k <= h:
                assert [run.blocks for run in solver._subset_tables(lengths, 1).runs] == [[0]]


BLOCK_CELLS = st.sampled_from((1, 7, 64, 512, 4096, solver._DP_BLOCK_CELLS))
LOW_MAX = st.sampled_from((1, 2, 3, solver._DP_LOW_MAX))


@given(
    instances(max_blocks=10),
    st.lists(LAMBDAS, min_size=1, max_size=3),
    st.lists(LAMBDAS, min_size=4, max_size=40),
    BLOCK_CELLS,
    LOW_MAX,
)
@settings(max_examples=200, deadline=None)
def test_value_and_agent_tables_match_the_per_block_recursion(inst, cold, warm, block_cells, low):
    # Each layout is solved cold, then warm with more rows. A width cap of
    # 1, 2 or 3 and a block of few cells split the layout into blocks over
    # several high levels; 1 cell leaves h = 0, one subset per block. Where
    # both solves take one width, the warm one reuses the memoized plans.
    lengths = inst.partition.block_lengths()
    with mock.patch.object(solver, "_DP_BLOCK_CELLS", block_cells), mock.patch.object(
        solver, "_DP_LOW_MAX", low
    ):
        solver._memo.clear()
        built = _check_tables(inst, cold)
        assert _low_key(lengths, len(cold)) in solver._memo.entries
        reused = _check_tables(inst, warm)
        widths = [_width(lengths, len(lams)) for lams in (cold, warm)]
    assert [len(tables.low.levels) - 1 for tables in (built, reused)] == widths
    if widths[0] == widths[1]:
        assert all(
            a is b
            for a, b in zip(_plan_arrays(reused.low), _plan_arrays(built.low), strict=True)
        )


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
    # Four rows take the largest width.
    lengths = [1 + i % 3 for i in range(16)]
    for discount in ("cutoff", "dcg"):
        tables = _check_tables(_layout_instance(lengths, 16, discount), [0.0, 0.3, 0.5, 1.0])
        assert len(tables.low.levels) - 1 == solver._DP_LOW_MAX


@pytest.mark.parametrize("discount", ["cutoff", "dcg"])
def test_chunks_of_one_three_and_thirty_two_rows_give_the_same_tables(discount):
    # Each chunk size takes its own width (13, 13 and 10 blocks for dcg),
    # and every chunk's columns equal those of the one-row chunks bit for bit.
    lengths = [1 + i % 3 for i in range(16)]
    inst = _layout_instance(lengths, 21, discount)
    lams = np.linspace(0.0, 1.0, 32).tolist()
    contrib_u, contrib_obj = _block_tables(inst, lams)
    horizon = solver._horizon(inst.discount.weights)
    assert (horizon is None) == (discount == "dcg")
    offsets = _reference_offsets(lengths)
    want_go = _reference_value_to_go(contrib_obj, offsets, _reference_levels(len(lengths)))
    tol = np.array([solver._tol(value) for value in want_go[:, 0]])
    widths, tables = [], {}
    for rows in (1, 3, 32):
        parts = []
        for start in range(0, len(lams), rows):
            chunk = slice(start, start + rows)
            sub = solver._subset_tables(lengths, len(lams[chunk]), horizon)
            parts.append(_kernel_tables(contrib_obj[chunk], contrib_u, sub, tol[chunk]))
            if start == 0:
                widths.append(len(sub.low.levels) - 1)
        tables[rows] = [np.hstack(side) for side in zip(*parts)]
    assert widths == [_width(lengths, rows, horizon) for rows in (1, 3, 32)]
    assert len(set(widths)) > 1
    for rows in (3, 32):
        assert [_bits(side) for side in tables[rows]] == [_bits(side) for side in tables[1]]
    go, gu = tables[1]
    if horizon is None:
        assert _bits(go.T) == _bits(want_go)
    else:
        # Under the horizon the kernel agrees with the full recursion on the
        # subsets it solves and holds +0.0 on the rest.
        solved = offsets < horizon
        assert _bits(go[solved].T) == _bits(want_go[:, solved])
        assert not go[~solved].any() and not np.signbit(go[~solved]).any()


def test_a_layout_past_the_low_width_reuses_the_plan_of_its_first_blocks():
    # Up to four rows, both layouts take the largest width.
    solver._memo.clear()
    h = solver._DP_LOW_MAX
    head = [1 + i % 3 for i in range(h)]
    first = _check_tables(_layout_instance(head + [2, 1, 3], 1), [0.0, 0.5, 1.0])
    again = _check_tables(_layout_instance(head + [1, 3, 2], 2), [0.25] * 4)
    assert all(a is b for a, b in zip(_plan_arrays(again.low), _plan_arrays(first.low), strict=True))
    assert [(run.base, run.blocks) for run in again.runs] != [(run.base, run.blocks) for run in first.runs]
    # Nothing in the memo is wider than h blocks.
    assert all(
        (key if isinstance(key, int) else len(key[0])) <= h for key in solver._memo.entries
    )


def test_memoized_arrays_are_read_only():
    for lengths, horizon in (((2, 1, 3), None), (tuple(1 + i % 4 for i in range(14)), None), ((2, 1, 3), 4)):
        tables = solver._subset_tables(lengths, 1, horizon)
        for array in _plan_arrays(tables.low, *(run.plan for run in tables.runs)):
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
    # Eviction ran, oldest first: the plans of thirteen blocks alone exceed
    # the bound.
    assert _low_key(layouts[0], 1) not in solver._memo.entries
    assert _low_key(layouts[-1], 1) in solver._memo.entries

    # A hit makes an entry the most recently used.
    table = np.zeros(100)
    memo = solver._Memo(5 * sys.getsizeof(table) // 2)
    for key in ("a", "b", "a", "c"):
        memo.get(key, table.copy)
    assert list(memo.entries) == ["a", "c"]


def test_threads_that_share_the_memo_solve_as_serial_solves_do():
    # Distinct dense and cutoff layouts of 14 to 16 blocks, solved from a
    # cleared memo by four threads that switch every microsecond, each
    # layout by two of them at once. Each solve gets the orders and tie
    # flags of a serial one, and the memo's byte count equals a recount of
    # what it holds: without the lock, both threads of a layout miss, build
    # and count its plans, and the count runs past the recount.
    rng = np.random.default_rng(40)
    cases = []
    for k in (14, 15, 16):
        for discount in ("dcg", "cutoff"):
            lengths = rng.integers(1, 4, k).tolist()
            cases.append(_layout_instance(lengths, len(cases), discount))
    lams = [0.0, 0.3, 0.7, 1.0]

    def orders(inst):
        return [(r.allocation.block_order, r.tie_broken) for r in pp.solve_grid(inst, lams, strategy="subset_dp")]

    solver._memo.clear()
    want = [orders(inst) for inst in cases]
    solver._memo.clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(orders, [inst for inst in cases for _ in range(2)], timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert got == [order for order in want for _ in range(2)]
    held = sum(_held_bytes(value) for value, _ in solver._memo.entries.values())
    assert held == solver._memo.nbytes <= 8 << 20


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

    def spy(contrib, tables):
        cells.append(contrib.shape[1] << len(tables.lengths))
        return value_to_go(contrib, tables)

    monkeypatch.setattr(solver, "_dp_value_to_go", spy)
    pp.agency_metrics(pp.generate(spec), 0.5, strategy="subset_dp")
    assert len(cells) == 3
    assert max(cells) <= 1 << pp.DP_SUBSET_LIMIT


@given(instances(max_blocks=9, kinds=("tie_heavy", "cutoff")), st.lists(LAMBDAS, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_a_tied_row_resumes_its_walk_where_the_first_walk_stopped(inst, lams):
    # The orders and tie flags equal those of walking every row again from
    # the empty set with its agent table.
    contrib_u, contrib_obj = _block_tables(inst, lams)
    obj, agent = _position_major(contrib_obj), contrib_u.T.reshape(-1, 1)
    lengths = inst.partition.block_lengths()
    tables = solver._subset_tables(lengths, len(lams), solver._horizon(inst.discount.weights))
    got = solver._dp_orders(tables, obj, agent)

    go = solver._dp_value_to_go(obj, tables)
    tol = np.array([solver._tol(value) for value in go[0]])
    gu = solver._dp_agent_to_go(obj, agent, go, tables, tol)
    walk = tables.lengths, tables.horizon
    for r in range(len(lams)):
        order = []
        tie = solver._dp_walk(obj[:, r].tolist(), agent[:, 0].tolist(), go[:, r], walk, order, gu[:, r])
        assert got[r] == (tuple(order), tie), r


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
        passes.append(contrib_obj.shape[1])
        return agent_to_go(contrib_obj, *args)

    monkeypatch.setattr(solver, "_dp_agent_to_go", spy)
    results = pp.solve_grid(inst, lams, strategy="subset_dp")
    tied = sum(r.tie_broken for r in results)
    assert tied > 4
    assert len(passes) <= 4
    assert sum(passes) == tied


def test_rows_that_tie_only_past_the_horizon_skip_the_agent_pass(monkeypatch):
    # From P = 8 on every weight is 0, so the walk appends the remaining
    # blocks in ascending order and flags the tie without scoring them; with
    # random scores no row ties before P, so no row needs the agent pass.
    m, k, p = 30, 12, 8
    rng = np.random.default_rng(12)
    weights = [1.0 / (n + 1) if n < p else 0.0 for n in range(m)]
    part = random_partition(rng, m, k)
    u, v = rng.random(m) * 10, rng.random(m) * 10
    inst = make_instance(agent=[u], advocate=[v], blocks=part.blocks, weights=weights)
    passes = []
    agent_to_go = solver._dp_agent_to_go

    def spy(contrib_obj, *args):
        passes.append(contrib_obj.shape[1])
        return agent_to_go(contrib_obj, *args)

    monkeypatch.setattr(solver, "_dp_agent_to_go", spy)
    results = pp.solve_grid(inst, pp.lambda_grid(0.0, 1.0, 21), strategy="subset_dp")
    assert sum(passes) == 0
    lengths = part.block_lengths()
    for result in results:
        order = result.allocation.block_order
        starts = np.cumsum([0, *(lengths[b] for b in order)])[:-1]
        rest = [b for b, start in zip(order, starts) if start >= p]
        assert len(rest) >= 2 and rest == sorted(rest)
        assert result.tie_broken


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


@given(
    BLOCK_CELLS.flatmap(
        # Blocks below 512 cells hold a subset or two, one Python step
        # each, so they are drawn with at most 12 blocks.
        lambda cells: st.tuples(st.just(cells), horizon_instances(16 if cells >= 512 else 12))
    ),
    st.lists(LAMBDAS, min_size=1, max_size=40),
    LOW_MAX,
)
@settings(max_examples=60, deadline=None)
def test_tables_under_a_horizon_match_the_recursion_on_every_subset(case, lams, low):
    # The kernel solves only the subsets that fill fewer than P positions;
    # every other subset must hold the +0.0 that the full recursion gives it.
    block_cells, inst = case
    weights = inst.discount.weights
    contrib_u, contrib_obj = _block_tables(inst, lams)
    lengths = inst.partition.block_lengths()
    offsets, levels = _reference_offsets(lengths), _reference_levels(len(lengths))
    want_go = _reference_value_to_go(contrib_obj, offsets, levels)
    tol = np.array([solver._tol(value) for value in want_go[:, 0]])
    horizon = solver._horizon(weights)
    assert (horizon is None) == (weights[-1] > 0)
    with mock.patch.object(solver, "_DP_BLOCK_CELLS", block_cells), mock.patch.object(
        solver, "_DP_LOW_MAX", low
    ):
        tables = solver._subset_tables(lengths, len(lams), horizon)
        assert len(tables.low.levels) - 1 == _width(lengths, len(lams), horizon)
        go, gu = _kernel_tables(contrib_obj, contrib_u, tables, tol)
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


def _rows_spy(monkeypatch):
    """A list that gets the rows of every value pass from now on."""
    rows = []
    value_to_go = solver._dp_value_to_go

    def spy(contrib, tables):
        rows.append(contrib.shape[1])
        return value_to_go(contrib, tables)

    monkeypatch.setattr(solver, "_dp_value_to_go", spy)
    return rows


def _single_solves(inst, lams, strategy="auto"):
    return tuple(pp.solve(pp.SolveRequest(inst, lam, strategy=strategy)) for lam in lams)


def _bits_of(results):
    return [(r.objective.hex(), r.agent_value.hex(), r.advocate_value.hex()) for r in results]


@given(
    instances(max_blocks=8, kinds=("random", "tie_heavy", "cutoff", "anti_aligned")) | horizon_instances(8),
    st.lists(LAMBDAS | st.floats(0, 1), min_size=2, max_size=60),
    st.sampled_from((1, 3)),
)
@settings(max_examples=80, deadline=None)
def test_two_round_grids_equal_single_solves(inst, lams, chunk):
    # A cell budget of chunk rows sends every grid of more than chunk
    # lambdas, unsorted and repeated, through both rounds.
    want = _single_solves(inst, lams, "subset_dp")
    with mock.patch.object(solver, "_DP_CELL_BUDGET", chunk << inst.partition.block_count):
        got = pp.solve_grid(inst, lams, strategy="subset_dp")
    assert got == want
    assert _bits_of(got) == _bits_of(want)


def _planted(gap):
    """Two singleton blocks whose two orders differ by gap at every lambda:
    the agent and advocate scores are equal, so the combined ones are too."""
    scores = [0.25 + 2.0 * gap, 0.25]
    return make_instance(agent=[scores], advocate=[scores], blocks=((0,), (1,)), weights=(1.0, 0.5))


@pytest.mark.parametrize(
    "gap, solved",
    # Nine points take a lattice of 4 (every third and the last). At a gap
    # of 1.5 tol both ends serve (0, 1) with no tie, but their margin line
    # stays below 2 tol, so the 5 points between are solved as well.
    [(1.5 * pp.TIE_TOL, 9), (1e-6, 4)],
)
def test_a_grid_copies_an_order_only_where_the_margins_of_its_ends_prove_it(monkeypatch, gap, solved):
    inst = _planted(gap)
    lams = pp.lambda_grid(0.0, 1.0, 9)
    monkeypatch.setattr(solver, "_DP_CELL_BUDGET", 1 << inst.partition.block_count)
    rows = _rows_spy(monkeypatch)
    got = pp.solve_grid(inst, lams, strategy="subset_dp")
    assert sum(rows) == solved
    assert all(r.allocation.block_order == (0, 1) and not r.tie_broken for r in got)
    assert got == _single_solves(inst, lams, "subset_dp")


def _frontier_rows(monkeypatch, spec):
    """The rows solved for the 101-point grid of spec's instance, with its
    results and single solves at every point."""
    inst = pp.generate(spec)
    lams = pp.lambda_grid(0.0, 1.0, 101)
    rows = _rows_spy(monkeypatch)
    got = pp.solve_grid(inst, lams)
    solved = sum(rows)
    return solved, got, _single_solves(inst, lams)


def test_an_anti_aligned_frontier_solves_at_most_thirty_rows(monkeypatch):
    # Two orders serve the grid, with the tie at lambda 0.5 between them:
    # the lattice of 11 points and the 10 points of the one gap whose ends
    # differ are solved, and every other point is copied.
    spec = pp.ScenarioSpec(kind="anti_aligned", seed=1, objects=100, blocks=15, types=8)
    solved, got, want = _frontier_rows(monkeypatch, spec)
    assert solved <= 30
    assert got == want
    assert _bits_of(got) == _bits_of(want)


def test_rows_tied_before_the_horizon_end_no_copied_interval(monkeypatch):
    # Under the cutoff curve the blocks inside the window swap without
    # changing either value, so every row of this frontier ties before P.
    # The agent tier decides such a tie, and the margins of the ends say
    # nothing about it between them, so every point is solved.
    spec = pp.ScenarioSpec(
        kind="random", seed=1, objects=100, blocks=15, types=8, discount=("cutoff", {"cutoff": 20})
    )
    solved, got, want = _frontier_rows(monkeypatch, spec)
    assert solved == 101
    assert got == want


def test_grids_within_one_chunk_take_one_pass_without_margins(monkeypatch):
    # agency_metrics, noise_sweep and refine_compare at K <= 8 fit one chunk
    # per partition, so each solves in one value pass and no walk measures
    # a margin, as in the ingest and CLI workloads.
    spec = pp.ScenarioSpec(kind="random", seed=3, objects=12, blocks=7, types=3, signals=3, discount=("dcg", {}))
    inst = pp.generate(spec)
    block = next(b for b, objects in enumerate(inst.partition.blocks) if len(objects) > 1)
    refined = pp.refine_partition(inst.partition, {block: [1]})
    rows = _rows_spy(monkeypatch)
    walks = []
    walk = solver._dp_walk

    def spy_walk(obj, agent, go, walk_tables, order, gu=None, gaps=None):
        walks.append(gaps)
        return walk(obj, agent, go, walk_tables, order, gu, gaps)

    monkeypatch.setattr(solver, "_dp_walk", spy_walk)
    calls = [
        (lambda: pp.agency_metrics(inst, 0.5, strategy="subset_dp"), 1),
        (lambda: metrics.noise_sweep(inst, [0.0, 0.5, 1.0], strategy="subset_dp"), 1),
        (lambda: metrics.refine_compare(inst, refined, strategy="subset_dp"), 2),
    ]
    for call, passes in calls:
        rows.clear()
        call()
        assert len(rows) == passes
    assert walks and all(gaps is None for gaps in walks)
