"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines. Every test
states its tolerance inline; timed checks include the measured runtime in
the printed detail.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import pushpull as pp
from pushpull import io
from pushpull.solver import brute_force_oracle, combined_scores

from helpers import make_instance, random_partition

LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)
BETAS = (0.3, 0.5, 0.9)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _mixed_discount(rng, seed, m):
    pick = seed % 3
    if pick == 0:
        return pp.make_discount("dcg", m)
    if pick == 1:
        return pp.make_discount("cutoff", m, cutoff=1 + seed % m)
    return pp.make_discount("geometric", m, beta=BETAS[seed % len(BETAS)])


_STATICS_CACHE = {}


def _statics_corpus():
    """100 seeded frontiers over the default 101-point grid, computed once."""
    if "frontiers" not in _STATICS_CACHE:
        kinds = ("aligned", "anti_aligned", "orthogonal", "random")
        frontiers = []
        for s in range(100):
            spec = pp.ScenarioSpec(
                kind=kinds[s % 4],
                seed=9000 + s,
                objects=5 + s % 6,
                blocks=1 + s % 5,
                types=2 + s % 3,
                signals=2,
            )
            frontiers.append(pp.frontier(pp.generate(spec), (0.0, 1.0, 101)))
        _STATICS_CACHE["frontiers"] = frontiers
    return _STATICS_CACHE["frontiers"]


def test_criterion_01_subset_dp_equals_brute_force():
    started = time.perf_counter()
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = 4 + seed % 9
        k = min(1 + seed % 7, m)
        part = random_partition(rng, m, k)
        discount = _mixed_discount(rng, seed, m)
        u = rng.random(m) * 10
        v = rng.random(m) * 10
        lam = LAMBDAS[seed % len(LAMBDAS)]
        scores = combined_scores(lam, u, v)
        inst = make_instance(agent=[u], advocate=[v], blocks=part.blocks, discount=discount)
        got = pp.solve(pp.SolveRequest(inst, lam, strategy="subset_dp")).allocation
        want = brute_force_oracle(part, scores, discount, agent_scores=u)
        gv = pp.allocation_value(got, scores, discount)
        wv = pp.allocation_value(want, scores, discount)
        if not _rel_close(gv, wv) or got.object_order != want.object_order:
            failures.append(seed)
    elapsed = time.perf_counter() - started
    _report(
        1,
        "subset-DP matches brute force on 200 mixed instances",
        not failures and elapsed < 10.0,
        f"failures={failures[:5]}, {elapsed:.2f}s of 10s",
    )


def test_criterion_02_sort_rule_equals_brute_force():
    started = time.perf_counter()
    failures = []
    for seed in range(500):
        rng = np.random.default_rng(10_000 + seed)
        m = 2 + seed % 6
        part = pp.Partition(tuple((i,) for i in range(m)))
        discount = _mixed_discount(rng, seed, m)
        u = rng.random(m) * 10
        v = rng.random(m) * 10
        lam = LAMBDAS[seed % len(LAMBDAS)]
        scores = combined_scores(lam, u, v)
        inst = make_instance(agent=[u], advocate=[v], blocks=part.blocks, discount=discount)
        got = pp.solve(pp.SolveRequest(inst, lam, strategy="sort")).allocation
        want = brute_force_oracle(part, scores, discount, agent_scores=u)
        gv = pp.allocation_value(got, scores, discount)
        wv = pp.allocation_value(want, scores, discount)
        if not _rel_close(gv, wv) or got.object_order != want.object_order:
            failures.append(seed)
    elapsed = time.perf_counter() - started
    _report(
        2,
        "sort rule matches brute force on 500 singleton instances",
        not failures and elapsed < 5.0,
        f"failures={failures[:5]}, {elapsed:.2f}s of 5s",
    )


def test_criterion_03_geometric_index_equals_dp():
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(20_000 + seed)
        beta = BETAS[seed % len(BETAS)]
        m = 4 + seed % 9
        k = min(1 + seed % 7, m)
        part = random_partition(rng, m, k)
        discount = pp.make_discount("geometric", m, beta=beta)
        scores = rng.random(m) * 10
        # agent 0 and advocate `scores` at lambda 0: the objective is `scores` alone
        inst = make_instance(
            agent=[np.zeros(m)], advocate=[scores], blocks=part.blocks, discount=discount
        )
        got = pp.solve(pp.SolveRequest(inst, 0.0, strategy="geometric_index")).allocation
        want = pp.solve(pp.SolveRequest(inst, 0.0, strategy="subset_dp")).allocation
        gv = pp.allocation_value(got, scores, discount)
        wv = pp.allocation_value(want, scores, discount)
        if not _rel_close(gv, wv):
            failures.append(seed)
    _report(
        3,
        "geometric index rule matches subset-DP on 200 instances",
        not failures,
        f"failures={failures[:5]}",
    )


def test_criterion_04_u_and_v_monotone_in_lambda():
    bad = []
    for n, front in enumerate(_statics_corpus()):
        pts = front.points
        for a, b in zip(pts, pts[1:]):
            tol_u = 1e-9 * max(1.0, abs(a.u_lambda))
            tol_v = 1e-9 * max(1.0, abs(a.v_lambda))
            if b.u_lambda < a.u_lambda - tol_u or b.v_lambda > a.v_lambda + tol_v:
                bad.append(n)
                break
            if b.pull < a.pull - 1e-9 or b.push > a.push + 1e-9:
                bad.append(n)
                break
    _report(
        4,
        "U nondecreasing and V nonincreasing across 100 frontiers",
        not bad,
        f"violating instances={bad[:5]}",
    )


def test_criterion_05_total_value_unimodal_peak_at_half():
    bad = []
    for n, front in enumerate(_statics_corpus()):
        pts = front.points
        mid = pts[50]
        rising = all(
            b.p_lambda >= a.p_lambda - 1e-9 * max(1.0, abs(a.p_lambda))
            for a, b in zip(pts[:51], pts[1:51])
        )
        falling = all(
            b.p_lambda <= a.p_lambda + 1e-9 * max(1.0, abs(a.p_lambda))
            for a, b in zip(pts[50:], pts[51:])
        )
        peak = all(
            mid.p_lambda >= p.p_lambda - 1e-9 * max(1.0, abs(p.p_lambda)) for p in pts
        )
        if not (rising and falling and peak):
            bad.append(n)
    _report(
        5,
        "P rises to lambda=0.5 then falls across 100 frontiers",
        not bad,
        f"violating instances={bad[:5]}",
    )


def test_criterion_06_alignment_regimes():
    problems = []
    for s in range(10):
        spec = pp.ScenarioSpec(
            kind="random", seed=40_000 + s, objects=6 + s % 5, blocks=2 + s % 4,
            types=2 + s % 3, signals=2,
        )
        aligned = pp.frontier(pp.generate(replace(spec, kind="aligned")), (0.0, 1.0, 101))
        if not all(p.pull == 1.0 and p.push == 1.0 for p in aligned.points):
            problems.append(f"aligned seed {s}")
        orthogonal = pp.frontier(pp.generate(replace(spec, kind="orthogonal")), (0.0, 1.0, 101))
        if not all(p.pull == 1.0 and p.push == 1.0 for p in orthogonal.points[1:-1]):
            problems.append(f"orthogonal seed {s}")
        anti = pp.frontier(pp.generate(replace(spec, kind="anti_aligned")), (0.0, 1.0, 101))
        crit = pp.critical_lambda(anti)
        if crit is None or abs(crit - 0.5) > 0.01 + 1e-12:
            problems.append(f"anti critical seed {s}: {crit}")
        if not all(p.pull == 1.0 for p in anti.points if p.lam >= 0.5):
            problems.append(f"anti tail seed {s}")
    _report(
        6,
        "aligned/orthogonal/anti-aligned regimes behave as constructed",
        not problems,
        "; ".join(problems[:4]),
    )


def test_criterion_07_refinement_weakly_dominates():
    bad = []
    strict_seen = False
    for s in range(100):
        spec = pp.ScenarioSpec(
            kind=("random", "anti_aligned")[s % 2], seed=50_000 + s,
            objects=5 + s % 6, blocks=1 + s % 4, types=2, signals=2,
        )
        inst = pp.generate(spec)
        split = {
            b: [len(block) // 2]
            for b, block in enumerate(inst.partition.blocks)
            if len(block) >= 2
        }
        refined = pp.refine_partition(inst.partition, split)
        cmpn = pp.refine_compare(inst, refined)
        tol = lambda x: 1e-9 * max(1.0, abs(x))
        if any(p.delta < -tol(p.base_objective) for p in cmpn.points):
            bad.append(s)
            continue
        if cmpn.refined_u1 < cmpn.base_u1 - tol(cmpn.base_u1):
            bad.append(s)
            continue
        if cmpn.refined_v0 < cmpn.base_v0 - tol(cmpn.base_v0):
            bad.append(s)
            continue
        if any(p.delta > tol(p.base_objective) for p in cmpn.points):
            strict_seen = True
    # fixed strict pair: one block forces the bad order, singletons free it
    forced = pp.Instance(
        catalog=pp.Catalog(("o0", "o1")),
        partition=pp.Partition(((0, 1),)),
        type_space=pp.TypeSpace(("t0",), (1.0,)),
        utilities=pp.UtilityTable(agent=[[0.0, 0.1]], advocate=[[0.0, 0.0]]),
        discount=pp.make_discount("custom", 2, weights=(1, 0.5)),
    )
    fixed = pp.refine_compare(forced, pp.singletonize(forced.partition))
    fixed_strict = fixed.points[-1].delta > 0.0 and fixed.refined_u1 > fixed.base_u1
    _report(
        7,
        "refinement weakly improves the objective at every grid lambda",
        not bad and fixed_strict,
        f"violations={bad[:5]}, strict in corpus={strict_seen}, fixed strict={fixed_strict}",
    )


def test_criterion_08_garbling_chain_monotone():
    eps_chain = (0.0, 0.25, 0.5, 0.75, 1.0)
    bad = []
    exact_failures = []
    for s in range(20):
        inst = pp.generate(
            pp.ScenarioSpec(kind="random", seed=60_000 + s, objects=6 + s % 5,
                            blocks=2 + s % 3, types=4, signals=4)
        )
        points = pp.noise_sweep(inst, eps_chain)
        for a, b in zip(points, points[1:]):
            if b.avg_u1 > a.avg_u1 + 1e-9 * max(1.0, abs(a.avg_u1)):
                bad.append(s)
                break
        prior_u1 = pp.solve(pp.SolveRequest(inst, 1.0)).agent_value
        prior_v0 = pp.solve(pp.SolveRequest(inst, 0.0)).advocate_value
        if points[-1].avg_u1 != prior_u1 or points[-1].avg_v0 != prior_v0:
            exact_failures.append(s)
    _report(
        8,
        "signal-averaged U_1 never rises along the garbling chain",
        not bad and not exact_failures,
        f"monotone violations={bad[:5]}, eps=1 mismatches={exact_failures[:5]}",
    )


def test_criterion_09_end_to_end_determinism(tmp_path):
    csv_bytes = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        inst_path = d / "inst.json"
        front_path = d / "front.csv"
        for cmd in (
            ["gen", "--kind", "anti-aligned", "--seed", "4242", "-M", "10", "-K", "4",
             "-T", "2", "-S", "2", "--out", str(inst_path)],
            ["solve", str(inst_path), "--lambda", "0.5", "--out", str(d / "solve.json")],
            ["frontier", str(inst_path), "--grid", "0:1:101", "--out", str(front_path)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "pushpull", *cmd],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        csv_bytes.append(front_path.read_bytes())
    identical = csv_bytes[0] == csv_bytes[1]

    log_path = tmp_path / "log.csv"
    log_path.write_text(
        "user_id,group_label,object_id,block_id,agent_score,advocate_score\n"
        "u1,A,o0,b0,3,0\n"
        "u1,A,o1,b1,1,4\n"
        "u1,A,o2,b2,2,0\n"
    )
    users = io.ingest_relevance_log(
        io.read_relevance_log(log_path),
        discount_kind="custom",
        discount_params={"weights": [1, 0.5, 0]},
    )
    m = pp.agency_metrics(users[0].instance, 0.5, posterior=users[0].posterior)
    pull_ok = abs(m.pull - 0.625) <= 1e-9
    _report(
        9,
        "pipeline is byte-deterministic and the ingested log reproduces pull",
        identical and pull_ok,
        f"csv identical={identical}, ingested pull={m.pull}",
    )


def test_criterion_10_scale_frontier_under_five_seconds():
    inst = pp.generate(
        pp.ScenarioSpec(kind="random", seed=777, objects=100, blocks=15, types=8,
                        signals=2, discount=("dcg", {}))
    )
    started = time.perf_counter()
    front = pp.frontier(inst, (0.0, 1.0, 101), strategy="subset_dp")
    elapsed = time.perf_counter() - started
    _report(
        10,
        "101-point frontier at M=100, K=15, 8 types stays under budget",
        len(front.points) == 101 and elapsed < 5.0,
        f"{elapsed:.2f}s of 5s",
    )
