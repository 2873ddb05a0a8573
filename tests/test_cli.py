import csv
import json
import math
import subprocess
import sys

import pytest
from click.testing import CliRunner

from pushpull import __version__, metrics, solver
from pushpull.cli import main

from helpers import E1_DOC, E1_LOG, SIGNAL_DOC


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def e1_path(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(E1_DOC))
    return str(path)


def test_gen_writes_deterministic_document(runner, tmp_path):
    args = ["gen", "--kind", "random", "--seed", "5", "-M", "8", "-K", "3", "-T", "2", "-S", "2"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0, a.output
    assert a.output == b.output
    doc = json.loads(a.output)
    assert doc["schema_version"] == 1
    assert len(doc["catalog"]) == 8


def test_gen_kind_flag_accepts_hyphenated_name(runner):
    out = runner.invoke(main, ["gen", "--kind", "anti-aligned", "--seed", "1", "-M", "6", "-K", "2"])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.stdout)
    agent = doc["agent_u"]
    advocate = doc["advocate_v"]
    for t, row in agent.items():
        paired = [a + b for a, b in zip(row, advocate[t])]
        assert all(abs(x - paired[0]) < 1e-12 for x in paired)


def test_gen_preset(runner):
    out = runner.invoke(main, ["gen", "--kind", "preset", "--preset", "matching", "--seed", "3"])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.stdout)
    assert len(doc["catalog"]) == 30
    assert doc["discount"]["kind"] == "cutoff"


def test_validate_accepts_good_file(runner, e1_path):
    out = runner.invoke(main, ["validate", e1_path])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.stdout)
    assert doc["report"]["invalid"] == 0
    assert doc["report"]["files"][0]["oracle_checked"] is True


def test_validate_lists_all_violations_and_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "catalog": ["a", "a"], "types": ["t"], "prior": [2.0]}))
    out = runner.invoke(main, ["validate", str(bad)])
    assert out.exit_code == 2
    doc = json.loads(out.stdout)
    violations = doc["report"]["files"][0]["violations"]
    assert len(violations) >= 3
    assert str(bad) in out.stderr


def test_solve_json_matches_hand_solution(runner, e1_path):
    out = runner.invoke(main, ["solve", e1_path, "--lambda", "0.5"])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.stdout)
    assert doc["kind"] == "solve"
    assert doc["report"]["objective"] == 3.25
    assert doc["report"]["ranking"] == ["o1", "o0", "o2"]


def test_solve_csv_ranking(runner, e1_path):
    out = runner.invoke(main, ["solve", e1_path, "--lambda", "1", "--format", "csv"])
    assert out.exit_code == 0, out.output
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "position,object_id,block_index"
    assert lines[1] == "0,o0,0"
    assert lines[2] == "1,o2,2"


def test_solve_rejects_lambda_out_of_range(runner, e1_path):
    out = runner.invoke(main, ["solve", e1_path, "--lambda", "1.5"])
    assert out.exit_code == 2


def test_solve_strategy_contract_violation_exits_3(runner, e1_path):
    out = runner.invoke(main, ["solve", e1_path, "--lambda", "0.5", "--strategy", "geometric_index"])
    assert out.exit_code == 3


def test_unknown_subcommand_exits_2_with_usage(runner):
    out = runner.invoke(main, ["transmogrify"])
    assert out.exit_code == 2
    assert "Usage" in out.output or "No such command" in out.output


def test_metrics_csv_single_row(runner, e1_path):
    out = runner.invoke(main, ["metrics", e1_path, "--lambda", "0.5", "--format", "csv"])
    assert out.exit_code == 0, out.output
    lines = out.stdout.strip().split("\n")
    assert lines[0].startswith("lambda,U_lambda")
    assert lines[1] == "0.5,2.5,4,6.5,0.625,1,false,false"


def test_frontier_csv_default_format(runner, e1_path):
    out = runner.invoke(main, ["frontier", e1_path, "--grid", "0:1:3"])
    assert out.exit_code == 0, out.output
    lines = out.stdout.strip().split("\n")
    assert len(lines) == 4
    assert lines[2].split(",")[4] == "0.625"


def test_frontier_json_includes_critical_lambda(runner, e1_path):
    out = runner.invoke(main, ["frontier", e1_path, "--grid", "0:1:5", "--format", "json"])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.stdout)
    assert "critical_lambda" in doc["report"]
    assert len(doc["report"]["points"]) == 5


def test_frontier_bad_grid_exits_2(runner, e1_path):
    out = runner.invoke(main, ["frontier", e1_path, "--grid", "0-1-5"])
    assert out.exit_code == 2


def test_refine_compare_singletonize_default(runner, tmp_path):
    doc = dict(E1_DOC)
    doc["partition"] = [["o0", "o1", "o2"]]
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    out = runner.invoke(main, ["refine-compare", str(path), "--grid", "0:1:5", "--format", "csv"])
    assert out.exit_code == 0, out.output
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "lambda,base_objective,refined_objective,delta"
    deltas = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(d >= 0 for d in deltas)
    assert deltas[-1] > 0  # order (o0,o1,o2) is forced, sort finds (o0,o2,o1)


def test_refine_compare_split_spec(runner, tmp_path):
    doc = dict(E1_DOC)
    doc["partition"] = [["o0", "o1", "o2"]]
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    out = runner.invoke(main, ["refine-compare", str(path), "--split", "0:1", "--grid", "0:1:3", "--format", "json"])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.stdout)
    assert all(p["delta"] >= 0 for p in doc["report"]["points"])


def test_refine_compare_repeated_split_block_exits_2(runner, tmp_path):
    path = tmp_path / "inst.json"
    gen = ["gen", "--kind", "random", "--seed", "1", "-M", "6", "-K", "2", "-T", "2", "--out", str(path)]
    assert runner.invoke(main, gen).exit_code == 0
    out = runner.invoke(main, ["refine-compare", str(path), "--split", "0:1;1:1;0:2;1:2;0:3"])
    assert out.exit_code == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == [
        "error: split: block 0 given more than once",
        "error: split: block 1 given more than once",
    ]


def test_noise_sweep_requires_signal_model(runner, e1_path):
    out = runner.invoke(main, ["noise-sweep", e1_path])
    assert out.exit_code == 2


def test_noise_sweep_csv(runner, tmp_path):
    gen = runner.invoke(main, ["gen", "--kind", "random", "--seed", "8", "-M", "6", "-K", "2", "-T", "3", "-S", "3", "--out", str(tmp_path / "i.json")])
    assert gen.exit_code == 0, gen.output
    out = runner.invoke(main, ["noise-sweep", str(tmp_path / "i.json"), "--epsilons", "0,0.5,1", "--format", "csv"])
    assert out.exit_code == 0, out.output
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "epsilon,avg_U1,avg_V0"
    assert len(lines) == 4
    u1s = [float(line.split(",")[1]) for line in lines[1:]]
    assert u1s == sorted(u1s, reverse=True)


def test_ingest_then_aggregate_pipeline(runner, tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(E1_LOG + "u2,B,o0,b0,3,0\nu2,B,o1,b1,1,4\nu2,B,o2,b2,2,0\n")
    users_csv = tmp_path / "users.csv"
    out = runner.invoke(
        main,
        ["ingest", str(log), "--discount", "custom", "--weights", "1,0.5,0", "--lambda", "0.5", "--out", str(users_csv)],
    )
    assert out.exit_code == 0, out.output
    lines = users_csv.read_text().strip().split("\n")
    assert lines[0].startswith("user_id,group_label,lambda")
    assert lines[1] == "u1,A,0.5,2.5,4,6.5,0.625,1,false,false"
    agg = runner.invoke(main, ["aggregate", str(users_csv)])
    assert agg.exit_code == 0, agg.output
    doc = json.loads(agg.output)
    assert doc["report"]["count"] == 2
    assert doc["report"]["pull"]["mean"] == 0.625
    assert doc["report"]["pull"]["variance"] == 0


def test_ingest_duplicate_rows_exit_2(runner, tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(E1_LOG + "u1,A,o0,b0,3,0\n")
    out = runner.invoke(main, ["ingest", str(log)])
    assert out.exit_code == 2


def test_ingest_lists_every_row_with_the_wrong_field_count(runner, tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(E1_LOG.replace("o1,b1,1,4", "o1,b1,1").replace("o2,b2,2,0", "o2,b2,2"))
    out = runner.invoke(main, ["ingest", str(log)])
    assert out.exit_code == 2
    assert out.stderr == (
        "error: log: line 3: expected 6 fields, got 5\n"
        "error: log: line 4: expected 6 fields, got 5\n"
    )


def test_summary_goes_to_stderr_not_stdout(runner, e1_path):
    out = runner.invoke(main, ["metrics", e1_path, "--lambda", "0.5", "--format", "csv", "--summary"])
    assert out.exit_code == 0
    assert "pull=" not in out.stdout
    assert "pull=" in out.stderr


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pushpull", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for name in ("gen", "validate", "solve", "frontier", "metrics", "refine-compare", "noise-sweep", "ingest", "aggregate"):
        assert name in proc.stdout


def test_version_runs_from_source(runner):
    out = runner.invoke(main, ["--version"])
    assert out.exit_code == 0, out.output
    assert out.output == f"pushpull, version {__version__}\n"


def test_solve_csv_quotes_ids_that_need_it(runner, tmp_path):
    doc = dict(E1_DOC)
    ids = ["a,b", 'say "hi"', "o2"]
    doc["catalog"] = ids
    doc["partition"] = [[i] for i in ids]
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc))
    out = runner.invoke(main, ["solve", str(path), "--lambda", "1", "--format", "csv"])
    assert out.exit_code == 0, out.output
    rows = list(csv.reader(out.stdout.splitlines()))
    assert rows == [
        ["position", "object_id", "block_index"],
        ["0", "a,b", "0"],
        ["1", "o2", "2"],
        ["2", 'say "hi"', "1"],
    ]


def _stanza(**fields):
    return {"generate": {"kind": "random", "seed": 1, **fields}}


def _cutoff(value):
    return {"kind": "cutoff", "params": {"cutoff": value}}


# Each document names the field its violation must mention. Past the first
# seven, each one used to end in a traceback or load as another instance
# than the one written (a score row "312" read as [3, 1, 2]).
BAD_DOCUMENTS = {
    "generate-seed": ({"generate": {"kind": "random", "seed": "abc"}}, "seed"),
    "generate-objects": ({"generate": {"kind": "random", "seed": 1, "objects": "x"}}, "objects"),
    "generate-cutoff": (
        {"generate": {"kind": "random", "seed": 1, "discount": {"kind": "cutoff", "params": {"cutoff": "abc"}}}},
        "cutoff",
    ),
    "generate-unknown-param": (
        {"generate": {"kind": "random", "seed": 1, "discount": {"kind": "geometric", "params": {"beta": 0.5, "bogus": 1}}}},
        "bogus",
    ),
    "generate-params-not-object": (
        {"generate": {"kind": "random", "seed": 1, "discount": {"kind": "dcg", "params": "x"}}},
        "params",
    ),
    "explicit-cutoff": ({**E1_DOC, "discount": {"kind": "cutoff", "params": {"cutoff": "abc"}}}, "cutoff"),
    "explicit-params-not-object": ({**E1_DOC, "discount": {"kind": "dcg", "params": "x"}}, "params"),
    "generate-objects-infinity": (_stanza(objects=math.inf), "objects"),
    "generate-cutoff-infinity": (_stanza(discount=_cutoff(math.inf)), "cutoff"),
    "explicit-cutoff-infinity": ({**E1_DOC, "discount": _cutoff(math.inf)}, "cutoff"),
    "generate-preset-name-list": (_stanza(kind="preset", preset_name=["x"]), "preset"),
    "generate-param-named-horizon": (_stanza(discount={"kind": "dcg", "params": {"horizon": 3}}), "horizon"),
    "generate-beta-huge-int": (_stanza(discount={"kind": "geometric", "params": {"beta": 10**400}}), "beta"),
    "score-row-string": ({**E1_DOC, "agent_u": {"t0": "312"}}, "agent_u"),
    "types-string": ({**E1_DOC, "types": "t", "agent_u": {"t": [3, 1, 2]}, "advocate_v": {"t": [0, 4, 0]}}, "types"),
    "catalog-string": ({**E1_DOC, "catalog": "abc", "partition": [["a"], ["b"], ["c"]]}, "catalog"),
    "partition-block-string": ({**E1_DOC, "catalog": ["a", "b", "c"], "partition": ["ab", ["c"]]}, "partition"),
    "signals-string": ({**SIGNAL_DOC, "signal_model": {"signals": "ab", "likelihood": [[0.5, 0.5]]}}, "signals"),
    "prior-bool": ({**E1_DOC, "prior": [True]}, "prior"),
    "catalog-nested-id": (
        {**E1_DOC, "catalog": [["o0"], "o1", "o2"], "partition": [[["o0"]], ["o1"], ["o2"]]},
        "catalog",
    ),
    "explicit-cutoff-fraction": ({**E1_DOC, "discount": _cutoff(1.9)}, "cutoff"),
    "explicit-cutoff-bool": ({**E1_DOC, "discount": _cutoff(True)}, "cutoff"),
    "generate-cutoff-fraction": (_stanza(discount=_cutoff(1.9)), "cutoff"),
    "generate-cutoff-bool": (_stanza(discount=_cutoff(True)), "cutoff"),
    "generate-seed-fraction": (_stanza(seed=1.7), "seed"),
    "generate-seed-bool": (_stanza(seed=True), "seed"),
    "explicit-params-pairs": ({**E1_DOC, "discount": {"kind": "geometric", "params": [["beta", 0.5]]}}, "params"),
    "schema-version-bool": ({**E1_DOC, "schema_version": True}, "schema_version"),
    "unknown-top-level-field": ({**SIGNAL_DOC, "signal_modle": SIGNAL_DOC["signal_model"]}, "signal_modle"),
    "unknown-discount-field": ({**E1_DOC, "discount": {**E1_DOC["discount"], "parms": {}}}, "parms"),
}


@pytest.mark.parametrize("document, violation", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS.keys())
def test_validate_reports_bad_instance_fields(runner, tmp_path, document, violation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, **document}))
    out = runner.invoke(main, ["validate", str(path)])
    assert out.exit_code == 2, out.output
    [record] = json.loads(out.stdout)["report"]["files"]
    assert any(violation in v for v in record["violations"]), record


USERS_HEADER = "user_id,group_label,lambda,U_lambda,V_lambda,P_lambda,pull,push,degenerate_pull,degenerate_push"
USERS_ROW = "u0,g0,0.5,2.5,4,6.5,0.625,1,false,false"


def _users_row(**cells):
    row = dict(zip(USERS_HEADER.split(","), USERS_ROW.split(",")), **cells)
    return ",".join(row.values())


def test_aggregate_short_row_exits_2_naming_the_line(runner, tmp_path):
    users_csv = tmp_path / "users.csv"
    users_csv.write_text(f"{USERS_HEADER}\n{USERS_ROW}\nu1,g0,0.5\n")
    out = runner.invoke(main, ["aggregate", str(users_csv)])
    assert out.exit_code == 2, out.output
    assert "line 3" in out.stderr


@pytest.mark.parametrize("field, text", [("pull", "nan"), ("push", "inf"), ("lambda", "-inf"), ("U_lambda", "NaN")])
def test_aggregate_non_finite_number_exits_2_naming_line_and_field(runner, tmp_path, field, text):
    users_csv = tmp_path / "users.csv"
    users_csv.write_text(f"{USERS_HEADER}\n{USERS_ROW}\n\n{_users_row(user_id='u1', **{field: text})}\n")
    out = runner.invoke(main, ["aggregate", str(users_csv)])
    assert out.exit_code == 2, out.output
    assert f"csv: line 4: {field} must be finite, got '{text}'" in out.stderr


@pytest.mark.parametrize(
    "field, text, need",
    [("pull", "abc", "a number"), ("P_lambda", "", "a number"), ("degenerate_push", "maybe", "true or false"),
     ("degenerate_pull", "True", "true or false")],
)
def test_aggregate_bad_cell_exits_2_naming_line_and_column(runner, tmp_path, field, text, need):
    users_csv = tmp_path / "users.csv"
    users_csv.write_text(f"{USERS_HEADER}\n{USERS_ROW}\n{_users_row(**{field: text})}\n")
    out = runner.invoke(main, ["aggregate", str(users_csv)])
    assert out.exit_code == 2, out.output
    assert out.stderr == f"error: csv: line 3: {field} must be {need}, got '{text}'\n"
    assert out.stdout == ""


def test_ingest_bad_cell_after_blank_lines_exits_2_naming_the_file_line(runner, tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(E1_LOG.replace("u1,A,o1,b1,1,4\n", "\n\nu1,A,o1,b1,1,oops\n"))
    out = runner.invoke(main, ["ingest", str(log)])
    assert out.exit_code == 2, out.output
    assert out.stderr == "error: log: line 5: advocate_score must be a number, got 'oops'\n"
    assert out.stdout == ""


def test_aggregate_lists_every_bad_cell_of_the_file(runner, tmp_path):
    users_csv = tmp_path / "users.csv"
    rows = [
        _users_row(pull="abc", degenerate_pull="maybe"),
        USERS_ROW,
        _users_row(push="nan"),
        _users_row(**{"lambda": "1/2"}),
    ]
    users_csv.write_text("\n".join([USERS_HEADER, *rows]) + "\n")
    out = runner.invoke(main, ["aggregate", str(users_csv)])
    assert out.exit_code == 2, out.output
    assert out.stderr.splitlines() == [
        "error: csv: line 2: pull must be a number, got 'abc'",
        "error: csv: line 2: degenerate_pull must be true or false, got 'maybe'",
        "error: csv: line 4: push must be finite, got 'nan'",
        "error: csv: line 5: lambda must be a number, got '1/2'",
    ]


def _patch_sort(monkeypatch, orders):
    """Make the sort strategy rank blocks with the order function `orders`."""
    row = solver._TABLE["sort"]._replace(orders=orders)
    monkeypatch.setitem(solver._TABLE, "sort", row)


def _reversed_sort(instance, beliefs):
    order = tuple(reversed(range(instance.partition.block_count)))
    return [(order, False) for *_, lams in beliefs for _ in lams]


def test_validate_oracle_checks_the_strategy_auto_ships(runner, e1_path, monkeypatch):
    # e1 has singleton blocks, so auto solves it with the sort rule; a broken
    # sort must be caught even though subset_dp would still agree with brute force.
    _patch_sort(monkeypatch, _reversed_sort)
    out = runner.invoke(main, ["validate", e1_path])
    assert out.exit_code == 3, out.output
    assert "oracle mismatch" in out.stderr


def test_validate_records_an_oracle_mismatch_on_its_file(runner, e1_path, tmp_path, monkeypatch):
    # Only the singleton-block file goes through the broken sort; the other
    # file has multi-object blocks, so auto solves it with subset_dp.
    blocks = runner.invoke(main, ["gen", "--kind", "random", "--seed", "2", "-M", "6", "-K", "3"])
    blocks_path = tmp_path / "blocks.json"
    blocks_path.write_text(blocks.stdout)
    _patch_sort(monkeypatch, _reversed_sort)
    out = runner.invoke(main, ["validate", str(blocks_path), e1_path])
    assert out.exit_code == 3, out.output
    files = json.loads(out.stdout)["report"]["files"]
    assert [f["path"] for f in files] == [str(blocks_path), e1_path]
    assert "oracle_mismatches" not in files[0]
    assert files[1]["oracle_mismatches"]
    assert f"{e1_path}: oracle mismatch" in out.stderr
    assert str(blocks_path) not in out.stderr


def test_validate_oracle_builds_the_block_order_tables_once_per_file(runner, e1_path, monkeypatch):
    builds = []
    brute_tables = solver._brute_tables

    def spy(partition):
        builds.append(partition.block_count)
        return brute_tables(partition)

    monkeypatch.setattr(solver, "_brute_tables", spy)
    out = runner.invoke(main, ["validate", e1_path, e1_path])
    assert out.exit_code == 0, out.output
    assert builds == [3, 3]


def test_validate_checks_the_oracle_on_eight_blocks_of_three_thousand_objects(runner, tmp_path):
    # Brute force accepts every instance of at most 8 blocks, whatever its size.
    doc = runner.invoke(main, ["gen", "--kind", "random", "--seed", "1", "-M", "3000", "-K", "8"])
    path = tmp_path / "big.json"
    path.write_text(doc.stdout)
    out = runner.invoke(main, ["validate", str(path)])
    assert out.exit_code == 0, out.output
    [record] = json.loads(out.stdout)["report"]["files"]
    assert record["ok"] and record["oracle_checked"] is True


@pytest.mark.parametrize("command", ["frontier", "refine-compare"])
def test_grid_is_bounded_before_it_is_built(runner, e1_path, monkeypatch, command):
    def unreachable(*args):
        raise AssertionError("lambda_grid ran on an unbounded grid")

    monkeypatch.setattr(metrics, "lambda_grid", unreachable)
    out = runner.invoke(main, [command, e1_path, "--grid", f"0:1:{10**11}"])
    assert out.exit_code == 2, out.output
    assert "grid: points x objects (300000000000) exceed the limit" in out.stderr


def test_local_search_tables_are_bounded_before_they_are_built(runner, tmp_path, monkeypatch):
    # 24 blocks over 30 objects hold (30 + 1) x 24 = 744 cells a table.
    path = tmp_path / "wide.json"
    gen = ["gen", "--kind", "random", "--seed", "9", "-M", "30", "-K", "24", "-T", "2", "--out", str(path)]
    assert runner.invoke(main, gen).exit_code == 0
    monkeypatch.setattr(solver, "_LOCAL_SEARCH_CELLS", 743)
    out = runner.invoke(main, ["solve", str(path), "--lambda", "0.5"])
    assert out.exit_code == 2, out.output
    assert "local_search: block-table cells (M + 1) x K (744) exceed the limit 743" in out.stderr


# The flags each discount curve takes; any other discount flag is stray.
_OWN_FLAGS = {"dcg": [], "cutoff": ["--cutoff", "2"], "geometric": ["--beta", "0.3"], "custom": ["--weights", "1,0.5,0"]}
_STRAY = [
    (kind, flag, value)
    for kind in _OWN_FLAGS
    for flag, value in (("--cutoff", "2"), ("--beta", "0.3"), ("--weights", "1,0.5,0"))
    if flag not in _OWN_FLAGS[kind]
]


@pytest.mark.parametrize("command", ["gen", "ingest"])
@pytest.mark.parametrize("kind,flag,value", _STRAY)
def test_a_flag_of_another_discount_curve_exits_2(runner, tmp_path, command, kind, flag, value):
    if command == "gen":
        args = ["gen", "--kind", "random", "--seed", "1", "-M", "8", "-K", "4", "-T", "2"]
    else:
        log = tmp_path / "log.csv"
        log.write_text(E1_LOG)
        args = ["ingest", str(log)]
    out_path = tmp_path / "out"
    out = runner.invoke(main, [*args, "--discount", kind, *_OWN_FLAGS[kind], flag, value, "--out", str(out_path)])
    assert out.exit_code == 2, out.output
    assert out.stderr == f"error: discount: {flag} does not apply to --discount {kind}\n"
    assert not out_path.exists()


def test_every_stray_discount_flag_is_listed(runner):
    args = ["gen", "--kind", "random", "--seed", "1", "-M", "8", "-K", "4", "-T", "2"]
    out = runner.invoke(main, [*args, "--discount", "dcg", "--beta", "0.3", "--cutoff", "2"])
    assert out.exit_code == 2, out.output
    assert out.stderr.splitlines() == [
        "error: discount: --cutoff does not apply to --discount dcg",
        "error: discount: --beta does not apply to --discount dcg",
    ]
