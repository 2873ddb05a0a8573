import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushpull as pp
from pushpull import io

from helpers import e1_instance, make_instance


def test_render_float_short_and_round_trip():
    assert io.render_float(0.0) == "0"
    assert io.render_float(1.0) == "1"
    assert io.render_float(0.625) == "0.625"
    assert io.render_float(0.5) == "0.5"
    assert float(io.render_float(1 / 3)) == pytest.approx(1 / 3, rel=1e-11)


def test_render_float_caps_at_twelve_digits():
    text = io.render_float(math.pi)
    digits = text.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) <= 12


def test_render_float_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(pp.ValidationError):
            io.render_float(bad)


def test_exact_float_round_trips_exactly():
    for v in (0.1, 1 / 3, 2.0 ** -40, 123456.789):
        assert float(io.exact_float(v)) == v


def test_canonical_json_sorts_keys_and_is_stable():
    doc = {"b": [1, 2], "a": {"y": 0.5, "x": True}, "c": None}
    text = io.canonical_json(doc)
    assert text == io.canonical_json(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    parsed = json.loads(text)
    assert parsed == {"b": [1, 2], "a": {"y": 0.5, "x": True}, "c": None}


def test_canonical_json_renders_numpy_scalars():
    text = io.canonical_json({"n": np.int64(4), "x": np.float64(0.5), "b": np.bool_(True)})
    assert json.loads(text) == {"n": 4, "x": 0.5, "b": True}


def test_instance_document_round_trip():
    inst = pp.generate(pp.ScenarioSpec(kind="random", seed=13, objects=7, blocks=3, types=3, signals=2))
    doc = io.instance_to_document(inst)
    back = io.load_instance(doc)
    assert back == inst


def test_instance_document_round_trip_through_json_text(tmp_path):
    inst = e1_instance()
    path = tmp_path / "e1.json"
    io.write_instance_json(inst, path)
    back = io.read_instance_json(path)
    assert back == inst


def test_instance_digest_is_content_addressed():
    a = pp.generate(pp.ScenarioSpec(kind="random", seed=1, objects=6, blocks=2, types=2, signals=2))
    b = pp.generate(pp.ScenarioSpec(kind="random", seed=1, objects=6, blocks=2, types=2, signals=2))
    c = pp.generate(pp.ScenarioSpec(kind="random", seed=2, objects=6, blocks=2, types=2, signals=2))
    assert io.instance_digest(a) == io.instance_digest(b)
    assert io.instance_digest(a) != io.instance_digest(c)


# Identifiers from the whole Unicode range but surrogates, which UTF-8 cannot
# encode; numbers from subnormal to huge, whose shortest repr needs an exponent.
IDS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4)
NUMBERS = st.floats(min_value=0.0, max_value=1e300, allow_nan=False) | st.sampled_from((5e-324, 1e16, 0.1))


def _distribution(draw, size):
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=size, max_size=size))
    return [w / math.fsum(weights) for w in weights]


@st.composite
def instance_documents(draw):
    m, t = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    catalog = draw(st.lists(IDS, min_size=m, max_size=m, unique=True))
    types = draw(st.lists(IDS, min_size=t, max_size=t, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1))) if m > 1 else []
    bounds = [0, *cuts, m]
    table = st.lists(NUMBERS, min_size=m, max_size=m)
    kind = draw(st.sampled_from(("dcg", "cutoff", "geometric", "custom")))
    tail = draw(st.lists(st.floats(0.0, 1.0), min_size=m - 1, max_size=m - 1))
    params = {
        "dcg": {},
        "cutoff": {"cutoff": draw(st.integers(1, m))},
        "geometric": {"beta": draw(st.floats(0.01, 0.99))},
        "custom": {"weights": [1.0, *sorted(tail, reverse=True)]},
    }[kind]
    signal_model = None
    if draw(st.booleans()):
        s = draw(st.integers(1, 3))
        signal_model = {
            "signals": draw(st.lists(IDS, min_size=s, max_size=s, unique=True)),
            "likelihood": [_distribution(draw, s) for _ in types],
        }
    return {
        "schema_version": 1,
        "catalog": catalog,
        "partition": [catalog[a:b] for a, b in zip(bounds, bounds[1:])],
        "types": types,
        "prior": _distribution(draw, t),
        "agent_u": {name: draw(table) for name in types},
        "advocate_v": {name: draw(table) for name in types},
        "discount": {"kind": kind, "params": params},
        "signal_model": signal_model,
    }


@settings(max_examples=200, deadline=None)
@given(instance_documents())
def test_instance_digest_hashes_the_canonical_document(document):
    inst = io.load_instance(document)
    text = io.canonical_json(io.instance_to_document(inst), float_renderer=io.exact_float)
    assert io.instance_text(inst) == text
    assert io.instance_digest(inst) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_load_instance_collects_every_violation():
    doc = {
        "schema_version": 3,
        "catalog": ["a", "b"],
        "partition": [["a"], ["zzz"]],
        "types": ["t0"],
        "prior": [0.4],
        "agent_u": {"t0": [1, 2]},
        "advocate_v": {"wrong": [1, 2]},
        "discount": {"kind": "warp"},
    }
    with pytest.raises(pp.ValidationError) as err:
        io.load_instance(doc)
    text = "\n".join(err.value.violations)
    assert "schema_version" in text
    assert "partition" in text
    assert "prior" in text
    assert "advocate_v" in text
    assert "discount" in text


def test_load_instance_requires_exactly_one_of_explicit_or_generate():
    doc = {
        "schema_version": 1,
        "catalog": ["a"],
        "generate": {"kind": "random", "seed": 1},
    }
    with pytest.raises(pp.ValidationError) as err:
        io.load_instance(doc)
    assert any("not both" in v for v in err.value.violations)


def test_load_instance_generate_stanza():
    doc = {
        "schema_version": 1,
        "generate": {"kind": "aligned", "seed": 4, "objects": 6, "blocks": 2, "types": 2, "signals": 2},
    }
    inst = io.load_instance(doc)
    assert inst == pp.generate(pp.ScenarioSpec(kind="aligned", seed=4, objects=6, blocks=2, types=2, signals=2))


def test_load_instance_generate_stanza_rejects_unknown_fields():
    doc = {"schema_version": 1, "generate": {"kind": "random", "seed": 1, "volume": 11}}
    with pytest.raises(pp.ValidationError) as err:
        io.load_instance(doc)
    assert any("unknown fields" in v for v in err.value.violations)


def test_frontier_csv_header_and_shape():
    front = pp.frontier(e1_instance(), (0.0, 1.0, 3))
    text = io.frontier_csv(front)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,U_lambda,V_lambda,P_lambda,pull,push,degenerate_pull,degenerate_push"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    assert lines[3].startswith("1,")


def test_frontier_csv_round_trip():
    front = pp.frontier(e1_instance(), (0.0, 1.0, 5))
    header, *rows = csv.reader(io.frontier_csv(front).splitlines())
    assert tuple(header) == io.FRONTIER_HEADER
    rows = [dict(zip(header, row)) for row in rows]
    assert len(rows) == 5
    assert float(rows[0]["push"]) == 1.0
    assert float(rows[-1]["pull"]) == 1.0
    assert float(rows[2]["pull"]) == 0.625
    assert rows[2]["degenerate_pull"] == "false"


def test_frontier_csv_bytes_are_deterministic(tmp_path):
    inst = pp.generate(pp.ScenarioSpec(kind="anti_aligned", seed=77, objects=8, blocks=3, types=2, signals=2))
    a = io.frontier_csv(pp.frontier(inst, (0.0, 1.0, 51)))
    b = io.frontier_csv(pp.frontier(inst, (0.0, 1.0, 51)))
    assert a == b


def test_relevance_log_round_trip(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "user_id,group_label,object_id,block_id,agent_score,advocate_score\n"
        "u1,A,o0,b0,3,0\n"
        "u1,A,o1,b1,1,4\n"
        "u1,A,o2,b2,2,0\n"
    )
    rows = io.read_relevance_log(path)
    assert len(rows) == 3
    users = io.ingest_relevance_log(rows, discount_kind="custom", discount_params={"weights": [1, 0.5, 0]})
    assert len(users) == 1
    user = users[0]
    assert user.user_id == "u1"
    assert user.group_label == "A"
    assert user.instance.size == 3
    assert user.instance.partition.block_count == 3
    m = pp.agency_metrics(user.instance, 0.5, posterior=user.posterior)
    assert m.pull == 0.625


def test_ingest_cutoff_discount_variant(tmp_path):
    rows = [
        {"user_id": "u1", "group_label": "A", "object_id": f"o{i}", "block_id": f"b{i}",
         "agent_score": s, "advocate_score": v}
        for i, (s, v) in enumerate((("3", "0"), ("1", "4"), ("2", "0")))
    ]
    users = io.ingest_relevance_log(rows, discount_kind="cutoff", discount_params={"cutoff": 2})
    m = pp.agency_metrics(users[0].instance, 0.5, posterior=users[0].posterior)
    assert m.pull == 0.8


def test_ingest_groups_blocks_by_first_appearance():
    rows = [
        {"user_id": "u", "group_label": "G", "object_id": "x", "block_id": "beta",
         "agent_score": "1", "advocate_score": "1"},
        {"user_id": "u", "group_label": "G", "object_id": "y", "block_id": "alpha",
         "agent_score": "1", "advocate_score": "1"},
        {"user_id": "u", "group_label": "G", "object_id": "z", "block_id": "beta",
         "agent_score": "1", "advocate_score": "1"},
    ]
    [user] = io.ingest_relevance_log(rows)
    assert user.instance.partition.blocks == ((0, 2), (1,))


BAD_LOG_ROWS = (
    "u,G,x,b,1,1\n"
    "u,G,x,b,2,2\n"
    "u,H,y,b,-1,oops\n"
)


def test_ingest_rejects_bad_rows(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(",".join(io.LOG_HEADER) + "\n" + BAD_LOG_ROWS)
    with pytest.raises(pp.ValidationError) as err:
        io.ingest_relevance_log(io.read_relevance_log(path))
    text = "\n".join(err.value.violations)
    assert "duplicate" in text
    assert "group" in text
    assert "nonnegative" in text
    assert "must be a number" in text
    # the unparsable advocate score is one violation, not also a range one,
    # and it names the file line, as the CSV reader does
    assert [v for v in err.value.violations if "advocate_score" in v] == [
        "log: line 4: advocate_score must be a number, got 'oops'"
    ]


def test_ingest_numbers_plain_rows_from_one():
    rows = [dict(zip(io.LOG_HEADER, line.split(","))) for line in BAD_LOG_ROWS.splitlines()]
    with pytest.raises(pp.ValidationError) as err:
        io.ingest_relevance_log(rows)
    assert [v for v in err.value.violations if "advocate_score" in v] == [
        "row 3: advocate_score must be a number, got 'oops'"
    ]


def test_ingest_rejects_empty_log():
    with pytest.raises(pp.ValidationError):
        io.ingest_relevance_log([])


def test_relevance_log_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user,group,obj,block,u,v\nu1,A,o0,b0,1,1\n")
    with pytest.raises(pp.ValidationError):
        io.read_relevance_log(path)


def test_user_metrics_csv_round_trip(tmp_path):
    m = pp.agency_metrics(e1_instance(), 0.5)
    path = tmp_path / "users.csv"
    path.write_text(io.user_metrics_csv([("u1", "A", m), ("u2", "B", m)]))
    entries = io.read_user_metrics_csv(path)
    assert [(uid, label) for uid, label, _ in entries] == [("u1", "A"), ("u2", "B")]
    assert entries[0][2].pull == 0.625
    assert entries[0][2].degenerate_pull is False


def test_report_document_wraps_payload():
    text = io.render_report("metrics", "ff" * 32, {"pull": 0.625})
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "metrics"
    assert doc["input_digest"] == "ff" * 32
    assert doc["report"] == {"pull": 0.625}


def test_metrics_payload_uses_contract_field_names():
    m = pp.agency_metrics(e1_instance(), 0.5)
    payload = io.metrics_payload(m)
    assert set(payload) == {
        "lambda", "U_lambda", "V_lambda", "P_lambda", "U_1", "V_0",
        "pull", "push", "degenerate_pull", "degenerate_push",
    }
    assert payload["pull"] == 0.625


def test_solve_payload_lists_ranking_by_object_id():
    inst = e1_instance()
    result = pp.solve(pp.SolveRequest(inst, 0.5))
    payload = io.solve_payload(result, inst)
    assert payload["ranking"] == ["o1", "o0", "o2"]
    assert payload["objective"] == 3.25
