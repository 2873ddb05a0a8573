"""Outside input: malformed tables, files and sizes end in exit 2.

The malformed-document cases run through `validate` in test_cli; the
mutation test at the end checks the loader as a whole.
"""

import copy
import hashlib
import json
import math
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import pushpull as pp
from pushpull import io, scenarios
from pushpull.cli import main

from helpers import E1_DOC, E1_LOG, SIGNAL_DOC


def _stanza(**fields):
    return {"schema_version": 1, "generate": {"kind": "random", "seed": 1, **fields}}


@pytest.mark.parametrize(
    "document",
    [
        {**E1_DOC, "types": ["t0", "t1"], "prior": [0.5, 0.5],
         "agent_u": {"t0": [3, 1, 2], "t1": [1, 1]}, "advocate_v": {"t0": [0, 4, 0], "t1": [0, 4, 0]}},
        {**SIGNAL_DOC, "signal_model": {"signals": ["s0", "s1"], "likelihood": [[1.0], [0.5, 0.5]]}},
    ],
    ids=["scores", "likelihood"],
)
def test_ragged_tables_are_rejected(document):
    with pytest.raises(pp.ValidationError, match="same length"):
        io.load_instance(document)


def test_integral_floats_read_as_integers():
    doc = _stanza(seed=3.0, objects=6.0, discount={"kind": "cutoff", "params": {"cutoff": 2.0}})
    inst = io.load_instance(doc)
    spec = pp.ScenarioSpec(kind="random", seed=3, objects=6, discount=("cutoff", {"cutoff": 2}))
    assert inst == pp.generate(spec)


@pytest.mark.parametrize(
    "text",
    ['{"schema_version": 1, "generate": {"kind": "random", "seed": ' + "9" * 5000 + "}}", "[" * 100_000],
    ids=["int-too-long", "nested-too-deep"],
)
def test_unparsable_json_exits_2(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    out = CliRunner().invoke(main, ["validate", str(path)])
    assert out.exit_code == 2, out.output
    assert "invalid JSON" in out.stderr


@pytest.mark.parametrize("command", ["validate", "ingest", "aggregate"])
def test_non_utf8_file_exits_2(tmp_path, command):
    path = tmp_path / "latin1.txt"
    text = {"validate": json.dumps(E1_DOC), "ingest": E1_LOG, "aggregate": ""}[command]
    path.write_bytes(text.replace("o0", "ø0").encode("latin-1") + b"\xff\n")
    out = CliRunner().invoke(main, [command, str(path)])
    assert out.exit_code == 2, out.output
    assert "cannot read" in out.stderr


def test_oversized_csv_field_exits_2(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(E1_LOG + "u1,A," + "o" * 200_000 + ",b3,1,1\n")
    out = CliRunner().invoke(main, ["ingest", str(path)])
    assert out.exit_code == 2, out.output
    assert "cannot read" in out.stderr


def test_unreadable_metrics_csv_is_a_validation_error(tmp_path):
    with pytest.raises(pp.ValidationError, match="cannot read"):
        io.read_user_metrics_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize(
    "dims, violation",
    [
        ({"objects": 200_000, "blocks": 1}, "objects"),
        ({"types": 5_000}, "types"),
        ({"objects": 50_000, "blocks": 1, "types": 100}, "objects x types"),
        ({"types": 500, "signals": 5_000}, "types x signals"),
    ],
)
def test_generated_dims_are_bounded_before_generation(dims, violation):
    # Only the spec is built: generate must never see these sizes.
    with pytest.raises(pp.ValidationError) as err:
        pp.ScenarioSpec(kind="random", seed=1, **dims)
    assert any(violation in v for v in err.value.violations)


def test_largest_benchmark_and_preset_sizes_pass_the_bound():
    pp.ScenarioSpec(kind="random", seed=1, objects=5_000, blocks=5_000, types=8, signals=8)
    for name in pp.PRESETS:
        pp.ScenarioSpec(kind="preset", seed=1, preset_name=name)


def _metrics_csv(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(E1_LOG)
    return CliRunner().invoke(main, ["ingest", str(log)]).output


# The command that reads each kind of input file, a valid file of that kind,
# and its reader.
READERS = {
    "validate": (lambda tmp_path: json.dumps(E1_DOC), io.read_instance_json),
    "ingest": (lambda tmp_path: E1_LOG, io.read_relevance_log),
    "aggregate": (_metrics_csv, io.read_user_metrics_csv),
}


@pytest.mark.parametrize("command", READERS)
def test_input_files_are_bounded_by_bytes_before_they_are_read(tmp_path, monkeypatch, command):
    # A valid file padded with newlines to 1 MB, which JSON and the CSV
    # readers both skip: at the limit it is read, one byte past it the
    # command exits 2 naming both sizes, and the reader refuses it without
    # reading it.
    text, reader = READERS[command]
    path = tmp_path / "input"
    body = text(tmp_path)
    path.write_text(body + "\n" * ((1 << 20) - len(body.encode())))
    size = path.stat().st_size
    assert size == 1 << 20
    monkeypatch.setattr(scenarios, "MAX_INPUT_BYTES", size)
    out = CliRunner().invoke(main, [command, str(path)])
    assert out.exit_code == 0, out.output
    monkeypatch.setattr(scenarios, "MAX_INPUT_BYTES", size - 1)
    out = CliRunner().invoke(main, [command, str(path)])
    assert out.exit_code == 2, out.output
    assert f"holds {size} bytes, more than the limit {size - 1}" in out.stderr
    tracemalloc.start()
    try:
        with pytest.raises(pp.ValidationError, match=f"holds {size} bytes"):
            reader(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_file_digest_holds_a_chunk_of_the_file_not_all_of_it(tmp_path):
    # validate digests each file before read_instance_json checks its size.
    path = tmp_path / "big.json"
    path.write_bytes(bytes(range(256)) * (1 << 14))
    tracemalloc.start()
    try:
        got = io.file_digest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 1 << 20


def test_the_byte_bound_admits_the_largest_document_of_the_size_bounds():
    # Three tables of MAX_CELLS numbers and MAX_OBJECTS weights at 33 bytes,
    # the widest a number is written, and two lists of MAX_OBJECTS
    # identifiers with their brackets at 30.
    numbers = 3 * scenarios.MAX_CELLS + scenarios.MAX_OBJECTS
    assert numbers * 33 + 2 * scenarios.MAX_OBJECTS * 30 < scenarios.MAX_INPUT_BYTES


# -- mutation test ------------------------------------------------------------

POOL = st.one_of(
    st.sampled_from(
        [None, True, False, "x", "12", [], [[]], [1, [2]], ["o0"], {}, {"a": 1},
         math.inf, -math.inf, math.nan, 1.5]
    ),
    st.integers(-1000, 1000),
)

VALID_DOCUMENTS = [
    E1_DOC,
    SIGNAL_DOC,
    io.instance_to_document(
        pp.generate(pp.ScenarioSpec(kind="random", seed=3, objects=5, blocks=3, types=2, signals=2))
    ),
    _stanza(objects=5, blocks=2, types=2, signals=2),
    _stanza(kind="preset", preset_name="matching", discount={"kind": "geometric", "params": {"beta": 0.5}}),
    _stanza(discount={"kind": "cutoff", "params": {"cutoff": 3}}),
]


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*prefix, key))
    elif isinstance(value, list):
        for n, item in enumerate(value):
            yield from _paths(item, (*prefix, n))


def _mutate(document, path, value, delete):
    doc = copy.deepcopy(document)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutants(draw):
    doc = draw(st.sampled_from(VALID_DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if p]
        if paths:
            doc = _mutate(doc, draw(st.sampled_from(paths)), draw(POOL), draw(st.booleans()))
    return doc


@settings(max_examples=1000, deadline=None)
@given(mutants())
def test_only_validation_errors_escape_load_instance(document):
    try:
        inst = io.load_instance(document)
    except pp.ValidationError:
        return
    assert io.load_instance(json.loads(io.instance_text(inst))) == inst
