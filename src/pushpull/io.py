"""Stable file formats: instance JSON, relevance logs, and reports.

Two float renderings, both shortest-round-trip: instance documents keep
full precision (so digests and regenerated files are bit-stable), while
report CSV/JSON caps at 12 significant digits for golden-file readability.
Canonical JSON sorts keys and uses a fixed layout, so identical inputs
always produce identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io as _io
import json
import math
import operator
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import scenarios
from .core import (
    Catalog,
    Instance,
    Partition,
    TypeSpace,
    UtilityTable,
    ValidationError,
    make_discount,
    read_discount_spec,
    read_ids,
    read_list,
    read_numbers,
    read_object,
)
from .inference import PosteriorModel, SignalChannel, prior_posterior
from .metrics import (
    AgencyMetrics,
    Frontier,
    NoisePoint,
    RefineComparison,
    RefinePoint,
)
from .solver import SolveResult

__all__ = [
    "SCHEMA_VERSION",
    "LOG_HEADER",
    "FRONTIER_HEADER",
    "USER_METRICS_HEADER",
    "IngestedUser",
    "render_float",
    "exact_float",
    "canonical_json",
    "instance_to_document",
    "load_instance",
    "read_instance_json",
    "instance_text",
    "write_instance_json",
    "instance_digest",
    "file_digest",
    "read_relevance_log",
    "ingest_relevance_log",
    "csv_table",
    "metrics_csv",
    "frontier_csv",
    "noise_csv",
    "refine_csv",
    "ranking_csv",
    "user_metrics_csv",
    "read_user_metrics_csv",
    "metrics_payload",
    "user_metrics_payload",
    "solve_payload",
    "frontier_payload",
    "noise_payload",
    "refine_payload",
    "summary_payload",
    "report_document",
    "render_report",
]

SCHEMA_VERSION = 1

LOG_HEADER = ("user_id", "group_label", "object_id", "block_id", "agent_score", "advocate_score")

# A report key, in JSON and CSV alike, is the name of the result field it
# holds, except for these.
_REPORT_KEYS = {
    "lam": "lambda",
    "u_lambda": "U_lambda",
    "v_lambda": "V_lambda",
    "p_lambda": "P_lambda",
    "u_1": "U_1",
    "v_0": "V_0",
    "avg_u1": "avg_U1",
    "avg_v0": "avg_V0",
    "base_u1": "base_U1",
    "base_v0": "base_V0",
    "refined_u1": "refined_U1",
    "refined_v0": "refined_V0",
    "strategy_used": "strategy",
}


@functools.cache
def _columns(cls, omit=()) -> tuple[tuple[str, str], ...]:
    """(report key, field name) of each field of a result record but omit."""
    return tuple(
        (_REPORT_KEYS.get(f.name, f.name), f.name) for f in dataclasses.fields(cls) if f.name not in omit
    )


# The metrics CSV leaves out the endpoints U_1 and V_0.
_ENDPOINTS = ("u_1", "v_0")
_METRICS_CSV_COLUMNS = _columns(AgencyMetrics, _ENDPOINTS)

FRONTIER_HEADER = tuple(key for key, _ in _METRICS_CSV_COLUMNS)

USER_METRICS_HEADER = ("user_id", "group_label") + FRONTIER_HEADER

_REQUIRED_FIELDS = ("catalog", "partition", "types", "prior", "agent_u", "advocate_v", "discount")

_EXPLICIT_FIELDS = (*_REQUIRED_FIELDS, "signal_model")

_DOCUMENT_FIELDS = ("schema_version", "generate", *_EXPLICIT_FIELDS)

_STANZA_FIELDS = ("objects", "blocks", "types", "signals", "preset_name", "discount")


class IngestedUser(NamedTuple):
    user_id: str
    group_label: str
    instance: Instance
    posterior: PosteriorModel


def render_float(value: float) -> str:
    """Shortest decimal that round-trips, capped at 12 significant digits."""
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError("float: cannot render a non-finite value")
    if v == 0.0:
        return "0"
    for precision in range(1, 13):
        text = f"{v:.{precision}g}"
        if float(text) == v:
            return text
    return f"{v:.12g}"


def exact_float(value: float) -> str:
    """Full-precision shortest round-trip rendering (instance documents)."""
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError("float: cannot render a non-finite value")
    return repr(v)


def _render_bool(value: bool) -> str:
    return "true" if value else "false"


def canonical_json(value, float_renderer=render_float) -> str:
    """Deterministic JSON: sorted keys, two-space indent, fixed floats."""
    out: list[str] = []
    _emit_json(value, float_renderer, 0, out)
    return "".join(out)


def _emit_json(value, render, level, out) -> None:
    pad = "  " * level
    inner = "  " * (level + 1)
    if value is None:
        out.append("null")
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        out.append(_render_bool(bool(value)))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(render(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, Mapping):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(str(k) for k in value)
        lookup = {str(k): v for k, v in value.items()}
        for n, key in enumerate(keys):
            out.append(f"{inner}{json.dumps(key, ensure_ascii=False)}: ")
            _emit_json(lookup[key], render, level + 1, out)
            out.append(",\n" if n + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for n, item in enumerate(items):
            out.append(inner)
            _emit_json(item, render, level + 1, out)
            out.append(",\n" if n + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise ValidationError(f"json: cannot render a {type(value).__name__}")


def instance_to_document(instance: Instance) -> dict:
    """Materialized document form; inverse of load_instance for explicit files."""
    ids = instance.catalog.objects
    types = instance.type_space.types
    doc = {
        "schema_version": SCHEMA_VERSION,
        "catalog": list(ids),
        "partition": [[ids[i] for i in block] for block in instance.partition.blocks],
        "types": list(types),
        "prior": [float(p) for p in instance.type_space.prior],
        "agent_u": {t: [float(x) for x in row] for t, row in zip(types, instance.utilities.agent)},
        "advocate_v": {
            t: [float(x) for x in row] for t, row in zip(types, instance.utilities.advocate)
        },
        "discount": {
            "kind": instance.discount.kind,
            "params": {k: _plain(v) for k, v in instance.discount.params.items()},
        },
        "signal_model": None,
    }
    channel = instance.signal_model
    if channel is not None:
        doc["signal_model"] = {
            "signals": list(channel.signals),
            "likelihood": [[float(x) for x in row] for row in channel.likelihood],
        }
    return doc


def _plain(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _stanza_to_spec(stanza, field) -> scenarios.ScenarioSpec:
    # The stanza fields are the ScenarioSpec fields, which check their values.
    fields = dict(read_object(stanza, field, required=("kind", "seed"), optional=_STANZA_FIELDS))
    if fields.get("discount") is not None:
        fields["discount"] = read_discount_spec(fields["discount"], f"{field}: discount")
    return scenarios.ScenarioSpec(**fields)


def _read_partition(raw, field, catalog: Catalog) -> Partition:
    label = f"{field} block"
    blocks = [read_list(block, label) for block in read_list(raw, field)]
    # One pass over all ids, not one per block: thousands of singleton
    # blocks are common.
    ids = read_ids([o for block in blocks for o in block], label)
    index = catalog.index_map()
    unknown = set(ids).difference(index)
    if unknown:
        raise ValidationError(f"{field}: unknown object ids {', '.join(sorted(unknown))}")
    return Partition(tuple(tuple(map(index.__getitem__, block)) for block in blocks))


def _read_rows(rows, field) -> list:
    label = f"{field} row"
    rows = [read_numbers(row, label) for row in rows]
    if len({len(row) for row in rows}) > 1:
        raise ValidationError(f"{field}: rows must all have the same length")
    return rows


def _read_scores(raw, field, types) -> list:
    read_object(raw, field, required=types)
    return _read_rows([raw[t] for t in types], field)


def _read_channel(raw, field) -> SignalChannel:
    read_object(raw, field, required=("signals", "likelihood"))
    label = f"{field}: likelihood"
    return SignalChannel(
        signals=read_ids(raw["signals"], f"{field}: signals"),
        likelihood=_read_rows(read_list(raw["likelihood"], label), label),
    )


def load_instance(document) -> Instance:
    """Build a validated instance from a parsed document.

    Collects every violation it can find before raising, instead of failing
    on the first.
    """
    if not isinstance(document, Mapping):
        raise ValidationError("document: must be a JSON object")
    problems: list[str] = []

    def build(make, *args):
        # make(*args), or None when an argument is missing or make raises;
        # a ValidationError joins the collected problems.
        for a in args:
            if a is None:
                return None
        try:
            return make(*args)
        except ValidationError as err:
            problems.extend(err.violations)
            return None

    def read(field, make, *needs):
        return build(make, document.get(field), field, *needs)

    build(read_object, document, "document", (), _DOCUMENT_FIELDS)
    version = document.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    if document.get("generate") is not None:
        if any(k in document for k in _EXPLICIT_FIELDS):
            problems.append(
                "document: give either explicit instance fields or a generate stanza, not both"
            )
        spec = read("generate", _stanza_to_spec)
        if problems:
            raise ValidationError(problems)
        return scenarios.generate(spec)

    problems += [f"{key}: missing required field" for key in _REQUIRED_FIELDS if document.get(key) is None]
    catalog = read("catalog", lambda raw, field: Catalog(read_ids(raw, field)))
    partition = read("partition", _read_partition, catalog)
    types = read("types", read_ids)
    type_space = build(TypeSpace, types, read("prior", read_numbers))
    utilities = build(
        UtilityTable, read("agent_u", _read_scores, types), read("advocate_v", _read_scores, types)
    )
    discount = build(
        lambda spec, catalog: make_discount(spec[0], len(catalog), **spec[1]),
        read("discount", read_discount_spec),
        catalog,
    )
    channel = read("signal_model", _read_channel)
    if problems:
        raise ValidationError(problems)
    return Instance(catalog, partition, type_space, utilities, discount, channel)


def read_instance_json(path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"instance: cannot read {path}: {err}") from None
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"instance: invalid JSON in {path}: {err}") from None
    return load_instance(document)


def instance_text(instance: Instance) -> str:
    """The instance's document as text, without a final newline: sorted
    keys, two-space indent, full-precision floats.

    An instance document's floats are finite and its keys are strings, so
    this is the text of canonical_json with exact_float.
    """
    return json.dumps(instance_to_document(instance), indent=2, sort_keys=True, ensure_ascii=False)


def write_instance_json(instance: Instance, path) -> str:
    text = instance_text(instance) + "\n"
    Path(path).write_text(text)
    return text


def instance_digest(instance: Instance) -> str:
    return hashlib.sha256(instance_text(instance).encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_csv(path, header: Sequence[str], label: str) -> list[tuple[int, dict]]:
    """(line number, row) pairs of a UTF-8 CSV file whose first line is exactly
    `header`; blank rows skip. Every row with the wrong field count is
    reported, in one error."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != list(header):
                raise ValidationError(f"{label}: header must be exactly {','.join(header)}")
            rows, problems = [], []
            for n, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    problems.append(f"{label}: line {n}: expected {len(header)} fields, got {len(row)}")
                rows.append((n, dict(zip(header, row))))
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise ValidationError(f"{label}: cannot read {path}: {err}") from None
    if problems:
        raise ValidationError(problems)
    return rows


class _Log(list):
    """The rows of a relevance log; lines[i] is the file line of row i."""

    lines: np.ndarray


def _row_name(rows, n: int) -> str:
    return f"log: line {rows.lines[n - 1]}" if isinstance(rows, _Log) else f"row {n}"


def read_relevance_log(path) -> list[dict]:
    """Parse a relevance log; the header line must match LOG_HEADER exactly.

    The list keeps the file line of each row, for ingest_relevance_log to
    name.
    """
    numbered = _read_csv(path, LOG_HEADER, "log")
    rows = _Log(record for _, record in numbered)
    # An array, not a list: a list of ints held 0.7 MB per 20000 rows.
    rows.lines = np.fromiter((n for n, _ in numbered), dtype=np.int64, count=len(numbered))
    return rows


def ingest_relevance_log(
    rows: Sequence[Mapping], discount_kind: str = "dcg", discount_params: Mapping | None = None
) -> tuple[IngestedUser, ...]:
    """One single-type instance per user, blocks grouped by block id.

    Catalog order and block order follow first appearance in the log. The
    posterior is the point mass implied by the single ingested type: the
    scores are treated as the platform's already-conditioned model. A
    problem names a row by its file line ("log: line N") when rows are the
    list read_relevance_log returned, and otherwise by its place in rows,
    from 1 ("row N").
    """
    if not rows:
        raise ValidationError("log: no rows to ingest")
    problems: list[str] = []
    users: dict[str, dict] = {}
    for n, row in enumerate(rows, start=1):
        uid = str(row["user_id"])
        group = str(row["group_label"])
        oid = str(row["object_id"])
        bid = str(row["block_id"])
        entry = users.setdefault(
            uid,
            {"group": group, "objects": [], "blocks": {}, "seen": set(), "agent": [], "advocate": []},
        )
        if entry["group"] != group:
            problems.append(
                f"{_row_name(rows, n)}: user {uid!r} appears with group {group!r} and {entry['group']!r}"
            )
        if oid in entry["seen"]:
            problems.append(f"{_row_name(rows, n)}: duplicate object {oid!r} for user {uid!r}")
            continue
        entry["seen"].add(oid)
        scores = []
        for field in ("agent_score", "advocate_score"):
            try:
                value = float(row[field])
            except (TypeError, ValueError):
                problems.append(f"{_row_name(rows, n)}: {field} must be a number, got {row[field]!r}")
                value = math.nan
            else:
                if not math.isfinite(value) or value < 0.0:
                    problems.append(f"{_row_name(rows, n)}: {field} must be finite and nonnegative")
            scores.append(value)
        entry["objects"].append(oid)
        entry["blocks"].setdefault(bid, []).append(len(entry["objects"]) - 1)
        entry["agent"].append(scores[0])
        entry["advocate"].append(scores[1])
    if problems:
        raise ValidationError(problems)
    out = []
    for uid, entry in users.items():
        m = len(entry["objects"])
        try:
            discount = make_discount(discount_kind, m, **dict(discount_params or {}))
            instance = Instance(
                catalog=Catalog(tuple(entry["objects"])),
                partition=Partition(tuple(tuple(ixs) for ixs in entry["blocks"].values())),
                type_space=TypeSpace(types=("user",), prior=(1.0,)),
                utilities=UtilityTable(agent=[entry["agent"]], advocate=[entry["advocate"]]),
                discount=discount,
            )
        except ValidationError as err:
            problems.extend(f"user {uid!r}: {v}" for v in err.violations)
            continue
        out.append(IngestedUser(uid, entry["group"], instance, prior_posterior(instance.type_space)))
    if problems:
        raise ValidationError(problems)
    return tuple(out)


def csv_table(header: Sequence[str], rows) -> str:
    """CSV text with one header line. Every cell is rendered alike: a bool
    as true/false, a float by render_float; fields that need it get quoted."""
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_cells, rows))
    return buffer.getvalue()


def _cells(row) -> list:
    return [
        _render_bool(v) if isinstance(v, (bool, np.bool_))
        else render_float(v) if isinstance(v, float)
        else v
        for v in row
    ]


def _records_csv(columns: Sequence[tuple[str, str]], records) -> str:
    """One CSV row per record: the fields of columns, under their report keys."""
    keys, names = zip(*columns)
    return csv_table(keys, map(operator.attrgetter(*names), records))


def metrics_csv(points: Sequence[AgencyMetrics]) -> str:
    return _records_csv(_METRICS_CSV_COLUMNS, points)


def frontier_csv(front: Frontier) -> str:
    return metrics_csv(front.points)


def noise_csv(points: Sequence[NoisePoint]) -> str:
    return _records_csv(_columns(NoisePoint), points)


def refine_csv(comparison: RefineComparison) -> str:
    return _records_csv(_columns(RefinePoint), comparison.points)


def ranking_csv(result: SolveResult, instance: Instance) -> str:
    """One row per ranked object: its position, id and block index."""
    ids = instance.catalog.objects
    block_of = {i: b for b, block in enumerate(instance.partition.blocks) for i in block}
    return csv_table(
        ("position", "object_id", "block_index"),
        ((pos, ids[i], block_of[i]) for pos, i in enumerate(result.allocation.object_order)),
    )


def user_metrics_csv(entries: Sequence[tuple[str, str, AgencyMetrics]]) -> str:
    row = operator.attrgetter(*(name for _, name in _METRICS_CSV_COLUMNS))
    return csv_table(
        USER_METRICS_HEADER, ((user_id, group_label, *row(m)) for user_id, group_label, m in entries)
    )


def _read_cell(text: str, kind: type):
    """The value of a bool or float cell; a ValueError says what it must be."""
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError("true or false")
        return text == "true"
    try:
        value = float(text)
    except ValueError:
        raise ValueError("a number") from None
    if not math.isfinite(value):
        raise ValueError("finite")
    return value


def read_user_metrics_csv(path) -> list[tuple[str, str, AgencyMetrics]]:
    """(user_id, group_label, metrics) per row; U_1 and V_0, which the CSV
    leaves out, read as nan. Lists every bad cell of the file at once."""
    kinds = get_type_hints(AgencyMetrics)
    out, problems = [], []
    for line, record in _read_csv(path, USER_METRICS_HEADER, "csv"):
        values = dict.fromkeys(_ENDPOINTS, math.nan)
        for key, name in _METRICS_CSV_COLUMNS:
            try:
                values[name] = _read_cell(record[key], kinds[name])
            except ValueError as err:
                problems.append(f"csv: line {line}: {key} must be {err}, got {record[key]!r}")
        if not problems:
            out.append((record["user_id"], record["group_label"], AgencyMetrics(**values)))
    if problems:
        raise ValidationError(problems)
    return out


def _payload(value, omit=()):
    """A result record as JSON: each field but omit under its report key,
    records nested in it and sequences of them rendered the same way."""
    if isinstance(value, (list, tuple)):
        return [_payload(item) for item in value]
    out = {}
    for key, name in _columns(type(value), omit):
        field = getattr(value, name)
        nested = isinstance(field, (list, tuple)) or dataclasses.is_dataclass(field)
        out[key] = _payload(field) if nested else field
    return out


# One name per record kind, the name callers and the span tracer look up.
metrics_payload = noise_payload = refine_payload = summary_payload = _payload


def user_metrics_payload(entries: Sequence[tuple[str, str, AgencyMetrics]]) -> list[dict]:
    """The JSON form of user_metrics_csv: one record per user."""
    return [
        {"user_id": user_id, "group_label": group_label, **metrics_payload(m)}
        for user_id, group_label, m in entries
    ]


def solve_payload(result: SolveResult, instance: Instance) -> dict:
    """The result's fields, with its allocation as the block order and the
    ranking by object id."""
    ids = instance.catalog.objects
    return {
        **_payload(result, ("allocation",)),
        "block_order": list(result.allocation.block_order),
        "ranking": [ids[i] for i in result.allocation.object_order],
    }


def frontier_payload(front: Frontier, critical_lambda: float | None) -> dict:
    lo, hi, count = front.grid_spec
    return {
        "grid": {"min": lo, "max": hi, "count": count},
        "points": [metrics_payload(p) for p in front.points],
        "critical_lambda": critical_lambda,
    }


def report_document(kind: str, input_digest: str, payload) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "input_digest": input_digest,
        "report": payload,
    }


def render_report(kind: str, input_digest: str, payload) -> str:
    return canonical_json(report_document(kind, input_digest, payload)) + "\n"
