"""Stable file formats: instance JSON, relevance logs, and reports.

Two float renderings, both shortest-round-trip: instance documents keep
full precision (so digests and regenerated files are bit-stable), while
report CSV/JSON caps at 12 significant digits for golden-file readability.
Canonical JSON sorts keys and uses a fixed layout, so identical inputs
always produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import math
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

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
)
from .inference import PosteriorModel, SignalChannel, prior_posterior
from .metrics import (
    AgencyMetrics,
    Frontier,
    NoisePoint,
    PopulationSummary,
    RefineComparison,
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
    "write_instance_json",
    "instance_digest",
    "file_digest",
    "read_relevance_log",
    "ingest_relevance_log",
    "csv_table",
    "metrics_csv",
    "frontier_csv",
    "user_metrics_csv",
    "read_user_metrics_csv",
    "metrics_payload",
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

FRONTIER_HEADER = (
    "lambda",
    "U_lambda",
    "V_lambda",
    "P_lambda",
    "pull",
    "push",
    "degenerate_pull",
    "degenerate_push",
)

USER_METRICS_HEADER = ("user_id", "group_label") + FRONTIER_HEADER

_EXPLICIT_FIELDS = (
    "catalog",
    "partition",
    "types",
    "prior",
    "agent_u",
    "advocate_v",
    "discount",
    "signal_model",
)


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


def _stanza_to_spec(stanza) -> scenarios.ScenarioSpec:
    if not isinstance(stanza, Mapping):
        raise ValidationError("generate: stanza must be an object")
    problems = []
    allowed = {"kind", "seed", "objects", "blocks", "types", "signals", "preset_name", "discount"}
    unknown = sorted(set(stanza) - allowed)
    if unknown:
        problems.append(f"generate: unknown fields {', '.join(unknown)}")
    for key in ("kind", "seed"):
        if key not in stanza:
            problems.append(f"generate: missing required field {key!r}")
    if problems:
        raise ValidationError(problems)
    discount = stanza.get("discount")
    if discount is not None:
        if not isinstance(discount, Mapping) or "kind" not in discount:
            raise ValidationError("generate: discount must be an object with a kind")
        params = discount.get("params", {})
        if not isinstance(params, Mapping):
            raise ValidationError("generate: discount params must be an object")
        discount = (str(discount["kind"]), dict(params))
    return scenarios.ScenarioSpec(
        kind=str(stanza["kind"]),
        seed=stanza["seed"],
        objects=stanza.get("objects"),
        blocks=stanza.get("blocks"),
        types=stanza.get("types"),
        signals=stanza.get("signals"),
        preset_name=stanza.get("preset_name"),
        discount=discount,
    )


def load_instance(document) -> Instance:
    """Build a validated instance from a parsed document.

    Collects every violation it can find before raising, instead of failing
    on the first.
    """
    if not isinstance(document, Mapping):
        raise ValidationError("document: must be a JSON object")
    problems: list[str] = []
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    explicit = [k for k in _EXPLICIT_FIELDS if k in document]
    if "generate" in document:
        if explicit:
            problems.append(
                "document: give either explicit instance fields or a generate stanza, not both"
            )
            raise ValidationError(problems)
        try:
            spec = _stanza_to_spec(document["generate"])
        except ValidationError as err:
            raise ValidationError([*problems, *err.violations]) from None
        if problems:
            raise ValidationError(problems)
        return scenarios.generate(spec)

    for key in ("catalog", "partition", "types", "prior", "agent_u", "advocate_v", "discount"):
        if key not in document:
            problems.append(f"{key}: missing required field")

    catalog = None
    if "catalog" in document:
        try:
            catalog = Catalog(tuple(str(x) for x in document["catalog"]))
        except ValidationError as err:
            problems.extend(err.violations)
        except TypeError:
            problems.append("catalog: must be a list of object ids")

    partition = None
    if catalog is not None and "partition" in document:
        try:
            index = catalog.index_map()
            raw_blocks = document["partition"]
            unknown = [str(o) for block in raw_blocks for o in block if str(o) not in index]
            if unknown:
                problems.append(f"partition: unknown object ids {', '.join(sorted(set(unknown)))}")
            else:
                partition = Partition(
                    tuple(tuple(index[str(o)] for o in block) for block in raw_blocks)
                )
        except ValidationError as err:
            problems.extend(err.violations)
        except TypeError:
            problems.append("partition: must be a list of lists of object ids")

    # The type list parses on its own so utility tables can still be
    # checked against it when the prior is the broken part.
    type_names = None
    if "types" in document:
        try:
            type_names = tuple(str(t) for t in document["types"])
        except TypeError:
            problems.append("types: must be a list of type ids")

    type_space = None
    if type_names is not None and "prior" in document:
        try:
            type_space = TypeSpace(
                types=type_names,
                prior=[float(p) for p in document["prior"]],
            )
        except ValidationError as err:
            problems.extend(err.violations)
        except (TypeError, ValueError):
            problems.append("prior: entries must be numeric")

    utilities = None
    if type_names is not None and "agent_u" in document and "advocate_v" in document:
        try:
            rows_u, rows_v, table_problems = [], [], []
            for field, sink in (("agent_u", rows_u), ("advocate_v", rows_v)):
                table = document[field]
                if not isinstance(table, Mapping):
                    table_problems.append(f"{field}: must map type ids to score rows")
                    continue
                missing = [t for t in type_names if t not in table]
                extra = sorted(set(table) - set(type_names))
                if missing:
                    table_problems.append(f"{field}: missing rows for {', '.join(missing)}")
                if extra:
                    table_problems.append(f"{field}: rows for unknown types {', '.join(extra)}")
                if not missing and not extra:
                    for t in type_names:
                        sink.append([float(x) for x in table[t]])
            if table_problems:
                problems.extend(table_problems)
            else:
                utilities = UtilityTable(agent=rows_u, advocate=rows_v)
        except ValidationError as err:
            problems.extend(err.violations)
        except (TypeError, ValueError):
            problems.append("utilities: score rows must be numeric lists")

    discount = None
    if catalog is not None and "discount" in document:
        try:
            spec = document["discount"]
            if not isinstance(spec, Mapping) or "kind" not in spec:
                problems.append("discount: must be an object with a kind")
            else:
                params = dict(spec.get("params", {}))
                discount = make_discount(str(spec["kind"]), len(catalog), **params)
        except ValidationError as err:
            problems.extend(err.violations)
        except (TypeError, ValueError):
            problems.append("discount: malformed params")

    channel = None
    raw_channel = document.get("signal_model")
    if raw_channel is not None:
        try:
            channel = SignalChannel(
                signals=tuple(str(s) for s in raw_channel["signals"]),
                likelihood=[[float(x) for x in row] for row in raw_channel["likelihood"]],
            )
        except ValidationError as err:
            problems.extend(err.violations)
        except (TypeError, ValueError, KeyError):
            problems.append("signal_model: must provide signals and a likelihood matrix")

    if problems:
        raise ValidationError(problems)
    try:
        return Instance(
            catalog=catalog,
            partition=partition,
            type_space=type_space,
            utilities=utilities,
            discount=discount,
            signal_model=channel,
        )
    except ValidationError as err:
        raise ValidationError(list(err.violations)) from None


def read_instance_json(path) -> Instance:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValidationError(f"instance: cannot read {path}: {err}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"instance: invalid JSON in {path}: {err}") from None
    return load_instance(document)


def write_instance_json(instance: Instance, path) -> str:
    text = canonical_json(instance_to_document(instance), float_renderer=exact_float) + "\n"
    Path(path).write_text(text)
    return text


def instance_digest(instance: Instance) -> str:
    text = canonical_json(instance_to_document(instance), float_renderer=exact_float)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_relevance_log(path) -> list[dict]:
    """Parse a relevance log; the header line must match LOG_HEADER exactly."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != list(LOG_HEADER):
                raise ValidationError(f"log: header must be exactly {','.join(LOG_HEADER)}")
            rows = []
            for n, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(LOG_HEADER):
                    raise ValidationError(f"log: line {n}: expected {len(LOG_HEADER)} fields")
                rows.append(dict(zip(LOG_HEADER, row)))
    except OSError as err:
        raise ValidationError(f"log: cannot read {path}: {err}") from None
    return rows


def ingest_relevance_log(
    rows: Sequence[Mapping], discount_kind: str = "dcg", discount_params: Mapping | None = None
) -> tuple[IngestedUser, ...]:
    """One single-type instance per user, blocks grouped by block id.

    Catalog order and block order follow first appearance in the log. The
    posterior is the point mass implied by the single ingested type: the
    scores are treated as the platform's already-conditioned model.
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
                f"row {n}: user {uid!r} appears with group {group!r} and {entry['group']!r}"
            )
        if oid in entry["seen"]:
            problems.append(f"row {n}: duplicate object {oid!r} for user {uid!r}")
            continue
        entry["seen"].add(oid)
        scores = []
        for field in ("agent_score", "advocate_score"):
            try:
                value = float(row[field])
            except (TypeError, ValueError):
                problems.append(f"row {n}: {field} must be a number, got {row[field]!r}")
                value = math.nan
            if not math.isfinite(value) or value < 0.0:
                problems.append(f"row {n}: {field} must be finite and nonnegative")
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


def _metrics_row(m: AgencyMetrics) -> tuple[str, ...]:
    return (
        render_float(m.lam),
        render_float(m.u_lambda),
        render_float(m.v_lambda),
        render_float(m.p_lambda),
        render_float(m.pull),
        render_float(m.push),
        _render_bool(m.degenerate_pull),
        _render_bool(m.degenerate_push),
    )


def csv_table(header: Sequence[str], rows) -> str:
    """CSV text with one header line; fields that need quoting get quoted."""
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def metrics_csv(points: Sequence[AgencyMetrics]) -> str:
    return csv_table(FRONTIER_HEADER, map(_metrics_row, points))


def frontier_csv(front: Frontier) -> str:
    return metrics_csv(front.points)


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValidationError(f"csv: expected true/false, got {text!r}")


def user_metrics_csv(entries: Sequence[tuple[str, str, AgencyMetrics]]) -> str:
    return csv_table(
        USER_METRICS_HEADER,
        ((user_id, group_label) + _metrics_row(m) for user_id, group_label, m in entries),
    )


def read_user_metrics_csv(path) -> list[tuple[str, str, AgencyMetrics]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(USER_METRICS_HEADER):
            raise ValidationError(f"csv: header must be exactly {','.join(USER_METRICS_HEADER)}")
        out = []
        for n, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(USER_METRICS_HEADER):
                raise ValidationError(
                    f"csv: line {n}: expected {len(USER_METRICS_HEADER)} fields, got {len(row)}"
                )
            record = dict(zip(USER_METRICS_HEADER, row))
            try:
                metrics = AgencyMetrics(
                    lam=float(record["lambda"]),
                    u_lambda=float(record["U_lambda"]),
                    v_lambda=float(record["V_lambda"]),
                    p_lambda=float(record["P_lambda"]),
                    u_1=math.nan,
                    v_0=math.nan,
                    pull=float(record["pull"]),
                    push=float(record["push"]),
                    degenerate_pull=_parse_bool(record["degenerate_pull"]),
                    degenerate_push=_parse_bool(record["degenerate_push"]),
                )
            except (TypeError, ValueError) as err:
                raise ValidationError(f"csv: malformed metrics row {row!r}: {err}") from None
            out.append((record["user_id"], record["group_label"], metrics))
    return out


def metrics_payload(m: AgencyMetrics) -> dict:
    return {
        "lambda": m.lam,
        "U_lambda": m.u_lambda,
        "V_lambda": m.v_lambda,
        "P_lambda": m.p_lambda,
        "U_1": m.u_1,
        "V_0": m.v_0,
        "pull": m.pull,
        "push": m.push,
        "degenerate_pull": m.degenerate_pull,
        "degenerate_push": m.degenerate_push,
    }


def solve_payload(result: SolveResult, instance: Instance) -> dict:
    ids = instance.catalog.objects
    return {
        "lambda": result.lam,
        "strategy": result.strategy_used,
        "objective": result.objective,
        "agent_value": result.agent_value,
        "advocate_value": result.advocate_value,
        "tie_broken": result.tie_broken,
        "block_order": list(result.allocation.block_order),
        "ranking": [ids[i] for i in result.allocation.object_order],
    }


def frontier_payload(front: Frontier) -> dict:
    lo, hi, count = front.grid_spec
    return {
        "grid": {"min": lo, "max": hi, "count": count},
        "points": [metrics_payload(p) for p in front.points],
    }


def noise_payload(points: Sequence[NoisePoint]) -> list[dict]:
    return [
        {"epsilon": p.epsilon, "avg_U1": p.avg_u1, "avg_V0": p.avg_v0} for p in points
    ]


def refine_payload(comparison: RefineComparison) -> dict:
    return {
        "base_U1": comparison.base_u1,
        "base_V0": comparison.base_v0,
        "refined_U1": comparison.refined_u1,
        "refined_V0": comparison.refined_v0,
        "points": [
            {
                "lambda": p.lam,
                "base_objective": p.base_objective,
                "refined_objective": p.refined_objective,
                "delta": p.delta,
            }
            for p in comparison.points
        ],
    }


def _stats_payload(stats) -> dict:
    return {"mean": stats.mean, "variance": stats.variance, "min": stats.min, "max": stats.max}


def summary_payload(summary: PopulationSummary) -> dict:
    return {
        "count": summary.count,
        "pull": _stats_payload(summary.pull),
        "push": _stats_payload(summary.push),
        "groups": [
            {
                "label": g.label,
                "count": g.count,
                "pull": _stats_payload(g.pull),
                "push": _stats_payload(g.push),
            }
            for g in summary.groups
        ],
        "gaps": [
            {
                "group_a": g.group_a,
                "group_b": g.group_b,
                "pull_gap": g.pull_gap,
                "push_gap": g.push_gap,
            }
            for g in summary.gaps
        ],
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
