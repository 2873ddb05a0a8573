"""Command-line surface for the allocation pipeline.

One binary, subcommand style. Machine-readable output goes to --out or
stdout; human-readable notes only appear on stderr behind --summary.
Exit codes: 0 success, 2 validation failure, 3 solver contract failure.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

import click

from . import __version__, io
from .core import ValidationError, allocation_value, refine_partition, singletonize
from .inference import expected_scores, posterior, prior_posterior
from .metrics import (
    agency_metrics,
    aggregate,
    critical_lambda,
    frontier,
    noise_sweep,
    refine_compare,
)
from .scenarios import KINDS, PRESETS, ScenarioSpec, generate
from .solver import (
    BRUTE_FORCE_LIMIT,
    STRATEGIES,
    SolveRequest,
    SolverContractError,
    brute_force_oracle,  # unused here, but perfbench/spans.py traces cli.brute_force_oracle
    combined_scores,
    solve,
    solve_grid,
)

_KIND_CHOICES = tuple(k.replace("_", "-") for k in KINDS)
_DISCOUNT_CHOICES = ("dcg", "cutoff", "geometric", "custom")


def _guard(fn):
    """Map library errors onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as err:
            for line in err.violations:
                click.echo(f"error: {line}", err=True)
            raise SystemExit(2) from None
        except SolverContractError as err:
            click.echo(f"error: {err}", err=True)
            raise SystemExit(3) from None

    return wrapper


def _emit(text: str, out_path) -> None:
    if out_path is None:
        click.echo(text, nl=False)
    else:
        Path(out_path).write_text(text)


def _note(enabled: bool, message: str) -> None:
    if enabled:
        click.echo(message, err=True)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid: expected MIN:MAX:COUNT, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"grid: expected numeric MIN:MAX:COUNT, got {text!r}") from None


def _parse_floats(text: str, label: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ValidationError(f"{label}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValidationError(f"{label}: empty list")
    return values


def _parse_split(text: str) -> dict[int, list[int]]:
    spec: dict[int, list[int]] = {}
    try:
        for part in text.split(";"):
            if not part.strip():
                continue
            head, sep, tail = part.partition(":")
            if not sep:
                raise ValueError
            offsets = [int(x) for x in tail.split(",") if x.strip() != ""]
            if not offsets:
                raise ValueError
            spec[int(head)] = offsets
    except ValueError:
        raise ValidationError(
            f"split: expected BLOCK:OFFSET[,OFFSET] groups separated by ';', got {text!r}"
        ) from None
    if not spec:
        raise ValidationError("split: empty spec")
    return spec


def _discount_config(kind, cutoff, beta, weights) -> tuple[str, dict] | None:
    """The --discount curve and its parameters; a flag of another curve is an error."""
    # (curve, the flag it owns, the flag's value)
    owned = (("cutoff", "--cutoff", cutoff), ("geometric", "--beta", beta), ("custom", "--weights", weights))
    problems = []
    for curve, flag, value in owned:
        if curve == kind and value is None:
            problems.append(f"discount: {kind} requires {flag}")
        elif curve != kind and value is not None:
            where = "requires --discount" if kind is None else f"does not apply to --discount {kind}"
            problems.append(f"discount: {flag} {where}")
    if problems:
        raise ValidationError(problems)
    if kind is None:
        return None
    if kind == "custom":
        return kind, {"weights": list(_parse_floats(weights, "weights"))}
    return kind, {"cutoff": {"cutoff": cutoff}, "geometric": {"beta": beta}}.get(kind, {})


def _belief(instance, signal):
    if signal is None:
        return None
    if instance.signal_model is None:
        raise ValidationError("signal: instance has no signal model")
    return posterior(instance.type_space, instance.signal_model, signal)


def _discount_options(fn):
    fn = click.option(
        "--discount",
        "discount_kind",
        type=click.Choice(_DISCOUNT_CHOICES),
        default=None,
        help="Discount curve family.",
    )(fn)
    fn = click.option("--cutoff", type=int, default=None, help="Cutoff depth for --discount cutoff.")(fn)
    fn = click.option("--beta", type=float, default=None, help="Decay rate for --discount geometric.")(fn)
    fn = click.option(
        "--weights", type=str, default=None, help="Comma-separated table for --discount custom."
    )(fn)
    return fn


def _io_options(fn):
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None, help="Output path.")(fn)
    fn = click.option("--summary", is_flag=True, help="Print a human-readable note on stderr.")(fn)
    return fn


@click.group(name="pushpull")
@click.version_option(__version__, prog_name="pushpull")
def main() -> None:
    """Partition-constrained allocation: solvers, agency metrics, frontiers."""


@main.command(name="gen")
@click.option("--kind", type=click.Choice(_KIND_CHOICES), required=True)
@click.option("--preset", "preset_name", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--seed", type=int, required=True)
@click.option("--objects", "-M", "objects", type=int, default=None)
@click.option("--blocks", "-K", "blocks", type=int, default=None)
@click.option("--types", "-T", "types", type=int, default=None)
@click.option("--signals", "-S", "signals", type=int, default=None)
@_discount_options
@_io_options
@_guard
def gen_cmd(kind, preset_name, seed, objects, blocks, types, signals, discount_kind, cutoff, beta, weights, out, summary):
    """Generate a seeded instance and write it as an explicit document."""
    spec = ScenarioSpec(
        kind=kind.replace("-", "_"),
        seed=seed,
        objects=objects,
        blocks=blocks,
        types=types,
        signals=signals,
        preset_name=preset_name,
        discount=_discount_config(discount_kind, cutoff, beta, weights),
    )
    instance = generate(spec)
    text = io.canonical_json(io.instance_to_document(instance), float_renderer=io.exact_float) + "\n"
    _emit(text, out)
    _note(
        summary,
        f"generated kind={spec.kind} seed={seed} objects={instance.size} "
        f"blocks={instance.partition.block_count} digest={io.instance_digest(instance)}",
    )


def _oracle_mismatches(instance) -> list[str]:
    # Exhaustive cross-check of the strategy auto dispatches to, at the three
    # anchor weights; any disagreement is a contract breach, not bad input.
    # One brute-force grid call builds the block-order tables once per file.
    belief = prior_posterior(instance.type_space)
    u_bar = expected_scores(instance, belief, "agent")
    v_bar = expected_scores(instance, belief, "advocate")
    lams = (0.0, 0.5, 1.0)
    mismatches = []
    for lam, got, reference in zip(
        lams, solve_grid(instance, lams), solve_grid(instance, lams, strategy="brute_force")
    ):
        scores = combined_scores(lam, u_bar, v_bar)
        value = allocation_value(reference.allocation, scores, instance.discount)
        tol = 1e-9 * max(1.0, abs(value))
        if abs(got.objective - value) > tol:
            mismatches.append(
                f"oracle mismatch at lambda={lam}: solver {got.objective!r} vs brute {value!r}"
            )
        elif got.allocation.object_order != reference.allocation.object_order:
            mismatches.append(
                f"oracle mismatch at lambda={lam}: allocation "
                f"{got.allocation.object_order} vs brute {reference.allocation.object_order}"
            )
    return mismatches


@main.command(name="validate")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--oracle/--no-oracle", default=True, help="Cross-check the solver against brute force.")
@_io_options
@_guard
def validate_cmd(inputs, oracle, out, summary):
    """Validate instance files; optionally run solver oracle-equivalence."""
    records = []
    digests = []
    invalid = 0
    for path in inputs:
        digests.append(io.file_digest(path))
        try:
            instance = io.read_instance_json(path)
        except ValidationError as err:
            for line in err.violations:
                click.echo(f"{path}: {line}", err=True)
            records.append({"path": str(path), "ok": False, "violations": list(err.violations)})
            invalid += 1
            continue
        record = {
            "path": str(path),
            "ok": True,
            "violations": [],
            "digest": io.instance_digest(instance),
            "oracle_checked": False,
        }
        if oracle and instance.partition.block_count <= BRUTE_FORCE_LIMIT:
            record["oracle_checked"] = True
            for line in _oracle_mismatches(instance):
                click.echo(f"{path}: {line}", err=True)
                record.setdefault("oracle_mismatches", []).append(line)
        records.append(record)
    payload = {"checked": len(inputs), "invalid": invalid, "files": records}
    batch = hashlib.sha256("".join(digests).encode("utf-8")).hexdigest()
    _emit(io.render_report("validate", batch, payload), out)
    _note(summary, f"checked {len(inputs)} file(s), {invalid} invalid")
    if any("oracle_mismatches" in record for record in records):
        raise SystemExit(3)
    if invalid:
        raise SystemExit(2)


@main.command(name="solve")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--lambda", "lam", type=float, required=True, help="Platform weight in [0,1].")
@click.option("--strategy", type=click.Choice(STRATEGIES), default="auto")
@click.option("--signal", type=str, default=None, help="Condition on one observed signal.")
@click.option("--format", "fmt", type=click.Choice(("json", "csv")), default="json")
@_io_options
@_guard
def solve_cmd(input, lam, strategy, signal, fmt, out, summary):
    """Solve one instance at a single lambda."""
    instance = io.read_instance_json(input)
    result = solve(SolveRequest(instance, lam, _belief(instance, signal), strategy))
    if fmt == "json":
        text = io.render_report("solve", io.instance_digest(instance), io.solve_payload(result, instance))
    else:
        ids = instance.catalog.objects
        block_of = {i: b for b, block in enumerate(instance.partition.blocks) for i in block}
        text = io.csv_table(
            ("position", "object_id", "block_index"),
            ((pos, ids[i], block_of[i]) for pos, i in enumerate(result.allocation.object_order)),
        )
    _emit(text, out)
    _note(
        summary,
        f"lambda={io.render_float(result.lam)} objective={io.render_float(result.objective)} "
        f"agent={io.render_float(result.agent_value)} advocate={io.render_float(result.advocate_value)} "
        f"strategy={result.strategy_used}",
    )


@main.command(name="metrics")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--lambda", "lam", type=float, required=True, help="Platform weight in [0,1].")
@click.option("--strategy", type=click.Choice(STRATEGIES), default="auto")
@click.option("--signal", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(("json", "csv")), default="json")
@_io_options
@_guard
def metrics_cmd(input, lam, strategy, signal, fmt, out, summary):
    """Pull/push metrics for one instance at a single lambda."""
    instance = io.read_instance_json(input)
    m = agency_metrics(instance, lam, _belief(instance, signal), strategy)
    if fmt == "json":
        text = io.render_report("metrics", io.instance_digest(instance), io.metrics_payload(m))
    else:
        text = io.metrics_csv([m])
    _emit(text, out)
    _note(summary, f"pull={io.render_float(m.pull)} push={io.render_float(m.push)}")


@main.command(name="frontier")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", type=str, default="0:1:101", help="Lambda grid as MIN:MAX:COUNT.")
@click.option("--strategy", type=click.Choice(STRATEGIES), default="auto")
@click.option("--signal", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default="csv")
@_io_options
@_guard
def frontier_cmd(input, grid, strategy, signal, fmt, out, summary):
    """Trace pull/push across a lambda grid."""
    instance = io.read_instance_json(input)
    front = frontier(instance, _parse_grid(grid), _belief(instance, signal), strategy)
    if fmt == "csv":
        text = io.frontier_csv(front)
    else:
        payload = io.frontier_payload(front)
        payload["critical_lambda"] = critical_lambda(front) if len(front.points) >= 3 else None
        text = io.render_report("frontier", io.instance_digest(instance), payload)
    _emit(text, out)
    pulls = [p.pull for p in front.points]
    _note(
        summary,
        f"{len(front.points)} points, pull in [{io.render_float(min(pulls))}, "
        f"{io.render_float(max(pulls))}]",
    )


@main.command(name="refine-compare")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--split", "split_spec", type=str, default=None, help="BLOCK:OFFSET[,OFFSET];... (default: singletonize).")
@click.option("--grid", type=str, default="0:1:101", help="Lambda grid as MIN:MAX:COUNT.")
@click.option("--strategy", type=click.Choice(STRATEGIES), default="auto")
@click.option("--format", "fmt", type=click.Choice(("json", "csv")), default="json")
@_io_options
@_guard
def refine_compare_cmd(input, split_spec, grid, strategy, fmt, out, summary):
    """Solve under the stored partition and a refinement; report deltas."""
    instance = io.read_instance_json(input)
    if split_spec is None:
        refined = singletonize(instance.partition)
    else:
        refined = refine_partition(instance.partition, _parse_split(split_spec))
    comparison = refine_compare(instance, refined, _parse_grid(grid), strategy=strategy)
    if fmt == "json":
        text = io.render_report(
            "refine-compare", io.instance_digest(instance), io.refine_payload(comparison)
        )
    else:
        text = io.csv_table(
            ("lambda", "base_objective", "refined_objective", "delta"),
            (
                [io.render_float(x) for x in (p.lam, p.base_objective, p.refined_objective, p.delta)]
                for p in comparison.points
            ),
        )
    _emit(text, out)
    deltas = [p.delta for p in comparison.points]
    strict = sum(1 for d in deltas if d > 0.0)
    _note(
        summary,
        f"max delta={io.render_float(max(deltas))}, strict improvement at {strict} of "
        f"{len(deltas)} grid points",
    )


@main.command(name="noise-sweep")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilons", type=str, default="0,0.25,0.5,0.75,1", help="Comma-separated garbling levels.")
@click.option("--strategy", type=click.Choice(STRATEGIES), default="auto")
@click.option("--format", "fmt", type=click.Choice(("json", "csv")), default="json")
@_io_options
@_guard
def noise_sweep_cmd(input, epsilons, strategy, fmt, out, summary):
    """Signal-averaged endpoint values under progressively garbled channels."""
    instance = io.read_instance_json(input)
    points = noise_sweep(instance, _parse_floats(epsilons, "epsilons"), strategy)
    if fmt == "json":
        text = io.render_report("noise-sweep", io.instance_digest(instance), io.noise_payload(points))
    else:
        text = io.csv_table(
            ("epsilon", "avg_U1", "avg_V0"),
            ([io.render_float(x) for x in (p.epsilon, p.avg_u1, p.avg_v0)] for p in points),
        )
    _emit(text, out)
    _note(
        summary,
        "; ".join(
            f"eps={io.render_float(p.epsilon)}: U1={io.render_float(p.avg_u1)}" for p in points
        ),
    )


@main.command(name="ingest")
@click.argument("log", type=click.Path(exists=True, dir_okay=False))
@click.option("--lambda", "lam", type=float, default=0.5, help="Platform weight in [0,1].")
@click.option("--strategy", type=click.Choice(STRATEGIES), default="auto")
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default="csv")
@_discount_options
@_io_options
@_guard
def ingest_cmd(log, lam, strategy, fmt, discount_kind, cutoff, beta, weights, out, summary):
    """Turn a relevance log into per-user instances and metrics."""
    config = _discount_config(discount_kind, cutoff, beta, weights) or ("dcg", {})
    rows = io.read_relevance_log(log)
    users = io.ingest_relevance_log(rows, discount_kind=config[0], discount_params=config[1])
    entries = []
    for user in users:
        m = agency_metrics(user.instance, lam, user.posterior, strategy)
        entries.append((user.user_id, user.group_label, m))
    if fmt == "csv":
        text = io.user_metrics_csv(entries)
    else:
        payload = [
            {"user_id": uid, "group_label": label, **io.metrics_payload(m)}
            for uid, label, m in entries
        ]
        text = io.render_report("ingest", io.file_digest(log), payload)
    _emit(text, out)
    groups = sorted({label for _, label, _ in entries})
    _note(summary, f"{len(entries)} user(s) across {len(groups)} group(s): {', '.join(groups)}")


@main.command(name="aggregate")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@_io_options
@_guard
def aggregate_cmd(input, out, summary):
    """Aggregate a per-user metrics CSV into a population summary."""
    entries = io.read_user_metrics_csv(input)
    summary_data = aggregate([(label, m) for _, label, m in entries])
    text = io.render_report("aggregate", io.file_digest(input), io.summary_payload(summary_data))
    _emit(text, out)
    _note(
        summary,
        f"count={summary_data.count} pull mean={io.render_float(summary_data.pull.mean)} "
        f"push mean={io.render_float(summary_data.push.mean)}",
    )


if __name__ == "__main__":
    main()
