"""Seeded instance generators for the canonical alignment regimes.

All randomness flows through numpy's PCG64 generator seeded from the
ScenarioSpec, with a fixed draw order (discount, partition, prior,
utilities, channel), so one ScenarioSpec maps to exactly one instance on
every platform. Priors are built
by repeated halving, which keeps every weight a power of two and the total
exactly 1 in floating point; exact-expectation tests rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    Catalog,
    DiscountCurve,
    Instance,
    Partition,
    TypeSpace,
    UtilityTable,
    ValidationError,
    make_discount,
    read_int,
)
from .inference import SignalChannel

__all__ = [
    "KINDS",
    "PRESETS",
    "ScenarioSpec",
    "generate",
]

KINDS = ("aligned", "anti_aligned", "orthogonal", "random", "preset")

# Illustrative platform presets: dimensions and a discount default only,
# never utility semantics.
PRESETS: Mapping[str, dict] = {
    "search": {"objects": 50, "blocks": 50, "types": 4, "signals": 4, "discount": ("dcg", {})},
    "content": {"objects": 40, "blocks": 12, "types": 4, "signals": 4, "discount": ("cutoff", {"cutoff": 10})},
    "social": {"objects": 60, "blocks": 18, "types": 6, "signals": 6, "discount": ("geometric", {"beta": 0.9})},
    "matching": {"objects": 30, "blocks": 30, "types": 3, "signals": 3, "discount": ("cutoff", {"cutoff": 5})},
    "marketplace": {"objects": 40, "blocks": 16, "types": 5, "signals": 5, "discount": ("dcg", {})},
}

_DEFAULT_DIMS = {"objects": 12, "blocks": 4, "types": 2, "signals": 2}

# Upper bounds on generated dimensions. Score tables are types x objects and
# the signal channel types x signals, so the products are bounded too.
MAX_OBJECTS = 100_000
MAX_TYPES = 1_000
MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one generated instance.

    Dimension fields left as None fall back to the preset (when named) and
    then to library defaults. `discount` overrides the discount family as a
    (kind, params) pair; without it, named regimes use dcg and random
    instances draw a seeded family.
    """

    kind: str
    seed: int
    objects: int | None = None
    blocks: int | None = None
    types: int | None = None
    signals: int | None = None
    preset_name: str | None = None
    discount: tuple[str, Mapping] | None = None

    def __post_init__(self):
        problems = []
        if self.kind not in KINDS:
            problems.append(f"scenario: unknown kind {self.kind!r}")
        if self.preset_name not in (None, *PRESETS):
            problems.append(f"scenario: unknown preset {self.preset_name!r}")
        if self.kind == "preset" and self.preset_name is None:
            problems.append("scenario: kind 'preset' requires preset_name")
        for name in ("seed", *_DEFAULT_DIMS):
            value = getattr(self, name)
            if value is None and name != "seed":
                continue
            try:
                object.__setattr__(self, name, read_int(value, f"scenario: {name}"))
            except ValidationError as err:
                problems.extend(err.violations)
        if problems:
            raise ValidationError(problems)
        # Sizes are checked here, before generate allocates anything; the
        # prior draw is quadratic in the type count.
        m, k, t, s = self.dims()
        checks = {
            "scenario: seed must fit in 64 unsigned bits": not 0 <= self.seed < 2**64,
            f"scenario: dimensions ({m}, {k}, {t}, {s}) must be positive": min(m, k, t, s) < 1,
            f"scenario: blocks ({k}) cannot exceed objects ({m})": k > m,
            f"scenario: objects ({m}) exceed the limit {MAX_OBJECTS}": m > MAX_OBJECTS,
            f"scenario: types ({t}) exceed the limit {MAX_TYPES}": t > MAX_TYPES,
            f"scenario: objects x types ({m * t}) exceed the limit {MAX_CELLS}": m * t > MAX_CELLS,
            f"scenario: types x signals ({t * s}) exceed the limit {MAX_CELLS}": t * s > MAX_CELLS,
        }
        problems = [message for message, failed in checks.items() if failed]
        if problems:
            raise ValidationError(problems)

    def dims(self) -> tuple[int, int, int, int]:
        defaults = {**_DEFAULT_DIMS, **PRESETS.get(self.preset_name, {})}
        return tuple(defaults[n] if getattr(self, n) is None else getattr(self, n) for n in _DEFAULT_DIMS)


def _resolve_discount(spec: ScenarioSpec, m: int, rng: np.random.Generator) -> DiscountCurve:
    if spec.discount is not None:
        kind, params = spec.discount
        return make_discount(kind, m, **params)
    preset = PRESETS.get(spec.preset_name)
    if preset is not None:
        kind, params = preset["discount"]
        return make_discount(kind, m, **params)
    if spec.kind in ("random", "preset"):
        pick = int(rng.integers(3))
        if pick == 0:
            return make_discount("dcg", m)
        if pick == 1:
            return make_discount("cutoff", m, cutoff=1 + int(rng.integers(m)))
        return make_discount("geometric", m, beta=float(rng.choice([0.3, 0.5, 0.9])))
    return make_discount("dcg", m)


def _chunked_partition(perm: np.ndarray, k: int) -> Partition:
    m = perm.size
    base, extra = divmod(m, k)
    blocks = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        blocks.append(tuple(int(x) for x in perm[start : start + size]))
        start += size
    return Partition(tuple(blocks))


def _dyadic_prior(rng: np.random.Generator, t: int) -> np.ndarray:
    # Repeated halving keeps each weight a power of two; any summation
    # order then recovers exactly 1.0.
    weights = [1.0]
    while len(weights) < t:
        i = int(rng.integers(len(weights)))
        half = weights.pop(i) / 2.0
        weights.append(half)
        weights.append(half)
    return np.array(weights)[rng.permutation(t)]


def _utilities(spec: ScenarioSpec, rng: np.random.Generator, t: int, m: int) -> UtilityTable:
    if spec.kind == "aligned":
        table = rng.random((t, m))
        return UtilityTable(agent=table, advocate=table)
    if spec.kind == "anti_aligned":
        agent = rng.random((t, m))
        ceiling = float(agent.max())
        return UtilityTable(agent=agent, advocate=ceiling - agent)
    if spec.kind == "orthogonal":
        level = 0.25 + 0.75 * rng.random(t)
        agent = np.repeat(level[:, None], m, axis=1)
        return UtilityTable(agent=agent, advocate=rng.random((t, m)))
    return UtilityTable(agent=rng.random((t, m)), advocate=rng.random((t, m)))


def generate(spec: ScenarioSpec) -> Instance:
    """Materialize a ScenarioSpec into a validated instance, deterministically."""
    m, k, t, s = spec.dims()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    discount = _resolve_discount(spec, m, rng)
    partition = _chunked_partition(rng.permutation(m), k)
    prior = _dyadic_prior(rng, t)
    utilities = _utilities(spec, rng, t, m)
    raw = 0.05 + rng.random((t, s))
    likelihood = raw / raw.sum(axis=1, keepdims=True)
    width = len(str(m - 1))
    catalog = Catalog(tuple(f"x{i:0{width}d}" for i in range(m)))
    type_width = len(str(t - 1))
    types = TypeSpace(
        types=tuple(f"t{i:0{type_width}d}" for i in range(t)),
        prior=prior,
    )
    signal_width = len(str(s - 1))
    channel = SignalChannel(
        signals=tuple(f"s{i:0{signal_width}d}" for i in range(s)),
        likelihood=likelihood,
    )
    return Instance(
        catalog=catalog,
        partition=partition,
        type_space=types,
        utilities=utilities,
        discount=discount,
        signal_model=channel,
    )

