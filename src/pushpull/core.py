"""Domain types for partition-constrained attention allocation.

The object universe is an ordered catalog. A partition groups catalog
entries into ordered blocks; a feasible allocation permutes whole blocks
while keeping each block's internal order, so consecutive members of a
block occupy consecutive display positions. A discount curve assigns each
position a weight, starting at 1 at the top slot and weakly decreasing.
The value of an allocation is the position-weighted sum of per-object
scores.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .inference import SignalChannel

__all__ = [
    "PROB_TOL",
    "ValidationError",
    "Catalog",
    "Partition",
    "DiscountCurve",
    "TypeSpace",
    "UtilityTable",
    "Allocation",
    "Instance",
    "make_discount",
    "build_allocation",
    "allocation_value",
    "enumerate_allocations",
    "refine_partition",
    "singletonize",
    "is_refinement",
]

# Tolerance for checking that probability vectors sum to one.
PROB_TOL = 1e-9

# Each stock discount family and the parameters it takes.
DISCOUNT_KINDS = {"dcg": (), "cutoff": ("cutoff",), "geometric": ("beta",), "custom": ("weights",)}


class ValidationError(ValueError):
    """An input violates one or more structural invariants.

    The message joins every violation; `violations` keeps them separate so
    callers can report all problems at once instead of the first one hit.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = tuple(str(v) for v in violations)
        super().__init__("; ".join(self.violations))


class _Value:
    """Equality by value for the model's dataclasses, which hold arrays.

    Two values are equal when they have the same class and every dataclass
    field matches: ndarray fields by np.array_equal, the rest by ==. Array
    fields make the values unhashable. Subclasses declare eq=False so the
    dataclass keeps this rule instead of writing its own.
    """

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    __hash__ = None


def _id_problems(ids: tuple[str, ...], field: str, noun: str) -> list[str]:
    """The violations of an identifier list: empty, or with a repeat."""
    problems = []
    if not ids:
        problems.append(f"{field}: must contain at least one {noun}")
    if len(set(ids)) != len(ids):
        problems.append(f"{field}: {noun} identifiers must be unique")
    return problems


def _freeze(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


# Readers for outside input. Each returns the value in the type the domain
# classes expect or raises ValidationError naming the field; none of them
# casts, so "12" is never the list [1, 2] and 1.9 is never the integer 1.


def read_list(value, field: str) -> list:
    """A JSON array (or a tuple or vector from library callers) as a list."""
    if type(value) is list:
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return list(value)
    raise ValidationError(f"{field} must be a list, got {value!r:.60}")


def read_ids(value, field: str) -> tuple[str, ...]:
    """A list of string identifiers."""
    items = read_list(value, field)
    for x in items:
        if not isinstance(x, str):
            raise ValidationError(f"{field} entry must be a string, got {x!r:.60}")
    return tuple(items)


def _is_number(x) -> bool:
    # Booleans are ints to Python but never numbers here.
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def read_number(value, field: str) -> float:
    """One int or float, as a float; non-finite values pass to the domain check."""
    try:
        if _is_number(value):
            return float(value)
    except OverflowError:
        pass
    raise ValidationError(f"{field} must be a number, got {value!r:.60}")


def read_numbers(value, field: str) -> list[float]:
    """A list of numbers, as floats."""
    items = read_list(value, field)
    # Written documents hold floats only, so one exact type test per entry
    # settles the common case; this scan runs over every score on load.
    for x in items:
        if type(x) is not float:
            return [read_number(x, f"{field} entry") for x in items]
    return items


def read_int(value, field: str) -> int:
    """An integral int or float, as an int; booleans and 1.9 are rejected."""
    if type(value) is int:
        return value
    if _is_number(value) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"{field} must be an integer, got {value!r:.60}")


def read_object(value, field: str, required=(), optional=()) -> Mapping:
    """A JSON object with every required field set and no unknown field."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"{field} must be an object, got {value!r:.60}")
    problems = []
    allowed = {*required, *optional}
    unknown = [str(key) for key in value if key not in allowed]
    if unknown:
        problems.append(f"{field}: unknown fields {', '.join(sorted(unknown))}")
    for key in required:
        if value.get(key) is None:
            problems.append(f"{field}: missing required field {key!r}")
    if problems:
        raise ValidationError(problems)
    return value


def read_discount_spec(value, field: str) -> tuple[str, dict]:
    """A discount object {"kind": ..., "params": {...}} as (kind, params)."""
    spec = read_object(value, field, required=("kind",), optional=("params",))
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise ValidationError(f"{field}: params must be an object, got {params!r:.60}")
    return spec["kind"], dict(params)


@dataclass(frozen=True)
class Catalog:
    """Ordered universe of object identifiers."""

    objects: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(str(o) for o in self.objects))
        problems = _id_problems(self.objects, "catalog", "object")
        if problems:
            raise ValidationError(problems)

    def __len__(self) -> int:
        return len(self.objects)

    def index_map(self) -> dict[str, int]:
        return {obj: i for i, obj in enumerate(self.objects)}


@dataclass(frozen=True)
class Partition:
    """Ordered blocks of catalog indices; the order inside a block is fixed.

    Blocks jointly cover every catalog index exactly once. Block identity is
    positional: block i is `blocks[i]`, and solver tie-breaks refer to these
    indices.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        problems = []
        if not blocks:
            problems.append("partition: need at least one block")
        if any(len(b) == 0 for b in blocks):
            problems.append("partition: blocks must be nonempty")
        flat = [i for b in blocks for i in b]
        if sorted(flat) != list(range(len(flat))):
            problems.append("partition: blocks must cover each catalog index exactly once")
        if problems:
            raise ValidationError(problems)

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_lengths(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


@dataclass(frozen=True, eq=False)
class DiscountCurve(_Value):
    """Position weights delta_0..delta_{M-1}.

    Invariants: delta_0 equals 1, weights are weakly decreasing and lie in
    [0, 1]. `kind` records which family produced the curve and `params` the
    family parameters, so curves serialize losslessly.
    """

    weights: np.ndarray
    kind: str = "custom"
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        w = _freeze(self.weights)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "params", dict(self.params))
        problems = []
        if self.kind not in DISCOUNT_KINDS:
            problems.append(f"discount: unknown kind {self.kind!r}")
        if w.ndim != 1 or w.size < 1:
            problems.append("discount: weights must be a nonempty vector")
        elif not np.isfinite(w).all():
            problems.append("discount: weights must be finite")
        else:
            if w[0] != 1.0:
                problems.append("discount: leading weight must equal 1")
            if np.any(np.diff(w) > 0):
                problems.append("discount: weights must be weakly decreasing")
            if w.min() < 0.0 or w.max() > 1.0:
                problems.append("discount: weights must lie in [0, 1]")
        if problems:
            raise ValidationError(problems)

    def __len__(self) -> int:
        return int(self.weights.size)


def make_discount(kind: str, horizon: int, /, **params) -> DiscountCurve:
    """Build one of the stock discount families at a given horizon.

    dcg        1 / log2(n + 2) at 0-based position n
    cutoff     1 for the first `cutoff` positions, 0 afterwards
    geometric  beta ** n for beta strictly inside (0, 1)
    custom     an explicit `weights` table of length `horizon`
    """
    horizon = read_int(horizon, "discount: horizon")
    if horizon < 1:
        raise ValidationError("discount: horizon must be at least 1")
    if not isinstance(kind, str) or kind not in DISCOUNT_KINDS:
        raise ValidationError(f"discount: unknown kind {kind!r}")
    unknown = sorted(set(params) - set(DISCOUNT_KINDS[kind]))
    if unknown:
        raise ValidationError(f"discount: unknown params {', '.join(unknown)} for kind {kind!r}")
    if kind == "dcg":
        weights = 1.0 / np.log2(np.arange(horizon) + 2.0)
        params = {}
    elif kind == "cutoff":
        cut = read_int(params.get("cutoff"), "discount: cutoff")
        if cut < 1:
            raise ValidationError("discount: cutoff must be an integer >= 1")
        weights = (np.arange(horizon) < cut).astype(float)
        params = {"cutoff": cut}
    elif kind == "geometric":
        beta = read_number(params.get("beta"), "discount: beta")
        if not (0.0 < beta < 1.0):
            raise ValidationError("discount: beta must lie strictly inside (0, 1)")
        weights = beta ** np.arange(horizon)
        params = {"beta": beta}
    else:
        weights = tuple(read_numbers(params.get("weights"), "discount: weights"))
        if len(weights) != horizon:
            raise ValidationError("discount: custom weights must match the horizon")
        params = {"weights": weights}
    return DiscountCurve(weights=weights, kind=kind, params=params)


@dataclass(frozen=True, eq=False)
class TypeSpace(_Value):
    """Finite latent type space with a prior distribution."""

    types: tuple[str, ...]
    prior: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(str(t) for t in self.types))
        p = _freeze(self.prior)
        object.__setattr__(self, "prior", p)
        problems = _id_problems(self.types, "types", "type")
        if p.ndim != 1 or p.size != len(self.types) or p.size == 0:
            problems.append("prior: must assign one weight per type")
        else:
            if not np.isfinite(p).all() or p.min() < 0.0:
                problems.append("prior: entries must be finite and nonnegative")
            elif abs(float(p.sum()) - 1.0) > PROB_TOL:
                problems.append(f"prior: entries must sum to 1 within {PROB_TOL} (got {float(p.sum())!r})")
        if problems:
            raise ValidationError(problems)

    def __len__(self) -> int:
        return len(self.types)


@dataclass(frozen=True, eq=False)
class UtilityTable(_Value):
    """Per-type, per-object scores for the agent and the advocate.

    Rows index types, columns index catalog objects. All entries are
    nonnegative and finite; the two matrices share one shape.
    """

    agent: np.ndarray
    advocate: np.ndarray

    def __post_init__(self):
        u = _freeze(self.agent)
        v = _freeze(self.advocate)
        object.__setattr__(self, "agent", u)
        object.__setattr__(self, "advocate", v)
        problems = []
        for name, m in (("agent_u", u), ("advocate_v", v)):
            if m.ndim != 2 or m.size == 0:
                problems.append(f"{name}: must be a nonempty type-by-object matrix")
            elif not np.isfinite(m).all() or m.min() < 0.0:
                problems.append(f"{name}: entries must be finite and nonnegative")
        if u.shape != v.shape:
            problems.append("utilities: agent_u and advocate_v must share one shape")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True, eq=False)
class Instance(_Value):
    """One complete allocation problem, validated on construction."""

    catalog: Catalog
    partition: Partition
    type_space: TypeSpace
    utilities: UtilityTable
    discount: DiscountCurve
    signal_model: "SignalChannel | None" = None

    def __post_init__(self):
        problems = []
        m = len(self.catalog)
        t = len(self.type_space)
        if self.partition.size != m:
            problems.append(
                f"partition: covers {self.partition.size} indices but the catalog has {m} objects"
            )
        if self.utilities.agent.shape != (t, m):
            problems.append(
                f"utilities: shape {self.utilities.agent.shape} does not match {t} types by {m} objects"
            )
        if len(self.discount) != m:
            problems.append(f"discount: horizon {len(self.discount)} does not match catalog size {m}")
        channel = self.signal_model
        if channel is not None and channel.likelihood.shape[0] != t:
            problems.append(
                f"signal_model: likelihood has {channel.likelihood.shape[0]} rows but there are {t} types"
            )
        if problems:
            raise ValidationError(problems)

    @property
    def size(self) -> int:
        return len(self.catalog)


@dataclass(frozen=True)
class Allocation:
    """A block permutation realized as display positions.

    `block_order` lists block indices in display order, `object_order` the
    catalog indices position by position.
    """

    block_order: tuple[int, ...]
    object_order: tuple[int, ...]


def build_allocation(partition: Partition, block_order: Sequence[int]) -> Allocation:
    """Lay blocks out in the given order, preserving each block's run."""
    order = tuple(int(i) for i in block_order)
    if sorted(order) != list(range(partition.block_count)):
        raise ValidationError("allocation: block_order must be a permutation of the block indices")
    object_order = tuple(obj for b in order for obj in partition.blocks[b])
    return Allocation(order, object_order)


def allocation_value(allocation: Allocation, scores, discount: DiscountCurve) -> float:
    """Position-weighted sum of scores under the given display order."""
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size != len(discount):
        raise ValidationError("scores: length must match the discount horizon")
    if len(allocation.object_order) != s.size:
        raise ValidationError("allocation: size does not match the score vector")
    order = np.array(allocation.object_order, dtype=np.intp)
    return float(np.dot(discount.weights, s[order]))


def enumerate_allocations(partition: Partition) -> Iterator[Allocation]:
    """Yield every feasible allocation in lexicographic block-order.

    Grows factorially in the block count; intended for oracles and tests.
    """
    for perm in itertools.permutations(range(partition.block_count)):
        yield build_allocation(partition, perm)


def refine_partition(partition: Partition, split_spec: Mapping[int, Sequence[int]]) -> Partition:
    """Split blocks at the given internal offsets.

    `split_spec` maps a block index to cut offsets strictly inside that
    block. Only contiguous splits are expressible, so the result always
    refines the input; reordering or interleaving objects is impossible by
    construction. Resulting blocks keep the original left-to-right order.
    """
    problems = []
    cuts_by_block: dict[int, list[int]] = {}
    for key, offsets in split_spec.items():
        b = int(key)
        if not 0 <= b < partition.block_count:
            problems.append(f"split: block index {b} out of range")
            continue
        length = len(partition.blocks[b])
        cuts = sorted({int(x) for x in offsets})
        bad = [x for x in cuts if not 0 < x < length]
        if bad:
            problems.append(f"split: offsets {bad} fall outside block {b} of length {length}")
            continue
        cuts_by_block[b] = cuts
    if problems:
        raise ValidationError(problems)
    new_blocks = []
    for i, block in enumerate(partition.blocks):
        bounds = [0, *cuts_by_block.get(i, []), len(block)]
        for a, z in zip(bounds, bounds[1:]):
            new_blocks.append(block[a:z])
    return Partition(tuple(new_blocks))


def singletonize(partition: Partition) -> Partition:
    """Fully split every block into singletons."""
    return Partition(tuple((i,) for b in partition.blocks for i in b))


def is_refinement(old: Partition, new: Partition) -> bool:
    """True when every old block is tiled, in order, by runs of new blocks.

    This is the weak sense: a partition refines itself. The check demands
    that each new block is a contiguous slice of exactly one old block, so
    every allocation feasible under `old` stays feasible under `new`.
    """
    if old.size != new.size:
        return False
    block_of = {}
    for idx, block in enumerate(new.blocks):
        for obj in block:
            block_of[obj] = idx
    seen = set()
    for block in old.blocks:
        j = 0
        while j < len(block):
            nb_idx = block_of[block[j]]
            if nb_idx in seen:
                return False
            nb = new.blocks[nb_idx]
            if tuple(block[j : j + len(nb)]) != nb:
                return False
            seen.add(nb_idx)
            j += len(nb)
    return len(seen) == new.block_count
