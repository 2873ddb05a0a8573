"""Signal channels and posterior updating.

A channel maps latent types to a distribution over finite signals. After a
signal arrives the platform scores objects under the Bayes posterior;
without a channel it scores under the prior. Garbling mixes a channel with
uniform noise, which degrades it in the informativeness order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PROB_TOL, Instance, TypeSpace, ValidationError, _freeze, _id_problems, _Value

__all__ = [
    "SignalChannel",
    "PosteriorModel",
    "posterior",
    "prior_posterior",
    "expected_scores",
    "garble",
    "signal_marginal",
]


@dataclass(frozen=True, eq=False)
class SignalChannel(_Value):
    """Row-stochastic likelihood: rows are types, columns are signals."""

    signals: tuple[str, ...]
    likelihood: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(str(s) for s in self.signals))
        lik = _freeze(self.likelihood)
        object.__setattr__(self, "likelihood", lik)
        problems = _id_problems(self.signals, "signals", "signal")
        if lik.ndim != 2 or lik.shape[1] != len(self.signals) or lik.size == 0:
            problems.append("likelihood: must have one column per signal")
        else:
            if not np.isfinite(lik).all() or lik.min() < 0.0:
                problems.append("likelihood: entries must be finite and nonnegative")
            else:
                sums = lik.sum(axis=1)
                if np.any(np.abs(sums - 1.0) > PROB_TOL):
                    problems.append(f"likelihood: each row must sum to 1 within {PROB_TOL}")
        if problems:
            raise ValidationError(problems)

    @property
    def signal_count(self) -> int:
        return len(self.signals)

    def signal_index(self, signal: str) -> int:
        try:
            return self.signals.index(str(signal))
        except ValueError:
            raise ValidationError(f"signal: unknown signal {signal!r}") from None


@dataclass(frozen=True, eq=False)
class PosteriorModel(_Value):
    """A distribution over types, tagged with the signal that produced it."""

    weights: np.ndarray
    observed_signal: str | None = None

    def __post_init__(self):
        w = _freeze(self.weights)
        object.__setattr__(self, "weights", w)
        problems = []
        if w.ndim != 1 or w.size == 0:
            problems.append("posterior: weights must be a nonempty vector")
        elif not np.isfinite(w).all() or w.min() < 0.0:
            problems.append("posterior: weights must be finite and nonnegative")
        elif abs(float(w.sum()) - 1.0) > PROB_TOL:
            problems.append(f"posterior: weights must sum to 1 within {PROB_TOL}")
        if problems:
            raise ValidationError(problems)


def posterior(type_space: TypeSpace, channel: SignalChannel, signal: str) -> PosteriorModel:
    """Bayes update of the prior on observing one signal."""
    s = channel.signal_index(signal)
    if channel.likelihood.shape[0] != len(type_space):
        raise ValidationError("likelihood: must have one row per type")
    w = type_space.prior * channel.likelihood[:, s]
    total = float(w.sum())
    if total <= 0.0:
        raise ValidationError(
            f"signal: impossible signal {signal!r} (zero probability under the prior)"
        )
    return PosteriorModel(weights=w / total, observed_signal=str(signal))


def prior_posterior(type_space: TypeSpace) -> PosteriorModel:
    """The no-signal belief. Normalized through the same path as `posterior`."""
    p = type_space.prior
    return PosteriorModel(weights=p / np.sum(p), observed_signal=None)


def expected_scores(instance: Instance, belief: PosteriorModel, side: str) -> np.ndarray:
    """Belief-weighted per-object scores for one side of the table."""
    if side == "agent":
        table = instance.utilities.agent
    elif side == "advocate":
        table = instance.utilities.advocate
    else:
        raise ValidationError(f"side: expected 'agent' or 'advocate', got {side!r}")
    if belief.weights.size != table.shape[0]:
        raise ValidationError("posterior: weight count does not match the type count")
    return belief.weights @ table


def garble(channel: SignalChannel, eps: float) -> SignalChannel:
    """Mix the channel with uniform noise at rate eps in [0, 1].

    eps=0 returns an identical channel; eps=1 makes every signal carry no
    information. Intermediate rates compose: a heavier garble of the same
    channel is itself a garble of a lighter one.
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("garble: eps must lie in [0, 1]")
    if eps == 0.0:
        return channel
    s = channel.signal_count
    noisy = (1.0 - eps) * channel.likelihood + eps / s
    return SignalChannel(signals=channel.signals, likelihood=noisy)


def signal_marginal(type_space: TypeSpace, channel: SignalChannel) -> np.ndarray:
    """Unconditional signal probabilities under the prior."""
    if channel.likelihood.shape[0] != len(type_space):
        raise ValidationError("likelihood: must have one row per type")
    return type_space.prior @ channel.likelihood
