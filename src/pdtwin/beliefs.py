"""Belief carriers over a latent generator and exact Bayes updates.

Two concrete families are supported: finite discrete support (weights over a
list of hypotheses) and the Gaussian conjugate family for real-valued
quantities observed with Gaussian noise. Both are immutable; updates return
new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

NORMALIZATION_TOL = 1e-12


class AllZeroLikelihood(ValueError):
    """The observation has zero likelihood under every support point."""


@dataclass(frozen=True)
class DiscreteEpistemicBelief:
    """Probability weights over a finite set of hypotheses.

    ``support`` holds the hypothesis values (hashable labels or floats),
    ``weights`` the matching probabilities. Weights must be non-negative and
    sum to one within ``NORMALIZATION_TOL``.
    """

    support: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.support) == 0:
            raise ValueError("support must be non-empty")
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support points must be distinct")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")


@dataclass(frozen=True)
class GaussianBelief:
    """Mean/variance of a Gaussian belief over a scalar quantity."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be >= 0")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def epistemic_condition(
    prior: DiscreteEpistemicBelief,
    likelihood: Callable[[Any], float],
) -> DiscreteEpistemicBelief:
    """Bayes-update the weights of a discrete belief.

    ``likelihood`` maps a support point to the probability (density) of the
    observed event under that hypothesis. The support is left untouched; only
    the weights change. Raises AllZeroLikelihood when no hypothesis can
    explain the observation.
    """
    lik = [likelihood(theta) for theta in prior.support]
    if any(v < 0 for v in lik):
        raise ValueError("likelihood values must be non-negative")
    unnorm = [l * w for l, w in zip(lik, prior.weights)]
    z = math.fsum(unnorm)
    if z <= 0.0:
        raise AllZeroLikelihood(
            "observation impossible under every hypothesis in the support"
        )
    posterior = tuple(u / z for u in unnorm)
    # renormalize so repeated updates cannot drift past the tolerance
    total = math.fsum(posterior)
    posterior = tuple(p / total for p in posterior)
    return DiscreteEpistemicBelief(prior.support, posterior)


def gaussian_condition(
    prior: GaussianBelief, obs: float, noise_variance: float
) -> GaussianBelief:
    """Normal-normal conjugate update for one noisy scalar observation."""
    if noise_variance <= 0:
        raise ValueError("noise_variance must be > 0")
    if prior.variance == 0.0:
        return prior
    prior_prec = 1.0 / prior.variance
    noise_prec = 1.0 / noise_variance
    post_var = 1.0 / (prior_prec + noise_prec)
    post_mean = post_var * (prior_prec * prior.mean + noise_prec * obs)
    return GaussianBelief(post_mean, post_var)
