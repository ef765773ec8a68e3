"""Sequential-Bayes reference for the component belief.

A generic discrete belief over a finite set of hypotheses, conditioned one
observation at a time. ``pdtwin.envs.component.belief_psi`` computes the same
posterior in closed form from outcome counts; the tests check it against this
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from pdtwin.envs.component import CoinConfig

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


def component_prior(config: CoinConfig = CoinConfig()) -> DiscreteEpistemicBelief:
    return DiscreteEpistemicBelief(
        (config.theta_bad, config.theta_good),
        (config.prior_bad, 1.0 - config.prior_bad),
    )


def belief_from_observations(
    observations, config: CoinConfig = CoinConfig()
) -> DiscreteEpistemicBelief:
    """Sequential Bayes updates over the raw observation list (reference path)."""
    belief = component_prior(config)
    for y in observations:
        belief = epistemic_condition(
            belief, lambda theta, y=y: theta if y == 0 else 1.0 - theta
        )
    return belief
