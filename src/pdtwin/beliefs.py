"""Gaussian belief over a scalar quantity and its exact Bayes update.

A quantity observed with Gaussian noise keeps a Gaussian belief under the
normal-normal conjugate update. Beliefs are immutable; an update returns a
new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
