"""Ten-day component game: test, replace, use or terminate.

A component works (Y = 0) with probability theta, where theta is either 0.5
(a bad component) or 0.99 (a good one) and is hidden from the agent. Testing
costs $10k, replacing $100k, using the component stakes $1M on it working,
and terminating ends the project. The observable state is the count of
successes/failures seen on the component currently installed, plus the days
remaining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..mdp import Environment, StateEncoding, StepAfterDone
from ..settings import check_fields, require_finite, setting

TERMINATE, TEST, REPLACE, USE = 0, 1, 2, 3
_OUTCOME_ROWS = np.array([[0.0], [1.0]])  # set elements for Y = 0 and Y = 1


@dataclass(frozen=True)
class CoinConfig:
    horizon: int = setting(10, low=0)
    theta_bad: float = setting(0.5, low=0.0, high=1.0)
    theta_good: float = setting(0.99, low=0.0, high=1.0)
    prior_bad: float = setting(0.5, low=0.0, high=1.0)  # initial P(theta = theta_bad)
    test_cost: float = -10_000.0
    replace_cost: float = -100_000.0
    use_stake: float = 1_000_000.0  # won on Y = 0, lost on Y = 1
    constraint_threshold: float = setting(0.9, low=0.0, high=1.0)  # Use: P(good) > it
    constrained: bool = False

    def __post_init__(self):
        check_fields(self)
        if not self.theta_bad < self.theta_good:
            raise ValueError("need theta_bad < theta_good")
        # the histograms bin [-return_bound, return_bound] in equal widths
        require_finite(lambda: 2.0 * self.return_bound,
                       "2 * horizon * max(|use_stake|, |replace_cost|, |test_cost|) "
                       "must be finite")

    @property
    def return_bound(self):
        """Every return lies within +-return_bound: each day moves it by at
        most the largest of the stake and the two costs."""
        return self.horizon * max(abs(self.use_stake), abs(self.replace_cost),
                                  abs(self.test_cost))


@dataclass(frozen=True)
class TabularState:
    """Observable state: outcome counts on the current component (the belief's
    sufficient statistic) and the days left. The oracle's table is keyed by it."""

    n_success: int
    n_fail: int
    days_left: int

    def after(self, action: int, y: int | None = None) -> "TabularState":
        """Successor after Test or Use with outcome ``y``, or after Replace:
        a day passes, Replace clears the counts, Test and Use count ``y``."""
        d = self.days_left - 1
        if action == REPLACE:
            return TabularState(0, 0, d)
        if action not in (TEST, USE):
            raise ValueError(f"no successor state for action {action}")
        if y == 0:
            return TabularState(self.n_success + 1, self.n_fail, d)
        return TabularState(self.n_success, self.n_fail + 1, d)


@dataclass(frozen=True)
class CoinState:
    info: TabularState
    hidden_theta: float  # simulator-only; never exposed through encode()
    done: bool = False
    outcome = None  # a class attribute, not a field: the game names no outcome


def _log_weight(log_prior: float, theta: float, info: TabularState) -> float:
    """log(prior * theta^n_success * (1 - theta)^n_fail) with log 0 = -inf;
    a zero count adds nothing, whatever theta is."""
    weight = log_prior
    if info.n_success:
        weight += info.n_success * math.log(theta) if theta > 0.0 else -math.inf
    if info.n_fail:
        weight += info.n_fail * math.log1p(-theta) if theta < 1.0 else -math.inf
    return weight


def belief_psi(info: TabularState, config: CoinConfig = CoinConfig()) -> float:
    """Posterior probability that the current component is the bad one, given
    the outcome counts of ``info``.

    Computed in log-space so long runs of observations cannot underflow; a
    zero prior or likelihood is log 0 = -inf. Counts that both hypotheses rule
    out have probability 0 and keep the prior, so no NaN reaches a value.
    """
    prior = config.prior_bad
    log_bad = _log_weight(
        math.log(prior) if prior > 0.0 else -math.inf, config.theta_bad, info
    )
    log_good = _log_weight(
        math.log1p(-prior) if prior < 1.0 else -math.inf, config.theta_good, info
    )
    m = max(log_bad, log_good)
    if m == -math.inf:
        return prior
    eb, eg = math.exp(log_bad - m), math.exp(log_good - m)
    return eb / (eb + eg)


def success_probability(psi: float, config: CoinConfig = CoinConfig()) -> float:
    """Marginal P(Y = 0) under the belief psi about the component."""
    return psi * config.theta_bad + (1.0 - psi) * config.theta_good


def expected_use_reward(psi: float, config: CoinConfig = CoinConfig()) -> float:
    """Expected immediate reward of betting on the component working."""
    if not (0.0 <= psi <= 1.0):
        raise ValueError("psi must lie in [0, 1]")
    p0 = success_probability(psi, config)
    return p0 * config.use_stake - (1.0 - p0) * config.use_stake


_MASKS = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=bool)
_MASKS.flags.writeable = False
_ALL_ACTIONS, _ALL_BUT_USE = _MASKS  # read-only rows: all legal, all but Use


def component_mask(info: TabularState, config: CoinConfig) -> np.ndarray:
    """Legal actions given the outcome counts; the constraint bars Use unless
    P(theta_good) exceeds the threshold."""
    if config.constrained and 1.0 - belief_psi(info, config) <= config.constraint_threshold:
        return _ALL_BUT_USE
    return _ALL_ACTIONS


class ComponentEnv(Environment):
    """Belief-state MDP over (component outcome counts, days left).

    ``encoding="set"`` exposes the outcomes seen on the current component as
    the set part (``n_success`` rows of 0.0, then ``n_fail`` rows of 1.0: for
    binary outcomes the counts are the whole multiset) with
    aux = (days_left / N,); ``"compressed"`` exposes an empty set with
    aux = (psi, days_left / N). At N = 0 the start state is done and
    days_left / N reads 0.0.
    """

    action_count = 4

    def __init__(self, config: CoinConfig = CoinConfig(), encoding: str = "compressed"):
        if encoding not in ("set", "compressed"):
            raise ValueError(f"unknown encoding {encoding!r}")
        self.config = config
        self.encoding = encoding
        self.element_dim = 1
        self.aux_dim = 1 if encoding == "set" else 2

    def _draw_theta(self, rng) -> float:
        bad = rng.random() < self.config.prior_bad
        return self.config.theta_bad if bad else self.config.theta_good

    def reset(self, rng) -> CoinState:
        horizon = self.config.horizon
        return CoinState(TabularState(0, 0, horizon), self._draw_theta(rng), horizon == 0)

    def action_mask(self, state: CoinState) -> np.ndarray:
        return component_mask(state.info, self.config)

    def step(self, state: CoinState, action: int, rng):
        cfg = self.config
        if state.done or state.info.days_left <= 0:
            raise StepAfterDone(f"episode already ended at {state!r}")

        if action == TERMINATE:
            return CoinState(state.info, state.hidden_theta, done=True), 0.0
        theta, y = state.hidden_theta, None
        if action == REPLACE:
            theta, reward = self._draw_theta(rng), cfg.replace_cost
        elif action in (TEST, USE):
            # Test and Use both flip the current component once and observe Y
            y = 0 if rng.random() < theta else 1
            stake = cfg.use_stake if y == 0 else -cfg.use_stake
            reward = cfg.test_cost if action == TEST else stake
        else:
            raise ValueError(f"unknown action {action}")
        info = state.info.after(action, y)
        return CoinState(info, theta, info.days_left == 0), reward

    def encode(self, state: CoinState) -> StateEncoding:
        info = state.info
        frac = info.days_left / max(self.config.horizon, 1)
        if self.encoding == "set":
            elements = np.repeat(_OUTCOME_ROWS, (info.n_success, info.n_fail), axis=0)
            return StateEncoding(elements, np.array([frac]))
        psi = belief_psi(info, self.config)
        return StateEncoding(np.empty((0, 1)), np.array([psi, frac]))
