"""Exact backward induction for the component game.

The tabular state is the game's observable state, ``TabularState``
(n_success, n_fail, days_left), and its successors come from
``TabularState.after``, the rule the simulator steps with. Transitions
integrate the hidden component type out through the posterior psi, so the
induction runs on the belief-marginal kernel: flipping the current component
yields Y = 0 with probability psi * theta_bad + (1 - psi) * theta_good.
``backward_induction`` and ``policy_value`` are one memoised recursion from
the start state over the states it reaches. Ties between equally good actions
break toward the lowest action index, which makes the optimal policy unique.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from .envs.component import (
    REPLACE, TERMINATE, TEST,
    CoinConfig, TabularState,
    belief_psi, component_mask, expected_use_reward, success_probability,
)
from .mdp import Policy, PolicyReturnedMaskedAction, write_csv


class PolicyUndefinedAtState(KeyError):
    """policy_value hit a reachable state the policy does not cover."""


class HorizonTooDeep(ValueError):
    """The recursion ran out of Python stack before the last day of the horizon."""


def q_backup(
    state: TabularState,
    action: int,
    value_of: Callable[[TabularState], float],
    config: CoinConfig,
) -> float:
    """Backed-up value of ``action`` in ``state`` (days_left > 0): its expected
    reward plus the expected ``value_of`` the successor."""
    if action == TERMINATE:
        return 0.0
    if action == REPLACE:
        return config.replace_cost + value_of(state.after(REPLACE))
    psi = belief_psi(state, config)
    p0 = success_probability(psi, config)
    reward = config.test_cost if action == TEST else expected_use_reward(psi, config)
    return reward + (
        p0 * value_of(state.after(action, 0))
        + (1.0 - p0) * value_of(state.after(action, 1))
    )


@dataclass(frozen=True)
class ValueTable:
    values: dict  # TabularState -> optimal value
    actions: dict  # TabularState -> optimal action (days_left > 0 only)


def _solve(config: CoinConfig, actions_at: Callable[[TabularState], list]) -> ValueTable:
    """One memoised recursion from (0, 0, horizon): each live state it reaches
    backs up the actions ``actions_at`` gives it, once each, and keeps the first
    best. Two frames per day (``value`` -> ``q_backup`` -> ``value``): Python's
    default recursion limit allows a horizon of about 490 days, where a table
    would hold C(493, 3), about 20 million states, so memory runs out near
    there; a deeper horizon raises ``HorizonTooDeep`` before the table grows."""
    values: dict = {}
    actions: dict = {}

    def value(state: TabularState) -> float:
        if state in values:
            return values[state]
        best = 0.0  # the terminal layer
        if state.days_left > 0:
            best = float("-inf")  # every backup is finite, so the first replaces it
            for action in actions_at(state):
                q = q_backup(state, action, value, config)
                if q > best:  # strict: the lowest index keeps a tie
                    best, actions[state] = q, action
        values[state] = best
        return best

    try:
        value(TabularState(0, 0, config.horizon))
    except RecursionError as exc:
        raise HorizonTooDeep(
            f"horizon {config.horizon} is too deep for the exact oracle, which "
            f"recurses two frames per day under a recursion limit of "
            f"{sys.getrecursionlimit()}") from exc
    return ValueTable(values, actions)


def backward_induction(config: CoinConfig = CoinConfig()) -> ValueTable:
    """Optimal value and action for every reachable tabular state."""
    return _solve(config, lambda state: [
        action for action, legal in enumerate(component_mask(state, config)) if legal
    ])


def policy_value(policy_map: dict, config: CoinConfig = CoinConfig()) -> float:
    """Exact expected return of a deterministic tabular policy from the start:
    the same recursion, backing up the policy's action where the policy leads."""
    def policy_action(state: TabularState) -> list:
        if state not in policy_map:
            raise PolicyUndefinedAtState(state)
        action = policy_map[state]
        if not component_mask(state, config)[action]:
            raise PolicyReturnedMaskedAction(
                f"action {action} is masked in state {state!r}"
            )
        return [action]

    return _solve(config, policy_action).values[TabularState(0, 0, config.horizon)]


class OraclePolicy(Policy):
    """Plays the backward-induction optimal action on live CoinState objects."""

    def __init__(self, table: ValueTable):
        self.table = table

    def act(self, states: list, masks, rngs) -> list:
        return [self.table.actions[state.info] for state in states]


def table_to_csv(path, table: ValueTable) -> None:
    states = sorted(table.values, key=lambda s: (-s.days_left, s.n_success, s.n_fail))
    write_csv(path, ["n_success", "n_fail", "days_left", "value", "action"], (
        [s.n_success, s.n_fail, s.days_left, repr(table.values[s]),
         table.actions.get(s, "")]
        for s in states
    ))
