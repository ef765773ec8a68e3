"""Exact backward induction for the component game.

The tabular state is the game's observable state, ``TabularState``
(n_success, n_fail, days_left), and its successors come from
``TabularState.after``, the rule the simulator steps with. Transitions
integrate the hidden component type out through the posterior psi, so the
induction runs on the belief-marginal kernel: flipping the current component
yields Y = 0 with probability psi * theta_bad + (1 - psi) * theta_good. Ties between equally good actions break toward the
lowest action index, which makes the optimal policy unique.
"""

from __future__ import annotations

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


def _legal_actions(state: TabularState, config: CoinConfig) -> list:
    mask = component_mask(state, config)
    return [action for action, legal in enumerate(mask) if legal]


def enumerate_states(config: CoinConfig = CoinConfig()) -> list:
    """All states reachable from (0, 0, horizon), including the terminal layer."""
    start = TabularState(0, 0, config.horizon)
    seen = {start}
    frontier = [start]

    def visit(successor: TabularState) -> float:  # q_backup's successor lookups
        if successor not in seen:
            seen.add(successor)
            frontier.append(successor)
        return 0.0

    while frontier:
        state = frontier.pop()
        if state.days_left > 0:
            for action in _legal_actions(state, config):
                q_backup(state, action, visit, config)
    return sorted(seen, key=lambda s: (s.days_left, s.n_success, s.n_fail))


@dataclass(frozen=True)
class ValueTable:
    values: dict  # TabularState -> optimal value
    actions: dict  # TabularState -> optimal action (days_left > 0 only)


def backward_induction(config: CoinConfig = CoinConfig()) -> ValueTable:
    """Optimal value and action for every reachable tabular state."""
    values: dict = {}
    actions: dict = {}
    for state in enumerate_states(config):  # by days_left: successors come first
        if state.days_left == 0:
            values[state] = 0.0
            continue
        q = {
            action: q_backup(state, action, values.__getitem__, config)
            for action in _legal_actions(state, config)
        }
        actions[state] = max(q, key=q.__getitem__)  # first maximum: lowest index
        values[state] = q[actions[state]]
    return ValueTable(values, actions)


def policy_value(policy_map: dict, config: CoinConfig = CoinConfig()) -> float:
    """Exact expected return of a deterministic tabular policy from the start.

    Forward recursion over the belief-marginal kernel; no sampling involved.
    """
    cache: dict = {}

    def value(state: TabularState) -> float:
        if state.days_left == 0:
            return 0.0
        if state not in cache:
            if state not in policy_map:
                raise PolicyUndefinedAtState(state)
            action = policy_map[state]
            if not component_mask(state, config)[action]:
                raise PolicyReturnedMaskedAction(
                    f"action {action} is masked in state {state!r}"
                )
            cache[state] = q_backup(state, action, value, config)
        return cache[state]

    return value(TabularState(0, 0, config.horizon))


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
