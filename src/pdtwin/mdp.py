"""Generic finite-horizon belief-state MDP interface and episode evaluation.

Environments expose a generative model: a seeded ``step`` function instead of
explicit transition matrices. Episodes are reproducible bit-exactly from their
integer seed; ``evaluate_policy`` assigns episode i the seed ``base_seed + i``.
Every episode draws from its own generator, so ``evaluate_policy`` can play a
block of them side by side and ask the policy for all their actions at once;
each episode then makes the same draws as it does alone. A policy that reads
a network sees Q values equal only up to last-bit BLAS differences between
batch sizes, so its actions match those of the episode alone unless the top
two Q values are within rounding error of each other.
"""

from __future__ import annotations

import abc
import csv
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class PolicyReturnedMaskedAction(RuntimeError):
    """A policy chose an action that the current action mask forbids."""


class StepAfterDone(RuntimeError):
    """step() was called on a state that already ended the episode."""


@dataclass(frozen=True)
class StateEncoding:
    """Feature view of a state: a set of vectors plus a dense auxiliary vector.

    The set is one float array with a row per element, sorted lexicographically
    (``nets.canonical_set`` builds it); an empty set has shape (0, element_dim).
    """

    elements: np.ndarray  # (k, element_dim) floats, rows in canonical order
    aux: np.ndarray


class Environment(abc.ABC):
    """Generative belief-state MDP with a finite action set and horizon.

    A state has a bool ``done`` and an ``outcome``: how an ended episode
    ended, when the game names it, else None. ``reset`` returns a state that
    is already done when the episode has no step to take (a horizon of 0):
    that episode has length 0 and return 0.0, and nothing steps it or asks a
    policy for an action. ``encode`` and ``action_mask`` accept every state,
    a done one too.
    """

    action_count: int
    element_dim: int
    aux_dim: int

    @abc.abstractmethod
    def reset(self, rng: np.random.Generator):
        """Draw the initial (possibly partly hidden) state."""

    @abc.abstractmethod
    def step(self, state, action: int, rng: np.random.Generator):
        """Advance one step; returns (next_state, reward). ``next_state.done``
        tells whether the episode ended there."""

    @abc.abstractmethod
    def action_mask(self, state) -> np.ndarray:
        """Boolean vector, True where the action is currently allowed."""

    @abc.abstractmethod
    def encode(self, state) -> StateEncoding:
        """Feature representation consumed by function approximators."""


class Policy(abc.ABC):
    """Maps states and their action masks to action indices, a batch at a time.

    ``act`` gets B states, their masks as one (B, action_count) bool array and
    each state's episode generator, and returns B actions. Row j draws from
    its generator what it would draw alone, whatever the batch.
    """

    @abc.abstractmethod
    def act(self, states: list, masks: np.ndarray, rngs: list):
        ...


class RandomPolicy(Policy):
    """Uniform over the currently unmasked actions."""

    def act(self, states, masks, rngs):
        actions = []
        for mask, rng in zip(masks, rngs):
            legal = np.flatnonzero(mask)
            actions.append(int(legal[rng.integers(len(legal))]))
        return actions


class FunctionPolicy(Policy):
    """Wraps a plain ``state -> action`` function."""

    def __init__(self, fn: Callable[[Any], int]):
        self.fn = fn

    def act(self, states, masks, rngs):
        return [self.fn(state) for state in states]


@dataclass(frozen=True)
class EpisodeRecord:
    """Trace of one seeded episode and its return.

    ``states[0]`` is the reset state; step t took ``actions[t]`` from
    ``states[t]`` to ``states[t + 1]`` and earned ``rewards[t]``. An episode
    of length 0 holds the reset state alone.
    """

    states: tuple
    actions: tuple
    rewards: tuple
    total_return: float


@dataclass(frozen=True)
class EvalSummary:
    """Statistics of a seeded episode block, and per episode its return,
    length, count of each action and outcome (its last state's ``outcome``)."""

    mean: float
    sd: float
    min: float
    max: float
    returns: tuple
    action_counts: np.ndarray  # (n_episodes, action_count) ints
    outcomes: tuple

    @property
    def lengths(self) -> tuple:
        return tuple(int(n) for n in self.action_counts.sum(axis=1))


# episodes evaluate_policy plays side by side; bounds its live generators and states
EVAL_BLOCK = 256


def _play(env: Environment, policy: Policy, states: list, rngs: list):
    """Step the episodes at ``states`` side by side, in place, until every one
    is done; yields ``(j, action, reward, next_state)`` for each step of
    episode j. Each round makes one ``policy.act`` call over the live
    episodes, then steps each of them with its own generator.
    """
    live = [j for j, state in enumerate(states) if not state.done]
    while live:
        masks = np.array([env.action_mask(states[j]) for j in live])
        actions = policy.act([states[j] for j in live], masks, [rngs[j] for j in live])
        for j, mask, action in zip(live, masks, actions):
            if not mask[action]:
                raise PolicyReturnedMaskedAction(
                    f"action {action} is masked in state {states[j]!r}"
                )
            action = int(action)
            states[j], reward = env.step(states[j], action, rngs[j])
            yield j, action, reward, states[j]
        live = [j for j in live if not states[j].done]


def run_episode(env: Environment, policy: Policy, seed: int) -> EpisodeRecord:
    """Simulate one seeded episode and sum its rewards."""
    rng = np.random.default_rng(seed)
    states, actions, rewards = [env.reset(rng)], [], []
    total = 0.0
    for _, action, reward, state in _play(env, policy, states[:1], [rng]):
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        total += reward  # in order: sum() of floats is compensated in 3.12+
    return EpisodeRecord(tuple(states), tuple(actions), tuple(rewards), total)


def evaluate_policy(
    env: Environment, policy: Policy, n_episodes: int, base_seed: int
) -> EvalSummary:
    """Run ``n_episodes`` seeded episodes and summarize them.

    Episode i uses seed ``base_seed + i`` and makes the draws ``run_episode``
    makes at that seed; blocks of ``EVAL_BLOCK`` episodes run side by side, so
    a network's Q values may differ from ``run_episode``'s in the last bits
    (see the module docstring). With a single episode the sd is reported as 0.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    returns = [0.0] * n_episodes
    action_counts = np.zeros((n_episodes, env.action_count), dtype=np.int64)
    outcomes = []
    for start in range(0, n_episodes, EVAL_BLOCK):
        rngs = [np.random.default_rng(base_seed + i)
                for i in range(start, min(start + EVAL_BLOCK, n_episodes))]
        states = [env.reset(rng) for rng in rngs]
        for j, action, reward, _ in _play(env, policy, states, rngs):
            returns[start + j] += reward  # in order, as run_episode sums
            action_counts[start + j, action] += 1
        outcomes.extend(state.outcome for state in states)
    arr = np.asarray(returns)
    sd = float(arr.std(ddof=1)) if n_episodes > 1 else 0.0
    return EvalSummary(
        mean=float(arr.mean()),
        sd=sd,
        min=float(arr.min()),
        max=float(arr.max()),
        returns=tuple(float(r) for r in returns),
        action_counts=action_counts,
        outcomes=tuple(outcomes),
    )


def write_csv(path, header: list, rows) -> None:
    """The CSV files every command writes: a header row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, block: dict) -> None:
    """The JSON files every command writes: sorted keys, indent 2, newline."""
    with open(path, "w") as fh:
        json.dump(block, fh, indent=2, sort_keys=True)
        fh.write("\n")
