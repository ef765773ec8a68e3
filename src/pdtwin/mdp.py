"""Generic finite-horizon belief-state MDP interface and episode evaluation.

Environments expose a generative model: a seeded ``step`` function instead of
explicit transition matrices. Episodes are reproducible bit-exactly from their
integer seed; ``evaluate_policy`` assigns episode i the seed ``base_seed + i``
so results are independent of execution order.
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

    A state has a boolean ``done``. ``reset`` returns a state that is already
    done when the episode has no step to take (a horizon of 0): that episode
    has length 0 and return 0.0, and nothing steps it or asks a policy for an
    action. ``encode`` and ``action_mask`` accept every state, a done one too.
    """

    action_count: int
    element_dim: int
    aux_dim: int

    @abc.abstractmethod
    def reset(self, rng: np.random.Generator):
        """Draw the initial (possibly partly hidden) state."""

    @abc.abstractmethod
    def step(self, state, action: int, rng: np.random.Generator):
        """Advance one step; returns (next_state, reward, done)."""

    def done(self, state) -> bool:
        """Whether the episode has ended at ``state``."""
        return state.done

    @abc.abstractmethod
    def action_mask(self, state) -> np.ndarray:
        """Boolean vector, True where the action is currently allowed."""

    @abc.abstractmethod
    def encode(self, state) -> StateEncoding:
        """Feature representation consumed by function approximators."""


class Policy(abc.ABC):
    """Maps a state and its action mask to an action index."""

    @abc.abstractmethod
    def act(self, state, mask: np.ndarray, rng: np.random.Generator) -> int:
        ...


class RandomPolicy(Policy):
    """Uniform over the currently unmasked actions."""

    def act(self, state, mask, rng):
        legal = np.flatnonzero(mask)
        return int(legal[rng.integers(len(legal))])


class FunctionPolicy(Policy):
    """Wraps a plain ``state -> action`` function."""

    def __init__(self, fn: Callable[[Any], int]):
        self.fn = fn

    def act(self, state, mask, rng):
        return self.fn(state)


@dataclass(frozen=True)
class Transition:
    state: Any
    action: int
    reward: float
    next_state: Any
    done: bool


@dataclass(frozen=True)
class EpisodeRecord:
    """Seeded trace of one episode and its discounted return."""

    transitions: tuple
    seed: int
    total_return: float

    @property
    def length(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class EvalSummary:
    mean: float
    sd: float
    min: float
    max: float
    bin_edges: tuple
    bin_counts: tuple
    returns: tuple
    lengths: tuple

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "sd": self.sd,
            "min": self.min,
            "max": self.max,
            "n_episodes": len(self.returns),
            "bin_edges": list(self.bin_edges),
            "bin_counts": list(self.bin_counts),
        }


def run_episode(
    env: Environment, policy: Policy, seed: int, discount: float = 1.0
) -> EpisodeRecord:
    """Simulate one seeded episode and accumulate the discounted return."""
    if not (0.0 <= discount <= 1.0):
        raise ValueError("discount must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    state = env.reset(rng)
    transitions = []
    total = 0.0
    factor = 1.0
    done = env.done(state)
    while not done:
        mask = env.action_mask(state)
        action = policy.act(state, mask, rng)
        if not mask[action]:
            raise PolicyReturnedMaskedAction(
                f"action {action} is masked in state {state!r}"
            )
        next_state, reward, done = env.step(state, action, rng)
        transitions.append(Transition(state, action, reward, next_state, done))
        total += factor * reward
        factor *= discount
        state = next_state
    return EpisodeRecord(tuple(transitions), seed, total)


def evaluate_policy(
    env: Environment,
    policy: Policy,
    n_episodes: int,
    base_seed: int,
    discount: float = 1.0,
    n_bins: int = 50,
    bin_range: tuple | None = None,
) -> EvalSummary:
    """Run ``n_episodes`` seeded episodes and summarize the returns and lengths.

    Episode i uses seed ``base_seed + i``. With a single episode the sd is
    reported as 0.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    returns, lengths = [], []
    for i in range(n_episodes):
        rec = run_episode(env, policy, base_seed + i, discount)
        returns.append(rec.total_return)
        lengths.append(rec.length)
    arr = np.asarray(returns)
    sd = float(arr.std(ddof=1)) if n_episodes > 1 else 0.0
    lo, hi = (float(arr.min()), float(arr.max())) if bin_range is None else bin_range
    if lo == hi:
        hi = lo + 1.0
    counts, edges = np.histogram(arr, bins=n_bins, range=(lo, hi))
    return EvalSummary(
        mean=float(arr.mean()),
        sd=sd,
        min=float(arr.min()),
        max=float(arr.max()),
        bin_edges=tuple(float(e) for e in edges),
        bin_counts=tuple(int(c) for c in counts),
        returns=tuple(float(r) for r in returns),
        lengths=tuple(lengths),
    )


def episodes_to_csv(path, base_seed: int, summary: EvalSummary):
    """One row per episode: seed, return, length."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "return", "length"])
        for i, (ret, length) in enumerate(zip(summary.returns, summary.lengths)):
            writer.writerow([base_seed + i, repr(ret), length])


def write_json(path, block: dict) -> None:
    """The JSON files every command writes: sorted keys, indent 2, newline."""
    with open(path, "w") as fh:
        json.dump(block, fh, indent=2, sort_keys=True)
        fh.write("\n")
