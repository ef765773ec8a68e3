"""Deep Q-learning on the information state-space.

Epsilon-greedy exploration with action masking, a uniform experience-replay
ring, a periodically synchronized target network, and squared-error
regression onto one-step TD targets. Fully deterministic given the training
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mdp import Environment, Policy, StateEncoding, evaluate_policy
from .nets import Adam, DeepSetsNet, SetBatch
from .settings import check_fields, setting


class NoLegalAction(RuntimeError):
    """Every action is masked; the environment contract is broken."""


class DivergenceDetected(RuntimeError):
    """Training loss or Q values became non-finite."""


@dataclass
class TrainConfig:
    episodes: int = setting(3000, low=0)
    batch_size: int = setting(64, low=1)
    learning_rate: float = setting(1e-3, above=0.0)
    discount: float = setting(1.0, low=0.0, high=1.0)
    epsilon_start: float = setting(1.0, low=0.0, high=1.0)
    epsilon_end: float = setting(0.05, low=0.0, high=1.0)
    epsilon_decay_episodes: int | None = setting(None, low=1)  # None: half the episodes
    target_sync: int = setting(500, low=1)  # environment steps between target-net syncs
    replay_capacity: int = setting(50_000, low=1)
    warmup: int = setting(500, low=0)  # transitions collected before learning starts
    train_every: int = setting(1, low=1)  # environment steps between gradient updates
    seed: int = setting(0, low=0)
    reward_scale: float = setting(1.0, above=0.0)  # the learner divides rewards by it
    double_dqn: bool = False
    # when set, the greedy policy is scored on a fixed validation seed block
    # every snapshot_every episodes (and once at the end) and the best
    # snapshot is returned instead of the final network; guards against
    # late-training policy collapse
    snapshot_every: int | None = setting(None, low=1)
    snapshot_episodes: int = setting(50, low=1)
    snapshot_seed_base: int = setting(900_000, low=0)
    phi_hidden: tuple = (32, 32)
    latent_dim: int = setting(16, low=1)
    rho_hidden: tuple = (32, 32)

    def __post_init__(self):
        check_fields(self)
        if not self.epsilon_end <= self.epsilon_start:
            raise ValueError("need epsilon_end <= epsilon_start")
        hidden = (*self.phi_hidden, *self.rho_hidden)
        if not all(type(h) is int and h >= 1 for h in hidden):
            raise ValueError("hidden layer sizes must be integers >= 1")
        if self.replay_capacity < self.learning_starts:
            raise ValueError("replay_capacity must be >= warmup and >= batch_size")

    @property
    def learning_starts(self) -> int:  # transitions held before the first gradient step
        return max(self.warmup, self.batch_size)

    def epsilon_at(self, episode: int) -> float:
        horizon = self.epsilon_decay_episodes or max(1, self.episodes // 2)
        frac = min(1.0, episode / horizon)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform batch sampling.

    Row i of every column holds transition i; the two object columns hold
    references to the environment's read-only set arrays, two int columns their
    sizes. ``next_q[i]`` is the target net's Q of next state i where ``current[i]``;
    ``push`` clears its row's flag and ``train`` clears every flag at a target sync.
    """

    def __init__(self, capacity: int, aux_dim: int, action_count: int):
        self.capacity = capacity
        self.sets = np.empty(capacity, dtype=object)
        self.next_sets = np.empty(capacity, dtype=object)
        self.counts, self.next_counts = np.empty((2, capacity), dtype=np.int64)
        self.aux = np.empty((capacity, aux_dim))
        self.next_aux = np.empty((capacity, aux_dim))
        self.action = np.empty(capacity, dtype=np.int64)
        self.reward = np.empty(capacity)  # already divided by reward_scale
        self.done = np.empty(capacity, dtype=bool)
        self.next_mask = np.empty((capacity, action_count), dtype=bool)
        self.same_set = np.empty(capacity, dtype=bool)  # the next set is the current set object
        self.next_q = np.empty((capacity, action_count))
        self.current = np.zeros(capacity, dtype=bool)
        self._cursor = self._size = 0

    def push(self, enc: StateEncoding, action: int, reward: float,
             next_enc: StateEncoding, done: bool, next_mask: np.ndarray) -> None:
        i = self._cursor
        self.sets[i], self.next_sets[i] = enc.elements, next_enc.elements
        self.counts[i], self.next_counts[i] = len(enc.elements), len(next_enc.elements)
        self.aux[i], self.next_aux[i] = enc.aux, next_enc.aux
        self.action[i], self.reward[i], self.done[i] = action, reward, done
        self.next_mask[i] = next_mask
        self.same_set[i], self.current[i] = next_enc.elements is enc.elements, False
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Indices of a uniform batch, drawn without replacement."""
        return rng.choice(self._size, size=min(batch_size, self._size), replace=False)

    def __len__(self) -> int:
        return self._size


def epsilon_greedy(
    q_values: np.ndarray, masks: np.ndarray, epsilon: float, rngs: list
) -> np.ndarray:
    """One action per row of the (B, A) ``q_values`` and ``masks``: with
    probability epsilon uniform over the row's legal actions, else its masked
    argmax. Row j draws one ``random()`` from ``rngs[j]``, and one ``integers``
    more only when it explores."""
    if not masks.any(axis=1).all():
        raise NoLegalAction("action mask admits no action")
    actions = masked_argmax(q_values, masks)  # exploring rows overwrite theirs
    for j, rng in enumerate(rngs):
        if rng.random() < epsilon:
            legal = np.flatnonzero(masks[j])
            actions[j] = legal[rng.integers(len(legal))]
    return actions


def masked_argmax(q_values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Each row's best legal action; ties go to the lowest index."""
    return np.argmax(np.where(masks, q_values, -np.inf), axis=1)


def td_target(reward, done, next_value, discount):
    """Reward, plus the discounted value of the chosen next action if not terminal."""
    return np.where(done, reward, reward + discount * next_value)


class QPolicy(Policy):
    """Acts by (masked) argmax of the value network's outputs."""

    def __init__(self, net: DeepSetsNet, env: Environment):
        self.net = net
        self.env = env

    def act(self, states, masks, rngs) -> np.ndarray:
        encodings = [self.env.encode(state) for state in states]
        batch = SetBatch([enc.elements for enc in encodings],
                         np.array([enc.aux for enc in encodings]))
        q, _ = self.net.forward_batch(batch)
        # draws from each rng even at epsilon 0; the episode's env steps share it
        return epsilon_greedy(q, masks, 0.0, rngs)


@dataclass
class TrainResult:
    policy: QPolicy
    episode_returns: list = field(default_factory=list)
    loss_moving_average: list = field(default_factory=list)
    snapshot_scores: list = field(default_factory=list)  # (episode, mean return)


def train(env: Environment, config: TrainConfig) -> TrainResult:
    """Run DQN training on ``env``; returns the greedy policy and learning curve."""
    net, target = (DeepSetsNet(env.element_dim, env.aux_dim, env.action_count,
                               seed=config.seed, phi_hidden=config.phi_hidden,
                               latent_dim=config.latent_dim, rho_hidden=config.rho_hidden)
                   for _ in range(2))  # one seed: the two start bit-equal
    optimizer = Adam(net.flat.size, learning_rate=config.learning_rate)
    buffer = ReplayBuffer(config.replay_capacity, env.aux_dim, env.action_count)
    train_rng = np.random.default_rng([config.seed, 0x7E57])

    result = TrainResult(policy=QPolicy(net, env))
    loss_ma = float("nan")  # until the first gradient step
    global_step = 0
    best_score = -np.inf
    best_params = None  # flat parameter vector of the best snapshot

    for episode in range(config.episodes):
        epsilon = config.epsilon_at(episode)
        env_rng = np.random.default_rng([config.seed, 1, episode])
        state = env.reset(env_rng)
        ep_return = 0.0
        enc, mask = env.encode(state), env.action_mask(state)
        while not state.done:
            # the learner's overflows end as non-finite Q values or loss, which
            # raise DivergenceDetected; numpy's warnings about them add nothing
            with np.errstate(over="ignore", invalid="ignore"):
                q, _ = net.forward_batch(SetBatch([enc.elements], enc.aux[None]))
            if not np.isfinite(q).all():
                raise DivergenceDetected(
                    f"non-finite Q values at episode {episode}, step {global_step + 1}"
                )
            action = int(epsilon_greedy(q, mask[None], epsilon, [train_rng])[0])
            state, reward = env.step(state, action, env_rng)
            ep_return += reward
            next_enc, next_mask = env.encode(state), env.action_mask(state)
            buffer.push(
                enc, action, reward / config.reward_scale, next_enc, state.done, next_mask,
            )
            enc, mask = next_enc, next_mask
            global_step += 1

            if (len(buffer) >= config.learning_starts
                    and global_step % config.train_every == 0):
                loss = _update(net, target, optimizer, buffer, config, train_rng)
                if not np.isfinite(loss):
                    raise DivergenceDetected(
                        f"non-finite loss at episode {episode}, step {global_step}"
                    )
                loss_ma = loss if np.isnan(loss_ma) else 0.99 * loss_ma + 0.01 * loss
            if global_step % config.target_sync == 0:
                target.flat[...] = net.flat
                buffer.current[:] = False  # every cached target row is stale

        result.episode_returns.append(ep_return)
        result.loss_moving_average.append(loss_ma)

        if config.snapshot_every is not None and (
            (episode + 1) % config.snapshot_every == 0 or episode + 1 == config.episodes
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                score = evaluate_policy(  # mean greedy return on the validation block
                    env, result.policy, config.snapshot_episodes, config.snapshot_seed_base
                ).mean
            result.snapshot_scores.append((episode + 1, score))
            if score > best_score:
                best_score = score
                best_params = net.flat.copy()

    if best_params is not None:
        net.flat[...] = best_params

    return result


@np.errstate(over="ignore", invalid="ignore")  # train checks the loss it returns
def _update(net, target, optimizer, buffer, config, rng) -> float:
    idx = buffer.sample(config.batch_size, rng)
    stale = idx[~buffer.current[idx]]  # the target net runs over these rows alone
    if len(stale):
        buffer.next_q[stale] = target.forward_batch(SetBatch(
            buffer.next_sets[stale], buffer.next_aux[stale], buffer.next_counts[stale]))[0]
        buffer.current[stale] = True
    target_q = buffer.next_q[idx]
    rows = np.arange(len(idx))
    now = SetBatch(buffer.sets[idx], buffer.aux[idx], buffer.counts[idx])
    if config.double_dqn:  # one online pass: the current states, then the next ones
        same = buffer.same_set[idx]  # these next states reuse their current set
        index = np.where(same, rows, len(idx) + np.cumsum(~same) - 1)
        now = SetBatch(np.concatenate([now.sets, buffer.next_sets[idx[~same]]]),
                       np.concatenate([now.aux, buffer.next_aux[idx]]),
                       np.concatenate([now.counts, buffer.next_counts[idx[~same]]]),
                       np.concatenate([rows, index]))
    q, cache = net.forward_batch(now)
    # the target net values the next action; under double DQN the online net chooses it
    chooser = q[len(idx):] if config.double_dqn else target_q
    best = masked_argmax(chooser, buffer.next_mask[idx])
    targets = td_target(
        buffer.reward[idx], buffer.done[idx], target_q[rows, best], config.discount
    )

    actions = buffer.action[idx]
    err = q[rows, actions] - targets
    loss = float(np.mean(err**2))
    d_q = np.zeros_like(target_q)  # the current sets' rows alone
    d_q[rows, actions] = 2.0 * err / len(idx)
    optimizer.step(net.flat, net.backward_batch(cache, d_q))
    return loss
