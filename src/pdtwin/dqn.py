"""Deep Q-learning on the information state-space.

Epsilon-greedy exploration with action masking, a uniform experience-replay
ring, a periodically synchronized target network, and squared-error
regression onto one-step TD targets. Fully deterministic given the training
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mdp import Environment, Policy, StateEncoding, run_episode
from .nets import Adam, DeepSetsNet


class NoLegalAction(RuntimeError):
    """Every action is masked; the environment contract is broken."""


class DivergenceDetected(RuntimeError):
    """Training loss or Q values became non-finite."""


# smallest legal value of each integer setting of TrainConfig
_INT_LOWER_BOUNDS = {
    "episodes": 0, "warmup": 0, "seed": 0, "snapshot_seed_base": 0,
    "batch_size": 1, "replay_capacity": 1, "train_every": 1,
    "target_sync": 1, "snapshot_episodes": 1, "latent_dim": 1,
    "snapshot_every": 1, "epsilon_decay_episodes": 1,
}


@dataclass
class TrainConfig:
    episodes: int = 3000
    batch_size: int = 64
    learning_rate: float = 1e-3
    discount: float = 1.0
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int | None = None  # default: first half of training
    target_sync: int = 500  # environment steps between target-net syncs
    replay_capacity: int = 50_000
    warmup: int = 500  # transitions collected before learning starts
    train_every: int = 1  # environment steps between gradient updates
    seed: int = 0
    reward_scale: float = 1.0  # rewards divided by this inside the learner
    double_dqn: bool = False
    # when set, the greedy policy is scored on a fixed validation seed block
    # every snapshot_every episodes (and once at the end) and the best
    # snapshot is returned instead of the final network; guards against
    # late-training policy collapse
    snapshot_every: int | None = None
    snapshot_episodes: int = 50
    snapshot_seed_base: int = 900_000
    phi_hidden: tuple = (32, 32)
    latent_dim: int = 16
    rho_hidden: tuple = (32, 32)

    def __post_init__(self):
        if not (0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0):
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        for name, low in _INT_LOWER_BOUNDS.items():
            value = getattr(self, name)
            if value is not None and value < low:  # None: the documented default
                raise ValueError(f"{name} must be >= {low}")
        hidden = (*self.phi_hidden, *self.rho_hidden)
        if not all(type(h) is int and h >= 1 for h in hidden):
            raise ValueError("hidden layer sizes must be integers >= 1")
        if not (0.0 <= self.discount <= 1.0):
            raise ValueError("discount must lie in [0, 1]")
        if not (self.learning_rate > 0.0 and self.reward_scale > 0.0):
            raise ValueError("learning_rate and reward_scale must be > 0")

    def epsilon_at(self, episode: int) -> float:
        horizon = self.epsilon_decay_episodes or max(1, self.episodes // 2)
        frac = min(1.0, episode / horizon)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform batch sampling."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items = []
        self._cursor = 0

    def push(self, item) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._cursor] = item
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator):
        n = len(self._items)
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)


def epsilon_greedy(
    q_values: np.ndarray, mask: np.ndarray, epsilon: float, rng: np.random.Generator
) -> int:
    """Explore uniformly over legal actions with probability epsilon, else argmax."""
    legal = np.flatnonzero(mask)
    if len(legal) == 0:
        raise NoLegalAction("action mask admits no action")
    if rng.random() < epsilon:
        return int(legal[rng.integers(len(legal))])
    masked_q = np.where(mask, q_values, -np.inf)
    return int(np.argmax(masked_q))  # ties resolve to the lowest index


def td_target(reward, done, next_q: np.ndarray, next_mask: np.ndarray, discount):
    """Bootstrap target: reward, plus the best legal next value if not terminal.

    Takes one transition (scalars, 1-d ``next_q``) or a batch (arrays, one
    row of ``next_q`` and ``next_mask`` per transition).
    """
    best = np.max(np.where(next_mask, next_q, -np.inf), axis=-1)
    target = np.where(done, reward, reward + discount * best)
    return float(target) if target.ndim == 0 else target


class QPolicy(Policy):
    """Acts by (masked) argmax of the value network's outputs."""

    def __init__(self, net: DeepSetsNet, env: Environment, epsilon: float = 0.0):
        self.net = net
        self.env = env
        self.epsilon = epsilon

    def q_values(self, state) -> np.ndarray:
        enc = self.env.encode(state)
        return self.net.forward(enc.elements, enc.aux)

    def act(self, state, mask, rng) -> int:
        return epsilon_greedy(self.q_values(state), mask, self.epsilon, rng)


@dataclass
class TrainResult:
    policy: QPolicy
    episode_returns: list = field(default_factory=list)
    episode_epsilons: list = field(default_factory=list)
    loss_moving_average: list = field(default_factory=list)
    snapshot_scores: list = field(default_factory=list)  # (episode, mean return)


@dataclass(frozen=True)
class _Stored:
    encoding: StateEncoding
    action: int
    reward: float  # already divided by reward_scale
    next_encoding: StateEncoding
    done: bool
    next_mask: np.ndarray


def train(env: Environment, config: TrainConfig) -> TrainResult:
    """Run DQN training on ``env``; returns the greedy policy and learning curve."""
    net = DeepSetsNet(
        env.element_dim, env.aux_dim, env.action_count,
        seed=config.seed,
        phi_hidden=config.phi_hidden,
        latent_dim=config.latent_dim,
        rho_hidden=config.rho_hidden,
    )
    target = net.copy()
    optimizer = Adam(learning_rate=config.learning_rate)
    buffer = ReplayBuffer(config.replay_capacity)
    train_rng = np.random.default_rng([config.seed, 0x7E57])

    result = TrainResult(policy=QPolicy(net, env))
    loss_ma = 0.0
    have_loss = False
    global_step = 0
    best_score = -np.inf
    best_params = None

    for episode in range(config.episodes):
        epsilon = config.epsilon_at(episode)
        env_rng = np.random.default_rng([config.seed, 1, episode])
        state = env.reset(env_rng)
        ep_return = 0.0
        done = env.done(state)
        enc, mask = env.encode(state), env.action_mask(state)
        while not done:
            q = net.forward(enc.elements, enc.aux)
            if not np.isfinite(q).all():
                raise DivergenceDetected(
                    f"non-finite Q values at episode {episode}, step {global_step + 1}"
                )
            action = epsilon_greedy(q, mask, epsilon, train_rng)
            state, reward, done = env.step(state, action, env_rng)
            ep_return += reward
            next_enc, next_mask = env.encode(state), env.action_mask(state)
            buffer.push(_Stored(
                enc, action, reward / config.reward_scale, next_enc, done, next_mask,
            ))
            enc, mask = next_enc, next_mask
            global_step += 1

            if (
                len(buffer) >= max(config.warmup, config.batch_size)
                and global_step % config.train_every == 0
            ):
                loss = _update(net, target, optimizer, buffer, config, train_rng)
                if not np.isfinite(loss):
                    raise DivergenceDetected(
                        f"non-finite loss at episode {episode}, step {global_step}"
                    )
                loss_ma = loss if not have_loss else 0.99 * loss_ma + 0.01 * loss
                have_loss = True
            if global_step % config.target_sync == 0:
                target.load_parameters(net.parameters())

        result.episode_returns.append(ep_return)
        result.episode_epsilons.append(epsilon)
        result.loss_moving_average.append(loss_ma if have_loss else float("nan"))

        if config.snapshot_every is not None and (
            (episode + 1) % config.snapshot_every == 0 or episode + 1 == config.episodes
        ):
            score = _validation_score(env, net, config)
            result.snapshot_scores.append((episode + 1, score))
            if score > best_score:
                best_score = score
                best_params = {k: v.copy() for k, v in net.parameters().items()}

    if best_params is not None:
        net.load_parameters(best_params)

    return result


def _validation_score(env, net, config) -> float:
    """Mean greedy return over the fixed validation seed block."""
    policy = QPolicy(net, env)
    total = 0.0
    for i in range(config.snapshot_episodes):
        total += run_episode(env, policy, config.snapshot_seed_base + i).total_return
    return total / config.snapshot_episodes


def _update(net, target, optimizer, buffer, config, rng) -> float:
    batch = buffer.sample(config.batch_size, rng)
    next_encs = [(t.next_encoding.elements, t.next_encoding.aux) for t in batch]
    target_q, _ = target.forward_batch(next_encs)
    next_mask = np.array([t.next_mask for t in batch])
    if config.double_dqn:
        # the online network picks the action, the target network values it
        online_q, _ = net.forward_batch(next_encs)
        best = np.argmax(np.where(next_mask, online_q, -np.inf), axis=1)
        next_mask = np.arange(net.output_dim) == best[:, None]
    dones = np.array([t.done for t in batch])
    rewards = np.array([t.reward for t in batch])
    targets = td_target(rewards, dones, target_q, next_mask, config.discount)

    encs = [(t.encoding.elements, t.encoding.aux) for t in batch]
    q, cache = net.forward_batch(encs)
    actions = np.array([t.action for t in batch])
    taken = q[np.arange(len(batch)), actions]
    err = taken - targets
    loss = float(np.mean(err**2))
    d_q = np.zeros_like(q)
    d_q[np.arange(len(batch)), actions] = 2.0 * err / len(batch)
    grads = net.backward_batch(cache, d_q)
    optimizer.step(net.parameters(), grads)
    return loss
