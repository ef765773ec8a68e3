import copy
import dataclasses

import numpy as np
import pytest

from pdtwin import dqn
from pdtwin.config import load_run_config
from pdtwin.dqn import (
    DivergenceDetected, NoLegalAction, QPolicy, ReplayBuffer,
    TrainConfig, _update, epsilon_greedy, masked_argmax, td_target, train,
)
from pdtwin.envs.component import CoinConfig, CoinState, ComponentEnv
from pdtwin.envs.reliability import FE, ReliabilityEnv
from pdtwin.mdp import Environment, StateEncoding, evaluate_policy
from pdtwin.nets import Adam, DeepSetsNet, SetBatch
from pdtwin.oracle import TabularState, backward_induction, policy_value


@dataclasses.dataclass(frozen=True)
class BanditState:
    """The bandit's two states: START, and END after its one step."""

    done: bool
    outcome = None


START, END = BanditState(False), BanditState(True)


class BanditEnv(Environment):
    """One-step environment: action 1 pays 1, everything else pays 0."""

    action_count = 3
    element_dim = 1
    aux_dim = 1

    def reset(self, rng):
        return START

    def step(self, state, action, rng):
        return END, 1.0 if action == 1 else 0.0

    def action_mask(self, state):
        return np.ones(3, dtype=bool)

    def encode(self, state):
        return StateEncoding((), np.array([1.0]))


def start_q(policy):
    """Q values the policy's network gives the bandit's start state."""
    enc = BanditEnv().encode(START)
    return policy.net.forward(enc.elements, enc.aux)


class TestTrainConfig:
    def test_epsilon_schedule_endpoints(self):
        cfg = TrainConfig(episodes=100)
        assert cfg.epsilon_at(0) == 1.0
        assert cfg.epsilon_at(50) == pytest.approx(0.05)
        assert cfg.epsilon_at(99) == pytest.approx(0.05)

    def test_epsilon_linear_midpoint(self):
        cfg = TrainConfig(episodes=100)
        assert cfg.epsilon_at(25) == pytest.approx(0.525)

    def test_explicit_decay_horizon(self):
        cfg = TrainConfig(episodes=100, epsilon_decay_episodes=10)
        assert cfg.epsilon_at(10) == pytest.approx(0.05)

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValueError):
            TrainConfig(epsilon_start=0.1, epsilon_end=0.5)


def push_numbered(buf, i):
    """Push transition i; every field of it encodes i."""
    enc = StateEncoding(np.full((i % 3, 2), float(i)), np.array([float(i), 0.5]))
    next_enc = StateEncoding(np.full((1, 2), -float(i)), np.array([-float(i), 1.5]))
    next_mask = np.array([i % 2 == 0, True, i % 3 == 0])
    buf.push(enc, i % 3, 10.0 * i, next_enc, i % 2 == 1, next_mask)


class TestReplayBuffer:
    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(3, aux_dim=2, action_count=3)
        for i in range(5):
            push_numbered(buf, i)
        assert len(buf) == 3
        idx = buf.sample(3, np.random.default_rng(0))
        assert sorted(buf.aux[idx, 0]) == [2.0, 3.0, 4.0]
        for row in idx:
            i = int(buf.aux[row, 0])
            assert np.array_equal(buf.sets[row], np.full((i % 3, 2), float(i)))
            assert buf.counts[row] == i % 3 and buf.next_counts[row] == 1
            assert np.array_equal(buf.aux[row], [i, 0.5])
            assert buf.action[row] == i % 3
            assert buf.reward[row] == 10.0 * i
            assert np.array_equal(buf.next_sets[row], np.full((1, 2), -float(i)))
            assert np.array_equal(buf.next_aux[row], [-i, 1.5])
            assert buf.done[row] == (i % 2 == 1)
            assert np.array_equal(buf.next_mask[row], [i % 2 == 0, True, i % 3 == 0])

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(10, aux_dim=2, action_count=3)
        for i in range(10):
            push_numbered(buf, i)
        idx = buf.sample(10, np.random.default_rng(0))
        assert sorted(idx.tolist()) == list(range(10))

    def test_sample_caps_at_size(self):
        buf = ReplayBuffer(10, aux_dim=2, action_count=3)
        push_numbered(buf, 7)
        idx = buf.sample(5, np.random.default_rng(0))
        assert idx.tolist() == [0] and buf.reward[0] == 70.0


def greedy_one(q, mask, epsilon, rng):
    """epsilon_greedy on a batch of one row."""
    return int(epsilon_greedy(np.array([q]), np.array([mask]), epsilon, [rng])[0])


class TestEpsilonGreedy:
    def test_greedy_respects_mask(self):
        q = np.array([10.0, 1.0, 5.0])
        mask = np.array([False, True, True])
        rng = np.random.default_rng(0)
        assert greedy_one(q, mask, 0.0, rng) == 2

    def test_tie_breaks_to_lowest_index(self):
        q = np.array([3.0, 3.0, 1.0])
        mask = np.ones(3, dtype=bool)
        assert greedy_one(q, mask, 0.0, np.random.default_rng(0)) == 0

    def test_exploration_only_picks_legal(self):
        q = np.zeros(3)
        mask = np.array([False, True, False])
        rng = np.random.default_rng(0)
        assert all(greedy_one(q, mask, 1.0, rng) == 1 for _ in range(20))

    def test_all_masked_raises(self):
        with pytest.raises(NoLegalAction):
            greedy_one(np.zeros(2), np.zeros(2, dtype=bool),
                       0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    def test_any_row_all_masked_raises(self, epsilon):
        masks = np.array([[True, False], [False, False], [False, True]])
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(NoLegalAction):
            epsilon_greedy(np.zeros((3, 2)), masks, epsilon, rngs)
        # the check comes before any row draws
        assert [rng.random() for rng in rngs] == [
            np.random.default_rng(i).random() for i in range(3)]

    def test_exploration_rate(self):
        q = np.array([1.0, 0.0])
        mask = np.ones(2, dtype=bool)
        rng = np.random.default_rng(1)
        picks = [greedy_one(q, mask, 0.5, rng) for _ in range(2000)]
        # greedy action 0 chosen with probability 1 - eps + eps/2 = 0.75
        assert np.mean(np.array(picks) == 0) == pytest.approx(0.75, abs=0.05)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_batch_equals_rows_one_at_a_time(self, epsilon):
        data = np.random.default_rng(8)
        q = data.standard_normal((50, 4))
        q[:10, 1] = q[:10, 2]  # ties
        masks = data.random((50, 4)) < 0.6
        masks[np.arange(50), data.integers(4, size=50)] = True
        batched = epsilon_greedy(
            q, masks, epsilon, [np.random.default_rng(i) for i in range(50)])
        rows = [greedy_one(q[i], masks[i], epsilon, np.random.default_rng(i))
                for i in range(50)]
        assert batched.tolist() == rows


def bootstrap(rewards, dones, target_q, chooser_q, masks, discount):
    """The targets a training update assembles: the chooser's best legal next
    action, valued by the target network."""
    best = masked_argmax(chooser_q, masks)
    return td_target(rewards, dones, target_q[np.arange(len(rewards)), best], discount)


class TestTdTarget:
    def test_terminal_is_reward(self):
        # a terminal transition never reads its next value
        targets = td_target(np.array([3.0]), np.array([True]), np.array([np.nan]), 1.0)
        assert targets.tolist() == [3.0]

    def test_bootstraps_best_legal(self):
        target_q = np.array([[5.0, 9.0, 7.0]])
        mask = np.array([[True, False, True]])
        targets = bootstrap(
            np.array([1.0]), np.array([False]), target_q, target_q, mask, 0.5)
        assert targets.tolist() == [4.5]

    @pytest.mark.parametrize("double", [False, True])
    def test_batch_equals_per_row_loop(self, double):
        rng = np.random.default_rng(23)
        n, actions = 200, 4
        rewards = rng.standard_normal(n)
        dones = rng.random(n) < 0.3
        discount = 0.9
        target_q = rng.standard_normal((n, actions))
        online_q = rng.standard_normal((n, actions))
        mask = rng.random((n, actions)) < 0.6
        mask[np.arange(n), rng.integers(actions, size=n)] = True
        mask[dones & (rng.random(n) < 0.5)] = False  # terminal states with no action
        chooser = online_q if double else target_q
        chooser[:20, 1:3] = 5.0  # two legal actions tie for the row's best
        mask[:20, 1:3] = True
        assert (masked_argmax(chooser, mask) != chooser.argmax(axis=1)).any()

        expected = np.empty(n)
        for i in range(n):  # reference: one transition at a time
            if dones[i]:
                expected[i] = rewards[i]
                continue
            legal = np.flatnonzero(mask[i])
            top = max(chooser[i, a] for a in legal)
            best = min(a for a in legal if chooser[i, a] == top)  # lowest-index tie
            if not double:  # plain DQN bootstraps the best legal target value
                assert target_q[i, best] == max(target_q[i, a] for a in legal)
            expected[i] = rewards[i] + discount * target_q[i, best]
        batched = bootstrap(rewards, dones, target_q, chooser, mask, discount)
        assert np.array_equal(batched, expected)


class TestTraining:
    def test_learns_the_bandit(self):
        cfg = TrainConfig(episodes=300, warmup=32, batch_size=16, seed=0)
        result = train(BanditEnv(), cfg)
        q = start_q(result.policy)
        assert int(np.argmax(q)) == 1
        assert q[1] == pytest.approx(1.0, abs=0.05)

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(episodes=50, warmup=32, batch_size=16, seed=4)
        a = train(BanditEnv(), cfg)
        b = train(BanditEnv(), cfg)
        assert a.episode_returns == b.episode_returns
        for name, arr in a.policy.net.parameters().items():
            assert np.array_equal(arr, b.policy.net.parameters()[name])

    def test_actor_reads_the_network_as_a_batch(self, monkeypatch):
        # training reads Q through forward_batch, as QPolicy does
        def single_state_forward(*args):
            raise AssertionError("single-state forward called")

        monkeypatch.setattr(DeepSetsNet, "forward", single_state_forward)
        result = train(BanditEnv(), TrainConfig(episodes=20, warmup=16))
        assert len(result.episode_returns) == 20

    def test_seed_changes_training(self):
        a = train(BanditEnv(), TrainConfig(episodes=50, warmup=32, seed=0))
        b = train(BanditEnv(), TrainConfig(episodes=50, warmup=32, seed=1))
        assert a.episode_returns != b.episode_returns

    def test_curves_have_episode_length(self):
        cfg = TrainConfig(episodes=40, warmup=16, batch_size=8)
        result = train(BanditEnv(), cfg)
        assert len(result.episode_returns) == 40
        assert len(result.loss_moving_average) == 40

    def test_double_dqn_also_learns(self):
        cfg = TrainConfig(episodes=300, warmup=32, batch_size=16, double_dqn=True)
        result = train(BanditEnv(), cfg)
        assert int(np.argmax(start_q(result.policy))) == 1

    def test_snapshot_selection_records_scores(self):
        cfg = TrainConfig(
            episodes=100, warmup=16, batch_size=8,
            snapshot_every=20, snapshot_episodes=5,
        )
        result = train(BanditEnv(), cfg)
        assert [ep for ep, _ in result.snapshot_scores] == [20, 40, 60, 80, 100]
        assert all(np.isfinite(s) for _, s in result.snapshot_scores)
        assert int(np.argmax(start_q(result.policy))) == 1

    def test_snapshot_selection_is_deterministic(self):
        cfg = TrainConfig(
            episodes=60, warmup=16, batch_size=8,
            snapshot_every=25, snapshot_episodes=5, seed=3,
        )
        a = train(BanditEnv(), cfg)
        b = train(BanditEnv(), cfg)
        assert a.snapshot_scores == b.snapshot_scores
        for name, arr in a.policy.net.parameters().items():
            assert np.array_equal(arr, b.policy.net.parameters()[name])

    def test_final_snapshot_taken_once_and_best_returned(self):
        cfg = TrainConfig(
            episodes=60, warmup=16, batch_size=8,
            snapshot_every=25, snapshot_episodes=5, seed=3,
        )
        result = train(BanditEnv(), cfg)
        assert [ep for ep, _ in result.snapshot_scores] == [25, 50, 60]
        returned = evaluate_policy(BanditEnv(), result.policy, 5, cfg.snapshot_seed_base)
        assert returned.mean == max(score for _, score in result.snapshot_scores)

    def test_no_episodes_no_snapshot(self):
        cfg = TrainConfig(episodes=0, snapshot_every=5)
        result = train(BanditEnv(), cfg)
        assert result.snapshot_scores == [] and result.episode_returns == []

    def test_divergence_detection(self):
        class NanEnv(BanditEnv):
            def step(self, state, action, rng):
                return END, float("nan")

        cfg = TrainConfig(episodes=50, warmup=8, batch_size=8)
        with pytest.raises(DivergenceDetected):
            train(NanEnv(), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_q_values_are_divergence(self):
        # warmup exceeds the run, so no loss is ever computed
        class InfAuxEnv(BanditEnv):
            def encode(self, state):
                return StateEncoding((), np.array([np.inf]))

        cfg = TrainConfig(episodes=5, warmup=100, batch_size=8)
        with pytest.raises(DivergenceDetected, match="episode 0, step 1"):
            train(InfAuxEnv(), cfg)

    def test_start_state_already_done(self):
        # a zero-step episode: nothing is stepped, stored or learned
        class DoneAtResetEnv(BanditEnv):
            def reset(self, rng):
                return END

            def step(self, state, action, rng):
                raise AssertionError("a done state was stepped")

        cfg = TrainConfig(episodes=4, warmup=0, batch_size=1, snapshot_every=2)
        result = train(DoneAtResetEnv(), cfg)
        assert result.episode_returns == [0.0] * 4
        assert all(np.isnan(v) for v in result.loss_moving_average)
        assert result.snapshot_scores == [(2, 0.0), (4, 0.0)]


def three_pass_update(net, target, optimizer, buffer, config, rng) -> float:
    """Reference for ``_update``: the online net runs once over the next sets
    (under double DQN) and once more over the current sets."""
    idx = buffer.sample(config.batch_size, rng)
    next_batch = SetBatch(buffer.next_sets[idx], buffer.next_aux[idx])
    target_q, _ = target.forward_batch(next_batch)
    chooser = net.forward_batch(next_batch)[0] if config.double_dqn else target_q
    best = masked_argmax(chooser, buffer.next_mask[idx])
    rows = np.arange(len(idx))
    targets = td_target(
        buffer.reward[idx], buffer.done[idx], target_q[rows, best], config.discount
    )
    q, cache = net.forward_batch(SetBatch(buffer.sets[idx], buffer.aux[idx]))
    actions = buffer.action[idx]
    err = q[rows, actions] - targets
    loss = float(np.mean(err**2))
    d_q = np.zeros_like(q)
    d_q[rows, actions] = 2.0 * err / len(idx)
    optimizer.step(net.flat, net.backward_batch(cache, d_q))
    return loss


def filled_replay(env, config, size, first_steps_only=False):
    """A replay of ``size`` transitions from uniformly random legal actions;
    with ``first_steps_only``, each episode's first transition alone."""
    buffer = ReplayBuffer(size, env.aux_dim, env.action_count)
    rng = np.random.default_rng(config.seed)
    while len(buffer) < size:
        state = env.reset(rng)
        enc, mask = env.encode(state), env.action_mask(state)
        while not state.done and len(buffer) < size:
            action = int(rng.choice(np.flatnonzero(mask)))
            state, reward = env.step(state, action, rng)
            next_enc, next_mask = env.encode(state), env.action_mask(state)
            buffer.push(enc, action, reward / config.reward_scale, next_enc,
                        state.done, next_mask)
            enc, mask = next_enc, next_mask
            if first_steps_only:
                break
    return buffer


def fresh_learner(env, config, buffer):
    """Online and target nets of different seeds and an optimizer; the new
    target net makes every target row the replay holds stale."""
    net, target = (DeepSetsNet(env.element_dim, env.aux_dim, env.action_count,
                               seed=config.seed + k, phi_hidden=config.phi_hidden,
                               latent_dim=config.latent_dim, rho_hidden=config.rho_hidden)
                   for k in range(2))
    buffer.current[:] = False
    return net, target, Adam(net.flat.size, learning_rate=config.learning_rate)


def run_updates(update, env, config, buffer, count=20):
    """Losses and final parameters of ``count`` updates from fresh nets."""
    net, target, optimizer = fresh_learner(env, config, buffer)
    rng = np.random.default_rng(11)
    losses = [update(net, target, optimizer, buffer, config, rng) for _ in range(count)]
    return losses, net.flat


def reliability_setup():
    run_config = load_run_config(None, "reliability")
    return ReliabilityEnv(run_config.reliability), run_config.train


def constrained_set_setup():
    run_config = load_run_config(None, "component", constrained=True)
    config = dataclasses.replace(run_config.train, double_dqn=True)
    return ComponentEnv(run_config.component, encoding="set"), config


class TestJointOnlinePass:
    # _update runs the online net once over the current sets followed by the
    # next ones; it must give the bits of one pass per half
    # batch_size 30 and a width below 4 once gave rows whose bits depended on
    # the rows beside them
    @pytest.mark.parametrize("setup, first_steps_only, change", [
        (reliability_setup, False, {}), (constrained_set_setup, False, {}),
        (reliability_setup, True, {}), (constrained_set_setup, True, {}),
        (reliability_setup, False, {"batch_size": 30}),
        (constrained_set_setup, False, {"latent_dim": 3}),
    ], ids=["reliability", "constrained-set", "reliability-empty-current",
            "constrained-set-empty-current", "reliability-batch-30",
            "constrained-set-latent-3"])
    def test_bit_equal_to_one_pass_per_half(self, setup, first_steps_only, change):
        env, config = setup()
        config = dataclasses.replace(config, **change)
        assert config.double_dqn
        buffer = filled_replay(env, config, 300, first_steps_only)
        if first_steps_only:  # no set row in the current half, some in the next
            assert not buffer.counts.any() and buffer.next_counts.any()
        expected_losses, expected_flat = run_updates(three_pass_update, env, config, buffer)
        losses, flat = run_updates(_update, env, config, buffer)
        assert losses == expected_losses
        assert np.array_equal(flat, expected_flat)

    @pytest.mark.parametrize("double", [False, True])
    def test_two_forward_batch_calls_per_update(self, double, monkeypatch):
        # the target pass covers the sampled rows no earlier update valued (no
        # sync comes between), the online pass every sampled state
        env, config = constrained_set_setup()
        config = dataclasses.replace(config, double_dqn=double)
        buffer = filled_replay(env, config, 100)
        calls, samples = [], []
        forward_batch, sample = DeepSetsNet.forward_batch, buffer.sample

        def counted(self, batch):
            calls.append(len(batch.aux))
            return forward_batch(self, batch)

        monkeypatch.setattr(DeepSetsNet, "forward_batch", counted)
        monkeypatch.setattr(buffer, "sample", lambda *args: samples.append(sample(*args))
                            or samples[-1])
        run_updates(_update, env, config, buffer, count=3)
        valued, expected = set(), []
        for idx in samples:
            fresh = set(idx.tolist()) - valued
            valued |= fresh
            expected += [len(fresh), 128 if double else 64]
        assert expected[0] == 64 and 0 < expected[2] < 64
        assert calls == expected

    @pytest.mark.parametrize("double", [False, True])
    def test_repeated_rows_make_no_target_pass(self, double, monkeypatch):
        env, config = reliability_setup()
        config = dataclasses.replace(config, double_dqn=double)
        buffer = filled_replay(env, config, 300)
        net, target, optimizer = fresh_learner(env, config, buffer)
        rng = np.random.default_rng(11)
        again = copy.deepcopy(rng)  # draws the same indices
        _update(net, target, optimizer, buffer, config, rng)
        calls = []
        forward_batch = DeepSetsNet.forward_batch

        def counted(self, batch):
            calls.append(self)
            return forward_batch(self, batch)

        monkeypatch.setattr(DeepSetsNet, "forward_batch", counted)
        _update(net, target, optimizer, buffer, config, again)
        assert calls == [net]


def recorded(update, losses):
    """``update``, appending each loss it returns to ``losses``."""
    def run(*args):
        losses.append(update(*args))
        return losses[-1]
    return run


class TestCachedTargetRows:
    # _update keeps the target net's Q rows in the replay until a push or a
    # sync makes them stale, and pools a next set once when it is its current
    # set; training must give the bits of a full target pass every update
    def test_reliability_next_set_is_shared_unless_fe(self):
        env, config = reliability_setup()
        buffer = filled_replay(env, config, 300)
        assert buffer.same_set.any() and not buffer.same_set.all()
        assert np.array_equal(buffer.same_set, buffer.action != FE)
        assert np.array_equal(buffer.same_set, [a is b for a, b in
                                                zip(buffer.sets, buffer.next_sets)])

    @pytest.mark.parametrize("double", [False, True], ids=["plain", "double"])
    @pytest.mark.parametrize("setup, change", [
        (reliability_setup, {"episodes": 30, "replay_capacity": 300}),
        (constrained_set_setup, {"episodes": 300, "replay_capacity": 100}),
    ], ids=["reliability", "constrained-set"])
    def test_training_bit_equal_to_a_full_target_pass(self, setup, change, double,
                                                      monkeypatch):
        env, config = setup()
        config = dataclasses.replace(config, double_dqn=double, warmup=64,
                                     target_sync=75, snapshot_every=None, **change)
        runs, pushes, push = [], [], ReplayBuffer.push
        monkeypatch.setattr(ReplayBuffer, "push",
                            lambda self, *args: pushes.append(push(self, *args)))
        for update in (three_pass_update, _update):
            losses = []
            monkeypatch.setattr(dqn, "_update", recorded(update, losses))
            result = train(env, config)
            runs.append((losses, result.policy.net.flat, result.episode_returns))
        # the ring wraps, and syncs fall between updates after learning starts
        steps = len(pushes) // 2
        assert steps > 2 * config.replay_capacity
        assert steps > config.learning_starts + 2 * config.target_sync
        (expected_losses, expected_flat, expected_returns), (losses, flat, returns) = runs
        assert losses == expected_losses
        assert np.array_equal(flat, expected_flat)
        assert returns == expected_returns


class TestQPolicy:
    def test_greedy_policy_is_deterministic(self):
        result = train(BanditEnv(), TrainConfig(episodes=100, warmup=16))
        policy = result.policy
        acts = {int(policy.act([START], np.ones((1, 3), dtype=bool),
                               [np.random.default_rng(i)])[0])
                for i in range(10)}
        assert len(acts) == 1

    def test_act_draws_once_from_rng(self):
        # each episode's environment steps draw from the rng the policy gets
        # for it, so every evaluation stream depends on exactly one draw per
        # greedy action, whatever the batch
        policy = train(BanditEnv(), TrainConfig(episodes=20, warmup=16)).policy
        rngs = [np.random.default_rng(5 + j) for j in range(3)]
        references = [np.random.default_rng(5 + j) for j in range(3)]
        actions = policy.act([START] * 3, np.ones((3, 3), dtype=bool), rngs)
        assert len(actions) == 3
        for rng, reference in zip(rngs, references):
            reference.random()
            assert rng.random() == reference.random()


def greedy_table(policy, env) -> dict:
    """The greedy action at every non-terminal state, from one batched act;
    encode reads only the counts and days left, not the hidden theta."""
    infos = [s for s in backward_induction(env.config).values if s.days_left > 0]
    states = [CoinState(info, env.config.theta_good) for info in infos]
    masks = np.array([env.action_mask(state) for state in states])
    rngs = [np.random.default_rng(0) for _ in states]
    return dict(zip(infos, (int(a) for a in policy.act(states, masks, rngs))))


class TestLearnedPolicyExactValue:
    # checks simulation against the policy's exact value; the gap to V* is not bounded
    @pytest.mark.parametrize("encoding, constrained", [
        ("compressed", False), ("set", False), ("compressed", True),
    ], ids=["compressed", "set", "constrained"])
    def test_simulated_mean_matches_exact_value(self, encoding, constrained):
        env = ComponentEnv(CoinConfig(constrained=constrained), encoding=encoding)
        policy = train(env, TrainConfig(episodes=200, seed=0, reward_scale=1e6)).policy
        exact = policy_value(greedy_table(policy, env), env.config)
        n = 4000
        summary = evaluate_policy(env, policy, n, base_seed=0)
        assert abs(summary.mean - exact) <= 4.0 * summary.sd / np.sqrt(n)


@pytest.mark.slow
class TestCoinGameLearning:
    def test_short_training_beats_terminating(self):
        # small-budget smoke run: the learned policy must find positive value
        env = ComponentEnv(encoding="compressed")
        cfg = TrainConfig(episodes=600, seed=0, reward_scale=1e6)
        result = train(env, cfg)
        summary = evaluate_policy(env, result.policy, 500, base_seed=0)
        vstar = backward_induction().values[TabularState(0, 0, 10)]
        assert summary.mean > 0.5 * vstar

    @pytest.mark.parametrize("seed", [
        0,
        pytest.param(3, marks=pytest.mark.xfail(strict=True, reason=(
            "known constrained collapse (ROADMAP item 6): uniform exploration "
            "rarely sees the four clean Tests that unmask Use, and the network "
            "learns to Terminate at the start, a gap of 100% to V*"))),
    ])
    def test_constrained_defaults_keep_half_the_optimal_value(self, seed):
        run_config = load_run_config(None, "component", seed=seed, constrained=True)
        env = ComponentEnv(run_config.component)
        policy = train(env, run_config.train).policy
        value = policy_value(greedy_table(policy, env), env.config)
        vstar = backward_induction(env.config).values[TabularState(0, 0, env.config.horizon)]
        assert value >= 0.5 * vstar
