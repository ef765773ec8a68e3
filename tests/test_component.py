import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdtwin.envs.component import (
    REPLACE, TERMINATE, TEST, USE,
    CoinConfig, CoinState, ComponentEnv, TabularState,
    belief_psi, component_mask, expected_use_reward, success_probability,
)
from pdtwin.mdp import FunctionPolicy, StepAfterDone, evaluate_policy, run_episode
from pdtwin.nets import canonical_set
from pdtwin.oracle import backward_induction, q_backup

from bayes_reference import AllZeroLikelihood, belief_from_observations


class FixedRng:
    """Stub generator: .random() pops preset values."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def make_state(n_success, n_fail, days_left, theta=0.5):
    return CoinState(TabularState(n_success, n_fail, days_left), theta)


def counts(n_success, n_fail):
    """Observable state with these counts; days_left does not enter the belief."""
    return TabularState(n_success, n_fail, 0)


class TestBeliefPsi:
    def test_prior(self):
        assert belief_psi(counts(0, 0)) == 0.5

    def test_one_success(self):
        assert belief_psi(counts(1, 0)) == pytest.approx(
            0.25 / 0.745, abs=1e-12
        )

    def test_one_failure(self):
        assert belief_psi(counts(0, 1)) == pytest.approx(
            0.25 / 0.255, abs=1e-12
        )

    def test_matches_sequential_conditioning_exhaustively(self):
        # every reachable count pair within the 10-day horizon
        for n_success in range(11):
            for n_fail in range(11 - n_success):
                belief = belief_from_observations((0,) * n_success + (1,) * n_fail)
                assert belief_psi(counts(n_success, n_fail)) == pytest.approx(
                    belief.weights[0], abs=1e-12
                )

    @given(st.lists(st.integers(0, 1), max_size=10))
    def test_order_independent(self, obs):
        n_success = obs.count(0)
        n_fail = obs.count(1)
        sequential = belief_from_observations(obs)
        assert belief_psi(counts(n_success, n_fail)) == pytest.approx(
            sequential.weights[0], abs=1e-12
        )

    def test_no_underflow_for_long_runs(self):
        psi = belief_psi(counts(0, 1000))
        assert 0.0 <= psi <= 1.0

    @pytest.mark.parametrize("config", [
        CoinConfig(theta_good=1.0),
        CoinConfig(theta_bad=0.0),
        CoinConfig(theta_bad=0.0, theta_good=1.0),
        CoinConfig(prior_bad=0.0),
        CoinConfig(prior_bad=1.0),
    ])
    def test_degenerate_configs_match_sequential_conditioning(self, config):
        # zero priors and likelihoods; counts no hypothesis explains keep the prior
        for n_success in range(4):
            for n_fail in range(4):
                psi = belief_psi(counts(n_success, n_fail), config)
                try:
                    belief = belief_from_observations(
                        (0,) * n_success + (1,) * n_fail, config)
                except AllZeroLikelihood:
                    assert psi == config.prior_bad
                else:
                    assert psi == pytest.approx(belief.weights[0], abs=1e-12)


class TestCoinConfig:
    @pytest.mark.parametrize("values", [
        {"theta_bad": 1.5}, {"theta_bad": -0.1}, {"theta_good": 1.01},
        {"theta_bad": 0.99, "theta_good": 0.5}, {"theta_bad": 0.5, "theta_good": 0.5},
        {"prior_bad": -0.2}, {"prior_bad": 1.2}, {"constraint_threshold": 1.5},
        {"horizon": -1},
    ])
    def test_rejects_invalid_values(self, values):
        with pytest.raises(ValueError):
            CoinConfig(**values)

    def test_accepts_boundaries(self):
        CoinConfig(theta_bad=0.0, theta_good=1.0, prior_bad=1.0,
                   constraint_threshold=0.0, horizon=0)


class TestExpectedUseReward:
    def test_prior_belief(self):
        assert expected_use_reward(0.5) == pytest.approx(490_000.0)

    def test_certain_bad(self):
        assert expected_use_reward(1.0) == pytest.approx(0.0)

    def test_certain_good(self):
        assert expected_use_reward(0.0) == pytest.approx(980_000.0)

    def test_rejects_invalid_psi(self):
        with pytest.raises(ValueError):
            expected_use_reward(1.5)


class TestCoinStep:
    def setup_method(self):
        self.env = ComponentEnv()

    def test_terminate(self):
        state = make_state(0, 0, 10)
        nxt, reward = self.env.step(state, TERMINATE, FixedRng())
        assert (reward, nxt.done) == (0.0, True)
        assert nxt.info == TabularState(0, 0, 10)

    def test_test_success(self):
        state = make_state(0, 0, 10)
        nxt, reward = self.env.step(state, TEST, FixedRng(0.2))  # 0.2 < 0.5
        assert reward == -10_000.0
        assert nxt.info == TabularState(1, 0, 9) and not nxt.done

    def test_test_failure(self):
        state = make_state(0, 0, 10)
        nxt, reward = self.env.step(state, TEST, FixedRng(0.9))
        assert nxt.info == TabularState(0, 1, 9)
        assert reward == -10_000.0

    def test_replace_resets_belief(self):
        state = make_state(3, 0, 5, theta=0.99)
        nxt, reward = self.env.step(state, REPLACE, FixedRng(0.3))
        assert reward == -100_000.0
        assert nxt.info == TabularState(0, 0, 4) and not nxt.done
        assert nxt.hidden_theta == 0.5  # 0.3 < prior_bad draws the bad one

    def test_use_win_and_lose(self):
        state = make_state(0, 0, 10)
        nxt, reward = self.env.step(state, USE, FixedRng(0.1))
        assert reward == 1_000_000.0
        assert nxt.info == TabularState(1, 0, 9)
        nxt, reward = self.env.step(state, USE, FixedRng(0.99))
        assert reward == -1_000_000.0
        assert nxt.info == TabularState(0, 1, 9)

    def test_last_day_ends_episode(self):
        state = make_state(0, 0, 1)
        nxt, _ = self.env.step(state, TEST, FixedRng(0.1))
        assert nxt.done

    def test_step_after_done(self):
        state = make_state(0, 0, 0)
        with pytest.raises(StepAfterDone):
            self.env.step(state, TEST, FixedRng(0.1))


class TestSuccessorRule:
    @pytest.mark.parametrize("constrained", [False, True])
    def test_simulator_reaches_the_states_the_backup_looks_up(self, constrained):
        config = CoinConfig(constrained=constrained)
        env = ComponentEnv(config)
        for info in backward_induction(config).values:
            if info.days_left == 0:
                continue
            for action in np.flatnonzero(component_mask(info, config)):
                looked_up = set()
                q_backup(info, action, lambda s: looked_up.add(s) or 0.0, config)
                reached = set()
                # u = 0 forces Y = 0, u = 1 forces Y = 1 (Replace draws the type)
                for u in (0.0, 1.0):
                    nxt, _ = env.step(CoinState(info, 0.5), action, FixedRng(u))
                    if action == TERMINATE:
                        assert nxt.done and nxt.info == info
                    else:
                        reached.add(nxt.info)
                assert reached == looked_up, (info, action)


class TestActionMask:
    def test_unconstrained_allows_all(self):
        env = ComponentEnv()
        assert env.action_mask(make_state(2, 1, 5)).all()

    def test_constrained_masks_use_at_prior(self):
        env = ComponentEnv(CoinConfig(constrained=True))
        mask = env.action_mask(make_state(0, 0, 10))
        assert not mask[USE]
        assert mask[TERMINATE] and mask[TEST] and mask[REPLACE]

    def test_masks_are_read_only_constants(self):
        free = component_mask(counts(0, 0), CoinConfig())
        barred = component_mask(counts(0, 0), CoinConfig(constrained=True))
        assert np.array_equal(free, np.ones(4, dtype=bool))
        assert np.array_equal(barred, [True, True, True, False])
        assert not free.flags.writeable and not barred.flags.writeable
        assert component_mask(counts(3, 1), CoinConfig()) is free

    def test_constrained_unmasks_after_enough_successes(self):
        env = ComponentEnv(CoinConfig(constrained=True))
        # smallest success streak with P(theta good) > 0.9
        n = 0
        while 1.0 - belief_psi(counts(n, 0)) <= 0.9:
            n += 1
        assert env.action_mask(make_state(n, 0, 5))[USE]
        assert not env.action_mask(make_state(n - 1, 0, 5))[USE]


class TestEpisodeInvariants:
    def test_length_and_reward_bounds(self):
        env = ComponentEnv()
        for seed in range(50):
            rec = run_episode(env, _random_policy(), seed)
            assert len(rec.actions) <= 10
            assert -1e7 <= rec.total_return <= 1e7
            assert rec.states[-1].done
            assert all(not s.done for s in rec.states[:-1])

    def test_constrained_never_uses_at_low_confidence(self):
        env = ComponentEnv(CoinConfig(constrained=True))
        threshold = env.config.constraint_threshold
        for seed in range(100):
            rec = run_episode(env, _random_policy(), seed)
            for state, action in zip(rec.states, rec.actions):
                if action == USE:
                    psi = belief_psi(state.info)
                    assert 1.0 - psi > threshold

    def test_terminate_policy_returns_zero(self):
        env = ComponentEnv()
        rec = run_episode(env, FunctionPolicy(lambda s: TERMINATE), seed=5)
        assert rec.total_return == 0.0
        assert len(rec.actions) == 1

    @pytest.mark.parametrize("encoding", ["compressed", "set"])
    def test_horizon_zero_episode_is_empty(self, encoding):
        env = ComponentEnv(CoinConfig(horizon=0), encoding=encoding)
        state = env.reset(np.random.default_rng(0))
        assert state.done
        assert env.encode(state).aux[-1] == 0.0
        never = FunctionPolicy(lambda s: 1 / 0)
        rec = run_episode(env, never, seed=5)
        assert len(rec.actions) == 0 and rec.total_return == 0.0
        assert rec.states[-1] == env.reset(np.random.default_rng(5))
        summary = evaluate_policy(env, never, 3, base_seed=5)
        assert summary.lengths == (0, 0, 0)
        assert summary.action_counts.tolist() == [[0] * 4] * 3
        assert summary.outcomes == (None, None, None)
        for i in range(3):  # each final state is its reset state
            final = run_episode(env, never, 5 + i).states[-1]
            assert final == env.reset(np.random.default_rng(5 + i))


def _random_policy():
    from pdtwin.mdp import RandomPolicy

    return RandomPolicy()


class TestEncodings:
    def test_set_encoding_sorted_observations(self):
        env = ComponentEnv(encoding="set")
        state = make_state(1, 2, 7)
        enc = env.encode(state)
        assert [e[0] for e in enc.elements] == [0.0, 1.0, 1.0]
        assert enc.aux == pytest.approx([0.7])

    def test_compressed_encoding(self):
        env = ComponentEnv(encoding="compressed")
        enc = env.encode(make_state(0, 0, 10))
        assert enc.elements.shape == (0, 1)
        assert enc.aux == pytest.approx([0.5, 1.0])

    @given(st.lists(st.integers(0, 1), max_size=10))
    def test_encodings_are_canonical_float_arrays(self, obs):
        # the set built from the counts is the canonical set of the outcomes
        state = make_state(obs.count(0), obs.count(1), 10 - len(obs))
        for encoding, rows in (("set", obs), ("compressed", [])):
            elements = ComponentEnv(encoding=encoding).encode(state).elements
            expected = canonical_set(np.reshape(rows, (-1, 1)), 1)
            assert elements.dtype == expected.dtype == np.float64
            assert elements.shape == expected.shape
            assert elements.tobytes() == expected.tobytes()
            assert np.array_equal(elements, np.reshape(sorted(rows), (-1, 1)))

    def test_success_probability_prior(self):
        assert success_probability(0.5) == pytest.approx(0.745)

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError):
            ComponentEnv(encoding="bogus")
