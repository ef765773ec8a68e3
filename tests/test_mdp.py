import csv
import json
from dataclasses import dataclass

import numpy as np
import pytest

from pdtwin.dqn import QPolicy
from pdtwin.envs.component import TERMINATE, USE, CoinConfig, ComponentEnv
from pdtwin.envs.reliability import (
    CONFIRMED_ABOVE, CONFIRMED_BELOW, FAILED,
    ReliabilityConfig, ReliabilityEnv, benchmark_policy_action,
)
from pdtwin.mdp import (
    EVAL_BLOCK, Environment, EpisodeRecord, FunctionPolicy, Policy,
    PolicyReturnedMaskedAction, RandomPolicy, StateEncoding,
    evaluate_policy, mean_sd, run_episode, write_csv, write_json,
)
from pdtwin.nets import DeepSetsNet
from pdtwin.oracle import OraclePolicy, backward_induction


@dataclass(frozen=True)
class FakeState:
    """A fake environment's state: its ``value`` plus the ``done`` and
    ``outcome`` every state carries."""

    value: object
    done: bool
    outcome: object = None


class TwoStepEnv(Environment):
    """Minimal deterministic environment: two steps, rewards 1 then 2. A
    state's value counts the steps taken."""

    action_count = 2
    element_dim = 1
    aux_dim = 1

    def __init__(self, mask_second_action=False):
        self.mask_second_action = mask_second_action

    def reset(self, rng):
        return FakeState(0, False)

    def step(self, state, action, rng):
        taken = state.value + 1
        return FakeState(taken, taken >= 2), float(taken)

    def action_mask(self, state):
        mask = np.ones(2, dtype=bool)
        if self.mask_second_action:
            mask[1] = False
        return mask

    def encode(self, state):
        return StateEncoding((), np.array([float(state.value)]))


class StaggeredEnv(Environment):
    """Episodes of 0 to ``longest`` steps, the length drawn at reset; each
    step draws its reward from the episode's rng. Action 1 is masked at the
    third step. A state's value is (steps left, steps taken)."""

    action_count = 2
    element_dim = 1
    aux_dim = 2

    def __init__(self, longest=6):
        self.longest = longest

    def reset(self, rng):
        left = int(rng.integers(self.longest + 1))
        return FakeState((left, 0), left == 0)

    def step(self, state, action, rng):
        left, taken = state.value
        return FakeState((left - 1, taken + 1), left == 1), float(rng.random()) + action

    def action_mask(self, state):
        return np.array([True, state.value[1] != 2])

    def encode(self, state):
        return StateEncoding(np.empty((0, 1)), np.array(state.value, dtype=float))


class RecordingPolicy(Policy):
    """Plays action 0 and records the size of every batch it is asked about;
    fails on a done state."""

    def __init__(self, env):
        self.env = env
        self.batches = []

    def act(self, states, masks, rngs):
        assert not any(state.done for state in states)
        assert masks.shape == (len(states), self.env.action_count) == (len(rngs), 2)
        self.batches.append(len(states))
        return [0] * len(states)


def _seed_initialised_q(env):
    return QPolicy(DeepSetsNet(env.element_dim, env.aux_dim, env.action_count, seed=0), env)


# a cheaper reliability game: fewer inputs, candidates and draws, a shorter budget
_SMALL_RELIABILITY = ReliabilityConfig(input_dim=2, pool_size=8, n_mc=8, max_actions=12)


def _lockstep_cases():
    constrained = CoinConfig(constrained=True)
    small = ReliabilityEnv(_SMALL_RELIABILITY)
    return {
        "component-random": (ComponentEnv(), RandomPolicy()),
        "component-oracle": (ComponentEnv(), OraclePolicy(backward_induction())),
        "component-q-compressed": (ComponentEnv(),
                                   _seed_initialised_q(ComponentEnv())),
        "component-q-set": (ComponentEnv(encoding="set"),
                            _seed_initialised_q(ComponentEnv(encoding="set"))),
        "component-constrained-q": (ComponentEnv(constrained),
                                    _seed_initialised_q(ComponentEnv(constrained))),
        "component-constrained-oracle": (
            ComponentEnv(constrained), OraclePolicy(backward_induction(constrained))),
        "reliability-random": (small, RandomPolicy()),
        "reliability-benchmark": (small, FunctionPolicy(
            lambda s: benchmark_policy_action(s.actions_taken))),
        "reliability-q": (small, _seed_initialised_q(small)),
    }


class TestLockstepEvaluation:
    """evaluate_policy plays blocks of EVAL_BLOCK episodes side by side; each
    episode must be the one run_episode plays alone at its seed."""

    N = 2 * EVAL_BLOCK + 3  # two full blocks and a partial one

    @pytest.mark.parametrize("case", sorted(_lockstep_cases()))
    def test_each_episode_is_its_run_episode(self, case):
        env, policy = _lockstep_cases()[case]
        base = 1000
        summary = evaluate_policy(env, policy, self.N, base)
        for i in range(self.N):
            rec = run_episode(env, policy, base + i)
            assert summary.returns[i] == rec.total_return, (case, i)
            assert summary.action_counts[i].tolist() == np.bincount(
                rec.actions, minlength=env.action_count).tolist(), (case, i)
            assert summary.outcomes[i] == rec.states[-1].outcome

    def test_done_episodes_are_never_asked(self):
        env = StaggeredEnv()
        policy = RecordingPolicy(env)
        summary = evaluate_policy(env, policy, self.N, 3)
        lengths = np.array(summary.lengths)
        assert lengths.min() == 0 and lengths.max() == env.longest
        # one act per round of each block, over that round's live episodes
        expected = []
        for start in range(0, self.N, EVAL_BLOCK):
            block = lengths[start:start + EVAL_BLOCK]
            expected += [int((block > t).sum()) for t in range(block.max())]
        assert policy.batches == expected
        for i in range(self.N):
            assert summary.returns[i] == run_episode(env, policy, 3 + i).total_return

    def test_horizon_zero_asks_nothing(self):
        env = StaggeredEnv(longest=0)
        policy = RecordingPolicy(env)
        summary = evaluate_policy(env, policy, self.N, 0)
        assert policy.batches == []
        assert summary.returns == (0.0,) * self.N
        assert summary.lengths == (0,) * self.N

    def test_masked_action_in_a_block_raises(self):
        # action 1 is masked at each episode's third step; the first episode
        # that is that long fails inside its block
        env = StaggeredEnv()
        policy = FunctionPolicy(lambda state: 1)
        with pytest.raises(PolicyReturnedMaskedAction, match=r"\(\d+, 2\)"):
            evaluate_policy(env, policy, self.N, 3)


class TestRunEpisode:
    def test_return_sums_rewards(self):
        rec = run_episode(TwoStepEnv(), FunctionPolicy(lambda s: 0), seed=0)
        assert rec.total_return == 1.0 + 2.0
        assert len(rec.actions) == 2
        assert rec.states[-1].value == 2

    def test_masked_action_raises(self):
        with pytest.raises(PolicyReturnedMaskedAction):
            run_episode(
                TwoStepEnv(mask_second_action=True), FunctionPolicy(lambda s: 1), seed=0
            )

    def test_bit_exact_reruns(self):
        env = ComponentEnv()
        a = run_episode(env, RandomPolicy(), seed=123)
        b = run_episode(env, RandomPolicy(), seed=123)
        assert a == b

    def test_different_seeds_differ(self):
        env = ComponentEnv()
        records = {run_episode(env, RandomPolicy(), seed=s).total_return
                   for s in range(20)}
        assert len(records) > 1


class TestEvaluatePolicy:
    def test_single_episode_sd_zero(self):
        summary = evaluate_policy(TwoStepEnv(), FunctionPolicy(lambda s: 0), 1, 0)
        assert summary.sd == 0.0
        assert summary.mean == summary.returns[0]

    def test_terminate_policy_all_zero(self):
        env = ComponentEnv()
        summary = evaluate_policy(env, FunctionPolicy(lambda s: TERMINATE), 50, 0)
        assert summary.mean == 0.0 and summary.sd == 0.0

    def test_mean_within_min_max(self):
        env = ComponentEnv()
        summary = evaluate_policy(env, RandomPolicy(), 100, 7)
        assert summary.min <= summary.mean <= summary.max

    def test_seeding_contract(self):
        """Episode i of the block is the episode run_episode plays at seed
        base_seed + i: same return, length, action counts and outcome.
        Each record holds one state more than it has actions and rewards."""
        for env in (ComponentEnv(), ReliabilityEnv()):
            summary = evaluate_policy(env, RandomPolicy(), 5, base_seed=40)
            assert summary.action_counts.shape == (5, env.action_count)
            for i in range(5):
                rec = run_episode(env, RandomPolicy(), 40 + i)
                assert len(rec.states) == len(rec.actions) + 1 == len(rec.rewards) + 1
                total = 0.0
                for reward in rec.rewards:
                    total += reward
                assert rec.total_return == total
                done = [s.done for s in rec.states]
                assert done == [False] * len(rec.actions) + [True]
                assert summary.returns[i] == rec.total_return
                assert summary.lengths[i] == len(rec.actions)
                assert summary.action_counts[i].tolist() == [
                    rec.actions.count(a) for a in range(env.action_count)
                ]
                assert rec.states[-1].done
                assert summary.outcomes[i] == rec.states[-1].outcome

    def test_requires_at_least_one_episode(self):
        with pytest.raises(ValueError):
            evaluate_policy(TwoStepEnv(), FunctionPolicy(lambda s: 0), 0, 0)


class TestMeanSd:
    @pytest.mark.parametrize("seed", range(20))
    def test_same_bits_as_numpy_away_from_the_float_limits(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=int(rng.integers(2, 600))) * 10.0 ** rng.integers(-100, 100)
        assert mean_sd(values) == (float(values.mean()), float(values.std(ddof=1)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_where_the_plain_sums_overflow(self):
        # the sum of 8e307 three times, and of the squared deviations at 1e160
        mean, sd = mean_sd([8e307, -8e307, 8e307])
        assert mean == pytest.approx(8e307 / 3) and sd == pytest.approx(8e307 * 2 / 3**0.5)
        assert mean_sd([1e160, -1e160] * 3) == (0.0, pytest.approx(1e160 * 1.2**0.5))

    def test_one_value_and_all_zero(self):
        assert mean_sd([-7.5]) == (-7.5, 0.0)
        assert mean_sd([0.0, 0.0]) == (0.0, 0.0)


def _contract_cases():
    return {
        "component-compressed": ComponentEnv(),
        "component-set": ComponentEnv(encoding="set"),
        "component-constrained": ComponentEnv(CoinConfig(constrained=True)),
        "component-horizon-0": ComponentEnv(CoinConfig(horizon=0)),
        "reliability": ReliabilityEnv(),
        "reliability-decided-at-reset": ReliabilityEnv(
            ReliabilityConfig(prior_discrepancy_mean=40.0)),
    }


# the cases whose reset state is already done
_EMPTY_EPISODES = {"component-horizon-0", "reliability-decided-at-reset"}


class TestStateContract:
    @pytest.mark.parametrize("case", sorted(_contract_cases()))
    def test_every_state_carries_done_and_outcome(self, case):
        """``done`` is a bool on every state. A component state names no
        outcome; a reliability state names its verdict exactly when done."""
        env = _contract_cases()[case]
        for seed in range(4):
            rec = run_episode(env, RandomPolicy(), seed)
            assert (len(rec.actions) == 0) == (case in _EMPTY_EPISODES)
            for state in rec.states:
                assert type(state.done) is bool
                if isinstance(env, ComponentEnv):
                    assert state.outcome is None
                elif state.done:
                    assert state.outcome in (CONFIRMED_BELOW, CONFIRMED_ABOVE, FAILED)
                else:
                    assert state.outcome is None


class TestExports:
    def test_csv_round_trip(self, tmp_path):
        env = ComponentEnv()
        summary = evaluate_policy(env, RandomPolicy(), 10, 3)
        path = tmp_path / "episodes.csv"
        write_csv(path, ["seed", "return", "length"], (
            [3 + i, repr(ret), length]
            for i, (ret, length) in enumerate(zip(summary.returns, summary.lengths))
        ))
        assert path.read_bytes().count(b"\r\n") == 11  # the default dialect
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert [float(r["return"]) for r in rows] == list(summary.returns)
        assert [int(r["length"]) for r in rows] == [
            len(run_episode(env, RandomPolicy(), 3 + i).actions) for i in range(10)
        ]
        assert rows[0]["seed"] == "3"

    def test_json_summary(self, tmp_path):
        block = {"mean": 0.1 + 0.2, "n_episodes": 3, "bin_counts": [1, 2], "cost": None}
        path = tmp_path / "summary.json"
        write_json(path, block)
        text = path.read_text()
        assert json.loads(text) == block
        assert text == json.dumps(block, indent=2, sort_keys=True) + "\n"


class TestFunctionPolicy:
    def test_wraps_callable(self):
        pol = FunctionPolicy(lambda s: USE)
        assert pol.act([None, None], np.ones((2, 4), dtype=bool), [None, None]) == [
            USE, USE]
