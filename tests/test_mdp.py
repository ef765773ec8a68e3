import csv
import json

import numpy as np
import pytest

from pdtwin.envs.component import TERMINATE, USE, ComponentEnv
from pdtwin.mdp import (
    Environment, EpisodeRecord, FunctionPolicy,
    PolicyReturnedMaskedAction, RandomPolicy, StateEncoding,
    episodes_to_csv, evaluate_policy, run_episode,
    write_json,
)


class TwoStepEnv(Environment):
    """Minimal deterministic environment: two steps, rewards 1 then 2."""

    action_count = 2
    element_dim = 1
    aux_dim = 1

    def __init__(self, mask_second_action=False):
        self.mask_second_action = mask_second_action

    def reset(self, rng):
        return 0

    def step(self, state, action, rng):
        return state + 1, float(state + 1), state + 1 >= 2

    def done(self, state):
        return state >= 2

    def action_mask(self, state):
        mask = np.ones(2, dtype=bool)
        if self.mask_second_action:
            mask[1] = False
        return mask

    def encode(self, state):
        return StateEncoding((), np.array([float(state)]))


class TestRunEpisode:
    def test_discounted_return(self):
        rec = run_episode(TwoStepEnv(), FunctionPolicy(lambda s: 0), seed=0, discount=0.5)
        assert rec.total_return == pytest.approx(1.0 + 0.5 * 2.0)
        assert rec.length == 2

    def test_masked_action_raises(self):
        with pytest.raises(PolicyReturnedMaskedAction):
            run_episode(
                TwoStepEnv(mask_second_action=True), FunctionPolicy(lambda s: 1), seed=0
            )

    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            run_episode(TwoStepEnv(), FunctionPolicy(lambda s: 0), seed=0, discount=1.5)

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

    def test_discount_monotonicity_negative_rewards(self):
        # all rewards negative: larger discount can only lower the return
        class NegEnv(TwoStepEnv):
            def step(self, state, action, rng):
                return state + 1, -1.0, state + 1 >= 2

        returns = [
            run_episode(NegEnv(), FunctionPolicy(lambda s: 0), 0, discount=d).total_return
            for d in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a >= b for a, b in zip(returns, returns[1:]))


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
        env = ComponentEnv()
        summary = evaluate_policy(env, RandomPolicy(), 5, base_seed=40)
        for i in range(5):
            assert summary.returns[i] == run_episode(
                env, RandomPolicy(), 40 + i
            ).total_return

    def test_requires_at_least_one_episode(self):
        with pytest.raises(ValueError):
            evaluate_policy(TwoStepEnv(), FunctionPolicy(lambda s: 0), 0, 0)

    def test_histogram_counts_sum(self):
        env = ComponentEnv()
        summary = evaluate_policy(env, RandomPolicy(), 60, 1, bin_range=(-1e7, 1e7))
        assert sum(summary.bin_counts) == 60


class TestExports:
    def test_csv_round_trip(self, tmp_path):
        env = ComponentEnv()
        summary = evaluate_policy(env, RandomPolicy(), 10, 3)
        path = tmp_path / "episodes.csv"
        episodes_to_csv(path, 3, summary)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert [float(r["return"]) for r in rows] == list(summary.returns)
        assert [int(r["length"]) for r in rows] == [
            run_episode(env, RandomPolicy(), 3 + i).length for i in range(10)
        ]
        assert rows[0]["seed"] == "3"

    def test_json_summary(self, tmp_path):
        summary = evaluate_policy(TwoStepEnv(), FunctionPolicy(lambda s: 0), 3, 0)
        path = tmp_path / "summary.json"
        write_json(path, summary.to_json_dict())
        text = path.read_text()
        block = json.loads(text)
        assert block["mean"] == summary.mean
        assert block["n_episodes"] == 3
        assert text == json.dumps(block, indent=2, sort_keys=True) + "\n"


class TestFunctionPolicy:
    def test_wraps_callable(self):
        pol = FunctionPolicy(lambda s: USE)
        assert pol.act(None, np.ones(4, dtype=bool), None) == USE
