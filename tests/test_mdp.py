import csv
import json

import numpy as np
import pytest

from pdtwin.envs.component import TERMINATE, USE, ComponentEnv
from pdtwin.envs.reliability import ReliabilityEnv
from pdtwin.mdp import (
    Environment, EpisodeRecord, FunctionPolicy,
    PolicyReturnedMaskedAction, RandomPolicy, StateEncoding,
    evaluate_policy, run_episode, write_csv, write_json,
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
        return state + 1, float(state + 1)

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
    def test_return_sums_rewards(self):
        rec = run_episode(TwoStepEnv(), FunctionPolicy(lambda s: 0), seed=0)
        assert rec.total_return == 1.0 + 2.0
        assert rec.length == 2
        assert rec.final_state == rec.states[-1] == 2

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
        base_seed + i: same return, length, action counts and final state.
        Each record holds one state more than it has actions and rewards."""
        for env in (ComponentEnv(), ReliabilityEnv()):
            summary = evaluate_policy(env, RandomPolicy(), 5, base_seed=40)
            assert summary.action_counts.shape == (5, env.action_count)
            for i in range(5):
                rec = run_episode(env, RandomPolicy(), 40 + i)
                assert len(rec.states) == rec.length + 1 == len(rec.rewards) + 1
                assert rec.final_state is rec.states[-1]
                total = 0.0
                for reward in rec.rewards:
                    total += reward
                assert rec.total_return == total
                done = [env.done(s) for s in rec.states]
                assert done == [False] * rec.length + [True]
                assert summary.returns[i] == rec.total_return
                assert summary.lengths[i] == rec.length
                assert summary.action_counts[i].tolist() == [
                    rec.actions.count(a) for a in range(env.action_count)
                ]
                # reliability states hold arrays and compare by identity, so
                # compare what encode reads and how the episode ended
                final, expected = summary.final_states[i], rec.final_state
                got, want = env.encode(final), env.encode(expected)
                assert np.array_equal(got.elements, want.elements)
                assert np.array_equal(got.aux, want.aux)
                assert final.done and expected.done
                assert getattr(final, "outcome", None) == getattr(expected, "outcome", None)

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
