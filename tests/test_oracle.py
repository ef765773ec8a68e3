import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pdtwin.envs.component import (
    TERMINATE, USE, CoinConfig, ComponentEnv, belief_psi, component_mask,
)
from pdtwin.mdp import PolicyReturnedMaskedAction, evaluate_policy
from pdtwin import oracle
from pdtwin.oracle import (
    HorizonTooDeep, OraclePolicy, PolicyUndefinedAtState, TabularState, backward_induction,
    policy_value, q_backup, table_to_csv,
)

# frozen by exhaustive enumeration / exact induction at the default config
STATE_COUNT_HORIZON_10 = 286
OPTIMAL_VALUE = 7_012_695.373035354


def live_states(config):
    """The reachable states with a day left, read from the optimal table."""
    return [s for s in backward_induction(config).values if s.days_left > 0]


class TestEnumerateStates:
    """The reachable states: the keys of the optimal table."""

    def test_frozen_state_count(self):
        assert len(backward_induction(CoinConfig()).values) == STATE_COUNT_HORIZON_10

    def test_horizon_one(self):
        states = backward_induction(CoinConfig(horizon=1)).values
        assert TabularState(0, 0, 1) in states
        assert all(s.days_left in (0, 1) for s in states)

    def test_counts_bounded_by_elapsed_steps(self):
        for s in backward_induction(CoinConfig()).values:
            assert s.n_success + s.n_fail <= 10 - s.days_left
            assert s.n_success >= 0 and s.n_fail >= 0


class TestBackwardInduction:
    def setup_method(self):
        self.table = backward_induction()

    def test_terminal_layer_is_zero(self):
        for state, value in self.table.values.items():
            if state.days_left == 0:
                assert value == 0.0

    def test_one_day_left_prior_belief(self):
        assert self.table.values[TabularState(0, 0, 1)] == pytest.approx(490_000.0)
        assert self.table.actions[TabularState(0, 0, 1)] == USE

    def test_one_day_left_is_max_of_terminate_and_use(self):
        for state in self.table.values:
            if state.days_left != 1:
                continue
            psi = belief_psi(state)
            expected = max(0.0, (1.0 - psi) * 980_000.0)
            # (2 p - 1) * 1e6 vs (1 - psi) * 980000: same value up to
            # floating-point cancellation near psi = 1
            assert self.table.values[state] == pytest.approx(expected, abs=1e-6)

    def test_frozen_optimal_value(self):
        assert self.table.values[TabularState(0, 0, 10)] == pytest.approx(
            OPTIMAL_VALUE, abs=1e-6
        )

    def test_constrained_not_better(self):
        constrained = backward_induction(CoinConfig(constrained=True))
        assert (
            constrained.values[TabularState(0, 0, 10)]
            <= self.table.values[TabularState(0, 0, 10)]
        )

    def test_value_nonincreasing_in_psi(self):
        # a more probably bad component never raises the optimal value
        by_day = {}
        for state, value in self.table.values.items():
            if state.days_left > 0:
                psi = belief_psi(state)
                by_day.setdefault(state.days_left, []).append((psi, value))
        for pairs in by_day.values():
            pairs.sort()
            for (_, v1), (_, v2) in zip(pairs, pairs[1:]):
                assert v1 >= v2 - 1e-9


class TestPolicyValue:
    def setup_method(self):
        self.table = backward_induction()

    def test_always_terminate(self):
        policy = dict.fromkeys(live_states(CoinConfig()), TERMINATE)
        assert policy_value(policy) == 0.0

    def test_optimal_policy_consistency(self):
        assert policy_value(self.table.actions) == pytest.approx(
            self.table.values[TabularState(0, 0, 10)]
        )

    def test_always_use_dominated(self):
        policy = dict.fromkeys(live_states(CoinConfig()), USE)
        value = policy_value(policy)
        assert value <= self.table.values[TabularState(0, 0, 10)]

    def test_random_policies_dominated(self):
        rng = np.random.default_rng(0)
        states = live_states(CoinConfig())
        vstar = self.table.values[TabularState(0, 0, 10)]
        for _ in range(25):
            policy = {s: int(rng.integers(4)) for s in states}
            assert policy_value(policy) <= vstar + 1e-9

    def test_undefined_state_raises(self):
        with pytest.raises(PolicyUndefinedAtState):
            policy_value({TabularState(0, 0, 10): USE})

    def test_masked_action_raises(self):
        # the constraint bars Use at the prior belief
        config = CoinConfig(constrained=True)
        policy = dict.fromkeys(live_states(config), USE)
        with pytest.raises(PolicyReturnedMaskedAction):
            policy_value(policy, config)

    def test_horizon_past_the_recursion_limit_is_named(self):
        # two frames per day: 600 days need 1200, past the default limit of 1000
        with pytest.raises(HorizonTooDeep, match="horizon 600 is too deep"):
            backward_induction(CoinConfig(horizon=600))


# probabilities with the 0/1 boundaries drawn often
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# for sampling: an outcome rarer than 1 in 20 may never show in a few hundred
# episodes, and then its share of the exact value lies outside any SE bound
sampled_probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))


@st.composite
def coin_configs(draw, probabilities=probabilities):
    theta_bad, theta_good = draw(
        st.tuples(probabilities, probabilities).map(sorted).filter(lambda t: t[0] < t[1])
    )
    return CoinConfig(
        horizon=draw(st.integers(1, 5)),
        theta_bad=theta_bad,
        theta_good=theta_good,
        prior_bad=draw(probabilities),
        constraint_threshold=draw(probabilities),
        constrained=draw(st.booleans()),
    )


class TestOracleProperties:
    @settings(max_examples=60, deadline=None)
    @given(coin_configs())
    @example(CoinConfig())
    @example(CoinConfig(constrained=True))
    def test_exact_values(self, config):
        table = backward_induction(config)
        h = config.horizon
        # every (s, f) with s + f <= days elapsed: Test is always legal
        assert set(table.values) == {
            TabularState(s, f, d)
            for d in range(h + 1) for s in range(h - d + 1) for f in range(h - d - s + 1)
        }
        assert len(table.values) == math.comb(h + 3, 3)
        states = [s for s in table.values if s.days_left > 0]
        assert set(table.actions) == set(states)
        for state in states:
            legal = np.flatnonzero(component_mask(state, config)).tolist()
            q = [q_backup(state, a, table.values.__getitem__, config) for a in legal]
            assert table.values[state] == max(q)
            assert table.actions[state] == legal[q.index(max(q))]  # lowest index
        vstar = table.values[TabularState(0, 0, h)]
        assert policy_value(table.actions, config) == vstar
        for action in range(4):
            if all(component_mask(s, config)[action] for s in states):
                policy = dict.fromkeys(states, action)
                assert policy_value(policy, config) <= vstar

    @pytest.mark.parametrize("constrained, calls", [(False, 880), (True, 681)])
    def test_one_backup_per_legal_action(self, monkeypatch, constrained, calls):
        config = CoinConfig(constrained=constrained)
        backed_up = []

        def counting_q_backup(state, action, value_of, config):
            backed_up.append((state, action))
            return q_backup(state, action, value_of, config)

        monkeypatch.setattr(oracle, "q_backup", counting_q_backup)
        states = live_states(config)
        # each (live state, legal action) pair once
        assert len(backed_up) == len(set(backed_up)) == calls
        assert set(backed_up) == {
            (s, a) for s in states for a in np.flatnonzero(component_mask(s, config))
        }

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(coin_configs(sampled_probabilities))
    def test_simulated_mean_within_4_se(self, config):
        table = backward_induction(config)
        vstar = table.values[TabularState(0, 0, config.horizon)]
        n = 400
        summary = evaluate_policy(ComponentEnv(config), OraclePolicy(table), n, 0)
        # the slack covers summation order when every episode returns the same
        slack = 1e-9 * max(1.0, abs(vstar))
        assert abs(summary.mean - vstar) <= 4.0 * summary.sd / np.sqrt(n) + slack


class TestMonteCarloConsistency:
    def test_simulated_oracle_matches_exact_value(self):
        table = backward_induction()
        env = ComponentEnv()
        summary = evaluate_policy(env, OraclePolicy(table), 4000, base_seed=0)
        exact = policy_value(table.actions)
        assert abs(summary.mean - exact) <= 3.0 * summary.sd / np.sqrt(4000)


class TestExport:
    def test_csv_layout(self, tmp_path):
        table = backward_induction()
        path = tmp_path / "table.csv"
        table_to_csv(path, table)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == STATE_COUNT_HORIZON_10
        first = rows[0]
        assert first["days_left"] == "10"
        assert float(first["value"]) == pytest.approx(OPTIMAL_VALUE)
