import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdtwin.envs.component import (
    TERMINATE, USE, CoinConfig, ComponentEnv, belief_psi, ComponentBelief,
    component_mask,
)
from pdtwin.mdp import PolicyReturnedMaskedAction, evaluate_policy
from pdtwin.oracle import (
    OraclePolicy, PolicyUndefinedAtState, TabularState, backward_induction,
    enumerate_states, policy_value, table_to_csv,
)

# frozen by exhaustive enumeration / exact induction at the default config
STATE_COUNT_HORIZON_10 = 286
OPTIMAL_VALUE = 7_012_695.373035354


class TestEnumerateStates:
    def test_frozen_state_count(self):
        assert len(enumerate_states(CoinConfig())) == STATE_COUNT_HORIZON_10

    def test_horizon_one(self):
        states = enumerate_states(CoinConfig(horizon=1))
        assert TabularState(0, 0, 1) in states
        assert all(s.days_left in (0, 1) for s in states)

    def test_counts_bounded_by_elapsed_steps(self):
        for s in enumerate_states(CoinConfig()):
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
        for state in enumerate_states(CoinConfig()):
            if state.days_left != 1:
                continue
            psi = belief_psi(ComponentBelief(state.n_success, state.n_fail))
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
                psi = belief_psi(ComponentBelief(state.n_success, state.n_fail))
                by_day.setdefault(state.days_left, []).append((psi, value))
        for pairs in by_day.values():
            pairs.sort()
            for (_, v1), (_, v2) in zip(pairs, pairs[1:]):
                assert v1 >= v2 - 1e-9


class TestPolicyValue:
    def setup_method(self):
        self.table = backward_induction()

    def test_always_terminate(self):
        policy = {s: TERMINATE for s in enumerate_states(CoinConfig()) if s.days_left > 0}
        assert policy_value(policy) == 0.0

    def test_optimal_policy_consistency(self):
        assert policy_value(self.table.actions) == pytest.approx(
            self.table.values[TabularState(0, 0, 10)]
        )

    def test_always_use_dominated(self):
        policy = {s: USE for s in enumerate_states(CoinConfig()) if s.days_left > 0}
        value = policy_value(policy)
        assert value <= self.table.values[TabularState(0, 0, 10)]

    def test_random_policies_dominated(self):
        rng = np.random.default_rng(0)
        states = [s for s in enumerate_states(CoinConfig()) if s.days_left > 0]
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
        policy = {s: USE for s in enumerate_states(config) if s.days_left > 0}
        with pytest.raises(PolicyReturnedMaskedAction):
            policy_value(policy, config)


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
    def test_exact_values(self, config):
        table = backward_induction(config)
        vstar = table.values[TabularState(0, 0, config.horizon)]
        assert policy_value(table.actions, config) == vstar
        states = [s for s in enumerate_states(config) if s.days_left > 0]
        for action in range(4):
            if all(component_mask(s.belief, config)[action] for s in states):
                policy = dict.fromkeys(states, action)
                assert policy_value(policy, config) <= vstar

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
