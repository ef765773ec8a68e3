import math

import pytest
from hypothesis import given, strategies as st

from pdtwin.beliefs import GaussianBelief, gaussian_condition
from pdtwin.envs.component import CoinConfig, success_probability

from bayes_reference import (
    AllZeroLikelihood, DiscreteEpistemicBelief, epistemic_condition,
)

TWO_COINS = DiscreteEpistemicBelief((0.5, 0.99), (0.5, 0.5))


def lik_success(theta):
    return theta


def lik_failure(theta):
    return 1.0 - theta


class TestDiscreteBelief:
    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            DiscreteEpistemicBelief((), ())

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError):
            DiscreteEpistemicBelief((0.5, 0.5), (0.5, 0.5))

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            DiscreteEpistemicBelief((0.5, 0.99), (0.6, 0.6))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DiscreteEpistemicBelief((0.5, 0.99), (-0.5, 1.5))


class TestEpistemicCondition:
    def test_observe_success(self):
        post = epistemic_condition(TWO_COINS, lik_success)
        assert post.support == TWO_COINS.support
        assert post.weights[0] == pytest.approx(0.25 / 0.745, abs=1e-12)
        assert post.weights[1] == pytest.approx(0.495 / 0.745, abs=1e-12)

    def test_observe_failure(self):
        post = epistemic_condition(TWO_COINS, lik_failure)
        assert post.weights[0] == pytest.approx(0.25 / 0.255, abs=1e-12)
        assert post.weights[1] == pytest.approx(0.005 / 0.255, abs=1e-12)

    def test_degenerate_prior_is_fixed_point(self):
        prior = DiscreteEpistemicBelief((0.5, 0.99), (1.0, 0.0))
        post = epistemic_condition(prior, lik_success)
        assert post.weights == (1.0, 0.0)

    def test_all_zero_likelihood(self):
        with pytest.raises(AllZeroLikelihood):
            epistemic_condition(TWO_COINS, lambda theta: 0.0)

    def test_negative_likelihood_rejected(self):
        with pytest.raises(ValueError):
            epistemic_condition(TWO_COINS, lambda theta: -1.0)

    @given(
        w=st.floats(0.01, 0.99),
        l1=st.floats(1e-6, 1.0),
        l2=st.floats(1e-6, 1.0),
        l3=st.floats(1e-6, 1.0),
        l4=st.floats(1e-6, 1.0),
    )
    def test_order_of_updates_is_irrelevant(self, w, l1, l2, l3, l4):
        prior = DiscreteEpistemicBelief(("a", "b"), (w, 1.0 - w))
        first = {"a": l1, "b": l2}
        second = {"a": l3, "b": l4}
        seq12 = epistemic_condition(
            epistemic_condition(prior, first.get), second.get
        )
        seq21 = epistemic_condition(
            epistemic_condition(prior, second.get), first.get
        )
        batch = epistemic_condition(
            prior, lambda theta: first[theta] * second[theta]
        )
        for a, b, c in zip(seq12.weights, seq21.weights, batch.weights):
            assert a == pytest.approx(b, abs=1e-12)
            assert a == pytest.approx(c, abs=1e-12)

    @given(
        w=st.floats(0.0, 1.0),
        l1=st.floats(0.0, 1.0),
        l2=st.floats(0.0, 1.0),
    )
    def test_posterior_normalized_and_nonnegative(self, w, l1, l2):
        prior = DiscreteEpistemicBelief(("a", "b"), (w, 1.0 - w))
        lik = {"a": l1, "b": l2}
        if l1 * w + l2 * (1.0 - w) <= 0.0:
            return
        post = epistemic_condition(prior, lik.get)
        assert all(p >= 0.0 for p in post.weights)
        assert math.fsum(post.weights) == pytest.approx(1.0, abs=1e-12)


class TestPredictiveProbability:
    """P(Y = 0) marginalised over the belief, with psi = P(theta = 0.5)."""

    def test_two_coin_marginal(self):
        assert success_probability(TWO_COINS.weights[0]) == pytest.approx(0.745)

    def test_point_mass(self):
        assert success_probability(1.0) == 0.5
        assert success_probability(1.0, CoinConfig(theta_bad=0.0)) == 0.0

    def test_posterior_predictive(self):
        post = epistemic_condition(TWO_COINS, lik_success)
        value = success_probability(post.weights[0])
        assert value == pytest.approx(
            (0.25 / 0.745) * 0.5 + (0.495 / 0.745) * 0.99, abs=1e-12
        )
        assert value == pytest.approx(0.82557, abs=1e-5)

    def test_monotone_in_belief(self):
        # shifting weight onto the hypothesis with the larger conditional
        # cannot lower the predictive probability
        post = epistemic_condition(TWO_COINS, lik_success)  # upweights 0.99
        assert success_probability(post.weights[0]) >= success_probability(
            TWO_COINS.weights[0]
        )


class TestGaussianCondition:
    def test_equal_precisions(self):
        post = gaussian_condition(GaussianBelief(0.0, 1.0), 1.0, 1.0)
        assert post.mean == pytest.approx(0.5)
        assert post.variance == pytest.approx(0.5)

    def test_zero_variance_prior_immovable(self):
        prior = GaussianBelief(3.0, 0.0)
        assert gaussian_condition(prior, 100.0, 0.25) == prior

    def test_precision_weighted_mean(self):
        post = gaussian_condition(GaussianBelief(0.0, 1.0), 2.0, 0.25)
        assert post.mean == pytest.approx(1.6)
        assert post.variance == pytest.approx(0.2)

    @given(
        mean=st.floats(-10, 10),
        var=st.floats(1e-6, 10),
        obs=st.floats(-10, 10),
        noise=st.floats(1e-6, 10),
    )
    def test_variance_strictly_decreases(self, mean, var, obs, noise):
        post = gaussian_condition(GaussianBelief(mean, var), obs, noise)
        assert post.variance < var

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            gaussian_condition(GaussianBelief(0.0, 1.0), 0.0, 0.0)
