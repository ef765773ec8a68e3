import numpy as np
import pytest
from scipy.special import ndtr

from pdtwin.beliefs import GaussianBelief
from pdtwin.envs.reliability import (
    CONFIRMED_ABOVE, CONFIRMED_BELOW, FAILED, FE, LAB, MEASUREMENT, UNDECIDED,
    ReliabilityConfig, ReliabilityEnv, ReliabilityState, SurrogatePosterior,
    basis_features, benchmark_policy_action, check_objective, estimate_pf_stats,
    pf_given_theta, select_fe_input,
)
from pdtwin.mdp import FunctionPolicy, RandomPolicy, StepAfterDone, run_episode

CONFIG = ReliabilityConfig()


def fresh_state(seed=0):
    return ReliabilityEnv(CONFIG).reset(np.random.default_rng(seed))


def brute_force_pf_stats(state, config, seed, n=1_000_000):
    """Independent oracle: direct Monte Carlo over the three posteriors.

    Draws each epistemic quantity with its own generator stream and evaluates
    the closed-form failure probability one draw at a time (vectorized only
    over the margin, not reusing any library code from the implementation).
    """
    rng = np.random.default_rng([seed, 99])
    mean = np.asarray(state.surrogate.weight_mean)
    cov = np.asarray(state.surrogate.weight_covariance)
    betas = rng.multivariate_normal(mean, cov, size=n, method="svd")
    ds = rng.normal(state.defect_belief.mean, state.defect_belief.sd, size=n)
    mus = rng.normal(
        state.discrepancy_belief.mean, state.discrepancy_belief.sd, size=n
    )
    margins = mus + config.gamma * ds
    scales = np.sqrt((betas * betas).sum(axis=1) + config.sigma_a**2)
    pf = ndtr(-margins / scales)
    return float(pf.mean()), float(pf.std(ddof=1))


class TestPfGivenTheta:
    def test_closed_form_value(self):
        cfg = CONFIG
        beta = np.zeros(cfg.input_dim)
        # with beta = 0 the margin is scaled by sigma_a only
        expected = float(ndtr(-(2.8 + cfg.gamma * 0.5) / cfg.sigma_a))
        assert pf_given_theta(beta, 0.5, 2.8, cfg) == pytest.approx(expected)

    def test_monotone_in_margin(self):
        cfg = CONFIG
        beta = np.full(cfg.input_dim, 0.5)
        low = pf_given_theta(beta, 0.5, 3.5, cfg)
        high = pf_given_theta(beta, 0.5, 1.0, cfg)
        assert high > low

    def test_bounds(self):
        cfg = CONFIG
        pf = pf_given_theta(np.full(cfg.input_dim, 0.5), 0.5, 2.8, cfg)
        assert 0.0 < pf < 1.0


class TestSurrogatePosterior:
    def test_prior_shapes(self):
        prior = SurrogatePosterior.prior(CONFIG)
        assert len(prior.weight_mean) == CONFIG.input_dim
        assert prior.cov_array().shape == (CONFIG.input_dim, CONFIG.input_dim)

    def test_observation_moves_mean_toward_target(self):
        prior = SurrogatePosterior.prior(CONFIG)
        phi = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        post = prior.observe(phi, 2.0, CONFIG.fe_noise_var)
        assert post.weight_mean[0] == pytest.approx(2.0, abs=1e-4)
        assert post.weight_mean[1] == pytest.approx(CONFIG.prior_beta_mean)

    def test_holds_read_only_symmetric_arrays(self):
        post = SurrogatePosterior.prior(CONFIG).observe(
            np.array([0.3, -0.2, 0.9, 0.1, 0.5]), 1.0, CONFIG.fe_noise_var
        )
        cov = post.cov_array()
        assert np.array_equal(cov, cov.T)
        for arr in (post.mean_array(), cov):
            assert not arr.flags.writeable

    def test_predictive_variance_positive_semidefinite(self):
        prior = SurrogatePosterior.prior(CONFIG)
        pool = CONFIG.candidate_pool()
        variances = prior.predictive_variance(basis_features(pool, CONFIG))
        assert (variances >= 0.0).all()

    def test_variance_never_increases_with_observations(self):
        rng = np.random.default_rng(3)
        post = SurrogatePosterior.prior(CONFIG)
        pool = CONFIG.candidate_pool()
        feats = basis_features(pool, CONFIG)
        for _ in range(12):
            before = post.predictive_variance(feats)
            x = select_fe_input(post, pool, CONFIG)
            post = post.observe(
                basis_features(x, CONFIG), float(rng.normal()), CONFIG.fe_noise_var
            )
            after = post.predictive_variance(feats)
            assert (after <= before + 1e-10).all()

    def test_rank_one_update_matches_direct_inversion(self):
        prior = SurrogatePosterior.prior(CONFIG)
        phi = np.array([0.3, -0.2, 0.9, 0.1, -0.5])
        y, noise = 1.7, 0.25
        post = prior.observe(phi, y, noise)
        # reference: precision-space conjugate update
        prec = np.linalg.inv(prior.cov_array()) + np.outer(phi, phi) / noise
        cov = np.linalg.inv(prec)
        mean = cov @ (
            np.linalg.inv(prior.cov_array()) @ prior.mean_array() + phi * y / noise
        )
        assert np.allclose(post.mean_array(), mean, atol=1e-10)
        assert np.allclose(post.cov_array(), cov, atol=1e-10)


class TestEstimatePfStats:
    def test_crn_repeatable(self):
        state = fresh_state()
        assert estimate_pf_stats(state, CONFIG, 42) == estimate_pf_stats(
            state, CONFIG, 42
        )

    def test_matches_brute_force(self):
        state = fresh_state(seed=1)
        mean, sd = estimate_pf_stats(state, CONFIG, 7)
        ref_mean, ref_sd = brute_force_pf_stats(state, CONFIG, 7, n=200_000)
        se = ref_sd / np.sqrt(CONFIG.n_mc)
        assert abs(mean - ref_mean) <= 3.0 * se
        assert sd == pytest.approx(ref_sd, rel=0.25)

    def test_degenerate_beliefs_give_zero_spread(self):
        state = fresh_state()
        point = ReliabilityState(
            surrogate=SurrogatePosterior.from_arrays(
                np.full(CONFIG.input_dim, 0.5), np.zeros((CONFIG.input_dim,) * 2)
            ),
            defect_belief=GaussianBelief(0.5, 0.0),
            discrepancy_belief=GaussianBelief(2.8, 0.0),
            fe_observations=np.empty((0, CONFIG.input_dim + 1)),
            actions_taken=0, crn_seed=0,
            true_beta=state.true_beta, true_defect=0.5, true_discrepancy=2.8,
        )
        mean, sd = estimate_pf_stats(point, CONFIG, 0)
        assert sd == pytest.approx(0.0, abs=1e-15)
        assert mean == pytest.approx(
            pf_given_theta(np.full(CONFIG.input_dim, 0.5), 0.5, 2.8, CONFIG)
        )


class TestCheckObjective:
    def test_boundary_exact(self):
        # mean + 2 sd == target is NOT confirmed (strict inequality)
        assert check_objective(5e-4, 2.5e-4, 1e-3) == UNDECIDED
        assert check_objective(5e-4, 2.5e-4 - 1e-12, 1e-3) == CONFIRMED_BELOW
        assert check_objective(2e-3, 5e-4, 1e-3) == UNDECIDED
        assert check_objective(2e-3, 5e-4 - 1e-12, 1e-3) == CONFIRMED_ABOVE

    def test_zero_sd(self):
        assert check_objective(5e-4, 0.0, 1e-3) == CONFIRMED_BELOW
        assert check_objective(2e-3, 0.0, 1e-3) == CONFIRMED_ABOVE
        assert check_objective(1e-3, 0.0, 1e-3) == UNDECIDED

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            check_objective(1e-3, -1.0, 1e-3)


class TestSelectFeInput:
    def test_picks_max_variance_candidate(self):
        prior = SurrogatePosterior.prior(CONFIG)
        pool = CONFIG.candidate_pool()
        chosen = select_fe_input(prior, pool, CONFIG)
        variances = prior.predictive_variance(basis_features(pool, CONFIG))
        assert np.array_equal(chosen, pool[int(np.argmax(variances))])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_fe_input(
                SurrogatePosterior.prior(CONFIG), np.zeros((0, 5)), CONFIG
            )


class TestBenchmarkPolicy:
    def test_cycle(self):
        acts = [benchmark_policy_action(i) for i in range(24)]
        assert acts[:12] == [FE] * 10 + [LAB, MEASUREMENT]
        assert acts[12:] == acts[:12]


class TestEnvironment:
    def setup_method(self):
        self.env = ReliabilityEnv(CONFIG)

    def test_reset_fields(self):
        state = fresh_state(seed=5)
        assert state.actions_taken == 0
        assert state.fe_observations.shape == (0, CONFIG.input_dim + 1)
        assert not state.done and state.outcome is None
        assert state.true_beta.shape == (CONFIG.input_dim,)
        for arr in (state.fe_observations, state.true_beta):
            assert arr.dtype == np.float64 and not arr.flags.writeable

    def test_rewards_are_exact_action_costs(self):
        rng = np.random.default_rng(0)
        state = fresh_state()
        for action, cost in ((MEASUREMENT, -10.0), (LAB, -1.0), (FE, -0.1)):
            _, reward, done = self.env.step(state, action, rng)
            if not done:
                assert reward == cost

    def test_measurement_tightens_defect_belief(self):
        state = fresh_state()
        nxt, _, _ = self.env.step(state, MEASUREMENT, np.random.default_rng(0))
        assert nxt.defect_belief.variance < state.defect_belief.variance
        assert nxt.discrepancy_belief == state.discrepancy_belief

    def test_fe_appends_observation(self):
        state = fresh_state()
        nxt, _, _ = self.env.step(state, FE, np.random.default_rng(0))
        assert nxt.fe_observations.shape == (1, CONFIG.input_dim + 1)
        assert not nxt.fe_observations.flags.writeable

    def test_step_after_done(self):
        from dataclasses import replace

        state = replace(fresh_state(), done=True, outcome=FAILED)
        with pytest.raises(StepAfterDone):
            self.env.step(state, FE, np.random.default_rng(0))

    def test_episode_invariants(self):
        for seed in range(20):
            rec = run_episode(self.env, RandomPolicy(), seed)
            final = rec.transitions[-1].next_state
            assert rec.length <= CONFIG.max_actions
            assert final.done
            assert final.outcome in (CONFIRMED_BELOW, CONFIRMED_ABOVE, FAILED)
            if final.outcome == FAILED:
                assert rec.length == CONFIG.max_actions
            # successful total cost is a sum of pure action costs
            if final.outcome != FAILED:
                counts = [0, 0, 0]
                for t in rec.transitions:
                    counts[t.action] += 1
                expected = (
                    counts[MEASUREMENT] * CONFIG.cost_measurement
                    + counts[FE] * CONFIG.cost_fe
                    + counts[LAB] * CONFIG.cost_lab
                )
                assert rec.total_return == pytest.approx(expected)

    def test_failure_includes_penalty(self):
        # a policy that only runs computer experiments cannot decide: the
        # defect and discrepancy spread alone keeps the verdict open
        rec = run_episode(self.env, FunctionPolicy(lambda s: FE), seed=0)
        final = rec.transitions[-1].next_state
        assert final.outcome == FAILED
        assert rec.total_return == pytest.approx(
            CONFIG.max_actions * CONFIG.cost_fe + CONFIG.failure_penalty
        )

    def test_encoding(self):
        state = fresh_state()
        enc = self.env.encode(state)
        assert enc.elements.shape == (0, CONFIG.input_dim + 1)
        assert enc.aux[:6] == pytest.approx(
            [CONFIG.prior_defect_mean, np.sqrt(CONFIG.prior_defect_var),
             CONFIG.prior_discrepancy_mean, np.sqrt(CONFIG.prior_discrepancy_var),
             0.0, 1.0]
        )
        assert enc.aux[6:] == pytest.approx(self.env.objective_margins(state))
        nxt, _, _ = self.env.step(state, FE, np.random.default_rng(0))
        enc2 = self.env.encode(nxt)
        assert len(enc2.elements) == 1
        assert enc2.aux[4] == pytest.approx(1.0 / CONFIG.max_actions)
        assert enc2.aux[5] < 1.0  # computer experiment shrank the surrogate

    def test_objective_margins_track_the_stopping_rule(self):
        state = fresh_state()
        mean, sd = estimate_pf_stats(state, CONFIG, state.crn_seed)
        upper, lower = self.env.objective_margins(state)
        assert -1.0 <= lower <= upper <= 1.0
        assert upper == pytest.approx(
            np.clip(np.log10((mean + 2 * sd) / CONFIG.target), -3, 3) / 3
        )
        # an undecided interval straddles the target: upper > 0 > lower fails
        # only once a side is confirmed, ending the episode
        verdict = check_objective(mean, sd, CONFIG.target)
        if verdict == UNDECIDED:
            assert upper >= 0.0 >= lower

    def test_surrogate_spread_hits_zero_after_full_resolution(self):
        state = fresh_state()
        rng = np.random.default_rng(0)
        for _ in range(CONFIG.input_dim):
            state, _, done = self.env.step(state, FE, rng)
            if done:
                return
        assert self.env.surrogate_spread(state.surrogate) < 0.01

    def test_encoding_hides_ground_truth(self):
        state = fresh_state()
        enc = self.env.encode(state)
        flat = list(enc.aux) + [v for e in enc.elements for v in e]
        assert state.true_defect not in flat
        assert state.true_discrepancy not in flat

    def test_crn_seed_fixed_within_episode(self):
        rec = run_episode(self.env, RandomPolicy(), seed=3)
        seeds = {t.next_state.crn_seed for t in rec.transitions}
        assert len(seeds) == 1

    def test_encodings_are_canonical_float_arrays(self):
        rec = run_episode(self.env, RandomPolicy(), seed=4)
        dim = CONFIG.input_dim + 1
        states = [rec.transitions[0].state] + [t.next_state for t in rec.transitions]
        assert any(len(s.fe_observations) > 1 for s in states)
        for state in states:
            elements = self.env.encode(state).elements
            # the encoding passes the state's own read-only array through
            assert elements is state.fe_observations
            assert elements.dtype == np.float64 and not elements.flags.writeable
            assert elements.shape == (len(elements), dim)
            # rows in lexicographic order, first coordinate primary
            order = np.lexsort(elements.T[::-1])
            assert np.array_equal(order, np.arange(len(elements)))

    def test_pf_stats_stored_once_per_state(self):
        rec = run_episode(self.env, RandomPolicy(), seed=5)
        states = [rec.transitions[0].state] + [t.next_state for t in rec.transitions]
        for state in states:
            assert state.pf_stats == estimate_pf_stats(state, CONFIG, state.crn_seed)
        final = states[-1]
        assert final.outcome == FAILED or check_objective(
            *final.pf_stats, CONFIG.target) == final.outcome


class TestConfigValidation:
    def test_known_surrogate_has_zero_spread(self):
        env = ReliabilityEnv(ReliabilityConfig(prior_beta_var=0.0))
        state = env.reset(np.random.default_rng(0))
        state, _, _ = env.step(state, FE, np.random.default_rng(1))
        aux = env.encode(state).aux
        assert np.isfinite(aux).all() and aux[5] == 0.0

    def test_basis_must_match_input_dimension(self):
        # the basis features are the raw input coordinates
        x = CONFIG.candidate_pool()[0]
        assert np.array_equal(basis_features(x, CONFIG), x)
        with pytest.raises(ValueError, match="dimension"):
            basis_features(np.zeros(CONFIG.input_dim - 2), CONFIG)
