import dataclasses
import json
import math
import struct
import warnings

import numpy as np
import pytest
from scipy.special import ndtr, owens_t

from pdtwin.beliefs import GaussianBelief
from pdtwin.cli import main
from pdtwin.dqn import QPolicy
from pdtwin.envs.reliability import (
    CONFIRMED_ABOVE, CONFIRMED_BELOW, FAILED, FE, LAB, MEASUREMENT, UNDECIDED,
    CrnNormals, ReliabilityConfig, ReliabilityEnv, SurrogatePosterior,
    _pf, _pf_stats, benchmark_policy_action, check_objective, estimate_pf_stats,
    select_fe_input,
)
from pdtwin.envs import reliability
from pdtwin.mdp import (
    FunctionPolicy, RandomPolicy, StepAfterDone, evaluate_policy, run_episode,
)
from pdtwin.nets import load_checkpoint

CONFIG = ReliabilityConfig()


def fresh_state(seed=0):
    return ReliabilityEnv(CONFIG).reset(np.random.default_rng(seed))


def pf_given_theta(
    beta: np.ndarray, d: float, mu_m: float, config: ReliabilityConfig
) -> float:
    """Closed-form failure probability for fixed epistemic values."""
    beta = np.asarray(beta, dtype=float)
    margin = mu_m + config.gamma * d
    scale = np.sqrt(float(beta @ beta) + config.sigma_a**2)
    return float(_pf(margin, scale))


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

    @pytest.mark.parametrize("mu_m, expected", [(1.0, 0.0), (-1.0, 1.0), (0.0, 0.5)])
    def test_zero_scale_is_the_limit(self, mu_m, expected):
        # beta = 0 and sigma_a = 0: Phi(-m / s) as s -> 0+, with no warning
        cfg = dataclasses.replace(CONFIG, sigma_a=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pf_given_theta(np.zeros(cfg.input_dim), 0.0, mu_m, cfg) == expected


class TestSurrogatePosterior:
    def test_prior_shapes(self):
        prior = SurrogatePosterior.prior(CONFIG)
        assert len(prior.weight_mean) == CONFIG.input_dim
        assert prior.weight_covariance.shape == (CONFIG.input_dim, CONFIG.input_dim)

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
        cov = post.weight_covariance
        assert np.array_equal(cov, cov.T)
        for arr in (post.weight_mean, cov):
            assert not arr.flags.writeable

    def test_predictive_variance_positive_semidefinite(self):
        prior = SurrogatePosterior.prior(CONFIG)
        pool = CONFIG.candidate_pool()
        variances = prior.predictive_variance(pool)
        assert (variances >= 0.0).all()

    def test_variance_never_increases_with_observations(self):
        rng = np.random.default_rng(3)
        post = SurrogatePosterior.prior(CONFIG)
        pool = CONFIG.candidate_pool()
        for _ in range(12):
            before = post.predictive_variance(pool)
            x = select_fe_input(pool, before)
            post = post.observe(x, float(rng.normal()), CONFIG.fe_noise_var)
            after = post.predictive_variance(pool)
            assert (after <= before + 1e-10).all()

    def test_rank_one_update_matches_direct_inversion(self):
        prior = SurrogatePosterior.prior(CONFIG)
        phi = np.array([0.3, -0.2, 0.9, 0.1, -0.5])
        y, noise = 1.7, 0.25
        post = prior.observe(phi, y, noise)
        # reference: precision-space conjugate update
        prec = np.linalg.inv(prior.weight_covariance) + np.outer(phi, phi) / noise
        cov = np.linalg.inv(prec)
        mean = cov @ (
            np.linalg.inv(prior.weight_covariance) @ prior.weight_mean + phi * y / noise
        )
        assert np.allclose(post.weight_mean, mean, atol=1e-10)
        assert np.allclose(post.weight_covariance, cov, atol=1e-10)


class TestEstimatePfStats:
    def test_crn_repeatable(self):
        state = fresh_state()
        assert estimate_pf_stats(state, CONFIG, CrnNormals.draw(42, CONFIG)) == (
            estimate_pf_stats(state, CONFIG, CrnNormals.draw(42, CONFIG)))

    def test_matches_brute_force(self):
        state = fresh_state(seed=1)
        mean, sd = estimate_pf_stats(state, CONFIG, CrnNormals.draw(7, CONFIG))
        ref_mean, ref_sd = brute_force_pf_stats(state, CONFIG, 7, n=200_000)
        se = ref_sd / np.sqrt(CONFIG.n_mc)
        assert abs(mean - ref_mean) <= 3.0 * se
        assert sd == pytest.approx(ref_sd, rel=0.25)

    def test_degenerate_beliefs_give_zero_spread(self):
        # estimate_pf_stats reads only the three beliefs
        point = dataclasses.replace(
            fresh_state(),
            surrogate=SurrogatePosterior(
                np.full(CONFIG.input_dim, 0.5), np.zeros((CONFIG.input_dim,) * 2)
            ),
            defect_belief=GaussianBelief(0.5, 0.0),
            discrepancy_belief=GaussianBelief(2.8, 0.0),
        )
        mean, sd = estimate_pf_stats(point, CONFIG, CrnNormals.draw(0, CONFIG))
        assert sd == pytest.approx(0.0, abs=1e-15)
        assert mean == pytest.approx(
            pf_given_theta(np.full(CONFIG.input_dim, 0.5), 0.5, 2.8, CONFIG)
        )

    def test_zero_scales_count_the_sign_of_each_margin(self):
        # a known zero surrogate and sigma_a 0 make every scale 0, so a draw's
        # p_f is 1 where its margin mu_m + gamma d is below 0, 0 where above
        cfg = dataclasses.replace(CONFIG, sigma_a=0.0)
        k = cfg.input_dim
        state = dataclasses.replace(
            fresh_state(),
            surrogate=SurrogatePosterior(np.zeros(k), np.zeros((k, k))),
            defect_belief=GaussianBelief(0.0, 0.0),
            discrepancy_belief=GaussianBelief(0.0, 1.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            normals = CrnNormals.draw(3, cfg)
            stats = estimate_pf_stats(state, cfg, normals)
        pf = (normals.discrepancy < 0.0).astype(float)
        assert 0.0 < pf.mean() < 1.0
        assert stats == (pf.mean(), pf.std(ddof=1))


def pf_vectors():
    """p_f draw vectors: 2, 3 and 512 draws, all-equal draws, draws near 0 and
    near 1, and scales from 1e-300 to 1."""
    rng = np.random.default_rng(29)
    for n in (2, 3, 512):
        yield np.full(n, 0.25)
        yield np.full(n, 1e-300)
        yield 1.0 - rng.random(n) * 1e-12  # near 1
        yield rng.random(n) * 1e-17  # near 0
        for scale in 10.0 ** np.arange(-300.0, 1.0, 10.0):
            yield rng.random(n) * scale
            yield rng.lognormal(0.0, 3.0, n) / np.exp(12.0) * scale


class TestPfStatsTrim:
    # _pf_stats reduces with np.add.reduce; it must keep the bits of numpy's
    # mean and std(ddof=1)
    def test_bit_equal_to_numpy_mean_and_std(self, monkeypatch):
        monkeypatch.setattr(reliability, "_pf", lambda margins, scales: margins)
        for pf in pf_vectors():
            assert _pf_stats(pf, None) == (float(pf.mean()), float(pf.std(ddof=1)))

    def test_objective_margins_bit_equal_to_clip(self):
        # intervals whose lower end is at or below 0, ratios beyond +-3
        # decades and the clip ends themselves, at two targets
        rng = np.random.default_rng(31)
        means = [0.0, 1e-300, 1e-15, 1e-9, 1e-6, 1e-3, 0.999e-3, 0.3, 1.0]
        means += list(10.0 ** rng.uniform(-16.0, 0.0, 60))
        for target in (1e-3, 1e-7):
            env = ReliabilityEnv(dataclasses.replace(CONFIG, target=target))

            def clipped(value):
                ratio = max(value, 1e-12) / target
                return float(np.clip(np.log10(ratio), -3.0, 3.0) / 3.0)

            for mean in means:
                for sd in (0.0, mean / 2.0, mean / 1.999, mean, 1e3 * target, 0.5):
                    state = dataclasses.replace(fresh_state(), pf_stats=(mean, sd))
                    expected = (clipped(mean + 2.0 * sd), clipped(mean - 2.0 * sd))
                    assert env.objective_margins(state) == expected


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
        variances = prior.predictive_variance(pool)
        chosen = select_fe_input(pool, variances)
        assert np.array_equal(chosen, pool[int(np.argmax(variances))])

    def test_ties_break_to_lowest_index(self):
        pool = CONFIG.candidate_pool()[:4]
        chosen = select_fe_input(pool, np.array([0.5, 2.0, 2.0, 1.0]))
        assert np.array_equal(chosen, pool[1])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_fe_input(np.zeros((0, 5)), np.zeros(0))


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
            nxt, reward = self.env.step(state, action, rng)
            if not nxt.done:
                assert reward == cost

    @pytest.mark.parametrize("action, tightened, kept", [
        (MEASUREMENT, "defect_belief", "discrepancy_belief"),
        (LAB, "discrepancy_belief", "defect_belief"),
    ], ids=["measurement", "lab"])
    def test_observation_tightens_only_its_belief(self, action, tightened, kept):
        state = fresh_state()
        nxt, _ = self.env.step(state, action, np.random.default_rng(0))
        assert getattr(nxt, tightened).variance < getattr(state, tightened).variance
        for name in (kept, "surrogate", "fe_observations", "pf_scales"):
            assert getattr(nxt, name) is getattr(state, name)

    def test_fe_appends_observation(self):
        state = fresh_state()
        nxt, _ = self.env.step(state, FE, np.random.default_rng(0))
        assert nxt.fe_observations.shape == (1, CONFIG.input_dim + 1)
        assert not nxt.fe_observations.flags.writeable

    def test_pool_variance_follows_the_surrogate(self):
        pool = CONFIG.candidate_pool()
        state = fresh_state()
        rng = np.random.default_rng(0)
        for action in (FE, MEASUREMENT, FE, LAB, FE):
            expected = state.surrogate.predictive_variance(pool)
            assert np.array_equal(state.pool_variance, expected)
            assert not state.pool_variance.flags.writeable
            state, _ = self.env.step(state, action, rng)
            if state.done:
                break

    def test_action_mask_is_a_read_only_constant(self):
        mask = self.env.action_mask(fresh_state())
        assert np.array_equal(mask, np.ones(3, dtype=bool))
        assert not mask.flags.writeable
        assert self.env.action_mask(fresh_state(seed=1)) is mask

    @pytest.mark.parametrize("discrepancy_mean, verdict", [
        (40.0, CONFIRMED_BELOW), (-40.0, CONFIRMED_ABOVE)])
    def test_prior_that_decides_ends_at_reset(self, discrepancy_mean, verdict):
        env = ReliabilityEnv(dataclasses.replace(
            CONFIG, prior_discrepancy_mean=discrepancy_mean))
        state = env.reset(np.random.default_rng(0))
        assert check_objective(*state.pf_stats, CONFIG.target) == verdict
        assert state.done and state.outcome == verdict
        summary = evaluate_policy(env, RandomPolicy(), 5, 0)
        assert summary.lengths == (0,) * 5 and summary.returns == (0.0,) * 5
        assert summary.outcomes == (verdict,) * 5

    def test_step_after_done(self):
        state = dataclasses.replace(fresh_state(), outcome=FAILED)
        with pytest.raises(StepAfterDone):
            self.env.step(state, FE, np.random.default_rng(0))

    def test_episode_invariants(self):
        for seed in range(20):
            rec = run_episode(self.env, RandomPolicy(), seed)
            final = rec.states[-1]
            assert all(s.done == (s.outcome is not None) for s in rec.states)
            assert len(rec.actions) <= CONFIG.max_actions
            assert final.done
            assert final.outcome in (CONFIRMED_BELOW, CONFIRMED_ABOVE, FAILED)
            if final.outcome == FAILED:
                assert len(rec.actions) == CONFIG.max_actions
            # successful total cost is a sum of pure action costs
            if final.outcome != FAILED:
                counts = [0, 0, 0]
                for action in rec.actions:
                    counts[action] += 1
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
        final = rec.states[-1]
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
        nxt, _ = self.env.step(state, FE, np.random.default_rng(0))
        enc2 = self.env.encode(nxt)
        assert len(enc2.elements) == 1
        assert enc2.aux[4] == pytest.approx(1.0 / CONFIG.max_actions)
        assert enc2.aux[5] < 1.0  # computer experiment shrank the surrogate

    def test_objective_margins_track_the_stopping_rule(self):
        state = fresh_state()
        mean, sd = estimate_pf_stats(state, CONFIG, state.crn_normals)
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
            state, _ = self.env.step(state, FE, rng)
            if state.done:
                return
        assert self.env.surrogate_spread(state) < 0.01

    def test_encoding_hides_ground_truth(self):
        state = fresh_state()
        enc = self.env.encode(state)
        flat = list(enc.aux) + [v for e in enc.elements for v in e]
        assert state.true_defect not in flat
        assert state.true_discrepancy not in flat

    def test_crn_seed_fixed_within_episode(self):
        rec = run_episode(self.env, RandomPolicy(), seed=3)
        assert len(rec.states) > 1
        assert all(s.crn_normals is rec.states[0].crn_normals for s in rec.states)

    def test_encodings_are_canonical_float_arrays(self):
        rec = run_episode(self.env, RandomPolicy(), seed=4)
        dim = CONFIG.input_dim + 1
        assert any(len(s.fe_observations) > 1 for s in rec.states)
        for state in rec.states:
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
        for state in rec.states:
            assert state.pf_stats == estimate_pf_stats(state, CONFIG, state.crn_normals)
        final = rec.states[-1]
        assert final.outcome == FAILED or check_objective(
            *final.pf_stats, CONFIG.target) == final.outcome


class TestCachedEstimator:
    """The env computes each state's (E, Std) from the episode's normals and
    the margins and scales it keeps, and its verdict from (E, Std); every
    stored field must equal a fresh computation from the state's beliefs."""

    @pytest.mark.parametrize("changes", [
        {},
        {"prior_beta_var": 0.0},
        {"prior_defect_var": 0.0},
        {"prior_discrepancy_var": 0.0},
        {"sigma_a": 0.0},
        {"n_mc": 2},
    ])
    def test_stored_stats_equal_a_fresh_estimate(self, changes):
        cfg = ReliabilityConfig(**changes)
        env = ReliabilityEnv(cfg)
        cycle = FunctionPolicy(lambda s: (MEASUREMENT, FE, LAB)[s.actions_taken % 3])
        taken = set()
        for seed in range(6):
            rec = run_episode(env, cycle, seed)
            taken.update(rec.actions)
            normals = rec.states[0].crn_normals
            for arr in (normals.beta, normals.defect, normals.discrepancy):
                assert not arr.flags.writeable
            for state in rec.states:
                assert state.crn_normals is normals
                assert not state.pf_margins.flags.writeable
                assert not state.pf_scales.flags.writeable
                assert state.pf_stats == estimate_pf_stats(state, cfg, state.crn_normals)
                margins = reliability._pf_margins(
                    state.defect_belief, state.discrepancy_belief, normals, cfg)
                scales = reliability._pf_scales(state.surrogate, normals, cfg)
                assert state.pf_margins.tobytes() == margins.tobytes()
                assert state.pf_scales.tobytes() == scales.tobytes()
                variance = state.surrogate.predictive_variance(env.pool)
                assert state.pool_variance.tobytes() == variance.tobytes()
                verdict = check_objective(*state.pf_stats, cfg.target)
                if verdict == UNDECIDED:
                    verdict = FAILED if state.actions_taken >= cfg.max_actions else None
                assert state.outcome == verdict
        assert taken == {MEASUREMENT, FE, LAB}


def exact_pf_moments(state, config):
    """E[p_f] and Var(p_f) in closed form for a known surrogate (prior_beta_var
    0). Every draw then has the scale s = sqrt(input_dim * beta_mean^2 +
    sigma_a^2), and the margin M = mu_m + gamma d is N(m, v). With Z1, Z2
    standard normals independent of M, p_f = P(s Z1 + M < 0 | M), so E[p_f] =
    Phi(h) with h = -m / sqrt(s^2 + v), and E[p_f^2] is the bivariate normal
    probability P(s Z1 + M < 0, s Z2 + M < 0) = Phi(h) - 2 T(h, a) with
    correlation rho = v / (s^2 + v) and a = sqrt((1 - rho) / (1 + rho))."""
    defect, discrepancy = state.defect_belief, state.discrepancy_belief
    s2 = config.input_dim * config.prior_beta_mean**2 + config.sigma_a**2
    m = discrepancy.mean + config.gamma * defect.mean
    v = discrepancy.variance + config.gamma**2 * defect.variance
    h = -m / np.sqrt(s2 + v)
    rho = v / (s2 + v)
    mean = ndtr(h)
    second = mean - 2.0 * owens_t(h, np.sqrt((1.0 - rho) / (1.0 + rho)))
    return mean, second - mean**2


class TestPfClosedForm:
    """Over many episodes the stored (E, Std) estimate, from the episode's n_mc
    draws, averages to the exact moments: E as it is and Std^2, the unbiased
    (ddof=1) sample variance, as Var. Std itself is biased low by the square
    root (Jensen), so it is not compared."""

    CONFIG = ReliabilityConfig(prior_beta_var=0.0)

    def test_prior_moments_match_quadrature(self):
        # Gauss-Hermite over the margin M ~ N(m, v), independent of Owen's T
        cfg = self.CONFIG
        state = ReliabilityEnv(cfg).reset(np.random.default_rng(0))
        mean, var = exact_pf_moments(state, cfg)
        m = cfg.prior_discrepancy_mean + cfg.gamma * cfg.prior_defect_mean
        v = cfg.prior_discrepancy_var + cfg.gamma**2 * cfg.prior_defect_var
        s = np.sqrt(cfg.input_dim * cfg.prior_beta_mean**2 + cfg.sigma_a**2)
        nodes, weights = np.polynomial.hermite.hermgauss(120)
        pf = ndtr(-(m + np.sqrt(2.0 * v) * nodes) / s)
        weights = weights / np.sqrt(np.pi)
        assert mean == pytest.approx(weights @ pf, rel=1e-9)
        assert var == pytest.approx(weights @ pf**2 - (weights @ pf) ** 2, rel=1e-9)
        assert (round(mean, 7), round(var, 8)) == (0.0037262, 0.00019420)

    def assert_average_to_the_exact_moments(self, states):
        gaps = []
        for state in states:
            mean, var = exact_pf_moments(state, self.CONFIG)
            stored_mean, stored_sd = state.pf_stats
            gaps.append((stored_mean - mean, stored_sd**2 - var))
        for column in np.array(gaps).T:  # E, then Std^2
            se = column.std(ddof=1) / np.sqrt(len(column))
            assert abs(column.mean()) <= 4.0 * se

    @pytest.mark.parametrize("actions", [(), (MEASUREMENT, LAB)],
                             ids=["reset", "measurement-lab"])
    def test_stored_stats_average_to_the_exact_moments(self, actions):
        env = ReliabilityEnv(self.CONFIG)
        states = []
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            state = env.reset(rng)
            for action in actions:
                state, _ = env.step(state, action, rng)
            states.append(state)
        self.assert_average_to_the_exact_moments(states)

    @pytest.mark.slow
    @pytest.mark.parametrize("policy", [
        RandomPolicy(),
        FunctionPolicy(lambda s: benchmark_policy_action(s.actions_taken)),
        pytest.param("dqn", marks=pytest.mark.reads_checkpoint),
    ], ids=["random", "benchmark", "dqn"])
    def test_final_states_average_to_the_exact_moments(self, policy, request):
        # The final state is chosen by the stored estimate itself: the
        # stopping rule ends an episode once its (E, Std) clears the target by
        # two Std. So this also shows that this optional stopping biases
        # nothing detectable at n = 2000.
        env = ReliabilityEnv(self.CONFIG)
        if policy == "dqn":  # criterion 9's net, trained on the default game
            net, _ = load_checkpoint(request.getfixturevalue("reliability_checkpoint"))
            policy = QPolicy(net, env)
        self.assert_average_to_the_exact_moments(
            run_episode(env, policy, seed).states[-1] for seed in range(2000))


class TestConfigValidation:
    def test_known_surrogate_has_zero_spread(self):
        env = ReliabilityEnv(ReliabilityConfig(prior_beta_var=0.0))
        state = env.reset(np.random.default_rng(0))
        state, _ = env.step(state, FE, np.random.default_rng(1))
        aux = env.encode(state).aux
        assert np.isfinite(aux).all() and aux[5] == 0.0


NOISE_VARS = ("measurement_noise_var", "lab_noise_var")


def smallest_accepted(name: str) -> float:
    """The smallest ``name`` that ReliabilityConfig accepts, by bisection over
    the bit patterns of the floats in [0, 1], which sort as the floats do."""
    def value(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    def accepts(bits):
        try:
            ReliabilityConfig(**{name: value(bits)})
        except ValueError:
            return False
        return True

    low, high = 0, struct.unpack("<q", struct.pack("<d", 1.0))[0]  # rejected, accepted
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if accepts(mid) else (mid, high)
    return value(high)


class TestNoiseVarianceBound:
    """A noise variance so small that max_actions conjugate updates of its
    belief would leave the float range is a config error."""

    SMALLEST = {name: smallest_accepted(name) for name in NOISE_VARS}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("action, belief", [
        (MEASUREMENT, "defect_belief"), (LAB, "discrepancy_belief"),
    ])
    def test_smallest_accepted_keeps_every_update_finite(self, action, belief):
        env = ReliabilityEnv(ReliabilityConfig(**self.SMALLEST))
        lengths = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = env.reset(rng)
            while not state.done:
                state, _ = env.step(state, action, rng)
                held = getattr(state, belief)
                assert math.isfinite(held.mean) and held.variance > 0.0
                assert np.isfinite(env.encode(state).aux).all()
            lengths.append(state.actions_taken)
        assert max(lengths) == env.config.max_actions  # the whole budget was spent

    @pytest.mark.filterwarnings("error")
    def test_smallest_accepted_trains_and_compares(self, tmp_path):
        config = tmp_path / "noise.json"
        config.write_text(json.dumps({"env": {"reliability": self.SMALLEST}}))
        common = ["--env", "reliability", "--config", str(config)]
        assert main(["train", *common, "--episodes", "3",
                     "--out", str(tmp_path / "train")]) == 0
        assert main(["compare", *common, "--episodes", "5", "--checkpoint",
                     str(tmp_path / "train" / "checkpoint.npz"),
                     "--out", str(tmp_path / "cmp")]) == 0

    @pytest.mark.parametrize("name", NOISE_VARS)
    def test_just_below_the_bound_is_usage_error(self, tmp_path, capsys, name):
        config = tmp_path / "noise.json"
        below = math.nextafter(self.SMALLEST[name], 0.0)
        config.write_text(json.dumps({"env": {"reliability": {name: below}}}))
        out = tmp_path / "o"
        assert main(["train", "--env", "reliability", "--episodes", "3",
                     "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: invalid ReliabilityConfig: {name} too small")
        assert not out.exists()


class TestPfMarginBound:
    """The p_f margins mu_m + gamma d of the draws stay in the float range,
    and a margin over its scale past the float range gives p_f exactly."""

    @pytest.mark.parametrize("values", [
        {"gamma": 1e308, "prior_defect_var": 1.0},
        {"gamma": 1e300, "prior_defect_mean": 1e10},
        {"gamma": 1e308, "prior_defect_var": 1.0, "prior_beta_mean": 1e200},
        {"prior_discrepancy_mean": 1.7e308, "prior_discrepancy_var": 0.0,
         "prior_defect_mean": 1.7e308, "prior_defect_var": 0.0},  # an overflowing sum
    ])
    def test_margin_past_the_float_range_is_usage_error(self, tmp_path, capsys, values):
        config = tmp_path / "margin.json"
        config.write_text(json.dumps({"env": {"reliability": values}}))
        out = tmp_path / "o"
        assert main(["compare", "--env", "reliability", "--episodes", "20",
                     "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: invalid ReliabilityConfig: the p_f margin mu_m + gamma * d")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values", [
        {"gamma": 1e307},  # margins near 4.5e307 at the default priors
        # margins near 1e160 over scales of 1e-150
        {"prior_discrepancy_mean": 1e160, "sigma_a": 1e-150,
         "prior_beta_mean": 0.0, "prior_beta_var": 0.0},
    ])
    def test_legal_extremes_compare_without_warning(self, tmp_path, values):
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps({"env": {"reliability": values}}))
        assert main(["compare", "--env", "reliability", "--episodes", "20",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.filterwarnings("error")
    def test_ratio_past_the_float_range_is_exact(self):
        margins = np.array([1e160, -1e160, 1e160, -1e160, 1.0])
        for scales in (np.full(5, 1e-150), np.array([1e-150, 1e-150, 0.0, 0.0, 1e-150])):
            assert _pf(margins, scales).tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_signed_zero_margin_at_zero_scale(self):
        # 0 / 0 is 1/2 whatever the sign of the zero; m / 0 keeps its limit
        assert _pf(np.array([-0.0, 0.0, 3.0, -3.0]), np.zeros(4)).tolist() == [
            0.5, 0.5, 0.0, 1.0]
        assert float(_pf(-0.0, np.float64(0.0))) == 0.5
