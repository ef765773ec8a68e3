"""Information-gathering game: confirm a failure probability against a target.

The latent limit state is g = mu_m + gamma * d + beta^T xi + eps_a with
xi a standard normal vector and eps_a Gaussian aleatory noise, so the failure
probability given the epistemic quantities (beta, d, mu_m) has the closed
form Phi(-(mu_m + gamma d) / sqrt(beta^T beta + sigma_a^2)). The agent pays
for three kinds of experiment (defect measurement, lab test of the model
discrepancy, computer evaluation of the response surface) until the mean of
p_f plus/minus two standard deviations clears the target on either side, or
a 40-action budget runs out.

The computer-experiment input is not chosen by the agent: a myopic
design-of-experiments rule picks the candidate with maximal posterior
predictive variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..beliefs import GaussianBelief, gaussian_condition
from ..mdp import Environment, StateEncoding, StepAfterDone
from ..nets import canonical_set
from ..settings import check_fields, require_finite, setting

MEASUREMENT, FE, LAB = 0, 1, 2

CONFIRMED_BELOW = "confirmed_below"
CONFIRMED_ABOVE = "confirmed_above"
UNDECIDED = "undecided"
FAILED = "failed"


@dataclass(frozen=True)
class ReliabilityConfig:
    input_dim: int = setting(5, low=1)  # the surrogate is linear in the raw inputs
    pool_size: int = setting(64, low=1)
    pool_seed: int = setting(20_240_101, low=0)
    prior_beta_mean: float = 0.5
    prior_beta_var: float = setting(0.09, low=0.0)
    prior_defect_mean: float = 0.5
    prior_defect_var: float = setting(0.09, low=0.0)
    prior_discrepancy_mean: float = 4.0
    prior_discrepancy_var: float = setting(1.0, low=0.0)
    measurement_noise_var: float = setting(0.01, above=0.0)
    lab_noise_var: float = setting(1.0, above=0.0)
    fe_noise_var: float = setting(1e-6, above=0.0)
    sigma_a: float = setting(0.5, low=0.0)
    gamma: float = 0.5
    cost_measurement: float = -10.0
    cost_lab: float = -1.0
    cost_fe: float = -0.1
    target: float = setting(1e-3, above=0.0, below=1.0)
    max_actions: int = setting(40, low=1)
    n_mc: int = setting(512, low=2)  # Std(p_f) needs two draws
    # charged on budget exhaustion; large enough that abandoning a marginal
    # episode by spamming cheap actions is never worth more than paying for
    # the lab tests that could still confirm it
    failure_penalty: float = -100.0

    def __post_init__(self):
        check_fields(self)
        # the p_f scales add sigma_a^2; a prior pool variance reaches input_dim * var
        require_finite(lambda: self.sigma_a * self.sigma_a,
                       "sigma_a * sigma_a must be finite")
        require_finite(lambda: self.input_dim * self.prior_beta_var,
                       "input_dim * prior_beta_var must be finite")
        # every return lies within +-(max_actions * cost + |failure_penalty|)
        cost = max(abs(self.cost_measurement), abs(self.cost_lab), abs(self.cost_fe))
        require_finite(lambda: 2.0 * (self.max_actions * cost + abs(self.failure_penalty)),
                       "2 * (max_actions * max(|cost_measurement|, |cost_lab|, |cost_fe|) "
                       "+ |failure_penalty|) must be finite")
        # gaussian_condition's precision reaches 1/prior_var + max_actions/noise_var
        # and weighs a truth within 10 prior sd of the prior mean and observations
        # within 10 noise sd of the truth: that reach times it must be finite
        reach = {}
        for noise, belief, mean, var, noise_var in (
                ("measurement_noise_var", "defect", self.prior_defect_mean,
                 self.prior_defect_var, self.measurement_noise_var),
                ("lab_noise_var", "discrepancy", self.prior_discrepancy_mean,
                 self.prior_discrepancy_var, self.lab_noise_var)):
            reach[belief] = abs(mean) + 10.0 * (math.sqrt(var) + math.sqrt(noise_var))
            if var != 0.0:  # a point-mass belief is never updated
                require_finite(
                    lambda: (1.0 / var + self.max_actions / noise_var)
                    * max(reach[belief], 1.0),
                    f"{noise} too small for the {belief} prior: "
                    "max_actions updates would leave the float range")
        # a draw's p_f margin mu_m + gamma d stays within the beliefs' reaches
        require_finite(lambda: reach["discrepancy"] + abs(self.gamma) * reach["defect"],
                       "the p_f margin mu_m + gamma * d would leave the float range")

    def candidate_pool(self) -> np.ndarray:
        """Fixed design-candidate grid in [-1, 1]^input_dim."""
        rng = np.random.default_rng(self.pool_seed)
        return rng.uniform(-1.0, 1.0, size=(self.pool_size, self.input_dim))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class SurrogatePosterior:
    """Gaussian posterior over the response-surface weights, held in
    read-only arrays; ``prior`` and ``observe`` build exactly symmetric
    covariances."""

    weight_mean: np.ndarray  # (input_dim,)
    weight_covariance: np.ndarray  # (input_dim, input_dim)

    def cov_array(self) -> np.ndarray:  # no caller; kept while the benchmark traces it
        return self.weight_covariance

    @staticmethod
    def prior(config: ReliabilityConfig) -> "SurrogatePosterior":
        k = config.input_dim
        return SurrogatePosterior(_read_only(np.full(k, float(config.prior_beta_mean))),
                                  _read_only(np.eye(k) * config.prior_beta_var))

    def predictive_variance(self, features: np.ndarray) -> np.ndarray:
        """phi^T Sigma phi for each row phi of a (n, input_dim) stack."""
        return np.einsum("ij,jk,ik->i", features, self.weight_covariance, features)

    def observe(
        self, features: np.ndarray, y: float, noise_var: float
    ) -> "SurrogatePosterior":
        """Rank-one conjugate update with one noisy linear observation."""
        m = self.weight_mean
        s = self.weight_covariance
        phi = np.asarray(features, dtype=float)
        s_phi = s @ phi
        denom = float(phi @ s_phi) + noise_var
        new_mean = m + s_phi * (y - float(phi @ m)) / denom
        new_cov = s - np.outer(s_phi, s_phi) / denom
        return SurrogatePosterior(_read_only(new_mean), _read_only(new_cov))


@dataclass(frozen=True, eq=False)
class CrnNormals:
    """Read-only standard normals behind the n_mc posterior draws of
    (beta, d, mu_m), drawn in that order from ``default_rng(seed)``."""

    beta: np.ndarray  # (n_mc, input_dim)
    defect: np.ndarray  # (n_mc,)
    discrepancy: np.ndarray  # (n_mc,)

    @staticmethod
    def draw(seed: int, config: ReliabilityConfig) -> "CrnNormals":
        rng = np.random.default_rng(seed)
        n = config.n_mc
        beta = _read_only(rng.standard_normal((n, config.input_dim)))
        defect = _read_only(rng.standard_normal(n))
        return CrnNormals(beta, defect, _read_only(rng.standard_normal(n)))


@dataclass(frozen=True, eq=False)
class ReliabilityState:
    surrogate: SurrogatePosterior
    defect_belief: GaussianBelief
    discrepancy_belief: GaussianBelief
    # read-only (k, input_dim + 1) rows (x, observed y) in canonical order:
    # the set part of the encoding, as ``nets.canonical_set`` builds it
    fe_observations: np.ndarray
    actions_taken: int
    # simulator-only ground truth, never exposed through encode()
    true_beta: np.ndarray  # read-only
    true_defect: float
    true_discrepancy: float
    # (E[p_f], Std(p_f)) under this state's beliefs
    pf_stats: tuple
    # read-only predictive variance of the surrogate at every design candidate
    pool_variance: np.ndarray
    # the episode's common random numbers for (E, Std), drawn once at reset;
    # every state of the episode holds the same object
    crn_normals: CrnNormals
    # read-only per-draw halves of the p_f estimate: margins mu_m + gamma d
    # change on measurement and lab steps, scales sqrt(beta^T beta +
    # sigma_a^2) on FE steps; pf_stats is computed from the two
    pf_margins: np.ndarray
    pf_scales: np.ndarray
    outcome: str | None = None  # CONFIRMED_* or FAILED once the episode ends

    @property
    def done(self) -> bool:
        return self.outcome is not None


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _pf(margins, scales):
    """Phi(-margin / scale) elementwise, for any shape. The division itself
    gives the limit as a scale falls to 0 (no spread in beta and sigma_a 0), and
    a ratio past the float range overflows the same way: -m / s is -inf or +inf,
    so p_f is 0 for a margin above 0 and 1 below. 0 / 0 is NaN and is set to 1/2."""
    from scipy.special import ndtr  # here, not at the top: a component run never needs it

    pf = np.asarray(ndtr(-margins / scales))
    pf[np.isnan(pf)] = 0.5
    return pf


def _pf_scales(
    surrogate: SurrogatePosterior, normals: CrnNormals, config: ReliabilityConfig
) -> np.ndarray:
    """Per-draw sqrt(beta^T beta + sigma_a^2) over the surrogate posterior."""
    eigval, eigvec = np.linalg.eigh(surrogate.weight_covariance)
    root = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    betas = surrogate.weight_mean + normals.beta @ root.T
    return _read_only(np.sqrt(np.einsum("ij,ij->i", betas, betas) + config.sigma_a**2))


def _pf_margins(
    defect: GaussianBelief,
    discrepancy: GaussianBelief,
    normals: CrnNormals,
    config: ReliabilityConfig,
) -> np.ndarray:
    """Per-draw mu_m + gamma d over the defect and discrepancy posteriors."""
    ds = defect.mean + defect.sd * normals.defect
    mus = discrepancy.mean + discrepancy.sd * normals.discrepancy
    return _read_only(mus + config.gamma * ds)


def _pf_stats(margins: np.ndarray, scales: np.ndarray) -> tuple:
    """(E[p_f], Std(p_f)) over the draws of p_f = Phi(-margin / scale)."""
    pf = _pf(margins, scales)
    mean = np.add.reduce(pf) / len(pf)  # pf.mean() and pf.std(ddof=1), op for op
    return float(mean), float(np.sqrt(np.add.reduce((pf - mean) ** 2) / (len(pf) - 1)))


def estimate_pf_stats(
    state: ReliabilityState, config: ReliabilityConfig, normals: CrnNormals
) -> tuple:
    """(E[p_f], Std(p_f)) over n_mc posterior draws of (beta, d, mu_m) made
    from ``normals``; with ``state.crn_normals`` it equals the ``pf_stats``
    that the env stores on the state."""
    scales = _pf_scales(state.surrogate, normals, config)
    margins = _pf_margins(state.defect_belief, state.discrepancy_belief, normals, config)
    return _pf_stats(margins, scales)


def check_objective(mean: float, sd: float, target: float) -> str:
    """Two-standard-deviation confidence rule against the target value."""
    if sd < 0:
        raise ValueError("sd must be >= 0")
    if mean + 2.0 * sd < target:
        return CONFIRMED_BELOW
    if mean - 2.0 * sd > target:
        return CONFIRMED_ABOVE
    return UNDECIDED


def _observed(belief: GaussianBelief, truth: float, noise_var: float, rng):
    """The belief conditioned on one draw of truth plus N(0, noise_var) noise."""
    obs = truth + np.sqrt(noise_var) * rng.standard_normal()
    return gaussian_condition(belief, float(obs), noise_var)


def select_fe_input(pool: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Myopic design choice: the candidate with maximal predictive variance,
    given the surrogate's predictive variance at every candidate."""
    if len(pool) == 0:
        raise ValueError("candidate pool must be non-empty")
    return pool[int(np.argmax(variances))]  # argmax ties break to lowest index


def benchmark_policy_action(actions_taken: int) -> int:
    """Fixed cycle: ten computer experiments, one lab test, one measurement."""
    phase = actions_taken % 12
    if phase < 10:
        return FE
    if phase == 10:
        return LAB
    return MEASUREMENT


class ReliabilityEnv(Environment):
    """Belief-state MDP over the three experiment channels."""

    action_count = 3
    _all_legal = _read_only(np.ones(action_count, dtype=bool))  # the only mask

    def __init__(self, config: ReliabilityConfig = ReliabilityConfig()):
        self.config = config
        self.pool = config.candidate_pool()  # also the surrogate's feature rows
        self.element_dim = config.input_dim + 1
        self.aux_dim = 8
        self._prior_pool_variance = self._pool_variance(SurrogatePosterior.prior(config))
        self._prior_surrogate_sd = float(np.sqrt(self._prior_pool_variance.max()))

    def _pool_variance(self, surrogate: SurrogatePosterior) -> np.ndarray:
        return _read_only(surrogate.predictive_variance(self.pool))

    def reset(self, rng) -> ReliabilityState:
        cfg = self.config
        beta = cfg.prior_beta_mean + np.sqrt(cfg.prior_beta_var) * rng.standard_normal(
            cfg.input_dim
        )
        d = cfg.prior_defect_mean + np.sqrt(cfg.prior_defect_var) * rng.standard_normal()
        mu = cfg.prior_discrepancy_mean + np.sqrt(
            cfg.prior_discrepancy_var
        ) * rng.standard_normal()
        normals = CrnNormals.draw(int(rng.integers(2**63)), cfg)
        surrogate = SurrogatePosterior.prior(cfg)
        defect = GaussianBelief(cfg.prior_defect_mean, cfg.prior_defect_var)
        discrepancy = GaussianBelief(cfg.prior_discrepancy_mean, cfg.prior_discrepancy_var)
        return self._state(
            surrogate=surrogate, defect_belief=defect, discrepancy_belief=discrepancy,
            fe_observations=_read_only(np.empty((0, self.element_dim))), actions_taken=0,
            true_beta=_read_only(beta), true_defect=float(d), true_discrepancy=float(mu),
            pool_variance=self._prior_pool_variance, crn_normals=normals,
            pf_margins=_pf_margins(defect, discrepancy, normals, cfg),
            pf_scales=_pf_scales(surrogate, normals, cfg))

    def _state(self, *, pf_margins, pf_scales, actions_taken, **fields) -> ReliabilityState:
        """The only constructor of a state: every field but (E, Std) and the
        verdict, which are derived here from the p_f halves and the count."""
        stats = _pf_stats(pf_margins, pf_scales)
        return ReliabilityState(
            **fields, actions_taken=actions_taken, pf_margins=pf_margins,
            pf_scales=pf_scales, pf_stats=stats, outcome=self._verdict(stats, actions_taken))

    def action_mask(self, state) -> np.ndarray:
        return self._all_legal

    def step(self, state: ReliabilityState, action: int, rng):
        cfg = self.config
        if state.done:
            raise StepAfterDone(f"episode already ended with {state.outcome!r}")

        # a step changes one half of the p_f estimate; the other is reused
        defect, discrepancy, normals = (state.defect_belief, state.discrepancy_belief,
                                        state.crn_normals)
        surrogate, rows, pool_variance = (state.surrogate, state.fe_observations,
                                          state.pool_variance)
        margins, scales = state.pf_margins, state.pf_scales
        if action == MEASUREMENT:
            defect = _observed(defect, state.true_defect, cfg.measurement_noise_var, rng)
            reward = cfg.cost_measurement
        elif action == LAB:
            discrepancy = _observed(discrepancy, state.true_discrepancy,
                                    cfg.lab_noise_var, rng)
            reward = cfg.cost_lab
        elif action == FE:
            x = select_fe_input(self.pool, pool_variance)
            y = float(state.true_beta @ x + np.sqrt(cfg.fe_noise_var) * rng.standard_normal())
            rows = np.vstack([rows, np.append(x, y)])
            rows = _read_only(canonical_set(rows, self.element_dim))
            surrogate = surrogate.observe(x, y, cfg.fe_noise_var)
            pool_variance = self._pool_variance(surrogate)
            scales = _pf_scales(surrogate, normals, cfg)
            reward = cfg.cost_fe
        else:
            raise ValueError(f"unknown action {action}")
        if action != FE:
            margins = _pf_margins(defect, discrepancy, normals, cfg)

        next_state = self._state(
            surrogate=surrogate, defect_belief=defect, discrepancy_belief=discrepancy,
            fe_observations=rows, actions_taken=state.actions_taken + 1,
            true_beta=state.true_beta, true_defect=state.true_defect,
            true_discrepancy=state.true_discrepancy, pool_variance=pool_variance,
            crn_normals=normals, pf_margins=margins, pf_scales=scales)
        if next_state.outcome == FAILED:
            reward += cfg.failure_penalty
        return next_state, reward

    def _verdict(self, stats: tuple, actions_taken: int) -> str | None:
        """The stopping rule: the confirmed side once (E, Std) clears the
        target, FAILED once the budget is spent, else None."""
        verdict = check_objective(*stats, self.config.target)
        if verdict != UNDECIDED:
            return verdict
        return FAILED if actions_taken >= self.config.max_actions else None

    def surrogate_spread(self, state: ReliabilityState) -> float:
        """Largest remaining predictive sd over the design pool, in [0, 1]
        relative to the prior (the compressed surrogate sufficient statistic)."""
        if self._prior_surrogate_sd == 0.0:  # a known surrogate stays known
            return 0.0
        pv = state.pool_variance
        return float(np.sqrt(max(pv.max(), 0.0)) / self._prior_surrogate_sd)

    def objective_margins(self, state: ReliabilityState) -> tuple:
        """Log-scaled positions of the confidence interval versus the target.

        Returns (upper, lower) with upper = log10((E + 2 Std) / target) and
        lower = log10((E - 2 Std) / target), both clipped to [-3, 3] and
        scaled into [-1, 1]. The episode's stopping rule fires exactly when
        upper < 0 (confirmed below) or lower > 0 (confirmed above), so these
        two numbers summarize how far the remaining uncertainty is from a
        decision on either side.
        """
        mean, sd = state.pf_stats
        target = self.config.target

        def scaled(value):
            ratio = max(value, 1e-12) / target
            return float(min(max(np.log10(ratio), -3.0), 3.0) / 3.0)

        return scaled(mean + 2.0 * sd), scaled(mean - 2.0 * sd)

    def encode(self, state: ReliabilityState) -> StateEncoding:
        upper, lower = self.objective_margins(state)
        aux = np.array(
            [
                state.defect_belief.mean,
                state.defect_belief.sd,
                state.discrepancy_belief.mean,
                state.discrepancy_belief.sd,
                state.actions_taken / self.config.max_actions,
                self.surrogate_spread(state),
                upper,
                lower,
            ]
        )
        return StateEncoding(state.fe_observations, aux)
