"""End-to-end acceptance gate.

One test per release criterion, in order, each printing a single
``[criterion N] PASS|FAIL — description`` line (run with ``-s`` to see them).
The suite trains DQN agents from scratch, so it takes minutes.
"""

import time

import numpy as np
import pytest
from scipy.special import ndtr

from pdtwin.cli import main as cli_main
from pdtwin.config import load_run_config
from pdtwin.dqn import train
from pdtwin.envs.component import (
    USE, CoinConfig, ComponentEnv, belief_psi, expected_use_reward,
)
from pdtwin.envs.reliability import (
    FAILED, FE, CrnNormals, ReliabilityConfig, ReliabilityEnv, UNDECIDED,
    benchmark_policy_action, check_objective, estimate_pf_stats, select_fe_input,
)
from pdtwin.mdp import FunctionPolicy, RandomPolicy, evaluate_policy, run_episode
from pdtwin.nets import DeepSetsNet, SetBatch, canonical_set
from pdtwin.oracle import (
    OraclePolicy, TabularState, backward_induction, policy_value,
)

from bayes_reference import belief_from_observations

pytestmark = pytest.mark.acceptance

FAILURE_SEED_BASE = 31337  # frozen evaluation seed block for criterion 4


def report(number: int, passed: bool, description: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status} — {description}")
    assert passed, f"criterion {number}: {description}"


# shared slow artifacts -----------------------------------------------------

@pytest.fixture(scope="module")
def oracle_table():
    return backward_induction()


@pytest.fixture(scope="module")
def constrained_table():
    return backward_induction(CoinConfig(constrained=True))


@pytest.fixture(scope="module")
def trained_coin():
    """Default-config DQN training for both state encodings."""
    policies = {}
    for encoding in ("compressed", "set"):
        cfg = load_run_config(None, "component")
        env = ComponentEnv(cfg.component, encoding=encoding)
        policies[encoding] = train(env, cfg.train).policy
    return policies


@pytest.fixture(scope="module")
def trained_reliability():
    cfg = load_run_config(None, "reliability")
    env = ReliabilityEnv(cfg.reliability)
    return env, train(env, cfg.train).policy


def use_failures(record) -> int:
    return sum(
        1 for action, reward in zip(record.actions, record.rewards)
        if action == USE and reward < 0.0
    )


def reliability_rows(env, policy, n, base_seed):
    rows = []
    for i in range(n):
        rec = run_episode(env, policy, base_seed + i)
        final = rec.states[-1]
        rows.append((final.outcome != FAILED, rec.total_return))
    return rows


# criteria ------------------------------------------------------------------

def test_criterion_1_epistemic_conditioning():
    start = time.time()
    worst = 0.0
    for n_success in range(11):
        for n_fail in range(11 - n_success):
            batch = belief_psi(TabularState(n_success, n_fail, 0))
            obs = (0,) * n_success + (1,) * n_fail
            sequential = belief_from_observations(obs).weights[0]
            permuted = belief_from_observations(obs[::-1]).weights[0]
            worst = max(
                worst, abs(batch - sequential), abs(batch - permuted)
            )
    elapsed = time.time() - start
    report(
        1, worst <= 1e-12 and elapsed < 1.0,
        f"batch vs sequential vs permuted conditioning agree "
        f"(max diff {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_marginalized_bet_value():
    value = expected_use_reward(0.5)
    report(2, value == 490_000.0, f"expected_use_reward(0.5) = {value!r}")


def test_criterion_3_oracle_dominance(oracle_table):
    vstar = oracle_table.values[TabularState(0, 0, 10)]
    exact = policy_value(oracle_table.actions)
    env = ComponentEnv()
    summary = evaluate_policy(env, OraclePolicy(oracle_table), 100_000, 0)
    se = summary.sd / np.sqrt(len(summary.returns))
    mc_ok = abs(summary.mean - exact) <= 3.0 * se

    rng = np.random.default_rng(0)
    states = [s for s in oracle_table.values if s.days_left > 0]
    dominance_ok = all(
        policy_value({s: int(rng.integers(4)) for s in states}) <= vstar + 1e-9
        for _ in range(50)
    )
    report(
        3, mc_ok and dominance_ok,
        f"MC mean {summary.mean:,.0f} vs exact {exact:,.0f} "
        f"(3 SE = {3 * se:,.0f}); 50 sampled policies all <= V*",
    )


def test_criterion_4_unconstrained_failure_frequency(oracle_table):
    env = ComponentEnv()
    policy = OraclePolicy(oracle_table)
    n = 10_000
    hits = sum(
        use_failures(run_episode(env, policy, FAILURE_SEED_BASE + i)) > 0
        for i in range(n)
    )
    frac = hits / n
    report(
        4, 0.45 <= frac <= 0.55,
        f"fraction of episodes with a Use failure = {frac:.4f} in [0.45, 0.55]",
    )


def test_criterion_5_dqn_near_optimality(oracle_table, trained_coin):
    vstar = oracle_table.values[TabularState(0, 0, 10)]
    means = {}
    for encoding, policy in trained_coin.items():
        env = ComponentEnv(encoding=encoding)
        summary = evaluate_policy(env, policy, 10_000, base_seed=1_000_000)
        means[encoding] = summary.mean
    near = all(abs(m - vstar) <= 0.05 * vstar for m in means.values())
    a, b = means["compressed"], means["set"]
    mutual = abs(a - b) <= 0.05 * max(abs(a), abs(b))
    report(
        5, near and mutual,
        f"greedy means compressed={a:,.0f}, set={b:,.0f} vs V*={vstar:,.0f} "
        f"(both within 5%, mutual gap {abs(a - b) / max(abs(a), abs(b)):.3f})",
    )


def test_criterion_6_constraint_enforcement(oracle_table, constrained_table):
    constrained_env = ComponentEnv(CoinConfig(constrained=True))
    env = ComponentEnv()
    policy = OraclePolicy(constrained_table)
    n = 10_000
    violations = 0
    constrained_failures = 0
    for i in range(n):
        rec = run_episode(constrained_env, policy, FAILURE_SEED_BASE + i)
        for state, action in zip(rec.states, rec.actions):
            if action == USE and 1.0 - belief_psi(state.info) <= 0.9:
                violations += 1
        constrained_failures += use_failures(rec) > 0
    unconstrained_failures = sum(
        use_failures(
            run_episode(env, OraclePolicy(oracle_table), FAILURE_SEED_BASE + i)
        ) > 0
        for i in range(n)
    )
    rate_c = constrained_failures / n
    rate_u = unconstrained_failures / n
    report(
        6, violations == 0 and rate_c < rate_u,
        f"0 constraint violations (saw {violations}); failure rate "
        f"constrained {rate_c:.4f} < unconstrained {rate_u:.4f}",
    )


def test_criterion_7_deep_sets_invariance_and_gradients():
    net = DeepSetsNet(3, 2, 4, seed=0)
    rng = np.random.default_rng(123)
    invariant = True
    for _ in range(1000):
        n = int(rng.integers(0, 12))
        elements = [rng.standard_normal(3) for _ in range(n)]
        aux = rng.standard_normal(2)
        perm = [elements[i] for i in rng.permutation(n)]
        if not np.array_equal(net.forward(elements, aux),
                              net.forward(perm, aux)):
            invariant = False
            break

    small = DeepSetsNet(2, 1, 2, seed=3, phi_hidden=(4,), latent_dim=3,
                        rho_hidden=(5,))
    n_params = sum(p.size for p in small.parameters().values())
    assert n_params <= 200
    elements = [rng.standard_normal(2) for _ in range(4)]
    aux = rng.standard_normal(1)
    upstream = rng.standard_normal(2)
    batch = SetBatch([canonical_set(elements, small.element_dim)], aux[None])
    _, cache = small.forward_batch(batch)
    grads = small.named(small.backward_batch(cache, upstream[None]))
    eps = 1e-6
    worst = 0.0
    for name, arr in small.parameters().items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = float(small.forward(elements, aux) @ upstream)
            flat[k] = orig - eps
            down = float(small.forward(elements, aux) @ upstream)
            flat[k] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(gflat[k]), 1e-8)
            worst = max(worst, abs(fd - gflat[k]) / denom)
    report(
        7, invariant and worst < 1e-4,
        f"bit-exact invariance over 1000 sets; gradient check "
        f"max rel err {worst:.2e} on {n_params} params",
    )


def test_criterion_8_reliability_environment():
    cfg = ReliabilityConfig()
    env = ReliabilityEnv(cfg)
    state = env.reset(np.random.default_rng(2))

    # brute-force oracle: one million independent posterior draws through the
    # closed-form failure probability, sharing no sampling code with the env
    n = 1_000_000
    rng = np.random.default_rng([7, 99])
    mean_w = np.asarray(state.surrogate.weight_mean)
    cov_w = np.asarray(state.surrogate.weight_covariance)
    betas = rng.multivariate_normal(mean_w, cov_w, size=n, method="svd")
    ds = rng.normal(state.defect_belief.mean, state.defect_belief.sd, n)
    mus = rng.normal(
        state.discrepancy_belief.mean, state.discrepancy_belief.sd, n
    )
    pf = ndtr(
        -(mus + cfg.gamma * ds)
        / np.sqrt((betas * betas).sum(axis=1) + cfg.sigma_a**2)
    )
    ref_mean, ref_sd = float(pf.mean()), float(pf.std(ddof=1))
    est_mean, est_sd = estimate_pf_stats(state, cfg, CrnNormals.draw(7, cfg))
    se = ref_sd / np.sqrt(cfg.n_mc)
    stats_ok = abs(est_mean - ref_mean) <= 3.0 * se

    boundary_ok = (
        check_objective(5e-4, 2.5e-4, 1e-3) == UNDECIDED
        and check_objective(2e-3, 5e-4, 1e-3) == UNDECIDED
        and check_objective(5e-4, 2.5e-4 - 1e-12, 1e-3) == "confirmed_below"
        and check_objective(2e-3, 5e-4 - 1e-12, 1e-3) == "confirmed_above"
    )

    post = state.surrogate
    pool = cfg.candidate_pool()
    monotone_ok = True
    step_rng = np.random.default_rng(11)
    for _ in range(15):
        before = post.predictive_variance(pool)
        x = select_fe_input(pool, before)
        post = post.observe(x, float(step_rng.normal()), cfg.fe_noise_var)
        after = post.predictive_variance(pool)
        if not (after <= before + 1e-10).all():
            monotone_ok = False
            break

    report(
        8, stats_ok and boundary_ok and monotone_ok,
        f"pf stats {est_mean:.2e} vs brute force {ref_mean:.2e} "
        f"(3 SE = {3 * se:.2e}); boundaries exact; variances non-increasing",
    )


def test_criterion_9_reliability_policy_ordering(trained_reliability):
    env, dqn_policy = trained_reliability
    n, base = 200, 10_000
    results = {}
    for name, policy in (
        ("dqn", dqn_policy),
        ("random", RandomPolicy()),
        ("benchmark",
         FunctionPolicy(lambda s: benchmark_policy_action(s.actions_taken))),
    ):
        rows = reliability_rows(env, policy, n, base)
        succ = [cost for ok, cost in rows if ok]
        results[name] = (len(succ) / n,
                         float(np.mean(succ)) if succ else float("nan"))
    (dqn_rate, dqn_cost) = results["dqn"]
    (rnd_rate, rnd_cost) = results["random"]
    # returns are negative costs: "lower total cost" means a greater return
    ok = dqn_rate >= rnd_rate + 0.10 and dqn_cost > rnd_cost
    report(
        9, ok,
        f"success dqn {dqn_rate:.2f} vs random {rnd_rate:.2f} "
        f"(benchmark {results['benchmark'][0]:.2f}); mean successful cost "
        f"dqn {-dqn_cost:.1f} vs random {-rnd_cost:.1f} "
        f"(benchmark {-results['benchmark'][1]:.1f})",
    )


def test_criterion_10_reproducibility(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main([
            "train", "--env", "component", "--episodes", "40",
            "--seed", "11", "--out", str(out),
        ]) == 0
        assert cli_main([
            "eval", "--env", "component", "--episodes", "50", "--seed", "11",
            "--checkpoint", str(out / "checkpoint.npz"),
            "--out", str(out / "eval"),
        ]) == 0
        assert cli_main(["oracle", "--out", str(out / "oracle")]) == 0
        blobs.append(tuple(
            (out / rel).read_bytes()
            for rel in ("curve.csv", "eval/episodes.csv",
                        "oracle/oracle_table.csv")
        ))
    report(
        10, blobs[0] == blobs[1],
        "train/eval/oracle reruns produced byte-identical CSV outputs",
    )
