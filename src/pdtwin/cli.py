"""Batch front door: train, evaluate, run the exact oracle, compare policies.

Every command writes CSV/JSON artifacts into the output directory and echoes
the fully resolved configuration next to them. Outputs are byte-reproducible
from (command line, config file, seed). Exit codes: 0 success, 1 usage
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import config as config_mod
from .dqn import QPolicy, train
from .envs.component import ComponentEnv
from .envs.reliability import FAILED, ReliabilityEnv, benchmark_policy_action
from .mdp import (
    FunctionPolicy, RandomPolicy, evaluate_policy, mean_sd, write_csv, write_json,
)
from .nets import load_checkpoint, save_checkpoint
from .oracle import (
    HorizonTooDeep, OraclePolicy, TabularState, backward_induction, table_to_csv,
)


class CheckpointMismatch(ValueError):
    """A missing or unreadable checkpoint, or one trained for another game or shape."""


def _make_env(args, run_config):
    if args.env == "component":
        return ComponentEnv(run_config.component, encoding=args.encoding)
    return ReliabilityEnv(run_config.reliability)


def _load_policy(path, env, args) -> QPolicy:
    if not Path(path).is_file():
        raise CheckpointMismatch(f"no checkpoint file at {path}")
    try:
        net, meta = load_checkpoint(path)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointMismatch(f"cannot read checkpoint {path}: {exc}") from exc
    found = dict(meta, element_dim=net.element_dim, aux_dim=net.aux_dim,
                 action_count=net.output_dim)
    expected = {"env": args.env, "encoding": args.encoding, "element_dim": env.element_dim,
                "aux_dim": env.aux_dim, "action_count": env.action_count}
    if args.env == "component":
        expected["constrained"] = env.config.constrained
    for key, value in expected.items():
        if found.get(key) != value:
            raise CheckpointMismatch(
                f"checkpoint {path} was trained with {key} {found.get(key)!r}, "
                f"not {value!r}"
            )
    return QPolicy(net, env)


def cmd_train(args, run_config, out) -> dict:
    env = _make_env(args, run_config)
    result = train(env, run_config.train)
    if all(np.isnan(result.loss_moving_average)):  # no gradient step ran
        starts, every = run_config.train.learning_starts, run_config.train.train_every
        print(f"warning: no gradient step taken; learning starts once the replay holds "
              f"max(warmup, batch_size) = {starts} transitions, and then steps at each "
              f"multiple of train_every = {every} environment steps", file=sys.stderr)

    save_checkpoint(
        out / "checkpoint.npz", result.policy.net,
        meta={"env": args.env, "encoding": args.encoding,
              "constrained": run_config.component.constrained,
              "seed": run_config.train.seed},
    )
    write_csv(
        out / "curve.csv", ["episode", "return", "epsilon", "loss_moving_average"],
        ([i, repr(ret), repr(run_config.train.epsilon_at(i)), repr(lma)]
         for i, (ret, lma) in enumerate(
             zip(result.episode_returns, result.loss_moving_average))),
    )
    print(f"wrote {out / 'checkpoint.npz'} and {out / 'curve.csv'}")
    return {"env": args.env, "encoding": args.encoding,
            "constrained": run_config.component.constrained}


def _reliability_episodes(path, summary, base_seed) -> tuple:
    """Write one row per reliability episode: seed, success, outcome, total
    cost and the count of each action type. Returns the success rate and the
    mean total cost of the successful episodes (None if none)."""
    success = [outcome != FAILED for outcome in summary.outcomes]
    write_csv(
        path, ["seed", "success", "outcome", "total_cost",
               "n_measurement", "n_fe", "n_lab"],
        ([base_seed + i, int(ok), outcome, repr(ret), *counts]
         for i, (ok, outcome, ret, counts) in enumerate(zip(
             success, summary.outcomes, summary.returns,
             summary.action_counts.tolist()))),
    )
    costs = [ret for ok, ret in zip(success, summary.returns) if ok]
    return len(costs) / len(success), (mean_sd(costs)[0] if costs else None)


def _return_histogram(summary, component_config) -> tuple:
    """Counts of the block's returns in 50 equal bins over [-return_bound,
    return_bound], a range no return leaves, and the 51 bin edges. A bound of
    0 (horizon 0) bins [-0.0, 1.0]."""
    bound = component_config.return_bound
    counts, edges = np.histogram(summary.returns, bins=50, range=(-bound, bound or 1.0))
    return [int(c) for c in counts], [float(e) for e in edges]


def cmd_eval(args, run_config, out) -> dict:
    env = _make_env(args, run_config)
    policy = _load_policy(args.checkpoint, env, args)
    n = args.episodes
    summary = evaluate_policy(env, policy, n, args.seed)

    if args.env == "reliability":
        rate, mean_cost = _reliability_episodes(out / "episodes.csv", summary, args.seed)
        write_json(out / "summary.json", {
            "success_rate": rate, "mean_cost_successful": mean_cost, "n_episodes": n,
        })
    else:
        write_csv(out / "episodes.csv", ["seed", "return", "length"], (
            [args.seed + i, repr(ret), length]
            for i, (ret, length) in enumerate(zip(summary.returns, summary.lengths))
        ))
        counts, edges = _return_histogram(summary, run_config.component)
        write_json(out / "summary.json", {
            "mean": summary.mean, "sd": summary.sd, "min": summary.min,
            "max": summary.max, "n_episodes": n, "bin_edges": edges, "bin_counts": counts,
        })
    print(f"wrote {out / 'episodes.csv'} and {out / 'summary.json'}")
    return {"env": args.env, "episodes": n, "seed": args.seed}


def cmd_oracle(args, run_config, out) -> dict:
    table = backward_induction(run_config.component)
    table_to_csv(out / "oracle_table.csv", table)
    start = TabularState(0, 0, run_config.component.horizon)
    write_json(out / "oracle_summary.json", {
        "optimal_value": table.values[start],
        "optimal_first_action": table.actions.get(start),  # None at horizon 0
        "constrained": run_config.component.constrained,
        "n_states": len(table.values),
    })
    print(f"V* = {table.values[start]!r}; wrote {out / 'oracle_table.csv'}")
    return {"constrained": run_config.component.constrained}


def _compare_component(args, run_config, out, n) -> None:
    if run_config.component.constrained:  # it would play the second game as the first
        raise config_mod.ConfigError("compare needs env.component.constrained false: it "
                                     "plays the constrained game for its second --checkpoint")
    env = _make_env(args, run_config)
    constrained_config = dataclasses.replace(run_config.component, constrained=True)
    constrained_env = ComponentEnv(constrained_config, encoding=args.encoding)

    policies = [
        ("random", RandomPolicy(), env),
        ("oracle", OraclePolicy(backward_induction(run_config.component)), env),
    ]
    labels = ["dqn_unconstrained", "dqn_constrained"]
    for label, path in zip(labels, args.checkpoint or []):
        use_env = constrained_env if label == "dqn_constrained" else env
        policies.append((label, _load_policy(path, use_env, args), use_env))

    table_rows, bin_columns = [], []
    for name, policy, use_env in policies:
        summary = evaluate_policy(use_env, policy, n, args.seed)
        table_rows.append(
            [name, repr(summary.mean), repr(summary.sd),
             repr(summary.min), repr(summary.max)]
        )
        counts, edges = _return_histogram(summary, run_config.component)
        bin_columns.append(counts)  # the edges are the same for every policy
    write_csv(out / "compare_table.csv", ["policy", "mean", "sd", "min", "max"],
              table_rows)
    write_csv(
        out / "compare_histogram.csv",
        ["bin_left", "bin_right"] + [row[0] for row in table_rows],
        ([repr(edges[i]), repr(edges[i + 1]), *counts]
         for i, counts in enumerate(zip(*bin_columns))),
    )


def _compare_reliability(args, run_config, out, n) -> None:
    env = _make_env(args, run_config)
    policies = [
        ("random", RandomPolicy()),
        ("benchmark", FunctionPolicy(lambda s: benchmark_policy_action(s.actions_taken))),
    ]
    if args.checkpoint:
        policies.append(("dqn", _load_policy(args.checkpoint[0], env, args)))

    table_rows = []
    for name, policy in policies:
        summary = evaluate_policy(env, policy, n, args.seed)
        rate, mean_cost = _reliability_episodes(
            out / f"episodes_{name}.csv", summary, args.seed
        )
        table_rows.append(
            [name, repr(rate), "" if mean_cost is None else repr(mean_cost)]
            + [repr(float(column.mean())) for column in summary.action_counts.T]
        )
    write_csv(
        out / "compare_table.csv",
        ["policy", "success_rate", "mean_cost_successful",
         "mean_measurements", "mean_fe", "mean_lab"],
        table_rows,
    )


def cmd_compare(args, run_config, out) -> dict:
    n = args.episodes or (1000 if args.env == "component" else 200)
    if args.env == "component":
        _compare_component(args, run_config, out, n)
    else:
        _compare_reliability(args, run_config, out, n)
    print(f"wrote {out / 'compare_table.csv'}")
    return {"env": args.env, "episodes": n, "seed": args.seed}


def _int_at_least(low: int):
    """Parser type for an integer flag that must be at least ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


# the flags shared between commands; train and eval take all of them
_FLAGS = {
    "--env": dict(choices=("component", "reliability"), required=True),
    "--config": dict(default=None, help="JSON config file"),
    "--seed": dict(type=_int_at_least(0), default=0, help="base seed, >= 0"),
    "--out": dict(default="out", help="output directory"),
    "--constrained": dict(action="store_true"),
    "--encoding": dict(choices=("compressed", "set"), default="compressed",
                       help="component state encoding (reliability has one)"),
}
_MAX_CHECKPOINTS = {"component": 2, "reliability": 1}  # per compare --env


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdtwin",
        description="Train, evaluate and compare information-gathering policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, flags, help, config_flags=(), **defaults):
        """``config_flags`` name the parsed flags that override the run config."""
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn, config_flags=config_flags, **defaults)
        return p

    # seed=None: only a given --seed overrides the config file's train.seed
    p_train = command("train", cmd_train, _FLAGS, "train a DQN policy",
                      ("seed", "episodes"), seed=None)
    p_train.add_argument("--episodes", type=int, default=None,
                         help="training episodes (default: the config's "
                              "train.episodes, 3000 component, 5000 reliability)")

    p_eval = command("eval", cmd_eval, _FLAGS, "evaluate a checkpoint greedily",
                     ("seed",))
    p_eval.add_argument("--episodes", type=_int_at_least(1), default=1000,
                        help="episodes, >= 1 (default: %(default)s)")
    p_eval.add_argument("--checkpoint", required=True)

    command("oracle", cmd_oracle, ("--config", "--out", "--constrained"),
            "exact backward induction table", env="component")

    p_compare = command(
        "compare", cmd_compare,
        ("--env", "--config", "--seed", "--out", "--encoding"),
        "compare policies side by side", constrained=False,
    )
    p_compare.add_argument("--episodes", type=_int_at_least(1), default=None,
                           help="episodes per policy, >= 1 (default: 1000 "
                                "component, 200 reliability)")
    p_compare.add_argument("--checkpoint", action="append", default=None,
                           help="at most twice for component (unconstrained "
                                "then constrained), once for reliability")
    return parser


def main(argv=None) -> int:
    """The frame every command runs in: load the run config, make the output
    directory, run the command and write ``resolved_config.json`` with the
    ``run`` block the command returns."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        env = args.env
        if env == "reliability" and args.encoding == "set":
            parser.error("--encoding set needs --env component")
        if env == "reliability" and args.constrained:
            parser.error("--constrained needs --env component")
        if args.command == "compare" and len(args.checkpoint or []) > _MAX_CHECKPOINTS[env]:
            parser.error(f"compare --env {env} takes at most "
                         f"{_MAX_CHECKPOINTS[env]} --checkpoint")
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    out = Path(args.out)
    # the directories mkdir will make, deepest first; an exit 1 removes the
    # ones that stay empty
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        run_config = config_mod.load_run_config(
            args.config, env, constrained=args.constrained,
            **{flag: getattr(args, flag) for flag in args.config_flags},
        )
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # --out names a file, or a path through one
            raise config_mod.ConfigError(f"cannot make output directory: {exc}") from exc
        run = args.fn(args, run_config, out)
        config_mod.write_resolved(out / "resolved_config.json", run_config,
                                  extra={"command": args.command, **run})
        return 0
    except (config_mod.ConfigError, CheckpointMismatch, HorizonTooDeep) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for directory in made:
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
