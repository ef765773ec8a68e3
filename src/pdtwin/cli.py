"""Batch front door: train, evaluate, run the exact oracle, compare policies.

Every command writes CSV/JSON artifacts into the output directory and echoes
the fully resolved configuration next to them. Outputs are byte-reproducible
from (command line, config file, seed). Exit codes: 0 success, 1 usage
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .dqn import QPolicy, TrainConfig, train
from .envs.component import ComponentEnv
from .envs.reliability import (
    FAILED, ReliabilityEnv, benchmark_policy_action,
)
from .mdp import (
    FunctionPolicy, RandomPolicy, episodes_to_csv, evaluate_policy, run_episode,
    write_json,
)
from .nets import load_checkpoint, save_checkpoint
from .oracle import OraclePolicy, TabularState, backward_induction, table_to_csv

OUT_DIR_ENV_VAR = "PDTWIN_OUT"


class MissingCheckpoint(FileNotFoundError):
    """A policy checkpoint required by the command does not exist."""


class CheckpointMismatch(ValueError):
    """A checkpoint was trained for another environment or encoding."""


def _out_dir(args) -> Path:
    out = os.environ.get(OUT_DIR_ENV_VAR) or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _make_env(args, run_config):
    if args.env == "component":
        return ComponentEnv(run_config.component, encoding=args.encoding)
    return ReliabilityEnv(run_config.reliability)


def _component_hist_range(config) -> tuple:
    """Bounds on any component-game return: each day moves it by at most the
    largest of the stake and the two costs."""
    bound = config.horizon * max(
        abs(config.use_stake), abs(config.replace_cost), abs(config.test_cost)
    )
    return -bound, bound


def _load_policy(path, env, args) -> QPolicy:
    if not Path(path).exists():
        raise MissingCheckpoint(path)
    net, meta = load_checkpoint(path)
    expected = {"env": args.env}
    if args.env == "component":  # the reliability env has one encoding
        expected["encoding"] = args.encoding
    for key, value in expected.items():
        if meta.get(key) != value:
            raise CheckpointMismatch(
                f"checkpoint {path} was trained with {key} {meta.get(key)!r}, "
                f"not {value!r}"
            )
    return QPolicy(net, env)


def cmd_train(args) -> int:
    run_config = config_mod.load_run_config(
        args.config, args.env, seed=args.seed, episodes=args.episodes,
        constrained=args.constrained,
    )
    out = _out_dir(args)
    env = _make_env(args, run_config)
    result = train(env, run_config.train)

    save_checkpoint(
        out / "checkpoint.npz", result.policy.net,
        meta={"env": args.env, "encoding": args.encoding,
              "constrained": args.constrained, "seed": run_config.train.seed},
    )
    with open(out / "curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "return", "epsilon", "loss_moving_average"])
        for i, (ret, eps, lma) in enumerate(
            zip(result.episode_returns, result.episode_epsilons,
                result.loss_moving_average)
        ):
            writer.writerow([i, repr(ret), repr(eps), repr(lma)])
    config_mod.write_resolved(
        out / "resolved_config.json", run_config,
        extra={"command": "train", "env": args.env, "encoding": args.encoding,
               "constrained": args.constrained},
    )
    print(f"wrote {out / 'checkpoint.npz'} and {out / 'curve.csv'}")
    return 0


def _reliability_rows(env, policy, n_episodes, base_seed):
    """Per-episode rows: seed, success, total cost, action counts per type."""
    rows = []
    for i in range(n_episodes):
        rec = run_episode(env, policy, base_seed + i)
        final = rec.transitions[-1].next_state
        counts = [0, 0, 0]
        for t in rec.transitions:
            counts[t.action] += 1
        rows.append(
            {
                "seed": base_seed + i,
                "success": final.outcome != FAILED,
                "outcome": final.outcome,
                "total_cost": rec.total_return,
                "n_measurement": counts[0],
                "n_fe": counts[1],
                "n_lab": counts[2],
            }
        )
    return rows


def _reliability_summary(rows) -> tuple:
    """Success rate, and mean total cost of the successful episodes (None if none)."""
    costs = [r["total_cost"] for r in rows if r["success"]]
    return len(costs) / len(rows), (float(np.mean(costs)) if costs else None)


def cmd_eval(args) -> int:
    run_config = config_mod.load_run_config(
        args.config, args.env, seed=args.seed, constrained=args.constrained,
    )
    out = _out_dir(args)
    env = _make_env(args, run_config)
    policy = _load_policy(args.checkpoint, env, args)
    n = args.episodes or 1000

    if args.env == "reliability":
        rows = _reliability_rows(env, policy, n, args.seed)
        _write_reliability_csv(out / "episodes.csv", rows)
        rate, mean_cost = _reliability_summary(rows)
        write_json(out / "summary.json", {
            "success_rate": rate, "mean_cost_successful": mean_cost, "n_episodes": n,
        })
    else:
        summary = evaluate_policy(
            env, policy, n, args.seed,
            bin_range=_component_hist_range(run_config.component),
        )
        episodes_to_csv(out / "episodes.csv", args.seed, summary)
        write_json(out / "summary.json", summary.to_json_dict())
    config_mod.write_resolved(
        out / "resolved_config.json", run_config,
        extra={"command": "eval", "env": args.env, "episodes": n,
               "seed": args.seed},
    )
    print(f"wrote {out / 'episodes.csv'} and {out / 'summary.json'}")
    return 0


def cmd_oracle(args) -> int:
    run_config = config_mod.load_run_config(
        args.config, "component", constrained=args.constrained,
    )
    out = _out_dir(args)
    table = backward_induction(run_config.component)
    table_to_csv(out / "oracle_table.csv", table)
    start = TabularState(0, 0, run_config.component.horizon)
    write_json(out / "oracle_summary.json", {
        "optimal_value": table.values[start],
        "optimal_first_action": table.actions.get(start),  # None at horizon 0
        "constrained": run_config.component.constrained,
        "n_states": len(table.values),
    })
    config_mod.write_resolved(
        out / "resolved_config.json", run_config,
        extra={"command": "oracle", "constrained": args.constrained},
    )
    print(f"V* = {table.values[start]!r}; wrote {out / 'oracle_table.csv'}")
    return 0


def _write_reliability_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["seed", "success", "outcome", "total_cost",
             "n_measurement", "n_fe", "n_lab"]
        )
        for r in rows:
            writer.writerow(
                [r["seed"], int(r["success"]), r["outcome"], repr(r["total_cost"]),
                 r["n_measurement"], r["n_fe"], r["n_lab"]]
            )


def _compare_component(args, run_config, out) -> None:
    env = ComponentEnv(run_config.component, encoding=args.encoding)
    constrained_config = dataclasses.replace(run_config.component, constrained=True)
    constrained_env = ComponentEnv(constrained_config, encoding=args.encoding)

    policies = [
        ("random", RandomPolicy(), env),
        ("oracle", OraclePolicy(backward_induction(run_config.component)), env),
    ]
    checkpoints = args.checkpoint or []
    labels = ["dqn_unconstrained", "dqn_constrained"]
    for label, path in zip(labels, checkpoints):
        use_env = constrained_env if label == "dqn_constrained" else env
        policies.append((label, _load_policy(path, use_env, args), use_env))

    n = args.episodes or 1000
    bin_range = _component_hist_range(run_config.component)
    table_rows = []
    hist_columns = {}
    for name, policy, use_env in policies:
        summary = evaluate_policy(use_env, policy, n, args.seed, bin_range=bin_range)
        table_rows.append(
            [name, repr(summary.mean), repr(summary.sd),
             repr(summary.min), repr(summary.max)]
        )
        hist_columns[name] = summary
    with open(out / "compare_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "mean", "sd", "min", "max"])
        writer.writerows(table_rows)
    with open(out / "compare_histogram.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        first = next(iter(hist_columns.values()))
        writer.writerow(
            ["bin_left", "bin_right"] + [name for name in hist_columns]
        )
        for i in range(len(first.bin_counts)):
            row = [repr(first.bin_edges[i]), repr(first.bin_edges[i + 1])]
            row += [hist_columns[name].bin_counts[i] for name in hist_columns]
            writer.writerow(row)


def _compare_reliability(args, run_config, out) -> None:
    env = ReliabilityEnv(run_config.reliability)
    policies = [
        ("random", RandomPolicy()),
        ("benchmark", FunctionPolicy(lambda s: benchmark_policy_action(s.actions_taken))),
    ]
    if args.checkpoint:
        policies.append(("dqn", _load_policy(args.checkpoint[0], env, args)))

    n = args.episodes or 200
    with open(out / "compare_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["policy", "success_rate", "mean_cost_successful",
             "mean_measurements", "mean_fe", "mean_lab"]
        )
        for name, policy in policies:
            rows = _reliability_rows(env, policy, n, args.seed)
            _write_reliability_csv(out / f"episodes_{name}.csv", rows)
            rate, mean_cost = _reliability_summary(rows)
            writer.writerow(
                [name, repr(rate), "" if mean_cost is None else repr(mean_cost),
                 repr(float(np.mean([r["n_measurement"] for r in rows]))),
                 repr(float(np.mean([r["n_fe"] for r in rows]))),
                 repr(float(np.mean([r["n_lab"] for r in rows])))]
            )


def cmd_compare(args) -> int:
    run_config = config_mod.load_run_config(args.config, args.env, constrained=False)
    out = _out_dir(args)
    if args.env == "component":
        _compare_component(args, run_config, out)
    else:
        _compare_reliability(args, run_config, out)
    config_mod.write_resolved(
        out / "resolved_config.json", run_config,
        extra={"command": "compare", "env": args.env,
               "episodes": args.episodes, "seed": args.seed},
    )
    print(f"wrote {out / 'compare_table.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdtwin",
        description="Train, evaluate and compare information-gathering policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_env=True):
        if needs_env:
            p.add_argument("--env", choices=("component", "reliability"),
                           required=True)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--out", default="out",
                       help=f"output directory (or ${OUT_DIR_ENV_VAR})")
        p.add_argument("--constrained", action="store_true")
        p.add_argument("--encoding", choices=("compressed", "set"),
                       default="compressed")

    p_train = sub.add_parser("train", help="train a DQN policy")
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint greedily")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_oracle = sub.add_parser("oracle", help="exact backward induction table")
    common(p_oracle, needs_env=False)
    p_oracle.set_defaults(fn=cmd_oracle)

    p_compare = sub.add_parser("compare", help="compare policies side by side")
    common(p_compare)
    p_compare.add_argument("--checkpoint", action="append", default=None,
                           help="may be given twice for component "
                                "(unconstrained then constrained)")
    p_compare.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (config_mod.ConfigError, MissingCheckpoint, CheckpointMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
