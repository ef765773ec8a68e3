"""End-to-end reliability information-gathering experiment.

Trains a DQN agent on the three-channel experiment-selection game,
evaluates it greedily, and compares it against the uniform-random policy
and the fixed benchmark cycle (ten computer experiments, one lab test, one
measurement).
"""

import argparse
import sys
from pathlib import Path

from pdtwin.cli import main as cli


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/reliability")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=None,
                        help="training episodes (default from config)")
    parser.add_argument("--eval-episodes", type=int, default=200)
    args = parser.parse_args()
    out = Path(args.out)

    common = ["--env", "reliability", "--seed", str(args.seed)]
    train_extra = (
        ["--episodes", str(args.episodes)] if args.episodes is not None else []
    )

    run(["train", *common, *train_extra, "--out", str(out / "train")])
    run(["eval", *common, "--episodes", str(args.eval_episodes),
         "--checkpoint", str(out / "train" / "checkpoint.npz"),
         "--out", str(out / "eval")])
    run(["compare", *common, "--episodes", str(args.eval_episodes),
         "--checkpoint", str(out / "train" / "checkpoint.npz"),
         "--out", str(out / "compare")])
    print(f"all artifacts under {out}")


if __name__ == "__main__":
    main()
