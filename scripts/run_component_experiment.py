"""End-to-end component-replacement experiment.

Trains DQN agents with both state encodings plus a constrained variant,
evaluates each greedily, computes the exact oracle table, and writes a
side-by-side comparison of random / oracle / DQN policies. Everything goes
through the CLI, so the runs are reproducible from the resolved-config files
alone, and one run of this script exercises every command.
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
    parser.add_argument("--out", default="results/component")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=None,
                        help="training episodes (default from config)")
    parser.add_argument("--eval-episodes", type=int, default=1000)
    args = parser.parse_args()
    out = Path(args.out)

    common = ["--env", "component", "--seed", str(args.seed)]
    train_extra = (
        ["--episodes", str(args.episodes)] if args.episodes is not None else []
    )

    run(["oracle", "--out", str(out / "oracle")])
    run(["oracle", "--constrained", "--out", str(out / "oracle_constrained")])

    variants = {  # output name -> the encoding flags of its train and eval
        "compressed": ["--encoding", "compressed"],
        "set": ["--encoding", "set"],
        "constrained": ["--encoding", "compressed", "--constrained"],
    }
    for name, flags in variants.items():
        run(["train", *common, *flags, *train_extra,
             "--out", str(out / f"train_{name}")])
        run(["eval", *common, *flags, "--episodes", str(args.eval_episodes),
             "--checkpoint", str(out / f"train_{name}" / "checkpoint.npz"),
             "--out", str(out / f"eval_{name}")])

    run(["compare", *common, "--episodes", str(args.eval_episodes),
         "--checkpoint", str(out / "train_compressed" / "checkpoint.npz"),
         "--checkpoint", str(out / "train_constrained" / "checkpoint.npz"),
         "--out", str(out / "compare")])
    print(f"all artifacts under {out}")


if __name__ == "__main__":
    main()
