"""Check that two source trees write byte-identical outputs.

Makes every run in ``RUNS``, once with ``--parent``'s pdtwin and once with this
checkout's, and compares the two output trees file by file. Every output is
byte-reproducible from its command line, so any difference is a change in
behaviour. Prints the files that differ and exits 1 if any do. Without
``--out`` both trees go to a new temporary directory, which is removed when
they are identical and kept, and named, when they differ.

    python3 scripts/check_outputs_identical.py --parent ../parent/src

``--episodes N`` runs every training and evaluation at N episodes instead of
``SIZES``, for a smoke run.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the README recipe's training and evaluation episodes
SIZES = {"component_train": 300, "reliability_train": 120,
         "component_eval": 1000, "reliability_eval": 200}
# Every run the check makes, in order: (output directory, config written beside
# it as <directory>.json or None, argv after python3), under a comment naming
# the path that only this run reaches. A run is given --out and its --config;
# in argv, {tree} is the side's output tree and the other names are SIZES'.
# A row added here is written and compared, and the self-test requires it.
RUNS = (
    # every component command at its defaults: both encodings, constrained, oracle
    ("component", None,
     "scripts/run_component_experiment.py --episodes {component_train} "
     "--eval-episodes {component_eval}"),
    # every reliability command at its defaults, through double DQN's joint pass
    ("reliability", None,
     "scripts/run_reliability_experiment.py --episodes {reliability_train} "
     "--eval-episodes {reliability_eval}"),
    # horizon 0, and eval's --seed reaching the resolved config's train.seed
    ("horizon0_eval", {"env": {"component": {"horizon": 0}}},
     "-m pdtwin.cli eval --env component --seed 7 --episodes {component_eval} "
     "--checkpoint {tree}/component/train_compressed/checkpoint.npz"),
    # compare's --seed, which does not reach train.seed
    ("horizon0_compare", {"env": {"component": {"horizon": 0}}},
     "-m pdtwin.cli compare --env component --seed 7 --episodes {component_eval} "
     "--checkpoint {tree}/component/train_compressed/checkpoint.npz"),
    # an oracle table whose start state has no action
    ("horizon0_oracle", {"env": {"component": {"horizon": 0}}},
     "-m pdtwin.cli oracle"),
    # the same under the constraint
    ("horizon0_oracle_constrained", {"env": {"component": {"horizon": 0}}},
     "-m pdtwin.cli oracle --constrained"),
    # a best snapshot that is not the last (-135.47, -50.02, -70.08 at 40, 80, 120)
    ("reliability_snapshots", {"train": {"snapshot_every": 40}},
     "-m pdtwin.cli train --env reliability --seed 1 --episodes {reliability_train}"),
    # a replay ring that wraps (2362 pushes into 600 slots at 300 episodes)
    ("component_small_ring", {"train": {"replay_capacity": 600}},
     "-m pdtwin.cli train --env component --encoding set --seed 2 "
     "--episodes {component_train}"),
    # cached target rows: a wrapping ring (3154 pushes into 1000 slots at 120
    # episodes) and target syncs at odd steps, between updates
    ("reliability_small_ring", {"train": {"replay_capacity": 1000, "target_sync": 75}},
     "-m pdtwin.cli train --env reliability --seed 3 --episodes {reliability_train}"),
    # double DQN's joint pass pooling one listed set at latent 1, a lone column
    ("reliability_lone_set", {"train": {"batch_size": 1, "latent_dim": 1}},
     "-m pdtwin.cli train --env reliability --seed 0 --episodes {reliability_train}"),
    # double DQN's bootstrap choice under a mask that binds (86,968 sampled rows)
    ("component_constrained_double", {"train": {"double_dqn": True}},
     "-m pdtwin.cli train --env component --constrained --seed 1 "
     "--episodes {component_train}"),
    # p_f scales of 0 in every draw, so _pf takes its zero-scale limit throughout
    ("reliability_zero_scale",
     {"env": {"reliability": {"prior_beta_mean": 0.0, "prior_beta_var": 0.0,
                              "sigma_a": 0.0, "prior_discrepancy_mean": 0.0}}},
     "-m pdtwin.cli compare --env reliability --episodes {reliability_eval} "
     "--checkpoint {tree}/reliability/train/checkpoint.npz"),
    # every p_f draw at 0 / 0: point-mass priors at 0 and sigma_a 0
    ("reliability_point_mass",
     {"env": {"reliability": {"prior_beta_mean": 0.0, "prior_beta_var": 0.0,
                              "sigma_a": 0.0, "prior_defect_mean": 0.0,
                              "prior_defect_var": 0.0, "prior_discrepancy_mean": 0.0,
                              "prior_discrepancy_var": 0.0}}},
     "-m pdtwin.cli compare --env reliability --episodes {reliability_eval} "
     "--checkpoint {tree}/reliability/train/checkpoint.npz"),
    # a verdict at reset: every episode ends confirmed before its first action
    ("reliability_decided_at_reset",
     {"env": {"reliability": {"prior_discrepancy_mean": 40.0}}},
     "-m pdtwin.cli compare --env reliability --episodes {reliability_eval} "
     "--checkpoint {tree}/reliability/train/checkpoint.npz"),
)


def run(src: Path, argv: list) -> None:
    """Run ``python3 argv`` with pdtwin imported from ``src``; exit on failure."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} with {src} exited {proc.returncode}")


def imported_from(src: Path) -> Path | None:
    """Where pdtwin imports from with only ``src`` on the path; None if it does not."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import pdtwin.cli; print(pdtwin.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        return None
    return Path(out.stdout.strip()).resolve().parent.parent


def write_outputs(src: Path, out: Path, sizes: dict) -> None:
    """Every output of ``RUNS``, written under ``out`` with ``src``'s pdtwin."""
    out.mkdir(parents=True, exist_ok=True)
    for name, config, argv in RUNS:
        flags = ["--out", str(out / name)]
        if config is not None:
            path = out / f"{name}.json"
            path.write_text(json.dumps(config) + "\n")
            flags += ["--config", str(path)]
        run(src, [word.format(tree=out, **sizes) for word in argv.split()] + flags)


def differences(a: Path, b: Path, where: Path = Path()) -> list:
    """Relative paths of files that differ or exist on one side only."""
    cmp = filecmp.dircmp(a, b)
    found = [where / name for name in cmp.left_only + cmp.right_only + cmp.funny_files]
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    found += [where / name for name in mismatch + errors]
    for sub in cmp.common_dirs:
        found += differences(a / sub, b / sub, where / sub)
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="the src/ directory of the tree to compare against")
    parser.add_argument("--out", type=Path, default=None,
                        help="where both output trees go (default: a new temporary "
                             "directory)")
    parser.add_argument("--episodes", type=int, default=None,
                        help="run every training and evaluation at this many "
                             "episodes (default: the script's SIZES)")
    args = parser.parse_args(argv)
    if args.episodes is not None and args.episodes < 1:
        parser.error("--episodes must be at least 1")

    sides = {"parent": args.parent.resolve(), "this": (ROOT / "src").resolve()}
    for src in sides.values():
        if imported_from(src) != src:
            sys.exit(f"pdtwin does not import from {src}")
    out = args.out or Path(tempfile.mkdtemp(prefix="pdtwin-outputs-"))
    sizes = SIZES if args.episodes is None else dict.fromkeys(SIZES, args.episodes)
    for name, src in sides.items():
        write_outputs(src, out / name, sizes)
    found = differences(out / "parent", out / "this")
    for path in found:
        print(f"differs: {path}")
    if found:
        print(f"{len(found)} files differ; both trees are under {out}")
        return 1
    print(f"identical: every output under {out / 'parent'} and {out / 'this'}")
    if args.out is None:
        shutil.rmtree(out)
        print(f"removed {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
