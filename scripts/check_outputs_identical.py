"""Check that two source trees write byte-identical outputs.

Runs both experiment scripts of this checkout, then a horizon-0 ``eval`` and
``compare`` at ``--seed 7`` (``eval``'s seed reaches the resolved config's
``train.seed``, ``compare``'s does not), ``oracle`` and ``oracle
--constrained`` on the component game (the only oracle table whose start
state has no action), a reliability ``train`` at ``--seed 1`` that scores
a validation snapshot every 40 episodes, a set-encoded component ``train``
at ``--seed 2`` with a 600-slot replay ring and a constrained component
``train`` at ``--seed 1`` with double DQN, once with ``--parent``'s pdtwin
and once with this checkout's, and compares the two output trees file by
file.
Every output is byte-reproducible from its command line, so any difference
is a change in behaviour. Prints the files that differ and exits 1 if any do.
Without ``--out`` both trees go to a new temporary directory, which is
removed when they are identical and kept, and named, when they differ.

    python3 scripts/check_outputs_identical.py --parent ../parent/src

The sizes are those of the README recipe: 300 component and 120 reliability
training episodes, 1000 component and 200 reliability evaluation episodes.
The experiment script's reliability run scores one validation snapshot, at
its last episode. The extra run scores three and keeps the best, which at
seed 1 is the second (-135.47, -50.02 and -70.08 after episodes 40, 80 and
120), so a change that returned the final network would alter its
checkpoint. The ring run trains for the component training size; at 300
episodes it pushes 2362 transitions, so its ring wraps about four times,
where the default 50,000-slot ring of every other run never fills. The
constrained double-DQN run is the one where the online network chooses the
bootstrap action under a mask that binds (the reliability game masks no
action, and every other component run is plain DQN). At the component
training size learning starts at episode 111, and in the 1632 updates after
that the mask changes the online network's choice in 86,968 of the sampled
rows; at seed 0 it changes none, since that policy never wants a barred Use.
``--episodes N`` sets all four sizes to N for a smoke run.
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
SCRIPTS = ROOT / "scripts"
HORIZON_ZERO = {"env": {"component": {"horizon": 0}}}
SNAPSHOTS = {"train": {"snapshot_every": 40}}
SMALL_RING = {"train": {"replay_capacity": 600}}
DOUBLE_DQN = {"train": {"double_dqn": True}}
SIZES = {"component_train": 300, "reliability_train": 120,
         "component_eval": 1000, "reliability_eval": 200}


def run(src: Path, argv: list) -> None:
    """Run ``python3 argv`` with pdtwin imported from ``src``; exit on failure."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} with {src} exited {proc.returncode}")


def imported_from(src: Path) -> Path:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import pdtwin.cli; print(pdtwin.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return Path(out.stdout.strip()).resolve().parent.parent


def write_outputs(src: Path, out: Path, sizes: dict) -> None:
    """Every output this check compares, written with ``src``'s pdtwin."""
    component, reliability = out / "component", out / "reliability"
    run(src, [str(SCRIPTS / "run_component_experiment.py"),
              "--episodes", str(sizes["component_train"]),
              "--eval-episodes", str(sizes["component_eval"]), "--out", str(component)])
    run(src, [str(SCRIPTS / "run_reliability_experiment.py"),
              "--episodes", str(sizes["reliability_train"]),
              "--eval-episodes", str(sizes["reliability_eval"]),
              "--out", str(reliability)])
    config = out / "horizon0.json"
    config.write_text(json.dumps(HORIZON_ZERO) + "\n")
    checkpoint = str(component / "train_compressed" / "checkpoint.npz")
    common = ["--env", "component", "--config", str(config), "--seed", "7",
              "--episodes", str(sizes["component_eval"]), "--checkpoint", checkpoint]
    for command in ("eval", "compare"):
        run(src, ["-m", "pdtwin.cli", command, *common,
                  "--out", str(out / f"horizon0_{command}")])
    for name, extra in (("oracle", []), ("oracle_constrained", ["--constrained"])):
        run(src, ["-m", "pdtwin.cli", "oracle", *extra, "--config", str(config),
                  "--out", str(out / f"horizon0_{name}")])
    for name, settings, argv in (
            ("reliability_snapshots", SNAPSHOTS,
             ["--env", "reliability", "--seed", "1",
              "--episodes", str(sizes["reliability_train"])]),
            ("component_small_ring", SMALL_RING,
             ["--env", "component", "--encoding", "set", "--seed", "2",
              "--episodes", str(sizes["component_train"])]),
            ("component_constrained_double", DOUBLE_DQN,
             ["--env", "component", "--constrained", "--seed", "1",
              "--episodes", str(sizes["component_train"])])):
        config = out / f"{name}.json"
        config.write_text(json.dumps(settings) + "\n")
        run(src, ["-m", "pdtwin.cli", "train", *argv, "--config", str(config),
                  "--out", str(out / name)])


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
                             "episodes (default: 300, 120, 1000 and 200)")
    args = parser.parse_args(argv)

    out = args.out or Path(tempfile.mkdtemp(prefix="pdtwin-outputs-"))
    sizes = SIZES if args.episodes is None else dict.fromkeys(SIZES, args.episodes)
    sides = {"parent": args.parent.resolve(), "this": (ROOT / "src").resolve()}
    for name, src in sides.items():
        if imported_from(src) != src:
            sys.exit(f"pdtwin does not import from {src}")
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
