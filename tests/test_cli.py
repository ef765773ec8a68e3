import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pdtwin.cli import build_parser, main
from pdtwin.config import load_run_config
from pdtwin.nets import DeepSetsNet, load_checkpoint, save_checkpoint


def run(argv):
    return main(argv)


def train_tiny(tmp_path, name="train", env="component", episodes=30, extra=()):
    out = tmp_path / name
    code = run([
        "train", "--env", env, "--episodes", str(episodes),
        "--out", str(out), *extra,
    ])
    assert code == 0
    return out


class TestTrain:
    def test_writes_artifacts(self, tmp_path):
        out = train_tiny(tmp_path)
        assert (out / "checkpoint.npz").exists()
        assert (out / "curve.csv").exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["train"]["episodes"] == 30
        assert resolved["run"]["command"] == "train"

    def test_curve_has_one_row_per_episode(self, tmp_path):
        out = train_tiny(tmp_path, episodes=12)
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "episode,return,epsilon,loss_moving_average"
        assert len(lines) == 13
        # the epsilon column is the schedule training explored with
        train = load_run_config(str(out / "resolved_config.json"), "component").train
        with open(out / "curve.csv", newline="") as fh:
            epsilons = [float(row["epsilon"]) for row in csv.DictReader(fh)]
        assert epsilons == [train.epsilon_at(i) for i in range(12)]

    def test_no_gradient_step_warns(self, tmp_path, capsys):
        # 20 episodes of at most 10 steps never fill the replay to 500
        out = train_tiny(tmp_path, episodes=20)
        err = capsys.readouterr().err
        assert err.startswith("warning: no gradient step taken")
        assert "max(warmup, batch_size) = 500 transitions" in err
        assert all(r["loss_moving_average"] == "nan" for r in read_csv(out / "curve.csv"))
        # a run that takes a step does not warn
        config = tmp_path / "learns.json"
        config.write_text(json.dumps({"train": {"warmup": 1, "batch_size": 1}}))
        train_tiny(tmp_path, name="learns", episodes=20, extra=("--config", str(config)))
        assert capsys.readouterr().err == ""

    def test_no_gradient_step_warning_names_train_every(self, tmp_path, capsys):
        # 200 episodes fill the replay past 500, but no step is a multiple of 100000
        config = tmp_path / "sparse.json"
        config.write_text(json.dumps({"train": {"train_every": 100_000}}))
        train_tiny(tmp_path, episodes=200, extra=("--config", str(config)))
        assert capsys.readouterr().err == (
            "warning: no gradient step taken; learning starts once the replay holds "
            "max(warmup, batch_size) = 500 transitions, and then steps at each "
            "multiple of train_every = 100000 environment steps\n")

    def test_reliability_round_trip(self, tmp_path):
        out = train_tiny(tmp_path, env="reliability", episodes=3)
        eval_out = tmp_path / "eval"
        code = run([
            "eval", "--env", "reliability", "--episodes", "3",
            "--checkpoint", str(out / "checkpoint.npz"),
            "--out", str(eval_out),
        ])
        assert code == 0
        summary = json.loads((eval_out / "summary.json").read_text())
        assert summary["n_episodes"] == 3


class TestEval:
    def test_component_eval(self, tmp_path):
        out = train_tiny(tmp_path)
        eval_out = tmp_path / "eval"
        code = run([
            "eval", "--env", "component", "--episodes", "20",
            "--checkpoint", str(out / "checkpoint.npz"),
            "--out", str(eval_out), "--seed", "5",
        ])
        assert code == 0
        lines = (eval_out / "episodes.csv").read_text().splitlines()
        assert len(lines) == 21
        summary = json.loads((eval_out / "summary.json").read_text())
        assert sorted(summary) == [
            "bin_counts", "bin_edges", "max", "mean", "min", "n_episodes", "sd"]
        assert summary["n_episodes"] == 20
        assert len(summary["bin_edges"]) == 51 and len(summary["bin_counts"]) == 50
        assert sum(summary["bin_counts"]) == 20

    def test_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        # the output directories the run made go again, parents too; a
        # parent that was there before stays
        checkpoint = tmp_path / "nope.npz"
        (tmp_path / "existing").mkdir()
        for out, made in ((tmp_path / "o", "o"), (tmp_path / "x" / "y" / "z", "x"),
                          (tmp_path / "existing" / "y" / "z", "existing/y")):
            code = run([
                "eval", "--env", "component", "--checkpoint", str(checkpoint),
                "--out", str(out),
            ])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: no checkpoint file at {checkpoint}\n")
            assert not (tmp_path / made).exists()
        assert (tmp_path / "existing").is_dir()

    @pytest.mark.parametrize("files", [[], ["keep.txt"]])
    def test_exit_1_leaves_an_existing_out_dir_as_it_was(self, tmp_path, files):
        out = tmp_path / "o"
        out.mkdir()
        for name in files:
            (out / name).write_text("kept\n")
        assert run(["eval", "--env", "component", "--checkpoint",
                    str(tmp_path / "nope.npz"), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == files
        assert all((out / name).read_text() == "kept\n" for name in files)

    def test_checkpoint_directory_is_usage_error(self, tmp_path, capsys):
        directory = tmp_path / "checkpoint.npz"
        directory.mkdir()
        for command in ("eval", "compare"):
            code = run([
                command, "--env", "component", "--episodes", "2",
                "--checkpoint", str(directory), "--out", str(tmp_path / "o"),
            ])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: no checkpoint file at")

    def test_wrong_env_checkpoint_is_usage_error(self, tmp_path, capsys):
        out = train_tiny(tmp_path)  # component, compressed encoding
        for command in ("eval", "compare"):
            for flags, key in ((["--env", "reliability"], "env"),
                               (["--env", "component", "--encoding", "set"],
                                "encoding")):
                capsys.readouterr()
                code = run([
                    command, *flags, "--episodes", "2",
                    "--checkpoint", str(out / "checkpoint.npz"),
                    "--out", str(tmp_path / "o"),
                ])
                assert code == 1
                assert f"trained with {key}" in capsys.readouterr().err

    def test_unconstrained_checkpoint_on_the_constrained_game(self, tmp_path, capsys):
        path = train_tiny(tmp_path) / "checkpoint.npz"
        capsys.readouterr()
        out = tmp_path / "o"
        code = run(["eval", "--env", "component", "--constrained", "--episodes", "2",
                    "--checkpoint", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {path} was trained with constrained False, not True\n")
        assert not out.exists()

    def test_set_encoded_reliability_checkpoint_is_usage_error(self, tmp_path, capsys):
        # the network fits the reliability game; only the recorded encoding is wrong
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(path, DeepSetsNet(6, 8, 3, seed=0),
                        meta={"env": "reliability", "encoding": "set"})
        out = tmp_path / "o"
        code = run(["eval", "--env", "reliability", "--episodes", "2",
                    "--checkpoint", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {path} was trained with encoding 'set', "
            "not 'compressed'\n")
        assert not out.exists()


def truncated_checkpoint(path):
    save_checkpoint(path, DeepSetsNet(1, 2, 4, seed=0),
                    meta={"env": "component", "encoding": "compressed"})
    path.write_bytes(path.read_bytes()[:200])


class TestBadCheckpoint:
    """A checkpoint that cannot be read, or whose network does not fit the
    environment, is a usage error."""

    def test_network_shape_must_fit_the_env(self, tmp_path, capsys):
        out = train_tiny(tmp_path, env="reliability", episodes=1)  # input_dim 5
        config = tmp_path / "input_dim_3.json"
        config.write_text(json.dumps({"env": {"reliability": {"input_dim": 3}}}))
        capsys.readouterr()
        code = run([
            "eval", "--env", "reliability", "--config", str(config),
            "--episodes", "2", "--checkpoint", str(out / "checkpoint.npz"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "trained with element_dim 6, not 4" in capsys.readouterr().err

    @pytest.mark.parametrize("write", [
        lambda path: path.write_text("not a checkpoint\n"),
        lambda path: path.write_bytes(b""),
        lambda path: np.savez(path, flat=np.zeros(3)),  # no header
        truncated_checkpoint,
    ], ids=["text", "empty", "no-header", "truncated"])
    def test_unreadable_checkpoint(self, tmp_path, capsys, write):
        path = tmp_path / "checkpoint.npz"
        write(path)
        code = run([
            "eval", "--env", "component", "--episodes", "2",
            "--checkpoint", str(path), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read checkpoint {path}: ")

    @pytest.mark.parametrize("change", [
        lambda header: [header],
        lambda header: dict(header, latent_dim="16"),
        lambda header: dict(header, latent_dim=16.0),
        lambda header: dict(header, phi_hidden=None),
        lambda header: dict(header, phi_hidden=[0, 32]),
        lambda header: dict(header, meta=[1]),
    ], ids=["list", "str-dim", "float-dim", "null-hidden", "zero-hidden", "list-meta"])
    def test_malformed_header(self, tmp_path, capsys, change):
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(path, DeepSetsNet(6, 8, 3, seed=0),
                        meta={"env": "reliability", "encoding": "set"})
        with np.load(path) as data:
            header = json.loads(str(data["header"]))
            arrays = {k: data[k] for k in data.files if k != "header"}
        np.savez(path, header=json.dumps(change(header)), **arrays)
        out = tmp_path / "o"
        code = run([
            "eval", "--env", "reliability", "--episodes", "2",
            "--checkpoint", str(path), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read checkpoint {path}: ")
        assert not out.exists()


class TestOracle:
    def test_writes_table_and_summary(self, tmp_path):
        out = tmp_path / "oracle"
        assert run(["oracle", "--out", str(out)]) == 0
        summary = json.loads((out / "oracle_summary.json").read_text())
        assert summary["optimal_value"] == pytest.approx(7_012_695.373, abs=1e-3)
        assert summary["n_states"] == 286

    def test_constrained_flag(self, tmp_path):
        out = tmp_path / "oracle_c"
        assert run(["oracle", "--constrained", "--out", str(out)]) == 0
        summary = json.loads((out / "oracle_summary.json").read_text())
        assert summary["constrained"] is True
        assert summary["optimal_value"] == pytest.approx(3_472_260.273, abs=1e-3)

    @pytest.mark.parametrize("component, optimal_value", [
        ({"prior_bad": 0.0}, 9_800_000.0),  # ten uses of a 0.99 component
        ({"prior_bad": 1.0}, 0.0),  # a fair bet is worth nothing
        ({"theta_bad": 0.0, "theta_good": 1.0, "prior_bad": 1.0}, 0.0),
        ({"horizon": 0}, 0.0),
    ])
    def test_degenerate_configs(self, tmp_path, component, optimal_value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"env": {"component": component}}))
        for flags in ([], ["--constrained"]):
            out = tmp_path / f"oracle{len(flags)}"
            assert run(["oracle", *flags, "--config", str(cfg), "--out", str(out)]) == 0
            summary = json.loads((out / "oracle_summary.json").read_text())
            assert summary["optimal_value"] == pytest.approx(optimal_value, abs=1e-6)
            # at horizon 0 the start state is terminal and has no action
            terminal = component.get("horizon") == 0
            assert (summary["optimal_first_action"] is None) == terminal


class TestCompare:
    def test_component_compare(self, tmp_path):
        out = train_tiny(tmp_path)
        cmp_out = tmp_path / "cmp"
        code = run([
            "compare", "--env", "component", "--episodes", "20",
            "--checkpoint", str(out / "checkpoint.npz"),
            "--out", str(cmp_out),
        ])
        assert code == 0
        lines = (cmp_out / "compare_table.csv").read_text().splitlines()
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["random", "oracle", "dqn_unconstrained"]
        assert (cmp_out / "compare_histogram.csv").exists()

    def test_checkpoints_in_the_wrong_order(self, tmp_path, capsys):
        # the first --checkpoint is the unconstrained net, the second the constrained one
        free = train_tiny(tmp_path, "free") / "checkpoint.npz"
        bound = train_tiny(tmp_path, "bound", extra=["--constrained"]) / "checkpoint.npz"
        capsys.readouterr()
        out = tmp_path / "cmp"
        code = run(["compare", "--env", "component", "--episodes", "2",
                    "--checkpoint", str(bound), "--checkpoint", str(free),
                    "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {bound} was trained with constrained True, not False\n")
        assert not out.exists()

    @pytest.mark.parametrize("checkpoints", [0, 1])
    def test_constrained_config_is_usage_error(self, tmp_path, capsys, checkpoints):
        # compare plays the unconstrained game and, for a second checkpoint,
        # the constrained one; a config that constrains the first would
        # label a constrained net and oracle unconstrained
        bound = train_tiny(tmp_path, "bound", extra=["--constrained"]) / "checkpoint.npz"
        capsys.readouterr()
        out = tmp_path / "cmp"
        code = run(["compare", "--env", "component", "--episodes", "2",
                    "--config", component_config(tmp_path, constrained=True),
                    *["--checkpoint", str(bound)] * checkpoints, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: compare needs env.component.constrained false: it plays the "
            "constrained game for its second --checkpoint\n")
        assert not out.exists()

    def test_reliability_compare_without_checkpoint(self, tmp_path):
        cmp_out = tmp_path / "cmp"
        code = run([
            "compare", "--env", "reliability", "--episodes", "5",
            "--out", str(cmp_out),
        ])
        assert code == 0
        lines = (cmp_out / "compare_table.csv").read_text().splitlines()
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["random", "benchmark"]
        assert (cmp_out / "episodes_random.csv").exists()
        assert (cmp_out / "episodes_benchmark.csv").exists()

    def test_default_episode_count_is_recorded(self, tmp_path):
        cmp_out = tmp_path / "cmp"
        assert run(["compare", "--env", "component", "--out", str(cmp_out)]) == 0
        resolved = json.loads((cmp_out / "resolved_config.json").read_text())
        assert resolved["run"]["episodes"] == 1000

    @pytest.mark.parametrize("env, allowed", [("component", 2), ("reliability", 1)])
    def test_too_many_checkpoints_is_usage_error(self, tmp_path, capsys, env, allowed):
        # the paths do not exist: the count is checked before any is opened
        checkpoints = [flag for i in range(allowed + 1)
                       for flag in ("--checkpoint", str(tmp_path / f"c{i}.npz"))]
        out = tmp_path / "o"
        assert run(["compare", "--env", env, *checkpoints, "--out", str(out)]) == 1
        assert (f"compare --env {env} takes at most {allowed} --checkpoint"
                in capsys.readouterr().err)
        assert not out.exists()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def component_config(tmp_path, **values):
    path = tmp_path / "component.json"
    path.write_text(json.dumps({"env": {"component": values}}))
    return str(path)


class TestHorizonZero:
    """At horizon 0 the start state is already done: every episode is empty."""

    @pytest.mark.parametrize("encoding", ["compressed", "set"])
    def test_train_eval_compare(self, tmp_path, encoding):
        config = component_config(tmp_path, horizon=0)
        flags = ["--env", "component", "--encoding", encoding, "--config", config]
        out = train_tiny(tmp_path, episodes=5, extra=flags[2:])
        assert [r["return"] for r in read_csv(out / "curve.csv")] == ["0.0"] * 5
        checkpoint = str(out / "checkpoint.npz")

        eval_out = tmp_path / "eval"
        assert run(["eval", *flags, "--episodes", "4", "--checkpoint", checkpoint,
                    "--out", str(eval_out)]) == 0
        rows = read_csv(eval_out / "episodes.csv")
        assert [(r["return"], r["length"]) for r in rows] == [("0.0", "0")] * 4
        summary = json.loads((eval_out / "summary.json").read_text())
        assert summary["mean"] == 0.0 and sum(summary["bin_counts"]) == 4

        cmp_out = tmp_path / "cmp"
        assert run(["compare", *flags, "--episodes", "4", "--checkpoint", checkpoint,
                    "--out", str(cmp_out)]) == 0
        table = read_csv(cmp_out / "compare_table.csv")
        assert [r["policy"] for r in table] == ["random", "oracle", "dqn_unconstrained"]
        assert all(r[k] == "0.0" for r in table for k in ("mean", "sd", "min", "max"))


class TestPointMassReliability:
    """beta known to be 0 and sigma_a 0: every scale of the p_f estimate is 0,
    so each draw's p_f is the zero-scale limit of its margin."""

    ZERO_SCALES = {"sigma_a": 0.0, "prior_beta_mean": 0.0, "prior_beta_var": 0.0,
                   "prior_defect_mean": 0.0, "prior_defect_var": 0.0,
                   "prior_discrepancy_mean": 0.0}

    def train_and_compare(self, tmp_path, settings) -> dict:
        """Train on and compare 5 episodes of the given reliability settings;
        returns each policy's episode rows."""
        config = tmp_path / "point.json"
        config.write_text(json.dumps({"env": {"reliability": settings}}))
        out = train_tiny(tmp_path, env="reliability",
                         extra=("--config", str(config)))
        cmp_out = tmp_path / "cmp"
        assert run(["compare", "--env", "reliability", "--episodes", "5",
                    "--config", str(config), "--checkpoint",
                    str(out / "checkpoint.npz"), "--out", str(cmp_out)]) == 0
        return {name: read_csv(cmp_out / f"episodes_{name}.csv")
                for name in ("random", "benchmark", "dqn")}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_and_compare(self, tmp_path, capsys):
        # every prior a point mass: every margin is 0 and each draw's p_f is
        # 1/2, so the reset state already confirms p_f above the target
        settings = dict(self.ZERO_SCALES, prior_discrepancy_var=0.0)
        for rows in self.train_and_compare(tmp_path, settings).values():
            assert [r["outcome"] for r in rows] == ["confirmed_above"] * 5
            assert all(int(r["n_measurement"]) + int(r["n_fe"]) + int(r["n_lab"]) == 0
                       for r in rows)
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_scales_through_step(self, tmp_path, capsys):
        # a discrepancy of N(0, 1) leaves the prior undecided at (0.506,
        # 0.500), so every episode steps through the zero-scale branch
        settings = dict(self.ZERO_SCALES, prior_discrepancy_var=1.0)
        for rows in self.train_and_compare(tmp_path, settings).values():
            assert len(rows) == 5
            assert all(int(r["n_measurement"]) + int(r["n_fe"]) + int(r["n_lab"]) >= 1
                       for r in rows)
        assert "RuntimeWarning" not in capsys.readouterr().err


class TestHistogramRange:
    def test_every_return_is_counted_at_horizon_20(self, tmp_path):
        cmp_out = tmp_path / "cmp"
        assert run(["compare", "--env", "component", "--episodes", "400",
                    "--config", component_config(tmp_path, horizon=20),
                    "--out", str(cmp_out)]) == 0
        rows = read_csv(cmp_out / "compare_histogram.csv")
        assert float(rows[0]["bin_left"]) == -2e7 and float(rows[-1]["bin_right"]) == 2e7
        for name in ("random", "oracle"):
            assert sum(int(r[name]) for r in rows) == 400


class TestHugeReturns:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("stake", [8e307, 1e160])
    def test_statistics_stay_finite(self, tmp_path, stake):
        # the returns are finite, but at 8e307 their sum is not, and at 1e160
        # neither is the sum of their squared deviations
        cmp_out = tmp_path / "cmp"
        assert run(["compare", "--env", "component", "--episodes", "50",
                    "--config", str(component_config(tmp_path, use_stake=stake, horizon=1)),
                    "--out", str(cmp_out)]) == 0
        for row in read_csv(cmp_out / "compare_table.csv"):
            mean, sd = float(row["mean"]), float(row["sd"])
            assert abs(mean) <= stake and 0.0 < sd <= 2.0 * stake


class TestCommandFrame:
    """main loads the run config, makes the output directory and writes
    resolved_config.json for every command. Only train's --seed and
    --episodes, when given, and eval's --seed reach the run config."""

    def test_flags_reach_the_config_and_run_block(self, tmp_path):
        out = train_tiny(tmp_path, episodes=3, extra=("--seed", "7"))
        flags = ["--env", "component", "--episodes", "3", "--seed", "7"]
        assert run(["eval", *flags, "--checkpoint", str(out / "checkpoint.npz"),
                    "--out", str(tmp_path / "eval")]) == 0
        assert run(["compare", *flags, "--out", str(tmp_path / "compare")]) == 0
        assert run(["oracle", "--out", str(tmp_path / "oracle")]) == 0
        expected = {  # command -> train.seed, train.episodes, run block
            "train": (7, 3, {"command": "train", "env": "component",
                             "encoding": "compressed", "constrained": False}),
            "eval": (7, 3000, {"command": "eval", "env": "component",
                               "episodes": 3, "seed": 7}),
            "compare": (0, 3000, {"command": "compare", "env": "component",
                                  "episodes": 3, "seed": 7}),
            "oracle": (0, 3000, {"command": "oracle", "constrained": False}),
        }
        for command, (seed, episodes, run_block) in expected.items():
            resolved = json.loads((tmp_path / command / "resolved_config.json").read_text())
            assert resolved["train"]["seed"] == seed, command
            assert resolved["train"]["episodes"] == episodes, command
            assert resolved["run"] == run_block

    def test_config_file_seed_and_constrained_reach_the_outputs(self, tmp_path):
        # with no --seed or --constrained, the file's values are the ones
        # the checkpoint meta and the run block record
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"seed": 5},
                                   "env": {"component": {"constrained": True}}}))
        for name, seed_flag, seed in (("file", (), 5), ("flag", ("--seed", "3"), 3)):
            out = train_tiny(tmp_path, name, episodes=3,
                             extra=("--config", str(cfg), *seed_flag))
            resolved = json.loads((out / "resolved_config.json").read_text())
            _, meta = load_checkpoint(out / "checkpoint.npz")
            assert resolved["train"]["seed"] == meta["seed"] == seed
            assert resolved["run"]["constrained"] is meta["constrained"] is True
        out = tmp_path / "oracle"
        assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["run"] == {"command": "oracle", "constrained": True}


class TestDeepHorizon:
    """Past about 490 days the exact oracle's recursion runs out of Python
    stack. The commands that build the oracle table say so; training does
    not build it."""

    @pytest.mark.parametrize("argv", [
        ["oracle"], ["compare", "--env", "component", "--episodes", "1"],
    ])
    def test_oracle_commands_are_usage_errors(self, tmp_path, capsys, argv):
        config = component_config(tmp_path, horizon=600)
        out = tmp_path / "o"
        assert run([*argv, "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: horizon 600 is too deep for the exact oracle")
        assert not out.exists()

    def test_train_runs(self, tmp_path):
        out = train_tiny(tmp_path, episodes=1,
                         extra=("--config", component_config(tmp_path, horizon=600)))
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["env"]["component"]["horizon"] == 600


def test_component_commands_start_without_scipy(tmp_path):
    # scipy.special is loaded by the reliability p_f kernel on first use; the
    # test modules import it into this process, so a fresh interpreter checks
    child = textwrap.dedent("""
        import sys
        import numpy as np
        from pdtwin.cli import main
        out = sys.argv[1]
        for argv in (["oracle"], ["train", "--env", "component", "--episodes", "2"],
                     ["eval", "--env", "component", "--episodes", "2",
                      "--checkpoint", out + "/train/checkpoint.npz"],
                     ["compare", "--env", "component", "--episodes", "2"]):
            assert main([*argv, "--out", f"{out}/{argv[0]}"]) == 0, argv
        print("scipy.special" in sys.modules)
        from pdtwin.envs.reliability import ReliabilityEnv
        ReliabilityEnv().reset(np.random.default_rng(0))
        print("scipy.special" in sys.modules)
    """)
    result = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["False", "True"]


class TestReproducibility:
    def test_train_rerun_byte_identical_csv(self, tmp_path):
        a = train_tiny(tmp_path, name="a", episodes=25)
        b = train_tiny(tmp_path, name="b", episodes=25)
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    def test_rerun_from_resolved_config_byte_identical(self, tmp_path):
        a = train_tiny(tmp_path, name="a", episodes=12)
        b = train_tiny(tmp_path, name="b", episodes=12,
                       extra=("--config", str(a / "resolved_config.json")))
        for name in ("curve.csv", "checkpoint.npz"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_eval_rerun_byte_identical_csv(self, tmp_path):
        out = train_tiny(tmp_path)
        results = []
        for name in ("e1", "e2"):
            eval_out = tmp_path / name
            assert run([
                "eval", "--env", "component", "--episodes", "15",
                "--checkpoint", str(out / "checkpoint.npz"),
                "--out", str(eval_out), "--seed", "3",
            ]) == 0
            results.append((eval_out / "episodes.csv").read_bytes())
        assert results[0] == results[1]

    def test_oracle_rerun_byte_identical_csv(self, tmp_path):
        blobs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run(["oracle", "--out", str(out)]) == 0
            blobs.append((out / "oracle_table.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestParsing:
    def test_bad_config_file_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{broken")
        code = run([
            "train", "--env", "component", "--episodes", "2",
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("config", [
        {"train": {"episodes": "abc"}},
        {"env": {"component": {"theta_bad": 1.5}}},
        {"train": {"seed": "x"}},
        {"env": {"component": {"use_stake": float("nan")}}},
        {"train": {"episodes": -1}},  # the type is right, the bound is not
        {"train": {"seed": -5}},
    ])
    def test_invalid_config_value_is_usage_error(self, tmp_path, capsys, config):
        # --episodes and --seed replace the file's values but must not hide them
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code = run([
            "train", "--env", "reliability", "--episodes", "2", "--seed", "3",
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("config, section", [
        ({"env": []}, "env"),
        ({"env": {"component": 5}}, "env.component"),
        ({"env": {"reliability": None}}, "env.reliability"),
        ({"train": [1]}, "train"),
        ({"train": None}, "train"),
    ])
    def test_section_that_is_not_an_object_is_usage_error(
            self, tmp_path, capsys, config, section):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: config section {section} must be a JSON object, got ")
        assert not out.exists()

    def test_replay_smaller_than_warmup_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"train": {"replay_capacity": 10}}))
        out = tmp_path / "o"
        code = run(["train", "--env", "component", "--episodes", "50",
                    "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "replay_capacity" in capsys.readouterr().err
        assert not out.exists()

    def test_component_stake_too_large_to_bin_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"env": {"component": {"use_stake": 1e308}}}))
        out = tmp_path / "o"
        code = run(["compare", "--env", "component", "--episodes", "3",
                    "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("settings, product", [
        ({"sigma_a": 1e155}, "sigma_a * sigma_a"),
        ({"prior_beta_var": 1e308}, "input_dim * prior_beta_var"),
        # a return reaches max_actions costs and the failure penalty
        ({"cost_lab": -1e308}, "2 * (max_actions * max(|cost_measurement|, "
                               "|cost_lab|, |cost_fe|) + |failure_penalty|)"),
    ], ids=["sigma_a", "prior_beta_var", "cost_lab"])
    @pytest.mark.parametrize("argv", [
        ["train", "--episodes", "1"], ["compare", "--episodes", "1"],
    ], ids=["train", "compare"])
    def test_reliability_product_past_the_float_range_is_usage_error(
            self, tmp_path, capsys, settings, product, argv):
        # each value is finite, but the product the game forms overflows
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"env": {"reliability": settings}}))
        out = tmp_path / "o"
        code = run([*argv, "--env", "reliability", "--config", str(cfg),
                    "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: invalid ReliabilityConfig: {product} must be finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("settings, argv", [
        ({"env": {"reliability": {"prior_defect_var": 10**400}}},
         ["train", "--env", "reliability", "--episodes", "3"]),
        ({"env": {"reliability": {"cost_lab": -10**400}}},
         ["train", "--env", "reliability", "--episodes", "3"]),
        ({"train": {"learning_rate": 10**400}},
         ["train", "--env", "component", "--episodes", "200"]),
    ], ids=["prior_defect_var", "cost_lab", "learning_rate"])
    def test_int_past_the_float_range_is_usage_error(self, tmp_path, capsys, settings, argv):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "o"
        assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith(
            "must be finite, got an integer past the float range\n")
        assert not out.exists()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["eval", "--env", "component", "--checkpoint", "c.npz"],
        ["compare", "--env", "component"],
        ["compare", "--env", "reliability"],
    ])
    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episodes_below_one_is_usage_error(self, tmp_path, capsys, argv, episodes):
        out = tmp_path / "o"
        assert run([*argv, "--episodes", episodes, "--out", str(out)]) == 1
        assert "--episodes: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--env", "component", "--episodes", "1"],
        ["eval", "--env", "component", "--checkpoint", "c.npz"],
        ["compare", "--env", "component", "--episodes", "3"],
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run([*argv, "--seed", "-1", "--out", str(out)]) == 1
        assert "--seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_help_states_episode_defaults(self, capsys):
        for command, default in (("eval", "(default: 1000)"),
                                 ("compare", "(default: 1000 component, 200 reliability)")):
            assert run([command, "--help"]) == 0
            assert default in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("argv", [
        ["train", "--episodes", "1", "--encoding", "set"],
        ["eval", "--checkpoint", "c.npz", "--encoding", "set"],
        ["compare", "--encoding", "set"],
        ["train", "--episodes", "1", "--constrained"],
        ["eval", "--checkpoint", "c.npz", "--constrained"],
    ])
    def test_set_encoding_on_reliability_is_usage_error(self, tmp_path, capsys, argv):
        flag = "--constrained" if "--constrained" in argv else "--encoding set"
        out = tmp_path / "o"
        code = run([*argv, "--env", "reliability", "--out", str(out)])
        assert code == 1
        assert f"{flag} needs --env component" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["oracle", "--seed", "9"],
        ["oracle", "--episodes", "3"],
        ["oracle", "--encoding", "set"],
        ["oracle", "--env", "component"],
        ["compare", "--env", "component", "--constrained"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run([*argv, "--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make", [
        lambda path: None, lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe{}"),  # a UTF-16 byte order mark
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, make):
        cfg = tmp_path / "cfg.json"
        make(cfg)
        code = run([
            "train", "--env", "component", "--episodes", "2",
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "through-file"])
    def test_out_that_is_or_passes_a_file_is_usage_error(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert run(["oracle", "--out", str(afile.joinpath(*below))]) == 1
        assert capsys.readouterr().err.startswith("error: cannot make output directory")
        assert afile.read_text() == "kept\n"
        assert [path.name for path in tmp_path.iterdir()] == ["afile"]

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["train", "--env", "component", "--seed", "4"]
        )
        assert args.command == "train" and args.seed == 4
