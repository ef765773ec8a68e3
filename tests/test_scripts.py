"""The experiment scripts drive the CLI end to end; a parser change that
breaks one of their command lines fails here."""

import csv
import importlib.util
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the eval output directories of each script, one per checkpoint it trains
EVAL_DIRS = {
    "run_component_experiment": ["eval_compressed", "eval_set", "eval_constrained"],
    "run_reliability_experiment": ["eval"],
}


@pytest.mark.parametrize("name, policies", [
    ("run_component_experiment",
     ["random", "oracle", "dqn_unconstrained", "dqn_constrained"]),
    ("run_reliability_experiment", ["random", "benchmark", "dqn"]),
])
def test_script_runs_every_command(tmp_path, monkeypatch, name, policies):
    monkeypatch.setattr(sys, "argv", [
        f"{name}.py", "--episodes", "3", "--eval-episodes", "3", "--out", str(tmp_path),
    ])
    load_script(name).main()  # exits non-zero when any command fails
    with open(tmp_path / "compare" / "compare_table.csv", newline="") as fh:
        assert [row["policy"] for row in csv.DictReader(fh)] == policies
    for directory in EVAL_DIRS[name]:
        with open(tmp_path / directory / "episodes.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 3
        assert (tmp_path / directory / "summary.json").exists()


@pytest.mark.slow
def test_output_check_finds_a_tree_identical_to_itself(tmp_path, capsys):
    check = load_script("check_outputs_identical")
    src = SCRIPTS.parent / "src"
    code = check.main([
        "--parent", str(src), "--episodes", "2", "--out", str(tmp_path)])
    assert code == 0 and "identical" in capsys.readouterr().out
    for side in ("parent", "this"):
        for name, _, _ in check.RUNS:  # every run wrote an output
            written = (tmp_path / side / name).rglob("*")
            assert any(path.is_file() for path in written), f"{side}/{name}"
    # the snapshot run trains at seed 1; eval's --seed 7 reaches the config,
    # compare's does not
    seeds = [json.loads((tmp_path / "this" / name / "resolved_config.json").read_text())
             ["train"]["seed"]
             for name in ("reliability_snapshots", "horizon0_eval", "horizon0_compare")]
    assert seeds == [1, 7, 0]


@pytest.mark.parametrize("given_out, differ", [
    (False, False), (False, True), (True, False),
], ids=["temporary-identical", "temporary-differing", "given-identical"])
def test_output_check_removes_only_its_own_identical_tree(
        tmp_path, monkeypatch, capsys, given_out, differ):
    check = load_script("check_outputs_identical")

    def write_outputs(src, out, sizes):  # one file, which differs if asked
        out.mkdir(parents=True)
        (out / "a.csv").write_text(f"{differ and src.name == 'parent_src'}\n")

    monkeypatch.setattr(check, "write_outputs", write_outputs)
    monkeypatch.setattr(check, "imported_from", lambda src: src)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    given = tmp_path / "given"
    argv = ["--parent", str(tmp_path / "parent_src")]
    code = check.main(argv + ["--out", str(given)] if given_out else argv)
    printed = capsys.readouterr().out
    made = list(temp.iterdir())
    assert code == int(differ)
    if given_out:
        assert made == [] and (given / "this" / "a.csv").is_file()
    elif differ:
        assert [path.name[:15] for path in made] == ["pdtwin-outputs-"]
        assert "differs: a.csv" in printed and f"under {made[0]}" in printed
        assert (made[0] / "parent" / "a.csv").is_file()
    else:
        assert made == [] and "identical" in printed


def test_output_check_exits_on_a_parent_without_pdtwin(tmp_path, monkeypatch):
    check = load_script("check_outputs_identical")
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    empty = tmp_path / "empty"
    empty.mkdir()
    message = re.escape(f"pdtwin does not import from {empty.resolve()}")
    with pytest.raises(SystemExit, match=message):
        check.main(["--parent", str(empty)])
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_output_check_rejects_episodes_below_one(
        tmp_path, monkeypatch, capsys, episodes):
    check = load_script("check_outputs_identical")
    monkeypatch.setattr(check, "imported_from", lambda src: src)
    monkeypatch.setattr(check, "write_outputs", lambda *args: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exit_info:
        check.main(["--parent", str(tmp_path), "--episodes", episodes,
                    "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "--episodes must be at least 1" in capsys.readouterr().err


def test_output_check_names_a_differing_file(tmp_path):
    check = load_script("check_outputs_identical")
    for side in ("parent", "this"):
        (tmp_path / side / "sub").mkdir(parents=True)
        (tmp_path / side / "sub" / "same.csv").write_text("a\n")
    (tmp_path / "parent" / "sub" / "changed.csv").write_text("1\n")
    (tmp_path / "this" / "sub" / "changed.csv").write_text("2\n")
    (tmp_path / "this" / "only_here.csv").write_text("x\n")
    assert check.differences(tmp_path / "parent", tmp_path / "this") == [
        Path("only_here.csv"), Path("sub/changed.csv")]
