"""Every config that passes validation runs every command to exit 0, and every
number it writes is finite; every other config exits 1 from every command.

The configs are drawn from each field's own declaration: its annotation, its
bounds and the edge values around them. The one exit 2 allowed is training
that diverges (``DivergenceDetected``) on a legal config. Sizes and run
lengths are drawn small, so no draw allocates real memory.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdtwin.cli import main
from pdtwin.config import load_run_config
from pdtwin.dqn import TrainConfig
from pdtwin.envs.component import CoinConfig
from pdtwin.envs.reliability import ReliabilityConfig
from pdtwin.settings import check_value

# int fields that only name a seed: no size, so any int may be drawn
SEEDS = {"seed", "snapshot_seed_base", "pool_seed"}
PAST_FLOAT_RANGE = 10**400


def edge_values(field: dataclasses.Field) -> list:
    """The edge values of a config field, from its declaration."""
    names = field.type.split(" | ")
    wrong = ["1", [1], {"a": 1}] + ([] if "None" in names else [None])
    if "bool" in names:
        return [True, False, 0, 1, "true", None]
    if "tuple" in names:  # hidden layer sizes, drawn small
        return [[], [1], [2, 3], [0], [-1], [1.5], [True], ["a"], 2, None]
    values = [0, 1, -1, True, *wrong]
    for limit in field.metadata.values():
        if "float" in names:
            values += [limit, math.nextafter(limit, math.inf),
                       math.nextafter(limit, -math.inf)]
        else:
            values += [limit - 1, limit, limit + 1]
    if "float" in names:
        values += [0.0, -0.0, 0.5, 1e308, -1e308, 5e-324, -5e-324, float("nan"),
                   float("inf"), -float("inf"), PAST_FLOAT_RANGE, -PAST_FLOAT_RANGE]
    elif field.name in SEEDS:
        values += [2**64, PAST_FLOAT_RANGE, -PAST_FLOAT_RANGE]
    else:  # a size or a run length: small values and a non-integral float
        values += [2, 3, 1.5]
    return values


def drawn_value(field: dataclasses.Field):
    """One edge value of ``field``; those its own check accepts and those it
    rejects are drawn equally often."""
    def accepted(value):
        try:
            check_value(field, tuple(value) if isinstance(value, list) else value)
        except ValueError:
            return False
        return True

    values = edge_values(field)
    return st.one_of(st.sampled_from([v for v in values if accepted(v)]),
                     st.sampled_from([v for v in values if not accepted(v)]))


SECTIONS = {("env", "component"): CoinConfig, ("env", "reliability"): ReliabilityConfig,
            ("train",): TrainConfig}
FIELDS = [(path, field) for path, cls in SECTIONS.items()
          for field in dataclasses.fields(cls)]


@st.composite
def configs(draw):
    """A config file that sets one to three fields to edge values; its
    training section scores a snapshot on 2 episodes unless it sets that."""
    raw = {"env": {"component": {}, "reliability": {}}, "train": {"snapshot_episodes": 2}}
    picks = draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3,
                          unique_by=lambda pick: (pick[0], pick[1].name)))
    for path, field in picks:
        block = raw
        for key in path:
            block = block[key]
        block[field.name] = draw(drawn_value(field))
    return raw


def non_finite(path: Path) -> list:
    """The non-finite numbers in a CSV or JSON file that a command wrote;
    ``nan`` in ``loss_moving_average`` marks an episode before the first
    gradient step and is not counted."""
    found = []
    if path.suffix == ".json":  # json writes them as NaN, Infinity, -Infinity
        json.loads(path.read_text(), parse_constant=found.append)
        return found
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for column, cell in row.items():
                try:
                    number = float(cell)
                except ValueError:  # an outcome, or an empty mean cost
                    continue
                if not math.isfinite(number) and not (
                        column == "loss_moving_average" and math.isnan(number)):
                    found.append((column, cell))
    return found


def run(argv: list) -> tuple:
    """Exit code and stderr of ``pdtwin argv``, with RuntimeWarnings as errors."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, err.getvalue()


def check_commands(raw: dict, env: str, constrained: bool, tmp: Path) -> None:
    config = tmp / "config.json"
    config.write_text(json.dumps(raw))
    try:
        load_run_config(str(config), env)
        valid = True
    except ValueError:
        valid = False
    common = ["--env", env, "--config", str(config), "--episodes", "2"]
    flag = ["--constrained"] if constrained else []
    checkpoint = tmp / "train" / "checkpoint.npz"
    for name, argv in (("train", ["train", *common, "--seed", "1", *flag]),
                       ("eval", ["eval", *common, "--checkpoint", str(checkpoint), *flag]),
                       ("compare", ["compare", *common]),
                       ("oracle", ["oracle", "--config", str(config), *flag])):
        if name == "eval" and not checkpoint.exists():
            continue
        if name == "compare" and checkpoint.exists() and not constrained:
            argv += ["--checkpoint", str(checkpoint)]
        if name == "oracle" and env != "component":
            continue
        out = tmp / name
        code, err = run([*argv, "--out", str(out)])
        diverged = name == "train" and err.startswith("runtime failure: non-finite")
        assert code == (0 if valid else 1) or (code == 2 and diverged), (name, code, err)
        for path in [*out.glob("*.csv"), *out.glob("*.json")]:
            assert not non_finite(path), (name, path.name, non_finite(path))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(configs(), st.sampled_from(["component", "reliability"]), st.booleans())
# the statistics of finite returns whose sums overflow
@example({"env": {"component": {"use_stake": 8e307, "horizon": 1}}}, "component", False)
@example({"env": {"component": {"use_stake": 1e160, "horizon": 1}}}, "component", False)
# a reliability return past the float range
@example({"env": {"reliability": {"cost_lab": -1e308}}}, "reliability", False)
# flags replace the file's values, and must not hide them
@example({"train": {"episodes": -1, "seed": -5}}, "component", False)
# legal configs on which training diverges
@example({"train": {"reward_scale": 1e-308, "warmup": 1, "batch_size": 1}},
         "component", False)
@example({"train": {"learning_rate": 1e300, "warmup": 1, "batch_size": 1}},
         "component", False)
def test_every_command_exits_0_or_1_and_writes_finite_numbers(raw, env, constrained):
    with tempfile.TemporaryDirectory() as tmp:
        check_commands(raw, env, constrained and env == "component", Path(tmp))
