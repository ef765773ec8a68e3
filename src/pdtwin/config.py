"""Run configuration: JSON config files merged over dataclass defaults.

The file is a JSON object with optional sections, each but ``run`` an object::

    {
      "env": {"component": {...}, "reliability": {...}},
      "train": {...},
      "run": {...}
    }

Every default that applies is echoed back into the resolved-config file a
run writes, so a run is reproducible from its output directory alone: that
file is itself a valid config file. Its ``run`` block records the command
that wrote it and is not read.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .dqn import TrainConfig
from .envs.component import CoinConfig
from .envs.reliability import ReliabilityConfig
from .mdp import write_json
from .settings import check_value


class ConfigError(ValueError):
    """Malformed config file or unknown key."""


# training defaults that differ per environment
COMPONENT_TRAIN_DEFAULTS = {
    "episodes": 3000,
    "reward_scale": 1e6,
}
RELIABILITY_TRAIN_DEFAULTS = {
    "episodes": 5000,
    "reward_scale": 10.0,
    # the 40-step information-gathering game is prone to late-training policy
    # collapse under plain DQN; decoupled action selection in the targets and
    # validation-scored snapshot selection keep the returned policy at its peak
    "double_dqn": True,
    "train_every": 2,
    "snapshot_every": 500,
    "snapshot_episodes": 60,
}


def _build(cls, *layers: dict):
    """Instantiate ``cls`` from layers of overrides; a later layer wins.

    Every value of every layer is checked against its field, including those
    a later layer replaces, so a command-line value never hides a malformed
    file value.
    """
    values = {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    try:
        for layer in layers:
            for key, value in layer.items():
                if key not in fields:
                    raise ValueError(f"unknown key {key!r}")
                values[key] = tuple(value) if isinstance(value, list) else value
                check_value(fields[key], values[key])
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class RunConfig:
    component: CoinConfig
    reliability: ReliabilityConfig
    train: TrainConfig


def load_run_config(
    path: str | None,
    environment: str,
    seed: int | None = None,
    episodes: int | None = None,
    constrained: bool = False,
) -> RunConfig:
    """Assemble the full run configuration from a file and CLI overrides."""
    raw: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")  # JSON is UTF-8
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except ValueError as exc:  # also an integer past int's digit limit
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    for key in raw:
        if key not in ("env", "train", "run"):
            raise ConfigError(f"unknown top-level section {key!r}")
    envs = _section(raw, "env")
    for key in envs:
        if key not in ("component", "reliability"):
            raise ConfigError(f"unknown env section {key!r}")

    component = _build(
        CoinConfig, _section(envs, "component", "env."),
        {"constrained": True} if constrained else {},
    )
    reliability = _build(ReliabilityConfig, _section(envs, "reliability", "env."))

    train_defaults = (
        COMPONENT_TRAIN_DEFAULTS if environment == "component"
        else RELIABILITY_TRAIN_DEFAULTS
    )
    cli_train = {key: value for key, value in (("seed", seed), ("episodes", episodes))
                 if value is not None}
    train = _build(TrainConfig, train_defaults, _section(raw, "train"), cli_train)
    return RunConfig(component, reliability, train)


def _section(parent: dict, key: str, prefix: str = "") -> dict:
    """The section ``key`` of ``parent``, empty if absent; it must be an object."""
    value = parent.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {prefix}{key} must be a JSON object, "
                          f"got {json.dumps(value)}")
    return value


def write_resolved(path, config: RunConfig, extra: dict) -> None:
    write_json(path, {
        "env": {
            "component": dataclasses.asdict(config.component),
            "reliability": dataclasses.asdict(config.reliability),
        },
        "train": dataclasses.asdict(config.train),
        "run": extra,
    })
