"""Run configuration: JSON config files merged over dataclass defaults.

The file is a plain JSON object with optional sections::

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


# annotation name -> accepted JSON value types; an integer may stand for a float
_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
          "tuple": (tuple,), "None": (type(None),)}


def _build(cls, *layers: dict):
    """Instantiate ``cls`` from layers of overrides; a later layer wins.

    Every value of every layer is checked, including those a later layer
    replaces, so a command-line value never hides a malformed file value.
    """
    values = {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for layer in layers:
        for key, value in layer.items():
            if key not in fields:
                raise ConfigError(f"unknown key {key!r} for {cls.__name__}")
            if isinstance(value, list):
                value = tuple(value)
            _check_type(cls, fields[key], value)
            values[key] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc


def _check_type(cls, field, value) -> None:
    """Reject a value of a type its field's annotation does not name."""
    allowed = sum((_TYPES[name] for name in field.type.split(" | ")), ())
    if type(value) not in allowed:
        raise ConfigError(
            f"{cls.__name__}.{field.name} must be {field.type}, got {value!r}"
        )


@dataclasses.dataclass(frozen=True)
class RunConfig:
    component: CoinConfig
    reliability: ReliabilityConfig
    train: TrainConfig

    def resolved_dict(self) -> dict:
        return {
            "env": {
                "component": dataclasses.asdict(self.component),
                "reliability": dataclasses.asdict(self.reliability),
            },
            "train": dataclasses.asdict(self.train),
        }


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
        text = Path(path).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    env_section = raw.get("env", {})
    for key in raw:
        if key not in ("env", "train", "run"):
            raise ConfigError(f"unknown top-level section {key!r}")
    for key in env_section:
        if key not in ("component", "reliability"):
            raise ConfigError(f"unknown env section {key!r}")

    component = _build(
        CoinConfig, env_section.get("component", {}),
        {"constrained": True} if constrained else {},
    )
    reliability = _build(ReliabilityConfig, env_section.get("reliability", {}))

    train_defaults = (
        COMPONENT_TRAIN_DEFAULTS if environment == "component"
        else RELIABILITY_TRAIN_DEFAULTS
    )
    cli_train = {key: value for key, value in (("seed", seed), ("episodes", episodes))
                 if value is not None}
    train = _build(TrainConfig, train_defaults, raw.get("train", {}), cli_train)
    return RunConfig(component, reliability, train)


def write_resolved(path, config: RunConfig, extra: dict | None = None) -> None:
    block = config.resolved_dict()
    if extra:
        block["run"] = extra
    write_json(path, block)
