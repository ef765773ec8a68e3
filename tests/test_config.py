import dataclasses
import json

import pytest

from pdtwin.config import (
    COMPONENT_TRAIN_DEFAULTS, ConfigError, RELIABILITY_TRAIN_DEFAULTS,
    load_run_config, write_resolved,
)


class TestDefaults:
    def test_component_defaults(self):
        cfg = load_run_config(None, "component")
        assert cfg.train.episodes == COMPONENT_TRAIN_DEFAULTS["episodes"]
        assert cfg.train.reward_scale == 1e6
        assert cfg.component.horizon == 10
        assert not cfg.component.constrained

    def test_reliability_defaults(self):
        cfg = load_run_config(None, "reliability")
        assert cfg.train.episodes == RELIABILITY_TRAIN_DEFAULTS["episodes"]
        assert cfg.train.reward_scale == 10.0
        assert cfg.reliability.max_actions == 40


class TestOverrides:
    def test_cli_overrides_win(self):
        cfg = load_run_config(None, "component", seed=9, episodes=12,
                              constrained=True)
        assert cfg.train.seed == 9
        assert cfg.train.episodes == 12
        assert cfg.component.constrained

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "env": {"component": {"horizon": 5},
                    "reliability": {"max_actions": 20}},
            "train": {"batch_size": 8},
        }))
        cfg = load_run_config(str(path), "component")
        assert cfg.component.horizon == 5
        assert cfg.reliability.max_actions == 20
        assert cfg.train.batch_size == 8

    def test_cli_seed_beats_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"seed": 3}}))
        cfg = load_run_config(str(path), "component", seed=7)
        assert cfg.train.seed == 7

    def test_lists_become_tuples(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"phi_hidden": [8, 8]}}))
        cfg = load_run_config(str(path), "component")
        assert cfg.train.phi_hidden == (8, 8)


class TestValidation:
    def test_unknown_train_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"bogus": 1}}))
        with pytest.raises(ConfigError):
            load_run_config(str(path), "component")

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"nope": {}}))
        with pytest.raises(ConfigError):
            load_run_config(str(path), "component")

    def test_unknown_env_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"env": {"bogus": {}}}))
        with pytest.raises(ConfigError):
            load_run_config(str(path), "component")

    @pytest.mark.parametrize("run", [{"command": "train"}, 5, None, [1]])
    def test_run_section_is_not_read(self, tmp_path, run):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"run": run}))
        assert load_run_config(str(path), "component") == load_run_config(None, "component")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(str(path), "component")

    @pytest.mark.parametrize("section, values", [
        ("train", {"episodes": "abc"}),
        ("train", {"episodes": 2.5}),
        ("train", {"double_dqn": 1}),
        ("train", {"epsilon_decay_episodes": "x"}),
        ("component", {"horizon": True}),
        ("reliability", {"n_basis": 3}),  # a removed setting is an unknown key
        ("train", {"epsilon_start": 0.1, "epsilon_end": 0.5}),
        ("component", {"theta_bad": 1.5}),
        ("reliability", {"input_dim": 0}),
        ("reliability", {"pool_size": 0}),
        ("reliability", {"max_actions": 0}),
        ("reliability", {"pool_seed": -1}),
        ("reliability", {"n_mc": 0}),
        ("reliability", {"n_mc": 1}),
        ("reliability", {"lab_noise_var": 0}),
        ("reliability", {"fe_noise_var": -1e-6}),
        ("reliability", {"prior_beta_var": -1}),
        ("reliability", {"sigma_a": -0.5}),
        ("reliability", {"target": 0}),
        ("reliability", {"target": 1}),
        ("train", {"target_sync": 0}),
        ("train", {"snapshot_every": 0}),
        ("train", {"snapshot_episodes": 0}),
        ("train", {"latent_dim": 0}),
        ("train", {"epsilon_decay_episodes": 0}),
        ("train", {"seed": -1}),
        ("train", {"discount": 2}),
        ("train", {"learning_rate": -1}),
        ("train", {"reward_scale": 0}),
        ("train", {"phi_hidden": [0]}),
        ("train", {"rho_hidden": ["a"]}),
        ("train", {"n_step": 3}),  # removed settings are unknown keys
        ("train", {"target_clip": [0, 1]}),
        ("component", {"use_stake": float("nan")}),  # json.dumps writes NaN
        ("reliability", {"gamma": float("inf")}),  # and Infinity
        ("train", {"learning_rate": float("inf")}),
        ("component", {"horizon": 1, "use_stake": 1e308}),  # returns span inf
        ("component", {"horizon": 10**400}),  # no float holds it
        ("train", {"replay_capacity": 10}),  # below warmup: never learns
        ("train", {"replay_capacity": 32, "warmup": 0}),  # below batch_size
        ("reliability", {"sigma_a": 10**155}),  # an int whose square no float holds
    ])
    def test_rejects_bad_values(self, tmp_path, section, values):
        raw = {"train": values} if section == "train" else {"env": {section: values}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_run_config(str(path), "reliability")

    def test_replay_may_hold_just_the_warmup_transitions(self, tmp_path):
        # learning starts at max(warmup, batch_size) = 500 held transitions
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"replay_capacity": 500}}))
        assert load_run_config(str(path), "component").train.replay_capacity == 500

    def test_accepts_int_for_float_and_null_for_optional(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"train": {"learning_rate": 1, "epsilon_decay_episodes": None,
                       "snapshot_every": 7}}))
        cfg = load_run_config(str(path), "reliability")
        assert cfg.train.learning_rate == 1 and cfg.train.snapshot_every == 7
        assert cfg.train.epsilon_decay_episodes is None

    def test_every_field_annotation_is_checkable(self):
        from pdtwin.config import _TYPES, CoinConfig, ReliabilityConfig, TrainConfig

        for cls in (CoinConfig, ReliabilityConfig, TrainConfig):
            for field in dataclasses.fields(cls):
                assert set(field.type.split(" | ")) <= set(_TYPES), field.name

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_run_config(str(path), "component")


class TestResolvedEcho:
    def test_round_trip_through_resolved_file(self, tmp_path):
        cfg = load_run_config(None, "component", seed=5)
        out = tmp_path / "resolved.json"
        write_resolved(out, cfg, extra={"command": "train"})
        block = json.loads(out.read_text())
        assert block["train"]["seed"] == 5
        assert block["run"]["command"] == "train"
        # feeding the resolved env/train sections back reproduces the config
        back = tmp_path / "back.json"
        back.write_text(json.dumps(
            {"env": block["env"], "train": block["train"]}
        ))
        cfg2 = load_run_config(str(back), "component")
        assert cfg2 == cfg
