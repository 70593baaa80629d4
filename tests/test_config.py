import dataclasses
import json

import pytest

from e2el.config import DEFAULTS, OWNED, OWNERS, RunConfig
from e2el.encoder import EncoderDims
from e2el.scoring import GlobalConfig
from e2el.training import TrainConfig


class TestRunConfig:
    def test_defaults_applied(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}", encoding="utf-8")
        cfg = RunConfig.load(str(p))
        assert cfg["train.gamma"] == 0.2
        assert cfg["attention.keep"] == 10

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"train.gamam": 0.3}', encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.load(str(p))

    def test_removed_soft_head_space_key_is_unknown(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"encoder.soft_head_space": "v"}', encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config keys.*encoder.soft_head_space"):
            RunConfig.load(str(p))
        assert len(DEFAULTS) == 29

    def test_override_parses_json_values(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}", encoding="utf-8")
        cfg = RunConfig.load(str(p), overrides=["train.gamma=0.4",
                                                "model.use_global=true",
                                                "train.regime=gold_spans"])
        assert cfg["train.gamma"] == 0.4
        assert cfg["model.use_global"] is True
        assert cfg["train.regime"] == "gold_spans"

    def test_bad_override_shape(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="key=value"):
            RunConfig.load(str(p), overrides=["train.gamma"])

    def test_missing_input_path_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"paths.train_corpus": str(tmp_path / "nope.jsonl")}),
                     encoding="utf-8")
        with pytest.raises(ValueError, match="missing file"):
            RunConfig.load(str(p))

    def test_round_trip_semantically_identical(self, tmp_path):
        src = tmp_path / "c.json"
        src.write_text(json.dumps({"train.gamma": 0.35, "dims.word": 16}), encoding="utf-8")
        cfg = RunConfig.load(str(src))
        out = tmp_path / "out.json"
        cfg.dump(str(out))
        cfg2 = RunConfig.load(str(out))
        assert cfg.to_dict() == cfg2.to_dict()

    def test_require(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}", encoding="utf-8")
        cfg = RunConfig.load(str(p))
        with pytest.raises(ValueError, match="required"):
            cfg.require("paths.checkpoint")

    def test_all_defaults_are_known_keys(self):
        cfg = RunConfig({})
        assert set(cfg.to_dict()) == set(DEFAULTS)


NULLABLE_INT_KEYS = {"train.max_steps", "encoder.max_tokens"}


def wrong_values(key):
    """Values of a JSON type the key does not take."""
    default = DEFAULTS[key]
    if isinstance(default, bool):
        return [1, "true", None]
    if isinstance(default, int):
        return [True, 1.5, "1", None]
    if isinstance(default, float):
        return [True, "abc", None]
    if key in NULLABLE_INT_KEYS:
        return [True, 1.5, "1"]
    return [5, True, ["a"]]  # string keys; paths.* also take null


class TestValueTypes:
    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_wrong_type_in_file_names_key(self, tmp_path, key):
        p = tmp_path / "c.json"
        for value in wrong_values(key):
            p.write_text(json.dumps({key: value}), encoding="utf-8")
            with pytest.raises(ValueError, match=f"'{key}'") as err:
                RunConfig.load(str(p))
            assert str(p) in str(err.value)

    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_wrong_type_in_override_names_key(self, tmp_path, key):
        p = tmp_path / "c.json"
        p.write_text("{}", encoding="utf-8")
        for value in wrong_values(key):
            with pytest.raises(ValueError, match=f"'{key}'"):
                RunConfig.load(str(p), overrides=[f"{key}={json.dumps(value)}"])

    def test_constructor_checks_types(self):
        with pytest.raises(ValueError, match="'model.use_global'"):
            RunConfig({"model.use_global": "no"})

    def test_accepted_values(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train.gamma": 1, "train.max_steps": None,
                                 "encoder.max_tokens": 50, "paths.checkpoint": "m.ckpt",
                                 "global.gamma_prime": -2}), encoding="utf-8")
        cfg = RunConfig.load(str(p), overrides=["paths.train_log=null", "seed=7",
                                                "encoder.dropout_keep=1"])
        assert cfg["train.gamma"] == 1 and cfg["encoder.max_tokens"] == 50
        assert cfg["train.max_steps"] is None and cfg["paths.train_log"] is None
        assert cfg["seed"] == 7

    @pytest.mark.parametrize("override, field", [
        ("train.eval_every=0", "eval_every"), ("train.max_steps=0", "max_steps"),
        ("train.learning_rate=0", "learning_rate"), ("train.gamma=NaN", "gamma"),
        ("train.patience=0", "patience"), ("train.regime=sometimes", "regime"),
        ("dims.ctx_hidden=0", "ctx_hidden"), ("encoder.dropout_keep=0", "dropout_keep"),
        ("encoder.dropout_keep=1.5", "dropout_keep"), ("encoder.max_tokens=0", "max_tokens"),
        ("global.gamma_prime=Infinity", "gamma_prime"),
        ("train.improvement=NaN", "improvement"), ("train.improvement=Infinity", "improvement"),
        ("train.improvement=-0.1", "improvement")])
    def test_out_of_range_rejected_at_load(self, tmp_path, override, field):
        p = tmp_path / "c.json"
        p.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match=field):
            RunConfig.load(str(p), overrides=[override])


class TestAttentionRange:
    @pytest.mark.parametrize("overrides", [
        ["attention.keep=0"], ["attention.keep=-3"], ["attention.keep=201"],
        ["attention.window=0"], ["attention.window=4", "attention.keep=5"]])
    def test_keep_outside_window_rejected_at_load(self, tmp_path, overrides):
        p = tmp_path / "c.json"
        p.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="'attention.keep' must be between 1 and "
                                             "'attention.window'") as err:
            RunConfig.load(str(p), overrides=overrides)
        assert str(p) in str(err.value)

    def test_rejected_in_the_file_too(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"attention.window": 3, "attention.keep": 4}),
                     encoding="utf-8")
        with pytest.raises(ValueError, match=r"\(3\), got 4"):
            RunConfig.load(str(p))

    @pytest.mark.parametrize("window, keep", [(1, 1), (200, 200), (10, 1)])
    def test_bounds_accepted(self, tmp_path, window, keep):
        p = tmp_path / "c.json"
        p.write_text("{}", encoding="utf-8")
        cfg = RunConfig.load(str(p), overrides=[f"attention.window={window}",
                                                f"attention.keep={keep}"])
        assert (cfg["attention.window"], cfg["attention.keep"]) == (window, keep)


class TestKeyTable:
    def test_owned_defaults_come_from_the_dataclasses(self):
        for key, (owner, name) in OWNED.items():
            assert DEFAULTS[key] == getattr(owner(), name), key

    def test_every_owner_field_has_one_key(self):
        for owner in OWNERS:
            names = sorted(name for cls, name in OWNED.values() if cls is owner)
            assert names == sorted(f.name for f in dataclasses.fields(owner))

    def test_build_maps_keys_to_fields(self):
        cfg = RunConfig({"seed": 4, "coref.enabled": False, "dims.word": 12,
                         "global.gamma_prime": -0.5})
        tcfg = cfg.build(TrainConfig)
        assert tcfg.seed == 4 and tcfg.use_coref is False
        assert cfg.build(EncoderDims).word_dim == 12
        assert cfg.build(GlobalConfig) == GlobalConfig(gamma_prime=-0.5)
