import json

import pytest

from e2el.config import DEFAULTS, RunConfig


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
