"""Run configuration: one JSON file of flat dotted keys plus CLI overrides."""

from __future__ import annotations

import json
import os
from typing import Any

DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "paths.word_embeddings": None,
    "paths.entity_embeddings": None,
    "paths.candidate_index": None,
    "paths.train_corpus": None,
    "paths.dev_corpus": None,
    "paths.checkpoint": None,
    "paths.train_log": None,
    "dims.word": 300,
    "dims.char": 50,
    "dims.char_hidden": 50,
    "dims.ctx_hidden": 150,
    "dims.entity": 300,
    "encoder.soft_head_space": "v",
    "encoder.dropout_keep": 0.5,
    "encoder.max_tokens": None,
    "train.gamma": 0.2,
    "train.learning_rate": 0.001,
    "train.regime": "all_spans",
    "train.eval_every": 500,
    "train.patience": 6,
    "train.improvement": 1e-4,
    "train.max_steps": None,
    "model.use_attention": False,
    "model.use_global": False,
    "attention.window": 200,
    "attention.keep": 10,
    "global.gamma_prime": 0.0,
    "global.voter_dedup": False,
    "coref.enabled": True,
    "entities.frozen": True,
}

# inputs whose existence is checked as soon as the config names them
INPUT_PATH_KEYS = ("paths.word_embeddings", "paths.entity_embeddings",
                   "paths.candidate_index", "paths.train_corpus", "paths.dev_corpus")


class RunConfig:
    def __init__(self, values: dict[str, Any] | None = None):
        unknown = sorted(set(values or ()) - set(DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        self.values = dict(DEFAULTS)
        self.values.update(values or {})

    @classmethod
    def load(cls, path: str, overrides: list[str] | None = None) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object of dotted keys")
        cfg = cls(raw)
        for item in overrides or ():
            cfg.apply_override(item)
        cfg.validate_paths()
        return cfg

    def apply_override(self, item: str) -> None:
        """Apply a ``key=value`` override; the value parses as JSON when it can."""
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like key=value")
        key, _, raw = item.partition("=")
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        self.values[key] = value

    def validate_paths(self) -> None:
        for key in INPUT_PATH_KEYS:
            path = self.values.get(key)
            if path is not None and not os.path.exists(path):
                raise ValueError(f"{key} points to a missing file: {path}")

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def require(self, key: str) -> Any:
        value = self.values.get(key)
        if value is None:
            raise ValueError(f"config key {key!r} is required for this command")
        return value

    def to_dict(self) -> dict[str, Any]:
        return dict(self.values)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.values, fh, indent=2, sort_keys=True)
            fh.write("\n")
