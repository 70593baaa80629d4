"""Run configuration: one JSON file of flat dotted keys plus CLI overrides.

`OWNED` maps 17 keys to a field of `TrainConfig`, `EncoderDims` or
`GlobalConfig`, which owns the key's default, type and (in ``__post_init__``)
range. Every other key has a literal default in `DEFAULTS` and its type (a
null default takes a string). Values are type-checked when set, and `load`
builds every owner and checks that 1 ≤ attention.keep ≤ attention.window,
so a bad value fails before any input file is read.
"""

from __future__ import annotations

import json
import os
import typing
from typing import Any

from .encoder import EncoderDims
from .scoring import GlobalConfig
from .training import TrainConfig

# dotted key -> (owning dataclass, field)
OWNED: dict[str, tuple[type, str]] = {
    "seed": (TrainConfig, "seed"),
    "dims.word": (EncoderDims, "word_dim"),
    "dims.char": (EncoderDims, "char_dim"),
    "dims.char_hidden": (EncoderDims, "char_hidden"),
    "dims.ctx_hidden": (EncoderDims, "ctx_hidden"),
    "dims.entity": (EncoderDims, "entity_dim"),
    "encoder.dropout_keep": (EncoderDims, "dropout_keep"),
    "encoder.max_tokens": (EncoderDims, "max_tokens"),
    "train.gamma": (TrainConfig, "gamma"),
    "train.learning_rate": (TrainConfig, "learning_rate"),
    "train.regime": (TrainConfig, "regime"),
    "train.eval_every": (TrainConfig, "eval_every"),
    "train.patience": (TrainConfig, "patience"),
    "train.improvement": (TrainConfig, "improvement"),
    "train.max_steps": (TrainConfig, "max_steps"),
    "global.gamma_prime": (GlobalConfig, "gamma_prime"),
    "coref.enabled": (TrainConfig, "use_coref"),
}
OWNERS = tuple(dict.fromkeys(owner for owner, _ in OWNED.values()))

DEFAULTS: dict[str, Any] = {
    "paths.word_embeddings": None,
    "paths.entity_embeddings": None,
    "paths.candidate_index": None,
    "paths.train_corpus": None,
    "paths.dev_corpus": None,
    "paths.checkpoint": None,
    "paths.train_log": None,
    "model.use_attention": False,
    "model.use_global": False,
    "attention.window": 200,
    "attention.keep": 10,
    "entities.frozen": True,
    **{key: getattr(owner(), name) for key, (owner, name) in OWNED.items()},
}

# inputs whose existence is checked as soon as the config names them
INPUT_PATH_KEYS = ("paths.word_embeddings", "paths.entity_embeddings",
                   "paths.candidate_index", "paths.train_corpus", "paths.dev_corpus")


def _kind(key: str) -> tuple[type, bool]:
    """(value type, whether null is allowed) of a key."""
    if key not in OWNED:
        default = DEFAULTS[key]
        return (str, True) if default is None else (type(default), False)
    hint = typing.get_type_hints(OWNED[key][0])[OWNED[key][1]]
    if type(None) in typing.get_args(hint):  # T | None
        return typing.get_args(hint)[0], True
    return hint, False


_KINDS: dict[str, tuple[type, bool]] = {key: _kind(key) for key in DEFAULTS}
_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _check_value(key: str, value: Any) -> None:
    kind, nullable = _KINDS[key]
    if value is None:
        ok = nullable
    elif isinstance(value, bool):
        ok = kind is bool
    else:
        ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        expected = _NAMES[kind] + (" or null" if nullable else "")
        raise ValueError(f"config key {key!r} takes {expected}, got {value!r}")


class RunConfig:
    def __init__(self, values: dict[str, Any] | None = None):
        values = values or {}
        unknown = sorted(set(values) - set(DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in values.items():
            _check_value(key, value)
        self.values = {**DEFAULTS, **values}

    @classmethod
    def load(cls, path: str, overrides: list[str] | None = None) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not valid UTF-8: {exc}") from None
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise ValueError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object of dotted keys")
        try:
            cfg = cls(raw)
            for item in overrides or ():
                cfg.apply_override(item)
            for owner in OWNERS:
                cfg.build(owner)
            keep, window = cfg["attention.keep"], cfg["attention.window"]
            if not 1 <= keep <= window:
                raise ValueError(f"config key 'attention.keep' must be between 1 and "
                                 f"'attention.window' ({window}), got {keep}")
            cfg.validate_paths()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
        _check_value(key, value)
        self.values[key] = value

    def build(self, owner: type):
        """The `owner` dataclass built from the keys it owns."""
        return owner(**{name: self.values[key] for key, (cls, name) in OWNED.items()
                        if cls is owner})

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
