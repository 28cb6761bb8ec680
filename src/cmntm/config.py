"""JSON run configuration: schema, strict parsing, round-trip serialization.

Unknown keys are rejected at every nesting level so a typo in a config file
fails loudly instead of silently running defaults.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field

from .cascade import CascadeConfig
from .errors import ConfigError
from .synthdata import TaskConfig

MODEL_KINDS = ("cmntm", "lstm", "ewma", "mean")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training or evaluation run needs, minus file paths."""

    model: str = "cmntm"
    seed: int = 0
    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    epochs: int = 50
    batch_size: int = 32
    eval_batch_size: int = 256
    learning_rate: float = 1e-3
    ewma_alpha: float = 0.5
    grad_clip: float = 10.0
    checkpoint_every: int = 0  # 0 = final checkpoint only
    train_count: int = 2000
    val_count: int = 500

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}; expected one of {MODEL_KINDS}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (turn losses need in-batch negatives)")
        if self.eval_batch_size < 1:
            raise ConfigError("eval_batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.train_count < 1 or self.val_count < 1:
            raise ConfigError("train_count and val_count must be >= 1")
        if self.cascade.feature_dim != self.task.feature_dim:
            raise ConfigError(
                f"cascade.feature_dim ({self.cascade.feature_dim}) must match "
                f"task.feature_dim ({self.task.feature_dim})")


_CASCADE_KEYS = {f.name for f in dataclasses.fields(CascadeConfig)}
_TASK_KEYS = {f.name for f in dataclasses.fields(TaskConfig)}
_TOP_KEYS = {"model", "seed", "cascade", "task", "train"}
# every other TrainConfig field lives in the "train" section
_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} - _TOP_KEYS


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _section(section, cls, allowed: set[str], where: str) -> dict:
    """``section`` once it is an object of ``allowed`` keys whose values have
    the type of their ``cls`` field's default: an int field takes an integer
    (not a bool), a float field any number a finite float can hold: ``json``
    parses ``NaN``, ``Infinity`` and integers of any length, and a NaN passes
    every range check."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    for f in dataclasses.fields(cls):
        if f.name not in section or f.default is dataclasses.MISSING:
            continue  # absent, or a section checked on its own
        kind, value = type(f.default), section[f.name]
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise ConfigError(f"{where}.{f.name} must be {_TYPE_NAMES[kind]}, "
                              f"got {json.dumps(value)}")
        if kind is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where}.{f.name} must be a finite number, "
                              f"got {json.dumps(value)}")
    return section


def config_from_dict(raw: dict) -> TrainConfig:
    raw = _section(raw, TrainConfig, _TOP_KEYS, "config")
    cascade = _section(raw.get("cascade", {}), CascadeConfig, _CASCADE_KEYS, "config.cascade")
    task = _section(raw.get("task", {}), TaskConfig, _TASK_KEYS, "config.task")
    train = _section(raw.get("train", {}), TrainConfig, _TRAIN_KEYS, "config.train")
    top = {key: raw[key] for key in ("model", "seed") if key in raw}
    try:
        return TrainConfig(cascade=CascadeConfig(**cascade), task=TaskConfig(**task),
                           **top, **train)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def config_to_dict(cfg: TrainConfig) -> dict:
    return {
        "model": cfg.model,
        "seed": cfg.seed,
        "cascade": dataclasses.asdict(cfg.cascade),
        "task": dataclasses.asdict(cfg.task),
        "train": {k: getattr(cfg, k) for k in sorted(_TRAIN_KEYS)},
    }


def load_config(path: str) -> TrainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    return config_from_dict(raw)


def config_json(cfg: TrainConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
