"""JSON run configuration: schema, strict parsing, round-trip serialization.

Unknown keys are rejected at every nesting level so a typo in a config file
fails loudly instead of silently running defaults.
"""
from __future__ import annotations

import dataclasses
import json
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


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _check_section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return value


def config_from_dict(raw: dict) -> TrainConfig:
    raw = _check_section(raw, "config")
    _check_keys(raw, _TOP_KEYS, "config")
    cascade_raw = _check_section(raw.get("cascade", {}), "config.cascade")
    _check_keys(cascade_raw, _CASCADE_KEYS, "config.cascade")
    task_raw = _check_section(raw.get("task", {}), "config.task")
    _check_keys(task_raw, _TASK_KEYS, "config.task")
    train_raw = _check_section(raw.get("train", {}), "config.train")
    _check_keys(train_raw, _TRAIN_KEYS, "config.train")
    try:
        cascade = CascadeConfig(**cascade_raw)
        task = TaskConfig(**task_raw)
        return TrainConfig(model=raw.get("model", "cmntm"),
                           seed=int(raw.get("seed", 0)),
                           cascade=cascade, task=task, **train_raw)
    except (ValueError, TypeError) as e:
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
