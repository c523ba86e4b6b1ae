"""Flat key=value experiment configuration.

Config files are diff-able plain text: one ``key = value`` per line,
``#`` comments. CLI ``--set key=value`` flags override file values; the
effective config is written next to the outputs so a run can be
reproduced exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DataError

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}
_CHOICES = {
    "multilabel_policy": ("smallest_id", "first_listed"),
    "method": ("neg_sampling", "softmax_full"),
    "noise": ("uniform", "frequency", "adversarial"),
    "eval_split": ("test", "validation"),
}
# smallest values for which the seeds, the feature PCA and diagnose's
# tables and sweep are defined
_MINIMUM = {"seed": 0, "feature_pca_k": 0, "diag_contexts": 1, "diag_labels": 2,
            "diag_sweep": 1}


@dataclass
class ExperimentConfig:
    seed: int  # mandatory: every command is seeded
    train_path: str = ""
    test_path: str = ""
    one_based: bool = False
    multilabel_policy: str = "smallest_id"
    validation_fraction: float = 0.1
    feature_pca_k: int = 0  # 0 keeps raw features; >0 projects the model inputs
    pca_k: int = 16  # reduced dimension for the auxiliary tree
    tree_regularizer: float = 0.1
    method: str = "neg_sampling"
    noise: str = "uniform"  # uniform | frequency | adversarial
    frequency_smoothing: float = 1.0
    learning_rate: float = 0.01
    regularizer: float = 0.0
    epochs: int = 1
    negatives_per_positive: int = 1
    bias_removal: bool = True
    eval_split: str = "test"  # test | validation
    log_every: int = 10_000
    eval_at_log: bool = False
    # diagnose command
    diag_contexts: int = 3
    diag_labels: int = 4
    diag_sweep: int = 500
    diag_n_scale: int = 1

    def __post_init__(self):
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise DataError(f"{key} must be one of {', '.join(allowed)}, "
                                f"not {getattr(self, key)!r}")
        for key, low in _MINIMUM.items():
            if getattr(self, key) < low:
                raise DataError(f"{key} must be at least {low}, not {getattr(self, key)}")
        for key, type_name in self.field_types().items():
            if type_name == "float" and not math.isfinite(getattr(self, key)):
                raise DataError(f"{key} must be finite, not {getattr(self, key)}")

    @classmethod
    def field_types(cls):
        return {f.name: f.type for f in fields(cls)}

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        types = cls.field_types()
        kwargs = {}
        for key, raw in mapping.items():
            if key not in types:
                raise DataError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(raw, types[key], key)
        if "seed" not in kwargs:
            raise DataError("config must set a seed")
        return cls(**kwargs)

    def to_file(self, path) -> None:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        Path(path).write_text("\n".join(lines) + "\n")


def _coerce(raw, type_name, key):
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    name = type_name if isinstance(type_name, str) else type_name.__name__
    if name == "bool":
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise DataError(f"cannot parse boolean {raw!r} for {key}")
    if name == "int":
        try:
            return int(raw)
        except ValueError:
            raise DataError(f"cannot parse integer {raw!r} for {key}")
    if name == "float":
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"cannot parse float {raw!r} for {key}")
    return raw


def read_config_file(path) -> dict:
    mapping = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def load_config(path=None, overrides=None) -> ExperimentConfig:
    mapping = read_config_file(path) if path else {}
    for item in overrides or []:
        if "=" not in item:
            raise DataError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    return ExperimentConfig.from_mapping(mapping)
