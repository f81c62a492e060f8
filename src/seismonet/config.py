"""Flat key=value run configuration shared by all CLI subcommands.

The file format is plain text: one ``section.key = value`` pair per line,
``#`` starts a comment. Every key has a default, so an empty (or absent)
config is valid; ``--set key=value`` overrides individual entries.
"""
from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, TypeVar

from .detect import ValleyParams
from .errors import ConfigError
from .fieldcodec import parse_bool, parse_float, parser, settable
from .model import ModelConfig
from .synth import SynthParams
from .training import TrainConfig

T = TypeVar("T")


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _parse_non_negative(text: str) -> float:
    value = parse_float(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


# Each settable field of these dataclasses is the key <section>.<field>,
# parsed by the codec of its annotation, with the field's default.
SECTIONS = {ModelConfig: "model", TrainConfig: "train", ValleyParams: "eval",
            SynthParams: "synth"}


def _field_keys(cls: type, **defaults: Any) -> dict[str, tuple[Callable[[str], Any], Any]]:
    return {f"{SECTIONS[cls]}.{f.name}": (parser(f), defaults.get(f.name, f.default))
            for f in filter(settable, fields(cls))}


# key -> (parser, default)
SCHEMA: dict[str, tuple[Callable[[str], Any], Any]] = {
    "paths.data_dir": (str, "data"),
    "paths.out_dir": (str, "out"),
    "paths.checkpoint": (str, ""),
    "sampling.source_fs": (parse_float, 250.0),
    "sampling.target_fs": (_parse_non_negative, 0.0),
    "dataset.window_sec": (parse_float, 10.0),
    "dataset.hop_sec": (parse_float, 5.0),
    "dataset.train_ratio": (parse_float, 0.6),
    "dataset.val_ratio": (parse_float, 0.2),
    "dataset.test_ratio": (parse_float, 0.2),
    "dataset.dt_clip": (_parse_non_negative, 0.0),
    "dataset.drop_boundary": (parse_bool, True),
    **_field_keys(ModelConfig),
    **_field_keys(TrainConfig),
    "eval.tol_ms": (_parse_non_negative, 90.0),
    **_field_keys(ValleyParams),
    "eval.per_window": (parse_bool, False),
    "synth.subjects": (_parse_count, 3),
    # SynthParams has no default record rate or length.
    **_field_keys(SynthParams, fs=250.0, duration_s=60.0),
}


class RunConfig:
    """Validated key/value store with typed section accessors."""

    def __init__(self, values: dict[str, Any] | None = None):
        self._values = {key: default for key, (_, default) in SCHEMA.items()}
        if values:
            self._values.update(values)

    def __getitem__(self, key: str) -> Any:
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        return self._values[key]

    def set(self, key: str, raw: str) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            self._values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None

    # ----- section accessors -------------------------------------------

    def data_dir(self) -> Path:
        return Path(self["paths.data_dir"])

    def out_dir(self) -> Path:
        return Path(self["paths.out_dir"])

    def checkpoint_path(self) -> Path:
        explicit = self["paths.checkpoint"]
        return Path(explicit) if explicit else self.out_dir() / "model_final.smn"

    def effective_fs(self) -> float:
        target = self["sampling.target_fs"]
        return target if target > 0 else self["sampling.source_fs"]

    def ratios(self) -> tuple[float, float, float]:
        return (self["dataset.train_ratio"], self["dataset.val_ratio"],
                self["dataset.test_ratio"])

    def dt_clip(self) -> float | None:
        clip = self["dataset.dt_clip"]
        return clip if clip > 0 else None

    def section(self, cls: type[T], **given: Any) -> T:
        """Build ``cls`` from its section's keys; ``given`` adds or overrides fields."""
        values = {f.name: self[f"{SECTIONS[cls]}.{f.name}"]
                  for f in filter(settable, fields(cls))}
        return cls(**{**values, **given})

    def synth_params(self, subject_index: int) -> SynthParams:
        # Slight per-subject rate offsets keep cross-subject statistics
        # non-degenerate while staying fully seeded.
        hr = min(self["synth.mean_hr_bpm"] + 2.0 * subject_index, 240.0)
        return self.section(SynthParams, mean_hr_bpm=hr,
                            seed=self["synth.seed"] + subject_index)


def load_config(path: str | Path | None) -> RunConfig:
    """Parse a config file; a missing path yields pure defaults."""
    config = RunConfig()
    if path is None:
        return config
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        try:
            config.set(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return config
