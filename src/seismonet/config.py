"""Flat key=value run configuration shared by all CLI subcommands.

The file format is plain text: one ``section.key = value`` pair per line,
``#`` starts a comment. Every key has a default, so an empty (or absent)
config is valid; ``--set key=value`` overrides individual entries.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, TypeVar

from .detect import ValleyParams
from .errors import ConfigError
from .fieldcodec import Bounded, bounded, parser, settable
from .model import ModelConfig
from .synth import SynthParams
from .training import TrainConfig

T = TypeVar("T")


@dataclass(frozen=True)
class PathsConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    checkpoint: str = ""  # empty: model_final.smn in out_dir

    @property
    def checkpoint_path(self) -> Path:
        return Path(self.checkpoint or Path(self.out_dir) / "model_final.smn")


@dataclass(frozen=True)
class SamplingConfig(Bounded):
    source_fs: float = field(default=250.0, metadata=bounded(0, open_low=True))
    target_fs: float = field(default=0.0, metadata=bounded(0))  # 0: no resampling

    @property
    def effective_fs(self) -> float:
        return self.target_fs if self.target_fs > 0 else self.source_fs


@dataclass(frozen=True)
class DatasetConfig(Bounded):
    window_sec: float = field(default=10.0, metadata=bounded(0, open_low=True))
    hop_sec: float = field(default=5.0, metadata=bounded(0, open_low=True))
    train_ratio: float = field(default=0.6, metadata=bounded(0, open_low=True))
    val_ratio: float = field(default=0.2, metadata=bounded(0, open_low=True))
    test_ratio: float = field(default=0.2, metadata=bounded(0, open_low=True))
    dt_clip: float = field(default=0.0, metadata=bounded(0))  # 0: no clip
    drop_boundary: bool = True

    @property
    def clip(self) -> float | None:
        return self.dt_clip if self.dt_clip > 0 else None


@dataclass(frozen=True)
class EvalConfig(Bounded):
    tol_ms: float = field(default=90.0, metadata=bounded(0))
    per_window: bool = False


@dataclass(frozen=True)
class SynthCohort(Bounded):
    subjects: int = field(default=3, metadata=bounded(1))


# Each settable field of these dataclasses is the key <section>.<field>,
# parsed by the codec of its annotation (within its bound), with the
# field's default.
SECTIONS = {PathsConfig: "paths", SamplingConfig: "sampling", DatasetConfig: "dataset",
            ModelConfig: "model", TrainConfig: "train", EvalConfig: "eval",
            ValleyParams: "eval", SynthCohort: "synth", SynthParams: "synth"}

# key -> (parser, default)
SCHEMA: dict[str, tuple[Callable[[str], Any], Any]] = {
    f"{section}.{f.name}": (parser(f), f.default)
    for cls, section in SECTIONS.items() for f in filter(settable, fields(cls))}


class RunConfig:
    """Validated key/value store with typed section accessors."""

    def __init__(self):
        self._values = {key: default for key, (_, default) in SCHEMA.items()}

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

    def section(self, cls: type[T], **given: Any) -> T:
        """Build ``cls`` from its section's keys; ``given`` adds or overrides fields."""
        values = {f.name: self[f"{SECTIONS[cls]}.{f.name}"]
                  for f in filter(settable, fields(cls))}
        return cls(**{**values, **given})


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
