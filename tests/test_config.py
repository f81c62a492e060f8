"""Run-configuration schema, parsing, and defaults."""
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seismonet.cli import synth_params
from seismonet.config import (SCHEMA, SECTIONS, DatasetConfig, RunConfig, SamplingConfig,
                               load_config)
from seismonet.detect import ValleyParams
from seismonet.errors import ConfigError, ValidationError
from seismonet.fieldcodec import CODECS, Bound, settable
from seismonet.model import ModelConfig
from seismonet.training import TrainConfig


def test_schedule_defaults_match_published_settings():
    cfg = RunConfig()
    assert cfg["train.epochs"] == 300
    assert cfg["train.lr0"] == 0.001
    assert cfg["train.schedule_step"] == 100
    assert cfg["train.schedule_factor"] == 10.0
    assert cfg["eval.tol_ms"] == 90.0
    assert cfg["dataset.window_sec"] == 10.0
    assert cfg["dataset.hop_sec"] == 5.0
    ds = cfg.section(DatasetConfig)
    assert (ds.train_ratio, ds.val_ratio, ds.test_ratio) == (0.6, 0.2, 0.2)
    assert cfg["model.levels"] == 5
    assert cfg["model.base_channels"] == 32
    assert cfg["model.conv_kernel"] == 3
    assert cfg["model.down_kernel"] == 5
    assert cfg["model.up_kernel"] == 5


def test_parse_file_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# comment line
train.epochs = 7   # trailing comment
model.inception_kernels = 1,3
dataset.drop_boundary = false
""")
    cfg = load_config(path)
    assert cfg["train.epochs"] == 7
    assert cfg["model.inception_kernels"] == (1, 3)
    assert cfg["dataset.drop_boundary"] is False


def test_unknown_key_names_key_path(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("train.warmup = 5\n")
    with pytest.raises(ConfigError, match="train.warmup"):
        load_config(path)


def test_bad_value_names_key_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# header\ntrain.epochs = soon\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:2.*train.epochs"):
        load_config(path)


def test_bool_parse_variants():
    cfg = RunConfig()
    for text, want in [("true", True), ("0", False), ("Yes", True), ("off", False)]:
        cfg.set("train.shuffle", text)
        assert cfg["train.shuffle"] is want
    with pytest.raises(ConfigError):
        cfg.set("train.shuffle", "maybe")


def test_effective_fs_and_clip():
    cfg = RunConfig()
    assert cfg.section(SamplingConfig).effective_fs == 250.0
    cfg.set("sampling.target_fs", "100")
    assert cfg.section(SamplingConfig).effective_fs == 100.0
    assert cfg.section(DatasetConfig).clip is None
    cfg.set("dataset.dt_clip", "25")
    assert cfg.section(DatasetConfig).clip == 25.0


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.cfg")


def test_directory_as_config_file_raises(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path)


def test_section_accessors_build_valid_objects():
    cfg = RunConfig()
    cfg.set("model.levels", "2")
    cfg.set("model.base_channels", "8")
    model_cfg = cfg.section(ModelConfig, input_len=64)
    assert model_cfg.levels == 2
    train_cfg = cfg.section(TrainConfig)
    assert train_cfg.epochs == 300
    valley = cfg.section(ValleyParams)
    assert valley.refractory_ms == 200.0
    synth0 = synth_params(cfg, 0)
    synth1 = synth_params(cfg, 1)
    assert synth1.seed == synth0.seed + 1
    assert synth1.mean_hr_bpm != synth0.mean_hr_bpm


def test_run_config_keys_and_defaults_pinned():
    cfg = RunConfig()
    assert {key: cfg[key] for key in SCHEMA} == {
        "paths.data_dir": "data", "paths.out_dir": "out", "paths.checkpoint": "",
        "sampling.source_fs": 250.0, "sampling.target_fs": 0.0,
        "dataset.window_sec": 10.0, "dataset.hop_sec": 5.0, "dataset.train_ratio": 0.6,
        "dataset.val_ratio": 0.2, "dataset.test_ratio": 0.2, "dataset.dt_clip": 0.0,
        "dataset.drop_boundary": True,
        "model.levels": 5, "model.base_channels": 32, "model.conv_kernel": 3,
        "model.down_kernel": 5, "model.up_kernel": 5, "model.down_stride": 2,
        "model.entry_kernel": 7, "model.inception_kernels": (1, 3, 5),
        "model.leaky_slope": 0.01,
        "train.epochs": 300, "train.lr0": 0.001, "train.schedule_step": 100,
        "train.schedule_factor": 10.0, "train.batch_size": 16, "train.seed": 0,
        "train.shuffle": True, "train.checkpoint_every": 100,
        "eval.tol_ms": 90.0, "eval.min_prominence": 0.0, "eval.refractory_ms": 200.0,
        "eval.smoothing": 0, "eval.per_window": False,
        "synth.subjects": 3, "synth.fs": 250.0, "synth.duration_s": 60.0,
        "synth.mean_hr_bpm": 70.0, "synth.hr_jitter": 0.05, "synth.scg_noise_sigma": 0.1,
        "synth.seed": 0,
    }


@pytest.mark.parametrize("key, raw", [
    ("dataset.window_sec", "nan"),
    ("eval.tol_ms", "inf"),
    ("eval.tol_ms", "-5"),
    ("sampling.target_fs", "-5"),
    ("dataset.dt_clip", "-3"),
    ("model.leaky_slope", "-inf"),
    ("synth.fs", "NaN"),
    ("model.inception_kernels", "1,,3"),
    ("model.inception_kernels", "1,3,"),
    ("synth.subjects", "0"),
    ("synth.subjects", "-3"),
    ("train.schedule_step", "0"),
    ("train.schedule_factor", "1"),
    ("model.leaky_slope", "-1"),
    ("eval.refractory_ms", "0"),
    ("train.epochs", "0"),
    ("sampling.source_fs", "0"),
    ("dataset.train_ratio", "0"),
])
def test_malformed_value_names_key(key, raw):
    with pytest.raises(ConfigError, match=f"bad value for {key!r}"):
        RunConfig().set(key, raw)


def test_one_bound_kind_formats_every_range():
    assert [str(bound) for bound in (Bound(1), Bound(0, open_low=True),
                                     Bound(20, 250, open_low=True, open_high=True),
                                     Bound(0, 1, open_high=True))] == [
        ">= 1", "> 0", "in (20, 250)", "in [0, 1)"]


def _outside(bound):
    """Values just outside ``bound``: at or below its low end, at or above a finite high."""
    values = [bound.low if bound.open_low else bound.low - 1]
    if math.isfinite(bound.high):
        values.append(bound.high if bound.open_high else bound.high + 1)
    return values


_BOUNDED = [(cls, f, value) for cls in SECTIONS for f in filter(settable, fields(cls))
            if "bound" in f.metadata for value in _outside(f.metadata["bound"])]


@pytest.mark.parametrize("cls, f, value", _BOUNDED,
                         ids=[f"{SECTIONS[cls]}.{f.name}={value}" for cls, f, value in _BOUNDED])
def test_every_bound_checked_when_parsed_and_when_built(cls, f, value):
    key = f"{SECTIONS[cls]}.{f.name}"
    assert f.default in f.metadata["bound"]
    with pytest.raises(ConfigError, match=re.escape(f"bad value for {key!r}: must be ")):
        RunConfig().set(key, str(value))
    error = ConfigError if cls is ModelConfig else ValidationError
    required = {"input_len": 200} if cls is ModelConfig else {}
    with pytest.raises(error, match=f"^{f.name} must be .*, got {value}$"):
        cls(**required, **{f.name: value})


_FLOAT_BOUNDED = [(cls, f) for cls in SECTIONS for f in fields(cls)
                  if "bound" in f.metadata and f.type == "float"]


@pytest.mark.parametrize("cls, f", _FLOAT_BOUNDED,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in _FLOAT_BOUNDED])
def test_nan_rejected_when_built(cls, f):
    error = ConfigError if cls is ModelConfig else ValidationError
    required = {"input_len": 200} if cls is ModelConfig else {}
    with pytest.raises(error, match=f"^{f.name} must be .*, got nan$"):
        cls(**required, **{f.name: math.nan})


def test_non_utf8_config_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("train.epochs = 7  # r\xe9glage\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not valid UTF-8")):
        load_config(path)


def test_readme_minimal_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A minimal desk-scale `run.cfg`:\n\n```\n(.*?)```", readme, re.S)
    path = tmp_path / "run.cfg"
    path.write_text(block.group(1))
    cfg = load_config(path)
    assert cfg["model.levels"] == 3
    assert cfg.section(ModelConfig, input_len=200).base_channels == 8


def test_readme_cli_section_names_every_config_section():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert [cls.__name__ for cls in SECTIONS if f"`{cls.__name__}`" not in cli_section] == []


_LINE = st.tuples(st.sampled_from([*SCHEMA, "train.warmup", "model.input_len", ""]),
                  st.one_of(st.text(max_size=12),
                            st.sampled_from(["nan", "-inf", "1e999", "1,,3", "-3", "0",
                                             "true", "3", "0.5", "1,3,5"])))
_CONFIG_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(_LINE, max_size=6).map(
        lambda lines: "".join(f"{key} = {value}\n" for key, value in lines).encode()),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CONFIG_BYTES)
def test_any_config_bytes_load_or_raise_config_error(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        assert isinstance(load_config(path), RunConfig)
    except ConfigError:
        pass


@pytest.mark.parametrize("annotation, value", [
    ("int", -7), ("int | None", 4), ("float", 0.1), ("float", 1e-05), ("bool", False),
    ("tuple[int, ...]", (1, 3, 5)),
])
def test_field_codec_round_trip(annotation, value):
    parse, fmt = CODECS[annotation]
    assert parse(fmt(value)) == value
