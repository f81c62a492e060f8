"""Binary checkpoint serialization.

Layout: magic ``SMN1``, format version (u32 LE), a length-prefixed UTF-8
key=value config block, then one entry per tensor (parameters in store
order, then batch-norm running statistics): name length (u32 LE), name
(UTF-8), rank (u32 LE), dims (u64 LE each), raw float32 LE values. A
loaded model reproduces the saved model's forward outputs bit for bit.
"""
from __future__ import annotations

import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, RecordFormatError, ValidationError
from .fieldcodec import formatter, parser
from .model import ModelConfig, SeismoNet

MAGIC = b"SMN1"
VERSION = 1
PAYLOAD_DTYPE = np.dtype("<f4")


def _config_text(config: ModelConfig, epoch: int) -> str:
    lines = [f"{field.name}={formatter(field)(getattr(config, field.name))}"
             for field in fields(ModelConfig)]
    return "\n".join([*lines, f"epoch={epoch}"]) + "\n"


def _parse_config_text(text: str, path: Path) -> tuple[ModelConfig, int]:
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise RecordFormatError(f"{path}: malformed config line {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    key = "epoch"
    try:
        epoch = int(values.pop(key, "0"))
        parsed = {}
        for field in fields(ModelConfig):
            key = field.name
            parsed[key] = parser(field)(values[key])
    except KeyError:
        raise RecordFormatError(f"{path}: config block missing field {key!r}") from None
    except ValueError as exc:
        raise RecordFormatError(f"{path}: bad config value for {key!r}: {exc}") from None
    try:
        return ModelConfig(**parsed), epoch
    except ConfigError as exc:
        raise RecordFormatError(f"{path}: bad config: {exc}") from None


def _write_tensor(fh, name: str, values: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", values.ndim))
    for dim in values.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(values, dtype=PAYLOAD_DTYPE).tobytes())


def save_checkpoint(model: SeismoNet, path: str | Path) -> None:
    """Write config, ``model.trained_epochs``, parameters, and running statistics."""
    path = Path(path)
    config_block = _config_text(model.config, model.trained_epochs).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(config_block)))
        fh.write(config_block)
        for name, param in model.params.items():
            _write_tensor(fh, name, param.values)
        for name, values in model.named_buffers():
            _write_tensor(fh, name, values)


class _Reader:
    def __init__(self, fh, path: Path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def exact(self, n: int) -> bytes:
        # A corrupted length fails here, before a buffer of that size exists.
        data = self.fh.read(n) if n <= self.size - self.fh.tell() else b""
        if len(data) != n:
            raise RecordFormatError(f"{self.path}: truncated checkpoint file")
        return data

    def fill(self, array: np.ndarray) -> None:
        """Read the next ``array.size`` float32 LE values into ``array``."""
        if array.dtype != PAYLOAD_DTYPE:
            array[...] = np.frombuffer(self.exact(array.size * PAYLOAD_DTYPE.itemsize),
                                       dtype=PAYLOAD_DTYPE).reshape(array.shape)
        elif self.fh.readinto(memoryview(array).cast("B")) != array.nbytes:
            raise RecordFormatError(f"{self.path}: truncated checkpoint file")

    def u32(self) -> int:
        return struct.unpack("<I", self.exact(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.exact(8))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return self.exact(n).decode("utf-8")
        except UnicodeDecodeError:
            raise RecordFormatError(f"{self.path}: {what} is not valid UTF-8") from None


def load_checkpoint(path: str | Path) -> SeismoNet:
    """Reconstruct a float32 model from a checkpoint file.

    The config block declares the model's arrays and the payloads fill them:
    no initializer runs, and on a little-endian machine each payload is read
    straight into its array.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        if reader.exact(4) != MAGIC:
            raise RecordFormatError(f"{path}: not a checkpoint file (bad magic)")
        version = reader.u32()
        if version != VERSION:
            raise RecordFormatError(
                f"{path}: unsupported checkpoint version {version}, expected {VERSION}")
        config_block = reader.text(reader.u32(), "config block")
        config, epoch = _parse_config_text(config_block, path)
        model = SeismoNet(config)
        model.trained_epochs = epoch

        # The array of each tensor. Its shape is checked before its payload
        # is read, so a corrupted dim cannot request an oversized read.
        arrays = {name: param.values for name, param in model.params.items()}
        arrays.update(model.named_buffers())
        seen: set[str] = set()
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise RecordFormatError(f"{path}: truncated checkpoint file")
            name = reader.text(struct.unpack("<I", head)[0], "tensor name")
            if name not in arrays:
                raise RecordFormatError(f"{path}: unexpected tensor {name!r}")
            shape = arrays[name].shape
            rank = reader.u32()
            if rank != len(shape):
                raise ValidationError(
                    f"{path}: tensor {name!r} has rank {rank}, config implies {len(shape)}")
            dims = tuple(reader.u64() for _ in range(rank))
            if dims != shape:
                raise ValidationError(
                    f"{path}: tensor {name!r} has shape {dims}, config implies {shape}")
            reader.fill(arrays[name])
            seen.add(name)

    missing = set(arrays) - seen
    if missing:
        raise RecordFormatError(
            f"{path}: checkpoint is missing tensors: {sorted(missing)[:4]}...")
    return model
