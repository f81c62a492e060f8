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
from pathlib import Path

import numpy as np

from .errors import RecordFormatError, ValidationError
from .model import ModelConfig, SeismoNet, build_model

MAGIC = b"SMN1"
VERSION = 1


def _config_text(config: ModelConfig, epoch: int) -> str:
    lines = [
        f"input_len={config.input_len}",
        f"levels={config.levels}",
        f"base_channels={config.base_channels}",
        f"conv_kernel={config.conv_kernel}",
        f"down_kernel={config.down_kernel}",
        f"up_kernel={config.up_kernel}",
        f"down_stride={config.down_stride}",
        f"entry_channels={config.resolved_entry_channels}",
        f"entry_kernel={config.entry_kernel}",
        f"inception_kernels={','.join(str(k) for k in config.inception_kernels)}",
        f"leaky_slope={config.leaky_slope!r}",
        f"bn_momentum={config.bn_momentum!r}",
        f"bn_eps={config.bn_eps!r}",
        f"epoch={epoch}",
    ]
    return "\n".join(lines) + "\n"


def _parse_config_text(text: str, path: Path) -> tuple[ModelConfig, int]:
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise RecordFormatError(f"{path}: malformed config line {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        epoch = int(fields.pop("epoch", "0"))
        config = ModelConfig(
            input_len=int(fields["input_len"]),
            levels=int(fields["levels"]),
            base_channels=int(fields["base_channels"]),
            conv_kernel=int(fields["conv_kernel"]),
            down_kernel=int(fields["down_kernel"]),
            up_kernel=int(fields["up_kernel"]),
            down_stride=int(fields["down_stride"]),
            entry_channels=int(fields["entry_channels"]),
            entry_kernel=int(fields["entry_kernel"]),
            inception_kernels=tuple(
                int(k) for k in fields["inception_kernels"].split(",")),
            leaky_slope=float(fields["leaky_slope"]),
            bn_momentum=float(fields["bn_momentum"]),
            bn_eps=float(fields["bn_eps"]),
        )
    except KeyError as exc:
        raise RecordFormatError(f"{path}: config block missing field {exc}") from None
    except ValueError as exc:
        raise RecordFormatError(f"{path}: bad config value: {exc}") from None
    return config, epoch


def _write_tensor(fh, name: str, values: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", values.ndim))
    for dim in values.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def save_checkpoint(model: SeismoNet, path: str | Path, epoch: int | None = None) -> None:
    """Write config, parameters, and running statistics to ``path``."""
    path = Path(path)
    epoch = model.trained_epochs if epoch is None else epoch
    config_block = _config_text(model.config, epoch).encode("utf-8")
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

    def u32(self) -> int:
        return struct.unpack("<I", self.exact(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.exact(8))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return self.exact(n).decode("utf-8")
        except UnicodeDecodeError:
            raise RecordFormatError(f"{self.path}: {what} is not valid UTF-8") from None


def load_checkpoint(path: str | Path, dtype=np.float32) -> SeismoNet:
    """Reconstruct a model from a checkpoint file."""
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
        model = build_model(config, seed=0, dtype=dtype)
        model.trained_epochs = epoch

        params = dict(model.params.items())
        # The shape each tensor must have, checked before its payload is read,
        # so a corrupted dim cannot request an oversized read.
        shapes = {name: p.values.shape for name, p in params.items()}
        shapes.update((name, values.shape) for name, values in model.named_buffers())
        seen: set[str] = set()
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise RecordFormatError(f"{path}: truncated checkpoint file")
            name = reader.text(struct.unpack("<I", head)[0], "tensor name")
            if name not in shapes:
                raise RecordFormatError(f"{path}: unexpected tensor {name!r}")
            shape = shapes[name]
            rank = reader.u32()
            if rank != len(shape):
                raise ValidationError(
                    f"{path}: tensor {name!r} has rank {rank}, config implies {len(shape)}")
            dims = tuple(reader.u64() for _ in range(rank))
            if dims != shape:
                raise ValidationError(
                    f"{path}: tensor {name!r} has shape {dims}, config implies {shape}")
            raw = reader.exact(4 * int(np.prod(shape, dtype=np.int64)))
            values = np.frombuffer(raw, dtype="<f4").reshape(shape)
            if name in params:
                param = params[name]
                param.values = values.astype(model.dtype)
                param.grad = np.zeros_like(param.values)
            else:
                model.set_buffer(name, values)
            seen.add(name)

    missing = set(shapes) - seen
    if missing:
        raise RecordFormatError(
            f"{path}: checkpoint is missing tensors: {sorted(missing)[:4]}...")
    return model
