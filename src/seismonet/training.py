"""Minibatch SGD training of the network on windowed datasets."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import save_checkpoint
from .errors import NumericError, ValidationError
from .fieldcodec import Bounded, bounded
from .model import SeismoNet
from .nn import SignalTensor, Tape, lr_schedule, sgd_step, smooth_l1_loss
from .windows import DatasetSplit, Window


@dataclass(frozen=True)
class TrainConfig(Bounded):
    epochs: int = field(default=300, metadata=bounded(1))
    lr0: float = field(default=0.001, metadata=bounded(0, open_low=True))
    schedule_step: int = field(default=100, metadata=bounded(1))
    schedule_factor: float = field(default=10.0, metadata=bounded(1, open_low=True))
    batch_size: int = field(default=16, metadata=bounded(1))
    seed: int = 0
    shuffle: bool = True
    checkpoint_every: int = field(default=100, metadata=bounded(0))  # 0: none


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "lr", "train_loss", "val_loss"])
            for r in self.records:
                writer.writerow([r.epoch, repr(r.lr), repr(r.train_loss), repr(r.val_loss)])


def _stack_batch(windows: Sequence[Window], dtype) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.stack([w.scg_seg for w in windows]).astype(dtype)[:, None, :]
    targets = np.stack([w.target_dt for w in windows]).astype(dtype)[:, None, :]
    return inputs, targets


def _check_labeled(windows: Sequence[Window], role: str) -> None:
    for w in windows:
        if not w.labeled:
            raise ValidationError(
                f"{role} window (subject={w.subject_id!r}, start={w.start}) "
                f"carries no distance-transform target")


def evaluate_loss(model: SeismoNet, windows: Sequence[Window],
                  batch_size: int = 16) -> float:
    """Mean smooth-L1 loss over windows, in inference mode.

    Predicts through ``model.predict``, so batches use a second core as
    record inference does. Leaves parameters and running statistics
    untouched.
    """
    if not windows:
        raise ValidationError("cannot evaluate loss on an empty window collection")
    _check_labeled(windows, "evaluation")
    total = 0.0
    count = 0
    for lo in range(0, len(windows), batch_size):
        chunk = windows[lo:lo + batch_size]
        inputs, targets = _stack_batch(chunk, model.dtype)
        pred = SignalTensor(model.predict(inputs))
        loss = smooth_l1_loss(pred, targets)
        total += loss * len(chunk)
        count += len(chunk)
    return total / count


def train(model: SeismoNet, split: DatasetSplit, cfg: TrainConfig,
          checkpoint_dir: str | Path | None = None) -> tuple[SeismoNet, TrainHistory]:
    """Optimize the model on split.train, tracking split.val each epoch.

    Each epoch applies a seed-derived shuffle (when enabled), runs
    minibatch forward/backward/SGD steps at the scheduled learning rate,
    then records the epoch's sample-weighted mean train loss and the
    validation loss. With ``checkpoint_dir`` set, writes ``model_final``
    plus periodic and best-validation checkpoints.
    """
    if not split.train:
        raise ValidationError("training split is empty")
    _check_labeled(split.train, "training")
    if split.val:
        _check_labeled(split.val, "validation")

    history = TrainHistory()
    best_val = np.inf
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    order = np.arange(len(split.train))
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.lr0, cfg.schedule_step, cfg.schedule_factor)
        if cfg.shuffle:
            order = np.random.default_rng([cfg.seed, epoch]).permutation(len(split.train))

        total = 0.0
        seen = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [split.train[i] for i in order[lo:lo + cfg.batch_size]]
            inputs, targets = _stack_batch(batch, model.dtype)
            tape = Tape()
            pred = model.forward(SignalTensor(inputs, requires_grad=False), tape=tape,
                                 training=True)
            loss = smooth_l1_loss(pred, targets, tape)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss {loss} at epoch {epoch}, "
                    f"batch starting at index {lo}")
            tape.backward()
            sgd_step(model.params, lr)
            total += loss * len(batch)
            seen += len(batch)

        val_loss = evaluate_loss(model, split.val, cfg.batch_size) if split.val else float("nan")
        history.append(EpochRecord(epoch, lr, total / seen, val_loss))
        model.trained_epochs = epoch + 1

        if checkpoint_dir is not None:
            if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(model, checkpoint_dir / f"model_epoch{epoch + 1:04d}.smn")
            if split.val and val_loss < best_val:
                best_val = val_loss
                save_checkpoint(model, checkpoint_dir / "model_best.smn")

    if checkpoint_dir is not None:
        save_checkpoint(model, checkpoint_dir / "model_final.smn")
    return model, history
