"""Flat binary checkpoints of a trained labeler (format in docs/checkpoint.md).

A checkpoint stores a JSON metadata block (the labeler config, plus the
normalization statistics, feature kind and frame timing of the training
features) followed by named tensors in 32- or 64-bit little-endian floats.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .features import NormStats
from .labeler import LabelerConfig, TrainedLabeler, init_params

CHECKPOINT_MAGIC = b"CBCK"
CHECKPOINT_VERSION = 1
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(LabelerConfig))
_EXTRA_KEYS = ("mean", "std", "bin_kind", "hop_samples", "sample_rate_hz")


class CheckpointError(ValueError):
    """Raised for unreadable or inconsistent checkpoint files."""


def save_checkpoint(path, model: TrainedLabeler) -> None:
    extra = {"mean": model.stats.mean, "std": model.stats.std,
             "bin_kind": model.bin_kind, "hop_samples": model.hop_samples,
             "sample_rate_hz": model.sample_rate_hz}
    meta = {"config": dataclasses.asdict(model.config), "extra": extra}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(model.params)))
        for name, tensor in model.params.items():
            data = np.asarray(tensor)
            if data.dtype == np.float32:
                width = 4
            elif data.dtype == np.float64:
                width = 8
            else:
                raise CheckpointError(
                    f"tensor {name!r} has unsupported dtype {data.dtype}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", width, data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(np.ascontiguousarray(data, dtype=f"<f{width}").tobytes())


def load_checkpoint(path) -> TrainedLabeler:
    """The :class:`TrainedLabeler` stored in ``path``.

    A file that ends early raises :class:`CheckpointError` naming the path
    and the part cut short; so does metadata whose ``config`` keys differ
    from :class:`LabelerConfig`'s fields or whose ``extra`` lacks a key, and
    a tensor set whose names or shapes differ from ``init_params(config)``.
    """
    with open(path, "rb") as fh:
        def read(size, part):
            data = fh.read(size)
            if len(data) != size:
                raise CheckpointError(f"{path}: truncated {part}")
            return data

        if fh.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, blob_len = struct.unpack("<II", read(8, "header"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        meta = json.loads(read(blob_len, "metadata").decode("utf-8"))
        fields = meta.get("config", {})
        if set(fields) != _CONFIG_KEYS:
            raise CheckpointError(
                f"{path}: config keys differ from LabelerConfig: unknown "
                f"{sorted(set(fields) - _CONFIG_KEYS)}, missing "
                f"{sorted(_CONFIG_KEYS - set(fields))}")
        try:
            config = LabelerConfig(**fields)
        except ValueError as exc:
            raise CheckpointError(f"{path}: config: {exc}") from None
        extra = meta.get("extra", {})
        missing = [key for key in _EXTRA_KEYS if key not in extra]
        if missing:
            raise CheckpointError(f"{path}: extra lacks {', '.join(missing)}")
        (n_tensors,) = struct.unpack("<I", read(4, "tensor count"))
        params = {}
        for i in range(n_tensors):
            (name_len,) = struct.unpack("<H", read(2, f"name length of tensor {i}"))
            name = read(name_len, f"name of tensor {i}").decode("utf-8")
            width, ndim = struct.unpack("<BB", read(2, f"layout of tensor {name!r}"))
            if width not in (4, 8):
                raise CheckpointError(
                    f"{path}: tensor {name!r} has unsupported width {width}")
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"shape of tensor {name!r}"))
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(read(width * count, f"tensor {name!r}"),
                                 dtype=f"<f{width}")
            dtype = np.float32 if width == 4 else np.float64
            params[name] = data.reshape(shape).astype(dtype)
    expected = {name: p.shape for name, p in init_params(config).items()}
    for name in params:
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        if params[name].shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {params[name].shape}, "
                f"expected {expected[name]}")
    for name in expected:
        if name not in params:
            raise CheckpointError(f"{path}: tensor {name!r} missing")
    return TrainedLabeler(config, params, NormStats(extra["mean"], extra["std"]),
                          extra["bin_kind"], extra["hop_samples"],
                          extra["sample_rate_hz"])
