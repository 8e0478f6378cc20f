"""Flat binary checkpoints of a trained labeler (format in docs/checkpoint.md).

A checkpoint stores a JSON metadata block (the labeler config, plus the
normalization statistics, feature kind and frame timing of the training
features) followed by named tensors in 32- or 64-bit little-endian floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct

import numpy as np

from .features import FeatureError, NormStats
from .labeler import LabelerConfig, TrainedLabeler, param_shapes

CHECKPOINT_MAGIC = b"CBCK"
CHECKPOINT_VERSION = 2
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
    and the part cut short; so does metadata that is not a UTF-8 JSON
    object, or whose ``config`` keys differ from :class:`LabelerConfig`'s
    fields, or whose ``config`` or ``extra`` values fail the checks of
    :class:`LabelerConfig`, :class:`NormStats` or :class:`TrainedLabeler`.
    Each tensor's name and shape are checked against :func:`param_shapes`,
    without building a model, before its values are read; a repeated or
    missing tensor, or one with a NaN or infinite value, is rejected by
    name.  When the tensors of the ``config`` need more bytes than the
    whole file holds, a disagreement is reported as that config's fault.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n, part):
            # Checked first, so that a corrupt length never asks for more
            # memory than the file holds.
            if fh.tell() + n > size:
                raise CheckpointError(f"{path}: truncated {part}")
            return fh.read(n)

        if fh.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, blob_len = struct.unpack("<II", read(8, "header"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        try:
            meta = json.loads(read(blob_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"{path}: metadata is not UTF-8 JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: metadata is not a JSON object")
        for key in ("config", "extra"):
            if not isinstance(meta.get(key, {}), dict):
                raise CheckpointError(f"{path}: {key} is not a JSON object")
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
        try:  # the params are filled in once they are read
            model = TrainedLabeler(
                config, {}, NormStats(extra["mean"], extra["std"]),
                extra["bin_kind"], extra["hop_samples"], extra["sample_rate_hz"])
        except FeatureError as exc:
            raise CheckpointError(f"{path}: extra: {exc}") from None
        # The shapes are walked only until their values, at 4 bytes or more
        # each, outgrow the file, so a huge config allocates nothing.  Once
        # the file's tensors disagree with such a config, the config is named.
        expected, need = {}, 0
        for name, shape in param_shapes(config):
            if need > size:
                break
            expected[name] = shape
            need += 4 * math.prod(shape)

        def disagree(message):
            if need > size:
                message = (f"config: its tensors need more than the {size} "
                           "bytes the file holds")
            return CheckpointError(f"{path}: {message}")

        (n_tensors,) = struct.unpack("<I", read(4, "tensor count"))
        params = {}
        for i in range(n_tensors):
            (name_len,) = struct.unpack("<H", read(2, f"name length of tensor {i}"))
            # An undecodable byte becomes U+FFFD, which no expected name holds.
            name = read(name_len, f"name of tensor {i}").decode("utf-8",
                                                                "replace")
            if name not in expected:
                raise disagree(f"unexpected tensor {name!r}")
            if name in params:
                raise CheckpointError(f"{path}: tensor {name!r} repeated")
            width, ndim = struct.unpack("<BB", read(2, f"layout of tensor {name!r}"))
            if width not in (4, 8):
                raise CheckpointError(
                    f"{path}: tensor {name!r} has unsupported width {width}")
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"shape of tensor {name!r}"))
            if shape != expected[name]:
                raise disagree(f"tensor {name!r} has shape {shape}, "
                               f"expected {expected[name]}")
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(read(width * count, f"tensor {name!r}"),
                                 dtype=f"<f{width}")
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {name!r} is not finite")
            dtype = np.float32 if width == 4 else np.float64
            params[name] = data.reshape(shape).astype(dtype)
        for name in expected:
            if name not in params:
                raise disagree(f"tensor {name!r} missing")
    return dataclasses.replace(model, params=params)
