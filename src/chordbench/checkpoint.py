"""Flat binary checkpoints of a trained labeler (format in docs/checkpoint.md).

A checkpoint stores a JSON metadata block (the labeler config, plus the
normalization statistics and feature kind of the training features)
followed by every parameter as little-endian float32, in
:func:`~chordbench.labeler.param_shapes` order.
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
CHECKPOINT_VERSION = 3
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(LabelerConfig))
_EXTRA_KEYS = ("mean", "std", "bin_kind")


class CheckpointError(ValueError):
    """Raised for unreadable or inconsistent checkpoint files."""


def save_checkpoint(path, model: TrainedLabeler) -> None:
    """Write ``model`` to ``path``.

    The model's tensors must be exactly those of :func:`param_shapes`, each
    float32 of its listed shape; otherwise :class:`CheckpointError` names
    the path and the tensor, and nothing is written.
    """
    shapes = dict(param_shapes(model.config))
    if model.params.keys() != shapes.keys():
        raise CheckpointError(
            f"{path}: tensors differ from param_shapes: unknown "
            f"{sorted(model.params.keys() - shapes.keys())}, missing "
            f"{sorted(shapes.keys() - model.params.keys())}")
    for name, shape in shapes.items():
        tensor = model.params[name]
        if tensor.dtype != np.float32:
            raise CheckpointError(f"{path}: tensor {name!r} has dtype "
                                  f"{tensor.dtype}, expected float32")
        if tensor.shape != shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                  f"{tensor.shape}, expected {shape}")
    extra = {"mean": model.stats.mean, "std": model.stats.std,
             "bin_kind": model.bin_kind}
    meta = {"config": dataclasses.asdict(model.config), "extra": extra}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for name in shapes:
            fh.write(model.params[name].astype("<f4", copy=False).tobytes())


def load_checkpoint(path) -> TrainedLabeler:
    """The :class:`TrainedLabeler` stored in ``path``.

    Every error raises :class:`CheckpointError` naming the path: a header
    or metadata block that ends early; metadata that is not a UTF-8 JSON
    object, whose ``config`` keys differ from :class:`LabelerConfig`'s
    fields, or whose ``config`` or ``extra`` values fail the checks of
    :class:`LabelerConfig`, :class:`NormStats` or :class:`TrainedLabeler`;
    a tensor block, the bytes after the metadata, whose length is not the 4
    bytes per value that :func:`param_shapes` lists for the ``config`` (the
    shapes are walked only until they need more than the block holds, and
    the error then gives that partial sum as "at least"); and a NaN or
    infinite value, naming the first tensor with one.
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
        try:
            stats = NormStats(extra["mean"], extra["std"])
        except FeatureError as exc:
            raise CheckpointError(f"{path}: extra: {exc}") from None
        have, need, shapes = size - fh.tell(), 0, param_shapes(config)
        for _, shape in shapes:
            need += 4 * math.prod(shape)
            if need > have:
                break
        if need != have:
            # Past the block's end the walk stops: ``need`` is then a floor,
            # exact only if no tensor is left.
            least = "" if next(shapes, None) is None else "at least "
            raise CheckpointError(f"{path}: tensor block holds {have} bytes, "
                                  f"config needs {least}{need}")
        values = np.frombuffer(fh.read(need), dtype="<f4").astype(np.float32)
    params, offset = {}, 0
    for name, shape in param_shapes(config):
        tensor = values[offset:offset + math.prod(shape)].reshape(shape)
        if not np.isfinite(tensor).all():
            raise CheckpointError(f"{path}: tensor {name!r} is not finite")
        params[name] = tensor
        offset += tensor.size
    try:
        return TrainedLabeler(config, params, stats, extra["bin_kind"])
    except FeatureError as exc:
        raise CheckpointError(f"{path}: extra: {exc}") from None
