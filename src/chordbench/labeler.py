"""Trainable self-attention sequence labeler with exact manual gradients.

A deliberately small encoder-only network for frame-wise chord
classification, written directly in numpy so the whole forward/backward
path is inspectable and checkable against finite differences:

    input projection -> sinusoidal positional encoding ->
    n_layers x [multi-head self-attention + residual + layer norm,
                2-layer feed-forward + residual + layer norm] ->
    linear classifier (one score row per frame)

The feed-forward hidden width is twice the model width.  Loss is masked
mean softmax cross-entropy over frames; padded frames are excluded.  All
computation runs in the dtype of the parameters: float64 serves gradient
checks, and :func:`train` always computes in float32.

Training runs each batch as one ``(items, frames, bins)`` stack, forward
and backward, with the floats of one pass per item (see
:func:`loss_and_grad`).  Where the process's CPU affinity holds two or
more CPUs, a gradient step's two halves run at the same time, one in the
calling thread and one in a helper thread joined before the call returns,
with OpenBLAS on one thread meanwhile; the floats stay those of one pass
per item.  Only a validation set is swept forward between epochs, one
unsplit stack at a time, for early stopping; without one, :func:`train`
runs every epoch and keeps the last parameters.

Each elementwise step makes one pass over an array: bias adds, residual
adds, the softmax and the layer-norm arithmetic update their operand in
place.  They do so only on arrays the function has just computed, never on
``params``, on the caller's inputs (``np.asarray`` hands back the caller's
array when its dtype already matches) or on the read-only positional table.

:func:`fit` trains the network on ``(features, labels)`` pairs and returns a
:class:`TrainedLabeler`, which keeps the z-score and the feature kind of
its training data; ``chordbench train``, ``chordbench predict`` and the
harness all train and label through these two.  Like the template recognizer,
:meth:`TrainedLabeler.recognize` hands its ``(frames, 25)`` scores to
:func:`~chordbench.features.decode_scores`.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .annotations import SegmentTrack
from .features import (BIN_KINDS, WINDOW_FRAMES, FeatureError, FeatureMatrix,
                       NormStats, check_labels, decode_scores, window_slices,
                       zscore_apply, zscore_fit)
from .labels import N_MAJMIN_CLASSES
from .templates import fold_to_chroma
from .workers import blas_threads_at_most

LN_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# :func:`fit`'s training hyperparameters at ``chordbench train``'s defaults.
DEFAULTS = {"model_dim": 64, "n_layers": 2, "n_heads": 4, "lr": 1e-3,
            "batch_size": 8, "max_epochs": 50, "patience": 5}


class TrainingError(RuntimeError):
    """Raised when optimization produces a non-finite loss."""


@dataclass(frozen=True)
class LabelerConfig:
    input_dim: int
    model_dim: int
    n_layers: int
    n_heads: int
    seed: int

    def __post_init__(self):
        for f in fields(self):
            _check_value(f.name, getattr(self, f.name), f.name)
        _check_divisible(self.model_dim, self.n_heads)

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads

    @property
    def ff_dim(self) -> int:
        return 2 * self.model_dim


@dataclass
class SequenceExample:
    """One training sequence: inputs (frames x dims), targets, valid mask."""

    inputs: np.ndarray
    targets: np.ndarray
    mask: np.ndarray | None = None

    def valid_mask(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(len(self.targets), dtype=bool)
        return np.asarray(self.mask, dtype=bool)


def windowed_examples(tracks):
    """``(examples, norm_stats)`` from a list of ``(features, labels)`` pairs.

    The z-score is fitted on all pairs and applied once per track in
    float64; the result is cast once to float32, the dtype :func:`train`
    computes in, and cut by :func:`~chordbench.features.window_slices`.  A
    full window's inputs are a float32 view of that one array per track;
    the window that runs past the end is copied, zero-padded to
    ``WINDOW_FRAMES`` and its tail masked out.
    """
    stats = zscore_fit([feats for feats, _ in tracks])
    examples = []
    for feats, labels in tracks:
        normed = zscore_apply(feats, stats).values.astype(np.float32)
        for window in window_slices(len(normed)):
            inputs = normed[window]
            n = len(inputs)
            if n < WINDOW_FRAMES:
                inputs = np.pad(inputs, ((0, WINDOW_FRAMES - n), (0, 0)))
            targets = np.zeros(WINDOW_FRAMES, dtype=np.int64)
            targets[:n] = labels[window]
            examples.append(SequenceExample(inputs, targets,
                                            np.arange(WINDOW_FRAMES) < n))
    return examples, stats


@dataclass
class TrainReport:
    """Per-epoch training trace (see :func:`train`).

    ``losses`` holds the mean training-batch loss.  With a validation set,
    ``val_losses`` and ``accuracies`` hold its loss and frame accuracy;
    without one, ``val_losses`` stays empty and ``accuracies`` holds the
    frame accuracy of the epoch's steps on the training windows.
    """

    losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.losses)


def param_shapes(config: LabelerConfig):
    """``(name, shape)`` of each parameter, in :func:`init_params` order.

    A generator, so that a caller can stop before a huge config has been
    walked to its end.
    """
    d, f = config.model_dim, config.ff_dim
    yield "in_proj.w", (config.input_dim, d)
    yield "in_proj.b", (d,)
    for i in range(config.n_layers):
        p = f"layers.{i}"
        for name in ("wq", "wk", "wv", "wo"):
            yield f"{p}.attn.{name}", (d, d)
        for name in ("bq", "bk", "bv", "bo"):
            yield f"{p}.attn.{name}", (d,)
        yield from ((f"{p}.ln1.g", (d,)), (f"{p}.ln1.b", (d,)),
                    (f"{p}.ff.w1", (d, f)), (f"{p}.ff.b1", (f,)),
                    (f"{p}.ff.w2", (f, d)), (f"{p}.ff.b2", (d,)),
                    (f"{p}.ln2.g", (d,)), (f"{p}.ln2.b", (d,)))
    yield "classifier.w", (d, N_MAJMIN_CLASSES)
    yield "classifier.b", (N_MAJMIN_CLASSES,)


def init_params(config: LabelerConfig, dtype=np.float32) -> dict:
    """Seeded parameter initialization.

    Weight matrices are drawn ~ N(0, 1/fan_in) in :func:`param_shapes`
    order; layer-norm gains (``.g``) start at 1 and biases at 0.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = {}
    for name, shape in param_shapes(config):
        if len(shape) == 2:
            params[name] = (rng.standard_normal(shape)
                            / np.sqrt(shape[0])).astype(dtype)
        else:
            params[name] = np.full(shape, 1.0 if name.endswith(".g") else 0.0,
                                   dtype=dtype)
    return params


def count_params(params: dict) -> int:
    return sum(v.size for v in params.values())


def flatten_params(params: dict) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in params])


def unflatten_params(template: dict, vector: np.ndarray) -> dict:
    out = {}
    offset = 0
    for k, v in template.items():
        out[k] = vector[offset:offset + v.size].reshape(v.shape).astype(v.dtype)
        offset += v.size
    return out


def positional_encoding(n_frames: int, dim: int, dtype) -> np.ndarray:
    """Sinusoidal position features, shape (n_frames, dim).

    ``forward`` needs the same table on every call, so tables are memoized
    per ``(n_frames, dim, dtype)`` and returned read-only.
    """
    return _positional_table(int(n_frames), int(dim), np.dtype(dtype))


@functools.lru_cache(maxsize=16)
def _positional_table(n_frames: int, dim: int, dtype: np.dtype) -> np.ndarray:
    pos = np.arange(n_frames)[:, None].astype(np.float64)
    idx = np.arange(0, dim, 2).astype(np.float64)
    rates = np.exp(-idx * np.log(10000.0) / dim)
    pe = np.zeros((n_frames, dim))
    pe[:, 0::2] = np.sin(pos * rates)
    pe[:, 1::2] = np.cos(pos * rates[: pe[:, 1::2].shape[1]])
    pe = pe.astype(dtype)
    pe.setflags(write=False)
    return pe


def _layer_norm(x, g, b):
    """Layer norm of the fresh array ``x``, which becomes ``xhat`` in place."""
    x -= x.mean(axis=-1, keepdims=True)
    var = np.einsum("...j,...j->...", x, x)[..., None] / x.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    x *= inv
    y = x * g
    y += b
    return y, (x, inv, g)


def _layer_norm_backward(dy, cache):
    """``(dx, dg, db)`` of a stack; ``dg`` and ``db`` hold a part per item."""
    xhat, inv, g = cache
    n = dy.shape[-1]
    dg = np.einsum("...ij,...ij->...j", dy, xhat)
    db = _bias_grad(dy)
    dx = dy * g  # the gradient for xhat, turned into that for x in place
    mean_dxhat_xhat = np.einsum("...j,...j->...", dx, xhat)[..., None] / n
    dx -= dx.sum(axis=-1, keepdims=True) / n
    dx -= xhat * mean_dxhat_xhat
    dx *= inv
    return dx, dg, db


def _softmax_inplace(x):
    """Softmax over the last axis of the fresh array ``x``, in place."""
    x -= np.fmax.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _log_softmax(scores):
    """Float64 log-softmax over the last axis, in a new array."""
    z = np.array(scores, dtype=np.float64)
    z -= z.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def _split_heads(x, n_heads):
    """``(..., frames, d)`` to ``(..., heads, frames, d / heads)``."""
    *lead, t, d = x.shape
    return np.ascontiguousarray(
        x.reshape(*lead, t, n_heads, d // n_heads).swapaxes(-3, -2))


def _merge_heads(x):
    *lead, h, t, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, t, h * dh)


def forward(params: dict, config: LabelerConfig, inputs: np.ndarray,
            return_state: bool = False):
    """Per-frame class scores, shape (frames, 25).

    ``inputs`` are one item's ``(frames, bins)`` or a stack ``(items,
    frames, bins)`` of equal-length items, whose scores are ``(items,
    frames, 25)``.  Every step acts on each item alone, so a stack's scores
    and state equal each item's own bit for bit.  With ``return_state``
    also returns the cache of intermediate values (including per-layer
    attention weights under key ``attn.{i}``) used by the backward pass.
    """
    x = np.asarray(inputs, dtype=params["in_proj.w"].dtype)
    if x.ndim not in (2, 3) or x.shape[-1] != config.input_dim:
        raise ValueError(f"expected (frames, {config.input_dim}) inputs or a "
                         f"stack of them, got {x.shape}")
    state = {"x": x}
    h = x @ params["in_proj.w"]
    h += params["in_proj.b"]
    h += positional_encoding(h.shape[-2], config.model_dim, h.dtype)
    scale = 1.0 / math.sqrt(config.head_dim)  # a Python float keeps the dtype
    for i in range(config.n_layers):
        p = f"layers.{i}"
        state[f"h_in.{i}"] = h
        q = h @ params[f"{p}.attn.wq"]
        q += params[f"{p}.attn.bq"]
        q *= scale
        k = h @ params[f"{p}.attn.wk"]
        k += params[f"{p}.attn.bk"]
        v = h @ params[f"{p}.attn.wv"]
        v += params[f"{p}.attn.bv"]
        qh = _split_heads(q, config.n_heads)
        kh = _split_heads(k, config.n_heads)
        vh = _split_heads(v, config.n_heads)
        attn = _softmax_inplace(qh @ kh.swapaxes(-1, -2))
        ctx = _merge_heads(attn @ vh)
        r1 = ctx @ params[f"{p}.attn.wo"]
        r1 += params[f"{p}.attn.bo"]
        r1 += h
        h1, ln1_cache = _layer_norm(r1, params[f"{p}.ln1.g"],
                                    params[f"{p}.ln1.b"])
        u = h1 @ params[f"{p}.ff.w1"]
        u += params[f"{p}.ff.b1"]
        np.maximum(u, 0.0, out=u)
        r2 = u @ params[f"{p}.ff.w2"]
        r2 += params[f"{p}.ff.b2"]
        r2 += h1
        h2, ln2_cache = _layer_norm(r2, params[f"{p}.ln2.g"],
                                    params[f"{p}.ln2.b"])
        state[f"attn.{i}"] = attn
        state[f"layer.{i}"] = (qh, kh, vh, ctx, ln1_cache, h1, u, ln2_cache)
        h = h2
    state["h_final"] = h
    scores = h @ params["classifier.w"]
    scores += params["classifier.b"]
    if return_state:
        return scores, state
    return scores


def _weight_grad(a, b):
    """``a.T @ b`` of each item of a stack, one product per item.

    A single product over all rows would be faster, but would sum in
    another order than one pass per item.
    """
    return a.swapaxes(-1, -2) @ b


def _bias_grad(d):
    """Sum of each item of a stack over its frames."""
    return d.sum(axis=-2)


def _backward(params, config, state, dscores):
    """Each parameter's gradient parts for a stack of items, given ``dscores``.

    ``state`` is what :func:`forward` returns for the stack.  The result maps
    each parameter name to an ``(items, *shape)`` array: item ``i``'s part is
    the gradient of one pass over item ``i`` alone, and the parts summed
    over axis 0 are the stack's gradient.
    """
    grads = {}
    h = state["h_final"]
    grads["classifier.w"] = _weight_grad(h, dscores)
    grads["classifier.b"] = _bias_grad(dscores)
    dh = dscores @ params["classifier.w"].T
    scale = 1.0 / math.sqrt(config.head_dim)
    for i in reversed(range(config.n_layers)):
        p = f"layers.{i}"
        qh, kh, vh, ctx, ln1_cache, h1, u, ln2_cache = state[f"layer.{i}"]
        attn = state[f"attn.{i}"]

        dr2, grads[f"{p}.ln2.g"], grads[f"{p}.ln2.b"] = _layer_norm_backward(
            dh, ln2_cache)
        # r2 = h1 + relu(h1 W1 + b1) W2 + b2
        grads[f"{p}.ff.w2"] = _weight_grad(u, dr2)
        grads[f"{p}.ff.b2"] = _bias_grad(dr2)
        dz1 = dr2 @ params[f"{p}.ff.w2"].T
        dz1 *= (u > 0)
        grads[f"{p}.ff.w1"] = _weight_grad(h1, dz1)
        grads[f"{p}.ff.b1"] = _bias_grad(dz1)
        dh1 = dz1 @ params[f"{p}.ff.w1"].T
        dh1 += dr2

        dr1, grads[f"{p}.ln1.g"], grads[f"{p}.ln1.b"] = _layer_norm_backward(
            dh1, ln1_cache)
        # r1 = h_in + (attn context) Wo + bo; the scores are (q * scale) k^T
        grads[f"{p}.attn.wo"] = _weight_grad(ctx, dr1)
        grads[f"{p}.attn.bo"] = _bias_grad(dr1)
        dctx_h = _split_heads(dr1 @ params[f"{p}.attn.wo"].T, config.n_heads)
        dattn = dctx_h @ vh.swapaxes(-1, -2)
        dvh = attn.swapaxes(-1, -2) @ dctx_h
        dattn -= np.einsum("...s,...s->...", dattn, attn)[..., None]
        dattn *= attn
        dqh = dattn @ kh
        dqh *= scale
        dkh = dattn.swapaxes(-1, -2) @ qh
        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)

        h_in = state[f"h_in.{i}"]
        grads[f"{p}.attn.wq"] = _weight_grad(h_in, dq)
        grads[f"{p}.attn.bq"] = _bias_grad(dq)
        grads[f"{p}.attn.wk"] = _weight_grad(h_in, dk)
        grads[f"{p}.attn.bk"] = _bias_grad(dk)
        grads[f"{p}.attn.wv"] = _weight_grad(h_in, dv)
        grads[f"{p}.attn.bv"] = _bias_grad(dv)
        dh = dq @ params[f"{p}.attn.wq"].T
        dh += dk @ params[f"{p}.attn.wk"].T
        dh += dv @ params[f"{p}.attn.wv"].T
        dh += dr1
    grads["in_proj.w"] = _weight_grad(state["x"], dh)
    grads["in_proj.b"] = _bias_grad(dh)
    return grads


def _halves(n_items):
    """The item slices a gradient step's stack of ``n_items`` is computed in.

    Items ``[0, ceil(n / 2))`` and the rest when there are two or more
    items and this process's CPU affinity (``os.sched_getaffinity``) holds
    two or more CPUs; otherwise one slice of the whole stack.  A fold
    worker's affinity is its CPU share, so on two CPUs it trains unsplit.
    """
    if (n_items < 2 or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return [slice(0, n_items)]
    mid = (n_items + 1) // 2
    return [slice(0, mid), slice(mid, n_items)]


def _on_halves(work, parts):
    """``[work(p) for p in parts]`` for one or two parts, two at the same time.

    The first part runs in the calling thread and the second in a helper
    thread, which is joined before this returns or raises, so no thread
    outlives the call.  Meanwhile OpenBLAS runs on one thread
    (:func:`~chordbench.workers.blas_threads_at_most`): the two parts
    already keep two CPUs busy, and more BLAS threads would only spin.  An
    exception raised in the helper is raised here as itself, unless the
    first raised one, which wins as it would in a serial loop.
    """
    if len(parts) == 1:
        return [work(parts[0])]
    first_part, second_part = parts
    outcome = []

    def helper():
        try:
            outcome.append((work(second_part), None))
        except BaseException as exc:  # handed to the caller, not to threading
            outcome.append((None, exc))

    thread = threading.Thread(target=helper)
    with blas_threads_at_most(1):
        thread.start()
        try:
            first = work(first_part)
        finally:
            thread.join()
    second, error = outcome[0]
    if error is not None:
        raise error
    return [first, second]


def _joined(arrays):
    """``arrays`` concatenated along axis 0; one array is returned as is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def loss_value(params: dict, config: LabelerConfig, batch) -> float:
    """Masked mean cross-entropy of a batch of equal-length
    :class:`SequenceExample`, run forward as one stack."""
    batch = list(batch)
    return _loss_and_accuracy(params, config, batch, max(1, len(batch)))[0]


def _loss_and_accuracy(params, config, items, stack_size):
    """Masked mean cross-entropy and frame accuracy from one forward sweep.

    The items go forward in index order, in stacks of ``stack_size``, one
    :func:`forward` call per stack.  Each item's loss term is added in index
    order, so the loss is bit-identical to one ``forward`` per item.
    """
    picked = []
    n_correct, n_valid = 0, 0
    for start in range(0, len(items), stack_size):
        inputs, targets, masks = _stack(items[start:start + stack_size],
                                        params["in_proj.w"].dtype)
        scores = forward(params, config, inputs)
        picked.append(_picked_sums(_log_softmax(scores), targets, masks))
        n_correct += _n_correct(scores, targets, masks)
        n_valid += int(masks.sum())
    if n_valid == 0:
        raise ValueError("batch has no valid frames")
    total = 0.0
    for term in np.concatenate(picked).tolist():
        total -= term
    return total / n_valid, n_correct / n_valid


def _stack(items, dtype):
    """``(inputs, targets, masks)`` of equal-length items, each stacked; the
    inputs in ``dtype``."""
    for item in items:
        if len(item.targets) != len(item.inputs):
            raise ValueError("targets length does not match input frames")
    lengths = sorted({len(item.inputs) for item in items})
    if len(lengths) > 1:
        raise ValueError(f"batch items differ in length: {lengths} frames")
    return (np.stack([item.inputs for item in items], dtype=dtype),
            np.stack([item.targets for item in items]),
            np.stack([item.valid_mask() for item in items]))


def _picked_sums(logp, targets, masks):
    """Per item of a stack, the sum over valid frames of the target's
    log-probability."""
    items, frames = np.indices(targets.shape, sparse=True)
    return (logp[items, frames, targets] * masks).sum(axis=-1)


def _n_correct(scores, targets, masks) -> int:
    """How many valid frames of a stack have their target as top score."""
    return int(((scores.argmax(axis=-1) == targets) & masks).sum())


def loss_and_grad(params: dict, config: LabelerConfig, batch):
    """``(loss, grads, n_correct)``: the loss, its exact gradient with
    respect to every parameter, and how many valid frames the scores of
    this pass label correctly.

    The batch's items must have equal lengths, else ``ValueError``: they
    are stacked into one ``(items, frames, bins)`` array, whose halves
    (:func:`_halves`) each take one :func:`forward` and one backward pass,
    at the same time (:func:`_on_halves`).  Each half's backward pass gives
    every item's gradient part (per-item weight products, and bias or gain
    sums over frames); the parts of both halves are joined in item order
    and summed over the items into zeroed gradients, and the loss terms are
    subtracted in item order.  These are the float additions, in the same
    order, of one pass per item added in turn into zeroed gradients, so the
    results are bit-identical to that loop, split or not.
    """
    batch = list(batch)
    n_valid = sum(int(item.valid_mask().sum()) for item in batch)
    if n_valid == 0:
        raise ValueError("batch has no valid frames")
    inputs, targets, masks = _stack(batch, params["in_proj.w"].dtype)

    def step(part):
        scores, state = forward(params, config, inputs[part], return_state=True)
        part_targets, part_masks = targets[part], masks[part]
        correct = _n_correct(scores, part_targets, part_masks)
        logp = _log_softmax(scores)
        terms = _picked_sums(logp, part_targets, part_masks)
        dscores = np.exp(logp, out=logp)
        items, frames = np.indices(part_targets.shape, sparse=True)
        dscores[items, frames, part_targets] -= 1.0
        dscores *= part_masks[..., None]
        dscores /= n_valid
        return terms, correct, _backward(
            params, config, state, dscores.astype(scores.dtype, copy=False))

    halves = _on_halves(step, _halves(len(batch)))
    total = 0.0
    for term in _joined([terms for terms, _, _ in halves]).tolist():
        total -= term
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    for k, grad in grads.items():
        grad += _joined([item_grads[k] for _, _, item_grads in halves]).sum(
            axis=0)
    loss = total / n_valid
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite loss: {loss}")
    return loss, grads, sum(correct for _, correct, _ in halves)


class AdamOptimizer:
    """Adaptive moment estimation over a named parameter dict."""

    def __init__(self, params: dict, *, lr):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for k in params:
            g = grads[k]
            # In place, in the order of m = b1 m + (1 - b1) g and
            # v = b2 v + ((1 - b2) g) g, so every step is bit-identical to
            # the same formulas computed into new arrays.
            m, v = self.m[k], self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            g2 = (1.0 - ADAM_BETA2) * g
            g2 *= g
            v += g2
            denom = v / b2c
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            update = m / b1c
            update *= self.lr
            update /= denom
            params[k] -= update


def train(config: LabelerConfig, train_items, val_items=None, *, lr,
          batch_size, max_epochs, patience):
    """Adam training in float32, with early stopping on validation loss.

    Each batch of ``batch_size`` items takes one stacked :func:`forward`
    and backward pass (:func:`loss_and_grad`), as two halves at the same
    time where the process's CPU affinity holds two CPUs or more.
    Deterministic given ``config.seed``, and bit-identical to a loop of one
    pass per item.

    With ``val_items``, one forward sweep over them after each epoch, one
    unsplit :func:`forward` call per stack of ``batch_size``, gives the
    epoch's validation loss and frame accuracy.  Training stops once that
    loss has failed to improve for more than ``patience`` consecutive
    epochs, and returns the parameters from the best epoch.

    Without ``val_items``, no window is passed forward but by the steps:
    all ``max_epochs`` epochs run, ``patience`` is unused, and the last
    parameters are returned.  An epoch's accuracy is then that of the
    training windows as its steps scored them, each batch with the
    parameters before its own step.

    A hyperparameter of the wrong type or out of range raises ``ValueError``
    naming it, as ``lr must be above 0, got -1.0``.
    """
    for key, value in (("lr", lr), ("batch_size", batch_size),
                       ("max_epochs", max_epochs), ("patience", patience)):
        _check_value(key, value, key)
    train_items = list(train_items)
    if not train_items:
        raise ValueError("empty training set")
    val_items = list(val_items or ())
    n_train_frames = sum(int(item.valid_mask().sum()) for item in train_items)
    params = init_params(config)
    optimizer = AdamOptimizer(params, lr=lr)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    report = TrainReport()
    best_loss = np.inf
    best_params = params  # a copy from the first validation sweep on
    epochs_since_best = 0
    for _ in range(max_epochs):
        order = rng.permutation(len(train_items))
        epoch_loss, n_batches, n_correct = 0.0, 0, 0
        for start in range(0, len(order), batch_size):
            batch = [train_items[j] for j in order[start:start + batch_size]]
            loss, grads, correct = loss_and_grad(params, config, batch)
            optimizer.step(params, grads)
            epoch_loss += loss
            n_batches += 1
            n_correct += correct
        report.losses.append(epoch_loss / n_batches)
        if not val_items:
            report.accuracies.append(n_correct / n_train_frames)
            continue
        monitored, accuracy = _loss_and_accuracy(params, config, val_items,
                                                 batch_size)
        report.val_losses.append(monitored)
        report.accuracies.append(accuracy)
        if not np.isfinite(monitored):
            raise TrainingError(f"non-finite validation loss: {monitored}")
        if monitored < best_loss:
            best_loss = monitored
            best_params = {k: v.copy() for k, v in params.items()}
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > patience:
                break
    return best_params, report


@dataclass(frozen=True)
class TrainedLabeler:
    """A fitted labeler together with the input recipe it was fitted on.

    ``stats`` is the z-score fitted on the training features and
    ``bin_kind`` their kind.  :meth:`recognize` applies the model to a
    track the same way whichever front end loaded or trained it.
    """

    config: LabelerConfig
    params: dict
    stats: NormStats
    bin_kind: str

    def __post_init__(self):
        if self.bin_kind not in BIN_KINDS:
            raise FeatureError(f"unknown bin kind {self.bin_kind!r}")

    def recognize(self, features: FeatureMatrix, source_id: str) -> SegmentTrack:
        """Label a track, folding log-CQT input first for a ``chroma12`` model.

        Features of another kind or bin count raise :class:`FeatureError`
        naming what the model takes and what it got.
        :func:`forward` scores the whole z-scored track, ``(frames, 25)``,
        for :func:`~chordbench.features.decode_scores`.
        """
        if self.bin_kind == "chroma12" and features.bin_kind == "cqt_log":
            features = fold_to_chroma(features)
        _check_input(self.bin_kind, self.config.input_dim, features, "")
        scores = forward(self.params, self.config,
                         zscore_apply(features, self.stats).values)
        return decode_scores(scores, source_id)


def _check_input(bin_kind, n_bins, features, where) -> None:
    """Raise :class:`FeatureError`, naming what the model takes and what it
    got after the prefix ``where``, unless ``features`` are of ``bin_kind``
    with ``n_bins`` bins."""
    want = (bin_kind, n_bins)
    got = (features.bin_kind, features.n_bins)
    if got != want:
        describe = "{} ({} bins)".format
        raise FeatureError(f"{where}model takes {describe(*want)} features, "
                           f"got {describe(*got)}")


_REAL_KEYS = ("lr", "val_fraction")  # a float as well as an int
# Each hyperparameter's range, as a test and its wording; any other is >= 1.
_RANGES = {"lr": (lambda v: v > 0, "above 0"),
           "patience": (lambda v: v >= 0, "at least 0"),
           "seed": (lambda v: v >= 0, "at least 0"),
           "val_fraction": (lambda v: 0 <= v < 1, "at least 0 and below 1")}


def _check_value(key, value, name) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int (or for
    :data:`_REAL_KEYS` a float), but not a ``bool``, in ``key``'s range."""
    kind, noun = (((int, float), "a number") if key in _REAL_KEYS
                  else (int, "an integer"))
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    in_range, wording = _RANGES.get(key, (lambda v: v >= 1, "at least 1"))
    if not in_range(value):
        raise ValueError(f"{name} must be {wording}, got {value!r}")


def _check_divisible(model_dim, n_heads) -> None:
    if model_dim % n_heads:
        raise ValueError(f"model_dim {model_dim} is not divisible by "
                         f"n_heads {n_heads}")


def check_hyperparameters(params: dict, known, what: str) -> None:
    """Check :func:`fit` keyword arguments read from a config file.

    ``params`` must be a dict and each of its keys must be in ``known``,
    the dict of default values.  Each value must be of its key's kind and
    in its range (:func:`_check_value`), and ``model_dim`` be divisible by
    ``n_heads``, each read from ``params`` or else ``known``.  The first bad
    key raises ``ValueError``, which calls the key ``what`` (e.g.
    ``"model_params key"``).
    """
    if not isinstance(params, dict):
        raise ValueError(f"expected a JSON object of {what}s, got {params!r}")
    for key in sorted(params):
        if key not in known:
            raise ValueError(f"unknown {what} {key!r}")
        _check_value(key, params[key], f"{what} {key!r}")
    merged = {**known, **params}
    _check_divisible(merged["model_dim"], merged["n_heads"])


def fit(pairs, seed, model_dim, n_layers, n_heads, lr, batch_size,
        max_epochs, patience, val_fraction=0.0):
    """Train a labeler on ``(features, labels)`` pairs.

    Returns ``(TrainedLabeler, TrainReport)``.  The pairs become z-scored
    108-frame windows (:func:`windowed_examples`); the model's feature kind
    and bin count are those of the first pair.  A pair of another kind or
    bin count, as :meth:`TrainedLabeler.recognize` would reject, or whose
    labels are not one integer class index 0-24 per frame raises
    :class:`FeatureError` naming its index.  With ``val_fraction`` above
    0, a seeded random ``max(1, int(n * val_fraction))`` of the n windows is
    held out for early stopping and to pick the best epoch; otherwise all
    ``max_epochs`` run and the last parameters are kept (see
    :func:`train`).  ``val_fraction`` must lie in [0, 1) and leave at least
    one training window.
    """
    _check_value("val_fraction", val_fraction, "val_fraction")
    for index, (features, labels) in enumerate(pairs):
        where = f"pair {index}: "
        _check_input(pairs[0][0].bin_kind, pairs[0][0].n_bins, features, where)
        check_labels(labels, features.n_frames, where)
    items, stats = windowed_examples(pairs)
    first = pairs[0][0]
    config = LabelerConfig(input_dim=first.n_bins, model_dim=model_dim,
                           n_layers=n_layers, n_heads=n_heads, seed=seed)
    val_items = None
    if val_fraction > 0:
        order = np.random.Generator(np.random.PCG64(seed)).permutation(len(items))
        n_val = max(1, int(len(items) * val_fraction))
        if n_val == len(items):
            raise ValueError(f"val_fraction {val_fraction} leaves no training "
                             f"window: it holds out {n_val} of {len(items)}")
        val_items = [items[int(i)] for i in order[:n_val]]
        items = [items[int(i)] for i in order[n_val:]]
    params, report = train(config, items, val_items, lr=lr,
                           batch_size=batch_size, max_epochs=max_epochs,
                           patience=patience)
    return TrainedLabeler(config, params, stats, first.bin_kind), report
