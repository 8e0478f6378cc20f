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
computation runs in the dtype of the parameters, so float64 is available
for gradient checking and float32 for training.

Each elementwise step makes one pass over an array: bias adds, residual
adds, the softmax and the layer-norm arithmetic update their operand in
place.  They do so only on arrays the function has just computed, never on
``params``, on the caller's inputs (``np.asarray`` hands back the caller's
array when its dtype already matches) or on the read-only positional table.

:func:`fit` trains the network on ``(features, labels)`` pairs and returns a
:class:`TrainedLabeler`, which keeps the z-score and the feature kind and
timing of its training data; ``chordbench train``, ``chordbench predict``
and the harness all train and label through these two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .annotations import SegmentTrack
from .features import (WINDOW_FRAMES, WINDOW_STRIDE, FeatureError, FeatureMatrix,
                       NormStats, frames_to_track, window_slices, zscore_apply,
                       zscore_fit)
from .templates import fold_to_chroma

LN_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    """Raised when optimization produces a non-finite loss."""


@dataclass(frozen=True)
class LabelerConfig:
    input_dim: int
    model_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    context_frames: int = 108
    n_classes: int = 25
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "model_dim", "n_layers", "n_heads",
                     "context_frames", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.model_dim % self.n_heads != 0:
            raise ValueError("model_dim must be divisible by n_heads")

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


def windowed_examples(tracks, window_frames: int = WINDOW_FRAMES,
                      stride_frames: int = WINDOW_STRIDE):
    """``(examples, norm_stats)`` from a list of ``(features, labels)`` pairs.

    The z-score is fitted on all pairs; padded window tails are masked out.
    """
    stats = zscore_fit([feats for feats, _ in tracks])
    examples = []
    for feats, labels in tracks:
        normed = zscore_apply(feats, stats)
        for window in window_slices(normed, window_frames, stride_frames):
            targets = np.zeros(window.matrix.n_frames, dtype=np.int64)
            mask = np.zeros(window.matrix.n_frames, dtype=bool)
            n = window.valid_frames
            targets[:n] = labels[window.start_frame:window.start_frame + n]
            mask[:n] = True
            examples.append(SequenceExample(window.matrix.values, targets, mask))
    return examples, stats


@dataclass
class TrainReport:
    """Per-epoch training trace: mean training-batch loss (``losses``), then
    loss and frame accuracy of the monitored set (see :func:`train`)."""

    losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)
    epochs_run: int = 0


def init_params(config: LabelerConfig, dtype=np.float32) -> dict:
    """Seeded parameter initialization; weights ~ N(0, 1/fan_in)."""
    rng = np.random.Generator(np.random.PCG64(config.seed))

    def w(n_in, n_out):
        return (rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)).astype(dtype)

    def b(n):
        return np.zeros(n, dtype=dtype)

    d, f = config.model_dim, config.ff_dim
    params = {"in_proj.w": w(config.input_dim, d), "in_proj.b": b(d)}
    for i in range(config.n_layers):
        p = f"layers.{i}"
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{p}.attn.{name}"] = w(d, d)
        for name in ("bq", "bk", "bv", "bo"):
            params[f"{p}.attn.{name}"] = b(d)
        params[f"{p}.ln1.g"] = np.ones(d, dtype=dtype)
        params[f"{p}.ln1.b"] = b(d)
        params[f"{p}.ff.w1"] = w(d, f)
        params[f"{p}.ff.b1"] = b(f)
        params[f"{p}.ff.w2"] = w(f, d)
        params[f"{p}.ff.b2"] = b(d)
        params[f"{p}.ln2.g"] = np.ones(d, dtype=dtype)
        params[f"{p}.ln2.b"] = b(d)
    params["classifier.w"] = w(d, config.n_classes)
    params["classifier.b"] = b(config.n_classes)
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


def positional_encoding(n_frames: int, dim: int, dtype=np.float64) -> np.ndarray:
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
    var = np.einsum("ij,ij->i", x, x)[:, None] / x.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    x *= inv
    y = x * g
    y += b
    return y, (x, inv, g)


def _layer_norm_backward(dy, cache):
    xhat, inv, g = cache
    n = dy.shape[-1]
    dg = np.einsum("ij,ij->j", dy, xhat)
    db = dy.sum(axis=0)
    dx = dy * g  # the gradient for xhat, turned into that for x in place
    mean_dxhat_xhat = np.einsum("ij,ij->i", dx, xhat)[:, None] / n
    dx -= dx.sum(axis=-1, keepdims=True) / n
    dx -= xhat * mean_dxhat_xhat
    dx *= inv
    return dx, dg, db


def _softmax_inplace(x):
    """Softmax over the last axis of the fresh array ``x``, in place."""
    x -= x.max(axis=-1, keepdims=True)
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
    t, d = x.shape
    return np.ascontiguousarray(
        x.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2))


def _merge_heads(x):
    h, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dh)


def forward(params: dict, config: LabelerConfig, inputs: np.ndarray,
            return_state: bool = False):
    """Per-frame class scores, shape (frames, n_classes).

    With ``return_state`` also returns the cache of intermediate values
    (including per-layer attention weights under key ``attn.{i}``) used by
    the backward pass.
    """
    x = np.asarray(inputs, dtype=params["in_proj.w"].dtype)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(
            f"expected (frames, {config.input_dim}) inputs, got {x.shape}")
    state = {"x": x}
    h = x @ params["in_proj.w"]
    h += params["in_proj.b"]
    h += positional_encoding(h.shape[0], config.model_dim, h.dtype)
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
        attn = _softmax_inplace(qh @ kh.transpose(0, 2, 1))
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


def _backward(params, config, state, dscores, grads):
    """Add the gradient of one item, given ``dscores``, into ``grads``."""
    h = state["h_final"]
    grads["classifier.w"] += h.T @ dscores
    grads["classifier.b"] += dscores.sum(axis=0)
    dh = dscores @ params["classifier.w"].T
    scale = 1.0 / math.sqrt(config.head_dim)
    for i in reversed(range(config.n_layers)):
        p = f"layers.{i}"
        qh, kh, vh, ctx, ln1_cache, h1, u, ln2_cache = state[f"layer.{i}"]
        attn = state[f"attn.{i}"]

        dr2, dg2, db2 = _layer_norm_backward(dh, ln2_cache)
        grads[f"{p}.ln2.g"] += dg2
        grads[f"{p}.ln2.b"] += db2
        # r2 = h1 + relu(h1 W1 + b1) W2 + b2
        grads[f"{p}.ff.w2"] += u.T @ dr2
        grads[f"{p}.ff.b2"] += dr2.sum(axis=0)
        dz1 = dr2 @ params[f"{p}.ff.w2"].T
        dz1 *= (u > 0)
        grads[f"{p}.ff.w1"] += h1.T @ dz1
        grads[f"{p}.ff.b1"] += dz1.sum(axis=0)
        dh1 = dz1 @ params[f"{p}.ff.w1"].T
        dh1 += dr2

        dr1, dg1, db1 = _layer_norm_backward(dh1, ln1_cache)
        grads[f"{p}.ln1.g"] += dg1
        grads[f"{p}.ln1.b"] += db1
        # r1 = h_in + (attn context) Wo + bo; the scores are (q * scale) k^T
        grads[f"{p}.attn.wo"] += ctx.T @ dr1
        grads[f"{p}.attn.bo"] += dr1.sum(axis=0)
        dctx_h = _split_heads(dr1 @ params[f"{p}.attn.wo"].T, config.n_heads)
        dattn = dctx_h @ vh.transpose(0, 2, 1)
        dvh = attn.transpose(0, 2, 1) @ dctx_h
        dattn -= np.einsum("hts,hts->ht", dattn, attn)[..., None]
        dattn *= attn
        dqh = dattn @ kh
        dqh *= scale
        dkh = dattn.transpose(0, 2, 1) @ qh
        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)

        h_in = state[f"h_in.{i}"]
        grads[f"{p}.attn.wq"] += h_in.T @ dq
        grads[f"{p}.attn.bq"] += dq.sum(axis=0)
        grads[f"{p}.attn.wk"] += h_in.T @ dk
        grads[f"{p}.attn.bk"] += dk.sum(axis=0)
        grads[f"{p}.attn.wv"] += h_in.T @ dv
        grads[f"{p}.attn.bv"] += dv.sum(axis=0)
        dh = dq @ params[f"{p}.attn.wq"].T
        dh += dk @ params[f"{p}.attn.wk"].T
        dh += dv @ params[f"{p}.attn.wv"].T
        dh += dr1
    grads["in_proj.w"] += state["x"].T @ dh
    grads["in_proj.b"] += dh.sum(axis=0)


def loss_value(params: dict, config: LabelerConfig, batch) -> float:
    """Masked mean cross-entropy of a batch of :class:`SequenceExample`."""
    return _loss_and_accuracy(params, config, batch)[0]


def _loss_and_accuracy(params, config, items, keep=()):
    """Masked mean cross-entropy and frame accuracy from one forward sweep.

    Also returns ``{index: (scores, state)}``, the forward results with
    state of the items at the indices in ``keep``.
    """
    keep = {int(j) for j in keep}
    kept = {}
    total, n_correct, n_valid = 0.0, 0, 0
    for index, item in enumerate(items):
        if index in keep:
            scores, state = forward(params, config, item.inputs,
                                    return_state=True)
            kept[index] = (scores, state)
        else:
            scores = forward(params, config, item.inputs)
        mask = item.valid_mask()
        total -= _picked_sum(_log_softmax(scores), item.targets, mask)
        n_correct += int(((scores.argmax(axis=1) == item.targets) & mask).sum())
        n_valid += int(mask.sum())
    if n_valid == 0:
        raise ValueError("batch has no valid frames")
    return total / n_valid, n_correct / n_valid, kept


def _picked_sum(logp, targets, mask) -> float:
    """Sum over valid frames of the target's log-probability."""
    return float((logp[np.arange(len(targets)), targets] * mask).sum())


def loss_and_grad(params: dict, config: LabelerConfig, batch, forwarded=None):
    """Loss plus its exact gradient with respect to every parameter.

    ``forwarded``, when given, holds for each batch item the ``(scores,
    state)`` that ``forward(params, config, item.inputs, return_state=True)``
    returns with these ``params``; they are used instead of running
    ``forward`` again.
    """
    batch = list(batch)
    if forwarded is not None and len(forwarded) != len(batch):
        raise ValueError(f"forwarded holds {len(forwarded)} results for "
                         f"{len(batch)} batch items")
    n_valid = sum(int(item.valid_mask().sum()) for item in batch)
    if n_valid == 0:
        raise ValueError("batch has no valid frames")
    total = 0.0
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    for index, item in enumerate(batch):
        if len(item.targets) != len(item.inputs):
            raise ValueError("targets length does not match input frames")
        if forwarded is None:
            scores, state = forward(params, config, item.inputs,
                                    return_state=True)
        else:
            scores, state = forwarded[index]
        mask = item.valid_mask()
        logp = _log_softmax(scores)
        total -= _picked_sum(logp, item.targets, mask)
        dscores = np.exp(logp, out=logp)
        dscores[np.arange(len(item.targets)), item.targets] -= 1.0
        dscores *= mask[:, None]
        dscores /= n_valid
        _backward(params, config, state,
                  dscores.astype(scores.dtype, copy=False), grads)
    loss = total / n_valid
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite loss: {loss}")
    return loss, grads


class AdamOptimizer:
    """Adaptive moment estimation over a named parameter dict."""

    def __init__(self, params: dict, lr=1e-3):
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


def train(config: LabelerConfig, train_items, val_items=None, lr=1e-3,
          batch_size=8, max_epochs=100, patience=10, dtype=np.float32):
    """Adam training with early stopping on validation loss.

    After each epoch one forward sweep over the monitored set (the
    validation items, or the training items when none are given) gives its
    loss and frame accuracy.  Stops once the monitored loss has failed to
    improve for more than ``patience`` consecutive epochs, and returns the
    parameters from the best epoch.  Deterministic given ``config.seed``.

    When the training items are monitored, the sweep runs ``forward`` with
    the same parameters as the next epoch's first batch, before any step.
    Its ``(scores, state)`` for the up to ``batch_size`` windows of that
    batch are kept across the epoch boundary and handed to
    :func:`loss_and_grad`, so each window is passed forward once per
    parameter version; the results are bit-identical to running ``forward``
    again.
    """
    train_items = list(train_items)
    if not train_items:
        raise ValueError("empty training set")
    monitor_train = not val_items
    monitor_items = train_items if monitor_train else list(val_items)
    params = init_params(config, dtype=dtype)
    optimizer = AdamOptimizer(params, lr=lr)
    # Only permutations are drawn from ``rng``, so drawing each epoch's
    # before the previous epoch's sweep leaves the stream unchanged.
    rng = np.random.Generator(np.random.PCG64(config.seed))
    report = TrainReport()
    best_loss = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    epochs_since_best = 0
    order = rng.permutation(len(train_items))
    forwarded = None
    for _ in range(max_epochs):
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(order), batch_size):
            batch = [train_items[j] for j in order[start:start + batch_size]]
            loss, grads = loss_and_grad(params, config, batch, forwarded)
            forwarded = None
            optimizer.step(params, grads)
            epoch_loss += loss
            n_batches += 1
        report.losses.append(epoch_loss / n_batches)
        order = rng.permutation(len(train_items))
        first_batch = order[:batch_size] if monitor_train else ()
        monitored, accuracy, kept = _loss_and_accuracy(
            params, config, monitor_items, first_batch)
        if monitor_train:
            forwarded = [kept[int(j)] for j in first_batch]
        report.val_losses.append(monitored)
        report.accuracies.append(accuracy)
        report.epochs_run += 1
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


def predict_classes(params: dict, config: LabelerConfig,
                    inputs: np.ndarray) -> np.ndarray:
    """Per-frame argmax class indices."""
    return forward(params, config, inputs).argmax(axis=1).astype(np.int64)


def predict_track(params: dict, config: LabelerConfig, features: FeatureMatrix,
                  source_id: str = ""):
    """Label a whole track and merge equal consecutive frames into segments."""
    classes = predict_classes(params, config, features.values)
    return frames_to_track(classes, features.hop_samples,
                           features.sample_rate_hz, source_id)


@dataclass(frozen=True)
class TrainedLabeler:
    """A fitted labeler together with the input recipe it was fitted on.

    ``stats`` is the z-score fitted on the training features, and
    ``bin_kind``, ``hop_samples`` and ``sample_rate_hz`` describe those
    features.  :meth:`recognize` applies the model to a track the same way
    whichever front end loaded or trained it.
    """

    config: LabelerConfig
    params: dict
    stats: NormStats
    bin_kind: str
    hop_samples: int
    sample_rate_hz: int

    def recognize(self, features: FeatureMatrix,
                  source_id: str = "") -> SegmentTrack:
        """Label a track, folding log-CQT input first for a ``chroma12`` model.

        Features of another kind, bin count or frame timing raise
        :class:`FeatureError` naming what the model takes and what it got.
        """
        if self.bin_kind == "chroma12" and features.bin_kind == "cqt_log":
            features = fold_to_chroma(features)
        want = (self.bin_kind, self.config.input_dim, self.hop_samples,
                self.sample_rate_hz)
        got = (features.bin_kind, features.n_bins, features.hop_samples,
               features.sample_rate_hz)
        if got != want:
            raise FeatureError(f"model takes {_describe(*want)} features, "
                               f"got {_describe(*got)}")
        return predict_track(self.params, self.config,
                             zscore_apply(features, self.stats), source_id)


def _describe(bin_kind, n_bins, hop_samples, sample_rate_hz) -> str:
    return f"{bin_kind} ({n_bins} bins, hop {hop_samples} at {sample_rate_hz} Hz)"


def check_hyperparameters(params: dict, known, what: str) -> None:
    """Check :func:`fit` keyword arguments read from a config file.

    ``params`` must be a dict and each of its keys must be in ``known``.
    ``lr`` and ``val_fraction`` take an int or a float, every other key an
    int; a ``bool`` is neither.  The first bad key raises ``ValueError``,
    which calls the key ``what`` (e.g. ``"model_params key"``).
    """
    if not isinstance(params, dict):
        raise ValueError(f"expected a JSON object of {what}s, got {params!r}")
    for key in sorted(params):
        if key not in known:
            raise ValueError(f"unknown {what} {key!r}")
        value = params[key]
        real = key in ("lr", "val_fraction")
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if real else int):
            raise ValueError(f"{what} {key!r} must be "
                             f"{'a number' if real else 'an integer'}, "
                             f"got {value!r}")


def fit(pairs, seed, model_dim, n_layers, n_heads, lr, batch_size,
        max_epochs, patience, val_fraction=0.0):
    """Train a labeler on ``(features, labels)`` pairs.

    Returns ``(TrainedLabeler, TrainReport)``.  The pairs become z-scored
    108-frame windows (:func:`windowed_examples`); the model's input recipe
    is that of the first pair.  With ``val_fraction`` above 0, a seeded
    random ``max(1, int(n * val_fraction))`` of the n windows is held out
    to pick the best epoch; otherwise the training windows are monitored
    (see :func:`train`).  ``val_fraction`` must lie in [0, 1) and leave at
    least one training window.
    """
    if not 0 <= val_fraction < 1:
        raise ValueError(f"val_fraction must be at least 0 and below 1, "
                         f"got {val_fraction!r}")
    items, stats = windowed_examples(pairs)
    first = pairs[0][0]
    config = LabelerConfig(input_dim=first.n_bins, model_dim=model_dim,
                           n_layers=n_layers, n_heads=n_heads,
                           context_frames=WINDOW_FRAMES, seed=seed)
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
    model = TrainedLabeler(config, params, stats, first.bin_kind,
                           first.hop_samples, first.sample_rate_hz)
    return model, report
