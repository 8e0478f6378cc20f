import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chordbench
from chordbench import labeler
from chordbench.annotations import SegmentTrack
from chordbench.checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                                   load_checkpoint, save_checkpoint)
from chordbench import templates
from chordbench.features import (FeatureError, FeatureMatrix, NormStats,
                                 decode_scores, read_feature_cache,
                                 window_slices, write_feature_cache,
                                 zscore_apply, zscore_fit)
from chordbench.labeler import (AdamOptimizer, LabelerConfig, SequenceExample,
                                TrainedLabeler, TrainingError, count_params, fit,
                                flatten_params, forward, init_params,
                                loss_and_grad, loss_value, param_shapes,
                                train, unflatten_params,
                                windowed_examples)
from chordbench.labels import N_MAJMIN_CLASSES
from chordbench.templates import fold_to_chroma
from conftest import mutate, use_cpus

TINY = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=3)


# Reference implementation of the network: every step allocates its result
# and nothing is updated in place.  ``forward`` and ``_backward`` must agree
# with it.

def _reference_layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + labeler.LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv, g)


def _reference_layer_norm_backward(dy, cache):
    xhat, inv, g = cache
    dxhat = dy * g
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dg, db


def _reference_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_split_heads(x, n_heads):
    t, d = x.shape
    return x.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _reference_merge_heads(x):
    h, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dh)


def reference_forward(params, config, inputs):
    """``(scores, state)`` as :func:`labeler.forward` returns with state."""
    x = np.asarray(inputs, dtype=params["in_proj.w"].dtype)
    state = {"x": x}
    h = x @ params["in_proj.w"] + params["in_proj.b"]
    h = h + labeler.positional_encoding(h.shape[0], config.model_dim, h.dtype)
    scale = 1.0 / math.sqrt(config.head_dim)
    for i in range(config.n_layers):
        p = f"layers.{i}"
        state[f"h_in.{i}"] = h
        q = h @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"]
        k = h @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"]
        v = h @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"]
        qh = _reference_split_heads(q, config.n_heads)
        kh = _reference_split_heads(k, config.n_heads)
        vh = _reference_split_heads(v, config.n_heads)
        attn = _reference_softmax(qh @ kh.transpose(0, 2, 1) * scale)
        ctx = _reference_merge_heads(attn @ vh)
        out = ctx @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
        h1, ln1_cache = _reference_layer_norm(h + out, params[f"{p}.ln1.g"],
                                              params[f"{p}.ln1.b"])
        z1 = h1 @ params[f"{p}.ff.w1"] + params[f"{p}.ff.b1"]
        u = np.maximum(z1, 0.0)
        z2 = u @ params[f"{p}.ff.w2"] + params[f"{p}.ff.b2"]
        h2, ln2_cache = _reference_layer_norm(h1 + z2, params[f"{p}.ln2.g"],
                                              params[f"{p}.ln2.b"])
        state[f"attn.{i}"] = attn
        state[f"layer.{i}"] = (qh, kh, vh, ctx, ln1_cache, h1, z1, u,
                               ln2_cache)
        h = h2
    state["h_final"] = h
    return h @ params["classifier.w"] + params["classifier.b"], state


def reference_backward(params, config, state, dscores):
    """Gradient of one item from ``reference_forward``'s state."""
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    h = state["h_final"]
    grads["classifier.w"] = h.T @ dscores
    grads["classifier.b"] = dscores.sum(axis=0)
    dh = dscores @ params["classifier.w"].T
    scale = 1.0 / math.sqrt(config.head_dim)
    for i in reversed(range(config.n_layers)):
        p = f"layers.{i}"
        qh, kh, vh, ctx, ln1_cache, h1, z1, u, ln2_cache = state[f"layer.{i}"]
        attn = state[f"attn.{i}"]
        dr2, dg2, db2 = _reference_layer_norm_backward(dh, ln2_cache)
        grads[f"{p}.ln2.g"] = dg2
        grads[f"{p}.ln2.b"] = db2
        grads[f"{p}.ff.w2"] = u.T @ dr2
        grads[f"{p}.ff.b2"] = dr2.sum(axis=0)
        dz1 = (dr2 @ params[f"{p}.ff.w2"].T) * (z1 > 0)
        grads[f"{p}.ff.w1"] = h1.T @ dz1
        grads[f"{p}.ff.b1"] = dz1.sum(axis=0)
        dh1 = dr2 + dz1 @ params[f"{p}.ff.w1"].T
        dr1, dg1, db1 = _reference_layer_norm_backward(dh1, ln1_cache)
        grads[f"{p}.ln1.g"] = dg1
        grads[f"{p}.ln1.b"] = db1
        grads[f"{p}.attn.wo"] = ctx.T @ dr1
        grads[f"{p}.attn.bo"] = dr1.sum(axis=0)
        dctx_h = _reference_split_heads(dr1 @ params[f"{p}.attn.wo"].T,
                                        config.n_heads)
        dattn = dctx_h @ vh.transpose(0, 2, 1)
        dvh = attn.transpose(0, 2, 1) @ dctx_h
        dscores_attn = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq = _reference_merge_heads(dscores_attn @ kh * scale)
        dk = _reference_merge_heads(dscores_attn.transpose(0, 2, 1) @ qh * scale)
        dv = _reference_merge_heads(dvh)
        h_in = state[f"h_in.{i}"]
        grads[f"{p}.attn.wq"] = h_in.T @ dq
        grads[f"{p}.attn.bq"] = dq.sum(axis=0)
        grads[f"{p}.attn.wk"] = h_in.T @ dk
        grads[f"{p}.attn.bk"] = dk.sum(axis=0)
        grads[f"{p}.attn.wv"] = h_in.T @ dv
        grads[f"{p}.attn.bv"] = dv.sum(axis=0)
        dh = (dr1 + dq @ params[f"{p}.attn.wq"].T
              + dk @ params[f"{p}.attn.wk"].T
              + dv @ params[f"{p}.attn.wv"].T)
    grads["in_proj.w"] = state["x"].T @ dh
    grads["in_proj.b"] = dh.sum(axis=0)
    return grads


def reference_loss_and_grad(params, config, batch):
    """``(loss, grads, scores, attention)`` of the reference implementation."""
    n_valid = sum(int(item.valid_mask().sum()) for item in batch)
    total, grads, scores, attention = 0.0, None, [], []
    for item in batch:
        s, state = reference_forward(params, config, item.inputs)
        mask = item.valid_mask()
        s64 = s.astype(np.float64)
        z = s64 - s64.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        total -= (logp[np.arange(len(item.targets)), item.targets] * mask).sum()
        dscores = _reference_softmax(s64)
        dscores[np.arange(len(item.targets)), item.targets] -= 1.0
        dscores *= mask[:, None]
        dscores /= n_valid
        item_grads = reference_backward(params, config, state,
                                        dscores.astype(s.dtype))
        grads = item_grads if grads is None else {
            k: grads[k] + item_grads[k] for k in grads}
        scores.append(s)
        attention.append([state[f"attn.{i}"] for i in range(config.n_layers)])
    return total / n_valid, grads, scores, attention


def _reference_sweep(params, config, items):
    """Summed loss, correct frames and valid frames of ``items``, one
    ``forward`` per item."""
    total, n_correct, n_valid = 0.0, 0, 0
    for item in items:
        scores = forward(params, config, item.inputs)
        mask = item.valid_mask()
        s64 = scores.astype(np.float64)
        z = s64 - s64.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        total -= float((logp[np.arange(len(item.targets)), item.targets]
                        * mask).sum())
        n_correct += int(((scores.argmax(axis=1) == item.targets) & mask).sum())
        n_valid += int(mask.sum())
    return total, n_correct, n_valid


def reference_train(config, train_items, val_items=None, lr=1e-3,
                    batch_size=8, max_epochs=100, patience=10,
                    dtype=np.float32):
    """The epoch loop of :func:`labeler.train`, scoring every window with
    its own ``forward``: each batch before its step, which gives the
    training accuracy when there is no validation set, and the validation
    windows after each epoch, which pick the best epoch when there is."""
    train_items = list(train_items)
    values = flatten_params(init_params(config, dtype=dtype))
    params = labeler.param_views(config, values)
    optimizer = AdamOptimizer(values, lr=lr)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    report = labeler.TrainReport()
    best_loss = np.inf
    best_params = params
    epochs_since_best = 0
    for _ in range(max_epochs):
        order = rng.permutation(len(train_items))
        epoch_loss, n_batches, n_correct, n_valid = 0.0, 0, 0, 0
        for start in range(0, len(order), batch_size):
            batch = [train_items[j] for j in order[start:start + batch_size]]
            _, correct, valid = _reference_sweep(params, config, batch)
            n_correct += correct
            n_valid += valid
            loss, grads, _ = loss_and_grad(params, config, batch)
            optimizer.step(values, flatten_params(grads))
            epoch_loss += loss
            n_batches += 1
        report.losses.append(epoch_loss / n_batches)
        if not val_items:
            report.accuracies.append(n_correct / n_valid)
            continue
        total, n_correct, n_valid = _reference_sweep(params, config, val_items)
        monitored = total / n_valid
        report.val_losses.append(monitored)
        report.accuracies.append(n_correct / n_valid)
        if monitored < best_loss:
            best_loss = monitored
            best_params = {k: v.copy() for k, v in params.items()}
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > patience:
                break
    return best_params, report


def make_batch(config, n_items=2, frames=8, seed=11, masked_tail=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    batch = []
    for _ in range(n_items):
        x = rng.standard_normal((frames, config.input_dim))
        y = rng.integers(0, N_MAJMIN_CLASSES, frames)
        mask = np.ones(frames, dtype=bool)
        if masked_tail:
            mask[-masked_tail:] = False
        batch.append(SequenceExample(x, y, mask))
    return batch


def _leaves(value):
    """The arrays of a ``forward`` state value, tuples flattened."""
    if isinstance(value, tuple):
        for part in value:
            yield from _leaves(part)
    else:
        yield value


class TestForward:
    def test_output_shape(self):
        params = init_params(TINY, dtype=np.float64)
        rng = np.random.Generator(np.random.PCG64(1))
        for frames in (1, 5, 30):
            scores = forward(params, TINY, rng.standard_normal((frames, 6)))
            assert scores.shape == (frames, 25)

    def test_shape_mismatch_error(self):
        params = init_params(TINY, dtype=np.float64)
        with pytest.raises(ValueError, match="frames"):
            forward(params, TINY, np.zeros((4, 7)))

    def test_items_independent_of_batch_order(self):
        params = init_params(TINY, dtype=np.float64)
        batch = make_batch(TINY, n_items=3)
        direct = [forward(params, TINY, item.inputs) for item in batch]
        reordered = [forward(params, TINY, item.inputs)
                     for item in reversed(batch)]
        for a, b in zip(direct, reversed(reordered)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("config, dtype", [
        (TINY, np.float64),
        # train_predict's labeler: d=64, 2 layers, 4 heads, 144 bins.
        (LabelerConfig(input_dim=144, model_dim=64, n_layers=2, n_heads=4,
                       seed=2), np.float32)], ids=["tiny64", "d64_l2_f32"])
    def test_stack_equals_each_item(self, config, dtype):
        params = init_params(config, dtype=dtype)
        rng = np.random.Generator(np.random.PCG64(6))
        for k, v in params.items():
            params[k] = (v + 0.1 * rng.standard_normal(v.shape)).astype(dtype)
        stack = rng.standard_normal((3, 108, config.input_dim))
        assert np.array_equal(forward(params, config, stack),
                              [forward(params, config, x) for x in stack])
        scores, state = forward(params, config, stack, return_state=True)
        for index, x in enumerate(stack):
            want_scores, want_state = forward(params, config, x,
                                              return_state=True)
            assert np.array_equal(scores[index], want_scores)
            assert set(state) == set(want_state)
            for key, value in want_state.items():
                for got, want in zip(_leaves(state[key]), _leaves(value)):
                    # A layer-norm gain is the shared parameter, not stacked.
                    if got.ndim > want.ndim:
                        got = got[index]
                    assert np.array_equal(got, want), key

    def test_zero_weights_give_uniform_scores(self):
        params = {k: np.zeros_like(v) for k, v in
                  init_params(TINY, dtype=np.float64).items()}
        scores = forward(params, TINY, np.zeros((5, 6)))
        assert np.allclose(scores, scores[0, 0])
        probs = np.exp(labeler._log_softmax(scores))
        assert np.allclose(probs, 1.0 / 25.0)

    def test_attention_rows_sum_to_one(self):
        params = init_params(TINY, dtype=np.float64)
        batch = make_batch(TINY)
        _, state = forward(params, TINY, batch[0].inputs, return_state=True)
        attn = state["attn.0"]
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_classifier_softmax_rows_sum_to_one(self):
        params = init_params(TINY, dtype=np.float64)
        scores = forward(params, TINY, make_batch(TINY)[0].inputs)
        probs = np.exp(labeler._log_softmax(scores))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_positional_encoding_is_memoized_read_only(dtype):
    table = labeler.positional_encoding(108, 32, dtype)
    fresh = labeler._positional_table.__wrapped__(108, 32, np.dtype(dtype))
    assert table.dtype == dtype
    assert np.array_equal(table, fresh)
    assert labeler.positional_encoding(108, 32, np.dtype(dtype)) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


ORACLE_CASES = {
    "tiny": (TINY, dict(n_items=2, frames=8, masked_tail=1)),
    "d32_l1_h4_108": (LabelerConfig(input_dim=12, model_dim=32, n_layers=1,
                                    n_heads=4, seed=5),
                      dict(n_items=2, frames=108, masked_tail=0)),
    "d16_l2_h2_masked": (LabelerConfig(input_dim=12, model_dim=16, n_layers=2,
                                       n_heads=2, seed=8),
                         dict(n_items=3, frames=20, masked_tail=7)),
}


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12),
                                         (np.float32, 1e-5)])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_matches_reference_implementation(case, dtype, rtol):
    config, shape = ORACLE_CASES[case]
    params = init_params(config, dtype=dtype)
    # Trained-looking parameters: perturb gains and biases away from 1 and 0.
    rng = np.random.Generator(np.random.PCG64(17))
    for k, v in params.items():
        params[k] = (v + 0.1 * rng.standard_normal(v.shape)).astype(dtype)
    batch = make_batch(config, seed=23, **shape)
    batch[-1].mask[: len(batch) - 1] = False  # a masked head as well
    ref_loss, ref_grads, ref_scores, ref_attn = reference_loss_and_grad(
        params, config, batch)
    loss, grads, _ = loss_and_grad(params, config, batch)

    assert loss == pytest.approx(ref_loss, rel=rtol, abs=0)
    for item, want_scores, want_attn in zip(batch, ref_scores, ref_attn):
        scores, state = forward(params, config, item.inputs, return_state=True)
        assert scores.dtype == dtype
        scale = np.abs(want_scores).max()
        assert np.abs(scores - want_scores).max() <= rtol * scale
        for i, want in enumerate(want_attn):
            assert state[f"attn.{i}"].dtype == dtype
            assert np.abs(state[f"attn.{i}"] - want).max() <= rtol
    # One scale for the whole set: ``attn.bk`` has an exact gradient of
    # zero (softmax ignores a per-row shift), so a per-parameter relative
    # error would compare rounding noise with rounding noise.
    grad_scale = max(np.abs(g).max() for g in ref_grads.values())
    assert set(grads) == set(ref_grads)
    for k, want in ref_grads.items():
        assert grads[k].dtype == dtype, k
        assert np.abs(grads[k] - want).max() <= rtol * grad_scale, k


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_calls_leave_their_arguments_unchanged(dtype):
    config = ORACLE_CASES["d16_l2_h2_masked"][0]
    params = init_params(config, dtype=dtype)
    batch = [SequenceExample(item.inputs.astype(dtype), item.targets, item.mask)
             for item in make_batch(config, frames=20, masked_tail=3)]
    before_params = {k: v.copy() for k, v in params.items()}
    before_items = [(item.inputs.copy(), item.targets.copy(), item.mask.copy())
                    for item in batch]
    scores = forward(params, config, batch[0].inputs).astype(np.float64)
    before_scores = scores.copy()

    forward(params, config, batch[0].inputs, return_state=True)
    loss_and_grad(params, config, batch)
    loss_value(params, config, batch)
    np.exp(labeler._log_softmax(scores))

    for k, v in before_params.items():
        assert np.array_equal(params[k], v), k
    for item, (inputs, targets, mask) in zip(batch, before_items):
        assert np.array_equal(item.inputs, inputs)
        assert np.array_equal(item.targets, targets)
        assert np.array_equal(item.mask, mask)
    assert np.array_equal(scores, before_scores)
    table = labeler.positional_encoding(20, config.model_dim, dtype)
    assert not table.flags.writeable
    assert np.array_equal(table, labeler._positional_table.__wrapped__(
        20, config.model_dim, np.dtype(dtype)))


class TestLoss:
    def test_uniform_scores_loss(self):
        params = {k: np.zeros_like(v) for k, v in
                  init_params(TINY, dtype=np.float64).items()}
        batch = make_batch(TINY, masked_tail=0)
        assert loss_value(params, TINY, batch) == pytest.approx(np.log(25.0))

    def test_confident_correct_loss_near_zero(self):
        config = TINY
        params = init_params(config, dtype=np.float64)
        x = np.zeros((4, 6))
        scores = forward(params, config, x)
        # drive the bias so the target class dominates every frame
        params = dict(params)
        params["classifier.b"] = params["classifier.b"].copy()
        params["classifier.b"][3] += 60.0
        batch = [SequenceExample(x, np.full(4, 3), None)]
        assert loss_value(params, config, batch) < 1e-9

    def test_two_frame_hand_computed(self):
        # single linear path: zero weights except classifier bias
        params = {k: np.zeros_like(v) for k, v in
                  init_params(TINY, dtype=np.float64).items()}
        bias = np.zeros(25)
        bias[0], bias[1] = 1.0, -1.0
        params["classifier.b"] = bias
        batch = [SequenceExample(np.zeros((2, 6)), np.array([0, 1]), None)]
        z = np.exp(bias)
        expected = 0.5 * (-np.log(z[0] / z.sum()) - np.log(z[1] / z.sum()))
        assert loss_value(params, TINY, batch) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        params = init_params(TINY, dtype=np.float64)
        bad = SequenceExample(np.zeros((4, 6)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="length"):
            loss_and_grad(params, TINY, [bad])

    def test_items_of_unequal_length_fail(self):
        params = init_params(TINY, dtype=np.float64)
        batch = make_batch(TINY, frames=8)[:1] + make_batch(TINY, frames=9)[:1]
        with pytest.raises(ValueError, match=r"differ in length: \[8, 9\]"):
            loss_and_grad(params, TINY, batch)
        with pytest.raises(ValueError, match=r"differ in length: \[8, 9\]"):
            loss_value(params, TINY, batch)

    def test_loss_and_grad_counts_the_valid_frames_it_gets_right(self):
        params = init_params(TINY, dtype=np.float64)
        batch = make_batch(TINY, n_items=3, frames=8, masked_tail=3)
        for item in batch:
            item.targets = forward(params, TINY, item.inputs).argmax(axis=1)
            item.targets[::2] = (item.targets[::2] + 1) % N_MAJMIN_CLASSES
        # Odd frames are right; of those, 1 and 3 are valid in each item.
        assert loss_and_grad(params, TINY, batch)[2] == 2 * len(batch)


class TestGradient:
    def test_matches_central_differences(self):
        params = init_params(TINY, dtype=np.float64)
        assert count_params(params) <= 2000
        batch = make_batch(TINY)
        _, grads, _ = loss_and_grad(params, TINY, batch)
        flat = flatten_params(params)
        analytic = flatten_params(grads)
        h = 1e-3
        numeric = np.zeros_like(flat)
        for i in range(len(flat)):
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            numeric[i] = (loss_value(unflatten_params(params, up), TINY, batch)
                          - loss_value(unflatten_params(params, dn), TINY, batch)) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.abs(analytic) + np.abs(numeric), 1e-8)
        assert rel.max() <= 1e-4

    def test_masked_item_contributes_nothing(self):
        params = init_params(TINY, dtype=np.float64)
        batch = make_batch(TINY, n_items=2, masked_tail=0)
        _, base, _ = loss_and_grad(params, TINY, [batch[0]])
        silenced = SequenceExample(batch[1].inputs, batch[1].targets,
                                   np.zeros(len(batch[1].targets), dtype=bool))
        _, with_masked, _ = loss_and_grad(params, TINY, [batch[0], silenced])
        for k in base:
            assert np.allclose(base[k], with_masked[k], atol=1e-15), k

    @pytest.mark.parametrize("config, dtype", [
        (TINY, np.float64),
        (LabelerConfig(input_dim=144, model_dim=64, n_layers=2, n_heads=4,
                       seed=2), np.float32)], ids=["tiny64", "d64_l2_f32"])
    def test_batch_equals_per_item_loop(self, config, dtype):
        # One forward and backward pass per item, each item's gradient
        # added in turn into zeroed gradients: the stacked batch must give
        # the same floats.
        params = init_params(config, dtype=dtype)
        batch = make_batch(config, n_items=5, frames=108, masked_tail=30)
        n_valid = sum(int(item.valid_mask().sum()) for item in batch)
        want_loss = 0.0
        want_grads = {k: np.zeros_like(v) for k, v in params.items()}
        for item in batch:
            scores, state = forward(params, config, item.inputs[None],
                                    return_state=True)
            mask, frames = item.valid_mask(), np.arange(len(item.targets))
            logp = labeler._log_softmax(scores[0])
            want_loss -= float((logp[frames, item.targets] * mask).sum())
            dscores = np.exp(logp)
            dscores[frames, item.targets] -= 1.0
            dscores *= mask[:, None]
            dscores /= n_valid
            item_grads = labeler._backward(
                params, config, state, dscores.astype(dtype)[None],
                np.empty((1, count_params(params)), dtype=dtype))
            for k, grad in want_grads.items():
                grad += item_grads[k][0]
        loss, grads, _ = loss_and_grad(params, config, batch)
        assert loss == want_loss / n_valid
        for k, want in want_grads.items():
            assert np.array_equal(grads[k], want), k

    def test_gradient_vanishes_at_minimum(self):
        # separable extreme: the correct class dominates every frame
        params = init_params(TINY, dtype=np.float64)
        params["classifier.b"][5] += 60.0
        x = np.zeros((6, 6))
        batch = [SequenceExample(x, np.full(6, 5), None)]
        _, grads, _ = loss_and_grad(params, TINY, batch)
        norm = np.linalg.norm(flatten_params(grads))
        assert norm <= 1e-6

    def test_non_finite_loss_raises(self):
        params = init_params(TINY, dtype=np.float64)
        bad = SequenceExample(np.full((3, 6), np.nan), np.zeros(3, dtype=int))
        with pytest.raises(TrainingError):
            loss_and_grad(params, TINY, [bad])

    def test_float32_parameters_compute_in_float32(self):
        params = init_params(TINY, dtype=np.float32)
        batch = make_batch(TINY)
        scores, state = forward(params, TINY, batch[0].inputs,
                                return_state=True)
        assert scores.dtype == np.float32
        for i in range(TINY.n_layers):
            assert state[f"attn.{i}"].dtype == np.float32
        _, grads, _ = loss_and_grad(params, TINY, batch)
        assert set(grads) == set(params)
        assert {k: g.dtype for k, g in grads.items() if g.dtype != np.float32} == {}


class TestTraining:
    def toy_items(self, n=6, frames=10, seed=2):
        # inputs linearly separable by construction
        rng = np.random.Generator(np.random.PCG64(seed))
        items = []
        for _ in range(n):
            y = rng.integers(0, 4, frames)
            x = np.zeros((frames, 6))
            x[np.arange(frames), y] = 2.0
            x += 0.05 * rng.standard_normal((frames, 6))
            items.append(SequenceExample(x, y))
        return items

    def test_deterministic_given_seed(self):
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=9)
        items = self.toy_items()
        p1, r1 = train(cfg, items, lr=1e-2, batch_size=3, max_epochs=8, patience=8)
        p2, r2 = train(cfg, items, lr=1e-2, batch_size=3, max_epochs=8, patience=8)
        assert r1.losses == r2.losses
        assert r1.accuracies == r2.accuracies
        assert r1.epochs_run == r2.epochs_run
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_patience_zero_stops_after_first_non_improvement(self):
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=4)
        items = self.toy_items()
        # huge learning rate forces an early non-improving epoch
        _, report = train(cfg, items, self.toy_items(n=4, seed=3), lr=2.0,
                          batch_size=6, max_epochs=50, patience=0)
        assert report.epochs_run < 50
        monitored = report.val_losses
        best_so_far = np.minimum.accumulate(monitored)
        # every epoch except the last improved on the running best
        for i in range(1, report.epochs_run - 1):
            assert monitored[i] < best_so_far[i - 1]
        assert monitored[-1] >= best_so_far[-2]

    def test_without_validation_runs_every_epoch_and_keeps_the_last(
            self, monkeypatch):
        # The diverging case above: with no validation set, patience is
        # unused and the parameters of the last step come back.
        steps = []
        step = AdamOptimizer.step

        def recording_step(optimizer, params, grads):
            step(optimizer, params, grads)
            steps.append(params.copy())

        monkeypatch.setattr(AdamOptimizer, "step", recording_step)
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=4)
        params, report = train(cfg, self.toy_items(), lr=2.0, batch_size=6,
                               max_epochs=50, patience=0)
        assert report.epochs_run == len(steps) == 50
        assert report.val_losses == []
        assert min(report.losses) < report.losses[-1]
        assert np.array_equal(flatten_params(params), steps[-1])

    def test_loss_non_increasing_small_lr_full_batch(self):
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=6)
        items = self.toy_items()
        _, report = train(cfg, items, lr=1e-3, batch_size=len(items),
                          max_epochs=25, patience=25)
        diffs = np.diff(report.losses)
        assert np.all(diffs <= 1e-6)

    def test_returns_best_parameters(self):
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=12)
        items = self.toy_items()
        val_items = self.toy_items(n=4, seed=3)
        params, report = train(cfg, items, val_items, lr=0.5, batch_size=6,
                               max_epochs=30, patience=3)
        # the best epoch is not the last, so the copy taken there came back
        assert int(np.argmin(report.val_losses)) < report.epochs_run - 1
        final = loss_value(params, cfg, val_items)
        assert final == min(report.val_losses)

    # (training windows, validation windows, train keyword arguments)
    TRAIN_CASES = {
        "fewer_windows_than_a_batch": (3, 0, dict(lr=1e-2, batch_size=8,
                                                  max_epochs=4, patience=4)),
        "exactly_one_batch": (4, 0, dict(lr=1e-2, batch_size=4, max_epochs=4,
                                         patience=4)),
        "ragged_last_batch": (7, 0, dict(lr=1e-2, batch_size=3, max_epochs=4,
                                         patience=0)),
        "patience_stop": (6, 4, dict(lr=2.0, batch_size=4, max_epochs=50,
                                     patience=0)),
        "validation_set": (6, 4, dict(lr=1e-2, batch_size=4, max_epochs=4,
                                      patience=4)),
    }

    # train computes in float32 only.
    @pytest.mark.parametrize("dtype", [np.float32])
    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_matches_reference_epoch_loop(self, case, dtype):
        n_train, n_val, kwargs = self.TRAIN_CASES[case]
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=4)
        items = self.toy_items(n=n_train)
        val_items = self.toy_items(n=n_val, seed=3) if n_val else None
        want_params, want = reference_train(cfg, items, val_items,
                                            dtype=dtype, **kwargs)
        params, report = train(cfg, items, val_items, **kwargs)
        if case == "patience_stop":
            assert want.epochs_run < kwargs["max_epochs"]
        else:
            assert want.epochs_run == kwargs["max_epochs"]
        assert report == want
        assert set(params) == set(want_params)
        for k in params:
            assert params[k].dtype == dtype
            assert np.array_equal(params[k], want_params[k]), k

    def test_one_forward_sweep_per_epoch(self, monkeypatch):
        # Each epoch: one forward pass per training window for the gradient
        # steps, then one per validation window.  A call takes a stack of
        # windows, so the windows are counted.
        calls = []

        def counting_forward(params, config, inputs, *args, **kwargs):
            calls.extend([1] * (len(inputs) if np.ndim(inputs) == 3 else 1))
            return forward(params, config, inputs, *args, **kwargs)

        monkeypatch.setattr(labeler, "forward", counting_forward)
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=7)
        items = self.toy_items(n=6)
        val_items = self.toy_items(n=4, seed=3)
        _, report = train(cfg, items, val_items, lr=1e-2, batch_size=4,
                          max_epochs=3, patience=3)
        assert report.epochs_run == 3
        assert len(calls) == (len(items) + len(val_items)) * 3

    def test_without_validation_only_the_steps_run_forward(self, monkeypatch):
        # On one CPU each step is one stack: the windows of every batch go
        # forward once, in step order, and nothing else does.
        use_cpus(monkeypatch, 1)
        sizes = stack_sizes(monkeypatch)
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=7)
        items = self.toy_items(n=6)
        _, report = train(cfg, items, lr=1e-2, batch_size=4, max_epochs=3,
                          patience=0)
        assert report.epochs_run == 3
        assert sizes == [4, 2] * 3
        assert sum(sizes) == len(items) * 3

    def test_accuracy_without_validation_counts_the_step_scores(
            self, monkeypatch):
        # Each batch is scored, one window at a time, with the parameters
        # its step starts from; an epoch's accuracy is the share of valid
        # frames those scores got right.
        counts = []
        step = labeler.loss_and_grad

        def scoring_step(params, config, batch):
            correct = valid = 0
            for item in batch:
                mask = item.valid_mask()
                top = forward(params, config, item.inputs).argmax(axis=1)
                correct += int(((top == item.targets) & mask).sum())
                valid += int(mask.sum())
            counts.append((correct, valid))
            return step(params, config, batch)

        monkeypatch.setattr(labeler, "loss_and_grad", scoring_step)
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=8)
        items = [SequenceExample(item.inputs, item.targets,
                                 np.arange(len(item.targets)) < 10 - k)
                 for k, item in enumerate(self.toy_items(n=7))]
        _, report = train(cfg, items, lr=3e-2, batch_size=3, max_epochs=5,
                          patience=0)
        assert len(counts) == 3 * 5
        for epoch, accuracy in enumerate(report.accuracies):
            correct, valid = np.sum(counts[3 * epoch:3 * epoch + 3], axis=0)
            assert accuracy == correct / valid
        assert len(set(report.accuracies)) > 1

    def test_accuracy_is_measured_on_validation_set(self):
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=8)
        items = self.toy_items(n=6)
        val_items = []
        for k, item in enumerate(self.toy_items(n=4, seed=5)):
            targets = item.targets.copy()
            targets[::3] = (targets[::3] + 1) % 4  # a third of frames mislabeled
            mask = np.ones(len(targets), dtype=bool)
            mask[len(targets) - k:] = False
            val_items.append(SequenceExample(item.inputs, targets, mask))
        params, report = train(cfg, items, val_items, lr=1e-2, batch_size=3,
                               max_epochs=6, patience=6)
        # the returned parameters are those of the last epoch
        assert int(np.argmin(report.val_losses)) == report.epochs_run - 1
        correct = sum(int(((forward(params, cfg, it.inputs).argmax(axis=1)
                            == it.targets) & it.mask).sum())
                      for it in val_items)
        valid = sum(int(it.mask.sum()) for it in val_items)
        assert report.accuracies[-1] == correct / valid

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train(TINY, [], lr=1e-3, batch_size=8, max_epochs=1, patience=0)

    @pytest.mark.parametrize("key, value, message", [
        ("lr", -1.0, "lr must be above 0, got -1.0"),
        ("lr", "0.1", "lr must be a number, got '0.1'"),
        ("batch_size", 0, "batch_size must be at least 1, got 0"),
        ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
        ("max_epochs", 0, "max_epochs must be at least 1, got 0"),
        ("max_epochs", True, "max_epochs must be an integer, got True"),
        ("patience", -3, "patience must be at least 0, got -3"),
    ])
    def test_rejects_out_of_range_hyperparameters(self, key, value, message):
        kwargs = {"lr": 1e-2, "batch_size": 3, "max_epochs": 2, "patience": 1,
                  key: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(TINY, self.toy_items(), **kwargs)

    def test_report_flags(self):
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=13)
        _, report = train(cfg, self.toy_items(), lr=1e-2, batch_size=3,
                          max_epochs=2, patience=5)
        assert report.epochs_run == 2

    def test_epochs_run_counts_the_losses(self):
        report = labeler.TrainReport(losses=[1.0, 0.5, 0.4])
        assert report.epochs_run == 3
        with pytest.raises(AttributeError):
            report.epochs_run = 4


D64 = LabelerConfig(input_dim=144, model_dim=64, n_layers=2, n_heads=4, seed=2)


def stack_sizes(monkeypatch):
    """The item count of every stack ``labeler.forward`` gets from here on."""
    sizes = []

    def spy(params, config, inputs, *args, **kwargs):
        sizes.append(len(inputs))
        return forward(params, config, inputs, *args, **kwargs)

    monkeypatch.setattr(labeler, "forward", spy)
    return sizes


def split_and_whole(monkeypatch, compute):
    """``compute()`` with two usable CPUs, then with one."""
    results = []
    for n_cpus in (2, 1):
        with monkeypatch.context() as patch:
            use_cpus(patch, n_cpus)
            results.append(compute())
    return results


class TestSplitStacks:
    """With two usable CPUs each stack is computed as two halves at once:
    every loss, gradient and trained parameter must keep its bytes."""

    # The stacks ``forward`` gets for a batch of n items, split in two.
    HALVES = {1: [1], 5: [3, 2], 8: [4, 4]}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_items", sorted(HALVES))
    def test_loss_and_grad_and_loss_value_keep_their_bytes(
            self, monkeypatch, n_items, dtype):
        params = init_params(D64, dtype=dtype)
        batch = make_batch(D64, n_items=n_items, frames=108, masked_tail=30)
        sizes = stack_sizes(monkeypatch)
        split, whole = split_and_whole(monkeypatch, lambda: (
            loss_and_grad(params, D64, batch), loss_value(params, D64, batch)))
        # The two halves of a step start at the same time, in either order;
        # loss_value runs the whole stack forward, split or not.
        assert sorted(sizes) == sorted(self.HALVES[n_items] + 3 * [n_items])
        (loss, grads, correct), value = split
        (want_loss, want_grads, want_correct), want_value = whole
        assert (repr(loss), repr(value)) == (repr(want_loss), repr(want_value))
        assert correct == want_correct
        assert list(grads) == list(want_grads) == list(params)
        for k, want in want_grads.items():
            assert grads[k].dtype == want.dtype == dtype
            assert grads[k].tobytes() == want.tobytes(), k

    # train computes in float32 only.
    @pytest.mark.parametrize("n_val", [0, 4])
    @pytest.mark.parametrize("batch_size", sorted(HALVES))
    def test_train_keeps_its_bytes(self, monkeypatch, batch_size, n_val):
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2,
                            seed=4)
        items = TestTraining().toy_items(n=13)
        val_items = TestTraining().toy_items(n=n_val, seed=3) or None
        sizes = stack_sizes(monkeypatch)
        split, whole = split_and_whole(monkeypatch, lambda: train(
            cfg, items, val_items, lr=1e-2, batch_size=batch_size,
            max_epochs=3, patience=3))
        if batch_size > 1:
            assert self.HALVES[batch_size][0] in sizes
        (params, report), (want_params, want) = split, whole
        assert repr(report) == repr(want)
        assert list(params) == list(want_params)
        for k, value in params.items():
            assert value.dtype == np.float32
            assert value.tobytes() == want_params[k].tobytes(), k

    def test_split_keeps_its_bytes_under_frequent_thread_switches(
            self, monkeypatch):
        params = init_params(TINY)
        batch = make_batch(TINY, n_items=5, masked_tail=3)
        use_cpus(monkeypatch, 1)
        want_loss, want_grads, _ = loss_and_grad(params, TINY, batch)
        use_cpus(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [loss_and_grad(params, TINY, batch) for _ in range(50)]
        finally:
            sys.setswitchinterval(interval)
        for loss, grads, _ in results:
            assert repr(loss) == repr(want_loss)
            for k, want in want_grads.items():
                assert grads[k].tobytes() == want.tobytes(), k

    def test_fit_leaves_no_thread_running(self, monkeypatch):
        # From Python 3.12 on, a fork with a live thread warns, and fold
        # workers are forked after the parent may have trained.
        use_cpus(monkeypatch, 2)
        sizes = stack_sizes(monkeypatch)
        before = threading.active_count()
        fit(_random_pairs(), seed=1, model_dim=8, n_layers=1, n_heads=2,
            lr=1e-2, batch_size=4, max_epochs=2, patience=2)
        assert 2 in sizes
        assert threading.active_count() == before

    def test_forward_sweeps_run_one_stack_per_call(self, monkeypatch):
        # Only a gradient step splits: with two CPUs, the validation sweep
        # and loss_value still make one forward call per stack.
        use_cpus(monkeypatch, 2)
        stepped, swept = [], []

        def spy(params, config, inputs, return_state=False):
            (stepped if return_state else swept).append(len(inputs))
            return forward(params, config, inputs, return_state)

        monkeypatch.setattr(labeler, "forward", spy)
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2,
                            seed=4)
        train(cfg, TestTraining().toy_items(n=6),
              TestTraining().toy_items(n=5, seed=3), lr=1e-2, batch_size=4,
              max_epochs=2, patience=2)
        assert sorted(stepped) == [1] * 4 + [2] * 4
        assert swept == [4, 1] * 2
        swept.clear()
        loss_value(init_params(TINY), TINY, make_batch(TINY, n_items=5))
        assert swept == [5]


def _views_of_one_vector(views, config):
    """Assert that ``views`` are the :func:`param_views` of one vector of
    ``config``'s size, in ``param_shapes`` order, and return that vector."""
    vector = labeler._vector(views)
    assert vector.ndim == 1 and vector.size == count_params(views)
    assert list(views) == [name for name, _ in param_shapes(config)]
    for k, value in views.items():
        assert np.shares_memory(value, vector), k
    assert np.array_equal(flatten_params(views), vector)
    return vector


class TestFlatBuffers:
    """Parameters, the summed gradient and Adam's moments are each one
    vector, and each named tensor is a view of it."""

    def test_init_params_are_views_of_one_vector(self):
        params = init_params(D64)
        vector = _views_of_one_vector(params, D64)
        assert vector.dtype == np.float32
        names = list(params)
        for a, b in zip(names, names[1:]):
            assert not np.shares_memory(params[a], params[b]), (a, b)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_gradients_are_views_of_one_vector(self, monkeypatch, n_cpus):
        use_cpus(monkeypatch, n_cpus)
        params = init_params(TINY)
        _, grads, _ = loss_and_grad(params, TINY, make_batch(TINY, n_items=5))
        assert not np.shares_memory(_views_of_one_vector(grads, TINY),
                                    labeler._vector(params))

    @pytest.mark.parametrize("n_cpus, rows", [(1, [(0, 5)]),
                                              (2, [(0, 3), (3, 5)])])
    def test_each_half_writes_its_own_rows_of_one_buffer(
            self, monkeypatch, n_cpus, rows):
        use_cpus(monkeypatch, n_cpus)
        written = []
        backward = labeler._backward

        def spy(params, config, state, dscores, parts):
            written.append(parts)
            return backward(params, config, state, dscores, parts)

        monkeypatch.setattr(labeler, "_backward", spy)
        loss_and_grad(init_params(TINY), TINY, make_batch(TINY, n_items=5))
        buffer = written[0].base
        assert buffer.shape == (5, count_params(init_params(TINY)))
        got = []
        for parts in written:
            assert parts.base is buffer
            first = (parts.ctypes.data - buffer.ctypes.data) // buffer.strides[0]
            got.append((first, first + len(parts)))
        assert sorted(got) == rows

    def test_adam_and_train_keep_one_vector_each(self, monkeypatch):
        seen = []
        step = AdamOptimizer.step

        def recording_step(optimizer, params, grads):
            seen.append((optimizer, params, grads))
            step(optimizer, params, grads)

        monkeypatch.setattr(AdamOptimizer, "step", recording_step)
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2,
                            seed=4)
        params, _ = train(cfg, TestTraining().toy_items(n=6), lr=1e-2,
                          batch_size=4, max_epochs=2, patience=2)
        values = _views_of_one_vector(params, cfg)
        optimizer = seen[0][0]
        for opt, vector, grads in seen:
            assert opt is optimizer and vector is values
            assert grads.shape == values.shape == optimizer.m.shape
        assert optimizer.v.shape == values.shape
        buffers = [values, optimizer.m, optimizer.v, seen[-1][2]]
        for i, a in enumerate(buffers):
            for b in buffers[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_best_epoch_is_kept_as_one_copy(self):
        cfg = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2,
                            seed=12)
        params, _ = train(cfg, TestTraining().toy_items(),
                          TestTraining().toy_items(n=4, seed=3), lr=0.5,
                          batch_size=6, max_epochs=30, patience=3)
        _views_of_one_vector(params, cfg)


def test_windowed_examples_targets_and_mask():
    rng = np.random.Generator(np.random.PCG64(5))
    features = FeatureMatrix(rng.standard_normal((217, 12)), "chroma12")
    labels = rng.integers(0, 25, 217)
    examples, stats = windowed_examples([(features, labels)])
    assert len(examples) == 4
    for k, ex in enumerate(examples):
        start = 54 * k
        valid = min(108, 217 - start)
        assert ex.inputs.shape == (108, 12)
        assert np.array_equal(ex.targets[:valid], labels[start:start + valid])
        assert ex.mask[:valid].all()
        assert not ex.mask[valid:].any()
        assert np.array_equal(
            ex.inputs[:valid],
            ((features.values[start:start + valid] - stats.mean)
             / stats.std).astype(np.float32))
    assert examples[-1].mask.sum() == 217 - 162
    # Full windows are views of one z-scored array; only the last is a copy.
    base = examples[0].inputs.base
    assert base is not None and base.shape == (217, 12)
    assert all(np.shares_memory(ex.inputs, base) for ex in examples[:3])
    assert not np.shares_memory(examples[-1].inputs, base)


def test_cached_tracks_window_within_16_bytes_per_stored_value(tmp_path):
    rng = np.random.Generator(np.random.PCG64(6))
    n_frames = [646, 400, 250, 701, 333, 512]
    for i, n in enumerate(n_frames):
        values = rng.standard_normal((n, 144)).astype(np.float32) * 2 - 5
        write_feature_cache(tmp_path / f"{i}.cbf",
                            FeatureMatrix(values, "cqt_log"),
                            rng.integers(0, 25, n))
    tracemalloc.start()
    try:
        tracks = [read_feature_cache(tmp_path / f"{i}.cbf")
                  for i in range(len(n_frames))]
        examples, _ = windowed_examples(tracks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The stored float32 values (4 bytes each) and the float64 concatenation
    # that fits the z-score (8) make 12 bytes a value; one more float64 copy
    # of the tracks would pass 16.
    assert peak < 16 * 144 * sum(n_frames)
    start = 0
    for n in n_frames:
        windows = examples[start:start + len(window_slices(n))]
        start += len(windows)
        full = [ex.inputs for ex in windows if ex.mask.all()]
        base = full[0].base
        assert base.dtype == np.float32 and base.shape == (n, 144)
        assert all(x.base is base for x in full)
        assert all(ex.inputs.dtype == np.float32 for ex in windows)
    assert start == len(examples)


class TestFloat64Contract:
    """Stored float32 log-CQT gives the floats of its float64 upcast: every
    computation on cached values runs in float64."""

    @pytest.fixture
    def stored(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(8))
        values = (rng.standard_normal((130, 144)) * 2 - 6).astype(np.float32)
        path = tmp_path / "x.cbf"
        write_feature_cache(path, FeatureMatrix(values, "cqt_log"))
        features, _ = read_feature_cache(path)
        assert features.values.dtype == np.float32
        assert np.array_equal(features.values, values)
        return features, FeatureMatrix(features.values.astype(np.float64),
                                       "cqt_log")

    def test_fold_to_chroma(self, stored):
        chroma32, chroma64 = (fold_to_chroma(f).values for f in stored)
        assert np.array_equal(chroma32, chroma64)

    def test_zscore(self, stored):
        stats = zscore_fit([stored[0]])
        assert stats == zscore_fit([stored[1]])
        normed32, normed64 = (zscore_apply(f, stats).values for f in stored)
        assert normed32.dtype == np.float64
        assert np.array_equal(normed32, normed64)

    @staticmethod
    def _decoded_scores(module, monkeypatch):
        """The list that collects every score matrix ``module`` decodes."""
        seen = []
        decode = module.decode_scores

        def spy(scores, *rest):
            seen.append(scores)
            return decode(scores, *rest)

        monkeypatch.setattr(module, "decode_scores", spy)
        return seen

    def test_template_recognizer(self, stored, monkeypatch):
        seen = self._decoded_scores(templates, monkeypatch)
        track32, track64 = (templates.recognize_track(f, "t") for f in stored)
        scores32, scores64 = seen
        assert np.array_equal(scores32, scores64)
        assert track32 == track64

    @pytest.mark.parametrize("kind, bins", [("cqt_log", 144), ("chroma12", 12)])
    def test_labeler_recognize(self, stored, monkeypatch, kind, bins):
        config = LabelerConfig(input_dim=bins, model_dim=8, n_layers=1,
                               n_heads=2, seed=3)
        model = TrainedLabeler(config, init_params(config, np.float64),
                               NormStats(-6.1, 2.3), kind)
        seen = self._decoded_scores(labeler, monkeypatch)
        track32, track64 = (model.recognize(f, "t") for f in stored)
        scores32, scores64 = seen
        assert np.array_equal(scores32, scores64)
        assert track32 == track64


class TestPredictTrack:
    def test_constant_sequence_single_segment(self):
        params = {k: np.zeros_like(v) for k, v in
                  init_params(TINY, dtype=np.float64).items()}
        params["classifier.b"][7] = 5.0
        model = TrainedLabeler(TINY, params, NormStats(0.0, 1.0), "chroma12")
        fm = FeatureMatrix(np.zeros((20, 6)), "chroma12")
        track = model.recognize(fm, "t")
        assert len(track) == 1
        assert str(track.segments[0].label) == "G:maj"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LabelerConfig(input_dim=6, model_dim=10, n_layers=1, n_heads=3,
                          seed=0)
        with pytest.raises(ValueError):
            LabelerConfig(input_dim=0, model_dim=8, n_layers=1, n_heads=2,
                          seed=0)

    @pytest.mark.parametrize("key, value, message", [
        ("n_heads", True, "n_heads must be an integer, got True"),
        ("model_dim", 8.0, "model_dim must be an integer, got 8.0"),
        ("input_dim", "6", "input_dim must be an integer, got '6'"),
        ("seed", -1, "seed must be at least 0, got -1"),
    ])
    def test_config_field_types(self, key, value, message):
        fields = dict(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            LabelerConfig(**{**fields, key: value})

    def test_param_shapes_are_the_initialized_shapes(self):
        for config in (TINY, ORACLE_CASES["d16_l2_h2_masked"][0]):
            params = init_params(config)
            assert list(labeler.param_shapes(config)) == [
                (name, p.shape) for name, p in params.items()]



# Trains a tiny labeler with two halves per step in a fresh interpreter,
# which must not import the harness to decide the split.
SPLIT_FIT = """
import os, sys
import numpy as np
from chordbench import labeler
from chordbench.features import FeatureMatrix
os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.Generator(np.random.PCG64(0))
pairs = [(FeatureMatrix(rng.standard_normal((150, 12)), "chroma12"),
          rng.integers(0, 25, 150))]
halves = labeler._halves
parts = []
labeler._halves = lambda n: parts.append(halves(n)) or parts[-1]
labeler.fit(pairs, seed=0, model_dim=8, n_layers=1, n_heads=2, lr=1e-2,
            batch_size=4, max_epochs=1, patience=0)
assert [len(p) for p in parts] == [2], parts
assert "chordbench.harness" not in sys.modules
"""


def test_split_training_does_not_import_the_harness():
    src_dir = os.path.dirname(os.path.dirname(chordbench.__file__))
    proc = subprocess.run([sys.executable, "-c", SPLIT_FIT],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src_dir})
    assert proc.returncode == 0, proc.stderr


def _random_pairs(n_tracks=3, n_frames=150, seed=23):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [(FeatureMatrix(rng.standard_normal((n_frames, 12)), "chroma12"),
             rng.integers(0, 25, n_frames))
            for _ in range(n_tracks)]


class TestFit:
    HYPER = dict(model_dim=8, n_layers=1, n_heads=2, lr=3e-3, batch_size=4,
                 max_epochs=2, patience=2)

    def test_val_split_is_the_seeded_window_permutation(self):
        pairs = _random_pairs()
        model, report = fit(pairs, 5, val_fraction=0.34, **self.HYPER)
        items, stats = windowed_examples(pairs)
        assert len(items) == 6
        order = np.random.Generator(np.random.PCG64(5)).permutation(6)
        val = [items[int(i)] for i in order[:2]]  # max(1, int(6 * 0.34))
        rest = [items[int(i)] for i in order[2:]]
        config = LabelerConfig(input_dim=12, model_dim=8, n_layers=1,
                               n_heads=2, seed=5)
        params, want = train(config, rest, val, lr=3e-3, batch_size=4,
                             max_epochs=2, patience=2)
        assert model.config == config
        assert model.stats == stats
        assert model.bin_kind == "chroma12"
        assert report == want
        assert all(np.array_equal(model.params[k], params[k]) for k in params)

    @pytest.mark.parametrize("val_fraction", [-0.5, 1.0, 1.5, float("nan")])
    def test_val_fraction_must_lie_in_0_to_1(self, val_fraction):
        with pytest.raises(ValueError, match=re.escape(
                f"val_fraction must be at least 0 and below 1, "
                f"got {val_fraction!r}")):
            fit(_random_pairs(), 5, val_fraction=val_fraction, **self.HYPER)

    def test_val_split_must_leave_a_training_window(self):
        pairs = _random_pairs(n_tracks=1, n_frames=100)  # one window
        with pytest.raises(ValueError, match=re.escape(
                "val_fraction 0.1 leaves no training window: it holds out 1 "
                "of 1")):
            fit(pairs, 5, val_fraction=0.1, **self.HYPER)

    def test_trains_in_float32(self):
        model, _ = fit(_random_pairs(), 5, **self.HYPER)
        assert {k: v.dtype for k, v in model.params.items()
                if v.dtype != np.float32} == {}

    def test_label_count_unlike_the_frames_fails_in_fit(self):
        pairs = _random_pairs(n_frames=200)
        pairs[0] = (pairs[0][0], pairs[0][1][:150])
        with pytest.raises(FeatureError,
                           match="^pair 0: 150 labels for 200 frames$"):
            fit(pairs, 5, **self.HYPER)

    # 30 indexes past the 25 classes; -1 would train as the last one, N.
    @pytest.mark.parametrize("bad", [30, -1])
    def test_label_outside_the_classes_fails_in_fit(self, bad):
        pairs = _random_pairs(n_frames=200)
        pairs[1][1][3] = bad
        with pytest.raises(FeatureError, match=re.escape(
                f"pair 1: frame 3: label {bad} is not a class index 0-24")):
            fit(pairs, 5, **self.HYPER)

    def test_labels_that_are_not_integers_fail_in_fit(self):
        pairs = _random_pairs(n_frames=200)
        pairs[1] = (pairs[1][0], pairs[1][1].astype(np.float64))
        with pytest.raises(FeatureError, match=re.escape(
                "pair 1: labels are float64, not class indices")):
            fit(pairs, 5, **self.HYPER)

    @pytest.mark.parametrize("kind, bins", [("cqt_log", 12), ("chroma12", 6)])
    def test_pair_unlike_the_first_fails_in_fit(self, kind, bins):
        pairs = _random_pairs()
        features, labels = pairs[1]
        pairs[1] = (FeatureMatrix(features.values[:, :bins], kind),
                    labels)
        with pytest.raises(FeatureError, match=re.escape(
                "pair 1: model takes chroma12 (12 bins) features, got "
                f"{kind} ({bins} bins)")):
            fit(pairs, 5, **self.HYPER)

    def test_without_val_fraction_the_training_windows_are_monitored(self):
        pairs = _random_pairs()
        model, report = fit(pairs, 5, **self.HYPER)
        items, _ = windowed_examples(pairs)
        params, want = train(model.config, items, lr=3e-3, batch_size=4,
                             max_epochs=2, patience=2)
        assert report == want
        assert all(np.array_equal(model.params[k], params[k]) for k in params)


class TestRecognize:
    def test_bin_kind_is_checked(self):
        with pytest.raises(FeatureError,
                           match=re.escape("unknown bin kind 'chroma24'")):
            TrainedLabeler(TINY, {}, NormStats(0.0, 1.0), "chroma24")

    def test_folds_log_cqt_for_a_chroma_model(self):
        config = LabelerConfig(input_dim=12, model_dim=8, n_layers=1,
                               n_heads=2, seed=3)
        model = TrainedLabeler(config, init_params(config, np.float64),
                               NormStats(0.3, 1.5), "chroma12")
        rng = np.random.Generator(np.random.PCG64(4))
        logcqt = FeatureMatrix(rng.standard_normal((40, 144)), "cqt_log")
        chroma = fold_to_chroma(logcqt)
        scores = forward(model.params, config,
                         zscore_apply(chroma, model.stats).values)
        want = decode_scores(scores, "t")
        assert model.recognize(logcqt, "t") == want
        assert model.recognize(chroma, "t") == want

    @pytest.mark.parametrize("kind, bins, got", [
        ("chroma12", 12, "chroma12 (12 bins)"),
        ("cqt_log", 120, "cqt_log (120 bins)"),
    ])
    def test_rejects_another_input_recipe(self, kind, bins, got):
        config = LabelerConfig(input_dim=144, model_dim=8, n_layers=1,
                               n_heads=2, seed=0)
        model = TrainedLabeler(config, init_params(config),
                               NormStats(0.0, 1.0), "cqt_log")
        features = FeatureMatrix(np.zeros((20, bins)), kind)
        with pytest.raises(FeatureError, match=re.escape(
                f"model takes cqt_log (144 bins) features, got {got}")):
            model.recognize(features, "t")

    @pytest.mark.parametrize("warning_action", ["error", "ignore"])
    def test_non_finite_scores_fail_naming_the_frame(self, warning_action):
        # 2.4e38 is one float32 exponent-bit flip from an ordinary weight:
        # the model loads, but its scores overflow.
        params = init_params(TINY)
        params["in_proj.w"][0, 0] = 2.4e38
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action)
            with pytest.raises(FeatureError, match=(
                    "^scores of frame 0 are not finite$")):
                _tiny_model(params).recognize(MUTANT_INPUT, "t")


class TestAdam:
    def test_bias_corrected_first_step(self):
        params = np.array([1.0, 2.0])
        opt = AdamOptimizer(params, lr=0.1)
        opt.step(params, np.array([0.5, -0.5]))
        # first step moves by ~lr in the gradient direction
        assert params[0] == pytest.approx(1.0 - 0.1, abs=1e-6)
        assert params[1] == pytest.approx(2.0 + 0.1, abs=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_steps_are_bit_identical_to_the_formulas(self, dtype):
        # One step over the whole vector gives each tensor the floats of
        # the formulas computed for it alone, into new arrays.
        values = flatten_params(init_params(TINY, dtype=dtype))
        params = labeler.param_views(TINY, values)
        want = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        opt = AdamOptimizer(values, lr=3e-3)
        rng = np.random.Generator(np.random.PCG64(19))
        for t in range(1, 6):
            grads = {k: rng.standard_normal(p.shape).astype(dtype)
                     for k, p in params.items()}
            opt.step(values, flatten_params(grads))
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
                want[k] -= (3e-3 * (m[k] / (1.0 - 0.9 ** t))
                            / (np.sqrt(v[k] / (1.0 - 0.999 ** t)) + 1e-8))
        for k in params:
            assert params[k].dtype == dtype
            assert np.array_equal(params[k], want[k]), k


def _tiny_model(params=None):
    return TrainedLabeler(TINY, init_params(TINY) if params is None else params,
                          NormStats(0.5, 2.0), "chroma12")


class TestCheckpoint:
    # sha256 of the version-3 checkpoint of ``_tiny_model()``.  A change to
    # the layout or to ``param_shapes`` order changes it; such a change must
    # bump CHECKPOINT_VERSION and record the new digest here.
    GOLDEN_SHA256 = ("aa86c772a66e5ac2d0d1eaa2249966b4"
                     "b06f1a412357be624238fc5ca50e4ebd")

    def test_golden_bytes(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        assert CHECKPOINT_VERSION == 3
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.GOLDEN_SHA256

    def test_layout_is_metadata_then_float32_in_param_shapes_order(
            self, tmp_path):
        model = _tiny_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model)
        blob = json.dumps({"config": dataclasses.asdict(TINY),
                           "extra": {"mean": 0.5, "std": 2.0,
                                     "bin_kind": "chroma12"}},
                          sort_keys=True).encode("utf-8")
        tensors = b"".join(model.params[name].astype("<f4").tobytes()
                           for name, _ in param_shapes(TINY))
        assert p.read_bytes() == (b"CBCK" + struct.pack("<II", 3, len(blob))
                                  + blob + tensors)

    def test_round_trip(self, tmp_path):
        model = _tiny_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model)
        back = load_checkpoint(p)
        assert back.config == TINY
        assert back.stats == model.stats
        assert back.bin_kind == "chroma12"
        assert list(back.params) == [name for name, _ in param_shapes(TINY)]
        for k in model.params:
            assert np.array_equal(back.params[k], model.params[k])
            assert back.params[k].dtype == np.float32

    @staticmethod
    def _with_meta(path, edit):
        """Rewrite the checkpoint at ``path`` with ``edit`` applied to its metadata."""
        data = path.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        meta = json.loads(data[12:12 + meta_len])
        edit(meta)
        TestCheckpoint._with_meta_bytes(path, json.dumps(meta).encode("utf-8"))

    @staticmethod
    def _with_meta_bytes(path, blob):
        """Rewrite the checkpoint at ``path`` with metadata bytes ``blob``."""
        data = path.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                         + data[12 + meta_len:])

    @pytest.mark.parametrize("blob, message", [
        (b'{"config": "\xc8"}', "metadata is not UTF-8 JSON: 'utf-8' codec "
         "can't decode byte 0xc8 in position 12"),
        (b'{"config": {', "metadata is not UTF-8 JSON: Expecting"),
        (b'[]', "metadata is not a JSON object"),
        (b'{"config": ["seed"], "extra": {}}', "config is not a JSON object"),
        (b'{"config": {}, "extra": 1}', "extra is not a JSON object"),
    ], ids=["not-utf8", "not-json", "list", "config-list", "extra-number"])
    def test_malformed_metadata_names_file(self, tmp_path, blob, message):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        self._with_meta_bytes(p, blob)
        with pytest.raises(CheckpointError, match=re.escape(f"m.ckpt: {message}")):
            load_checkpoint(p)

    def test_corrupt_lengths_fail_before_reading(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        data = bytearray(p.read_bytes())
        data[8:12] = struct.pack("<I", 2 ** 32 - 1)
        p.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError,
                               match=re.escape("m.ckpt: truncated metadata")):
                load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_non_finite_values_name_file_and_tensor(self, tmp_path):
        model = _tiny_model()
        weights = model.params["classifier.w"].copy()
        weights[3, 4] = np.nan
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model({**model.params,
                                        "classifier.w": weights}))
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: tensor 'classifier.w' is not finite")):
            load_checkpoint(p)
        for key, value in [("mean", float("nan")), ("std", float("inf")),
                           ("std", "1.0")]:
            save_checkpoint(p, model)
            self._with_meta(p, lambda meta: meta["extra"].update({key: value}))
            with pytest.raises(CheckpointError, match=re.escape(
                    f"m.ckpt: extra: {key} is not a finite number: {value!r}")):
                load_checkpoint(p)

    def test_first_non_finite_tensor_is_named(self, tmp_path):
        params = init_params(TINY)
        params["layers.0.ln2.b"][1] = np.inf
        params["classifier.w"][0, 0] = np.nan
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model(params))
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: tensor 'layers.0.ln2.b' is not finite")):
            load_checkpoint(p)

    def test_config_keys_must_match_labeler_config(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["config"].update(dropout=0.1))
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: config keys differ from LabelerConfig: "
                "unknown ['dropout'], missing []")):
            load_checkpoint(p)
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["config"].pop("model_dim"))
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: config keys differ from LabelerConfig: "
                "unknown [], missing ['model_dim']")):
            load_checkpoint(p)
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["config"].update(model_dim=0))
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: config: model_dim must be at least 1")):
            load_checkpoint(p)

    def test_config_value_of_wrong_type_names_file(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["config"].update(model_dim="8"))
        with pytest.raises(CheckpointError, match=re.escape("m.ckpt: config: ")):
            load_checkpoint(p)

    @pytest.mark.parametrize("key, value, message", [
        ("n_heads", True, "n_heads must be an integer, got True"),
        ("model_dim", 8.0, "model_dim must be an integer, got 8.0"),
        ("seed", -1, "seed must be at least 0, got -1"),
        ("n_heads", 3, "model_dim 8 is not divisible by n_heads 3"),
    ])
    def test_config_field_types_name_file(self, tmp_path, key, value, message):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["config"].update({key: value}))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"m.ckpt: config: {message}")):
            load_checkpoint(p)

    @pytest.mark.parametrize("std", [0, 0.0, -2.0])
    def test_std_not_above_zero_names_file(self, tmp_path, std):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["extra"].update(std=std))
        with pytest.raises(CheckpointError, match=re.escape(
                f"m.ckpt: extra: std is not above 0: {std!r}")):
            load_checkpoint(p)

    @pytest.mark.parametrize("key, value, message", [
        ("bin_kind", "foo", "unknown bin kind 'foo'"),
    ])
    def test_input_recipe_values_name_file(self, tmp_path, key, value, message):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["extra"].update({key: value}))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"m.ckpt: extra: {message}")):
            load_checkpoint(p)

    @pytest.mark.parametrize("key, value", [("model_dim", 10 ** 6),
                                            ("n_layers", 10 ** 9)])
    def test_huge_config_fails_without_building_the_model(self, tmp_path,
                                                          key, value):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["config"].update({key: value}))
        have = 4 * count_params(init_params(TINY))
        # The walk stops at the first tensor past the block: in_proj.w of
        # (6, 10**6), or layers.1.attn.wo after 3,392 bytes.
        floor = {"model_dim": 4 * 6 * 10 ** 6, "n_layers": 3392 + 256}[key]
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=re.escape(
                    f"m.ckpt: tensor block holds {have} bytes, config needs "
                    f"at least {floor}")):
                load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @staticmethod
    def _assert_version_unsupported(tmp_path, version):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        data = bytearray(p.read_bytes())
        assert struct.unpack("<I", data[4:8]) == (3,)
        data[4:8] = struct.pack("<I", version)
        p.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=re.escape(
                f"m.ckpt: unsupported version {version}")):
            load_checkpoint(p)

    def test_version_1_is_unsupported(self, tmp_path):
        self._assert_version_unsupported(tmp_path, 1)

    def test_version_2_is_unsupported(self, tmp_path):
        self._assert_version_unsupported(tmp_path, 2)

    def test_config_block_holds_the_five_fields(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        data = p.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        meta = json.loads(data[12:12 + meta_len])
        assert meta["config"] == {"input_dim": 6, "model_dim": 8, "n_layers": 1,
                                  "n_heads": 2, "seed": 3}

    def test_extra_must_hold_the_input_recipe(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        self._with_meta(p, lambda meta: meta["extra"].pop("bin_kind"))
        with pytest.raises(CheckpointError,
                           match=re.escape("m.ckpt: extra lacks bin_kind")):
            load_checkpoint(p)

    def test_truncated_names_file_and_part(self, tmp_path):
        full = tmp_path / "m.ckpt"
        save_checkpoint(full, _tiny_model())
        data = full.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        p = tmp_path / "cut.ckpt"
        for cut, part in [(8, "header"), (12 + meta_len // 2, "metadata")]:
            p.write_bytes(data[:cut])
            with pytest.raises(CheckpointError,
                               match=re.escape(f"cut.ckpt: truncated {part}")):
                load_checkpoint(p)

    @pytest.mark.parametrize("change", [-1, 1], ids=["byte-short", "byte-extra"])
    def test_tensor_block_must_fit_the_config(self, tmp_path, change):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _tiny_model())
        data = p.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        need = 4 * count_params(init_params(TINY))
        assert len(data) == 12 + meta_len + need
        p.write_bytes(data[:len(data) + change] if change < 0
                      else data + b"\0" * change)
        with pytest.raises(CheckpointError, match=re.escape(
                f"m.ckpt: tensor block holds {need + change} bytes, "
                f"config needs {need}")):
            load_checkpoint(p)

    def test_cut_tensor_block_is_named_with_its_length(self, tmp_path):
        config = LabelerConfig(input_dim=144, model_dim=8, n_layers=1,
                               n_heads=2, seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, TrainedLabeler(config, init_params(config),
                                          NormStats(0.0, 1.0), "cqt_log"))
        data = p.read_bytes()
        assert 8000 < len(data) < 8192
        p.write_bytes(data[:-640])
        # 7,940 bytes less 640; the walk stops at classifier.w, whose
        # 800 bytes end at 7,840.
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: tensor block holds 7300 bytes, config needs at "
                "least 7840")):
            load_checkpoint(p)

    def test_save_refuses_float64(self, tmp_path):
        p = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: tensor 'in_proj.w' has dtype float64, "
                "expected float32")):
            save_checkpoint(p, _tiny_model(init_params(TINY, np.float64)))
        assert not p.exists()

    def test_missing_tensor_names_file_and_tensor(self, tmp_path):
        params = init_params(TINY)
        del params["classifier.b"]
        p = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: tensors differ from param_shapes: unknown [], "
                "missing ['classifier.b']")):
            save_checkpoint(p, _tiny_model(params))
        assert not p.exists()

    def test_tensor_shape_must_match_config(self, tmp_path):
        params = {**init_params(TINY),
                  "classifier.w": np.zeros((8, 5), dtype=np.float32)}
        p = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: tensor 'classifier.w' has shape (8, 5), "
                "expected (8, 25)")):
            save_checkpoint(p, _tiny_model(params))
        assert not p.exists()

    def test_unexpected_tensor_names_file_and_tensor(self, tmp_path):
        params = {**init_params(TINY),
                  "layers.1.ln1.g": np.ones(8, dtype=np.float32)}
        p = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match=re.escape(
                "m.ckpt: tensors differ from param_shapes: "
                "unknown ['layers.1.ln1.g'], missing []")):
            save_checkpoint(p, _tiny_model(params))
        assert not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


def _checkpoint_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(path, model)
        with open(path, "rb") as fh:
            return fh.read()


# _tiny_model()'s checkpoint (docs/checkpoint.md): a 12-byte header, whose
# u32 version and metadata length start at bytes 4 and 8, the metadata,
# then the tensors, in_proj.w[0, 0] first.
CKPT_BASE = _checkpoint_bytes(_tiny_model())
CKPT_TENSORS = 12 + struct.unpack("<I", CKPT_BASE[8:12])[0]
CKPT_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, len(CKPT_BASE) - 1),
              st.integers(0, 7)),
    st.tuples(st.just("word"), st.integers(0, len(CKPT_BASE) - 4),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("truncate"), st.integers(0, len(CKPT_BASE) - 1),
              st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, len(CKPT_BASE)),
              st.integers(0, 255)))
# A fixed track of chroma12 features for _tiny_model()'s 6 inputs.
MUTANT_INPUT = FeatureMatrix(
    np.random.Generator(np.random.PCG64(7)).standard_normal((20, 6)),
    "chroma12")


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(CKPT_MUTATIONS)
@example(("truncate", len(CKPT_BASE), 0))  # the base itself, unchanged
# in_proj.w[0, 0] at 2.4e38: finite, so the checkpoint loads.
@example(("word", CKPT_TENSORS,
          struct.unpack("<I", struct.pack("<f", 2.4e38))[0]))
def test_checkpoint_mutants_load_or_name_the_file(tmp_path, mutation):
    """Each mutant raises :class:`CheckpointError` naming the file, or loads
    as a model that labels a track or raises :class:`FeatureError`."""
    p = tmp_path / "mutant.ckpt"
    p.write_bytes(mutate(CKPT_BASE, mutation))
    try:
        model = load_checkpoint(p)
    except CheckpointError as exc:
        assert str(exc).startswith(f"{p}: "), str(exc)
        return
    try:
        track = model.recognize(MUTANT_INPUT, "t")
    except FeatureError:
        return
    assert isinstance(track, SegmentTrack)
