"""Per-layer metrics of a traced run.

The layers are the ``chordbench`` modules.  :class:`LayerProbe` supplies the
tracer hooks that count what a span alone cannot show (distinct ``cqt``
inputs, backward passes, training frames, epochs) and turns the tracer's
summary into the ``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from chordbench import features

# Functions whose self time is reported, by span name.
SELF_TIMES = (
    "features.cqt", "features.load_wav", "features.log_amplitude",
    "features.pitch_shift_cqt", "features.read_feature_cache",
    "features.window_slices",
    "templates.fold_to_chroma", "templates.template_predict",
    "labeler.train", "labeler.loss_and_grad", "labeler.forward",
    "labeler.frame_accuracy", "labeler.loss_value", "labeler.predict_track",
    "harness.run_experiment", "harness.fit",
    "metrics.evaluate_pair", "annotations.read_lab", "annotations.normalize",
    "synth.emit_dataset", "synth.render_audio",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "cli.cmd_train", "cli.cmd_predict", "cli.cmd_eval",
)
# Functions whose inclusive time is reported: the per-epoch monitoring
# sweeps, whose cost sits in their child ``labeler.forward`` spans.
TOTAL_TIMES = ("labeler.frame_accuracy", "labeler.loss_value")
# Functions whose call count is reported.
CALLS = ("features.cqt", "labeler.loss_and_grad", "labeler.forward",
         "metrics.evaluate_pair")
# Layers whose summed self time is reported as ``<layer>.self_s``.
LAYERS = ("features", "templates", "labeler", "harness", "metrics",
          "annotations", "synth", "checkpoint", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class LayerProbe:
    """Tracer hooks plus the arithmetic that turns spans into metrics."""

    def __init__(self):
        # Window lengths of the direct-projection CQT, read before tracing.
        self.cqt_window_total = int(features.cqt_window_lengths().sum())
        self.cqt_inputs = set()
        self.cqt_macs = 0
        self.backward_passes = 0
        self.train_frames = 0
        self.epochs_run = 0

    def hooks(self) -> dict:
        return {"features.cqt": self._cqt,
                "labeler.loss_and_grad": self._loss_and_grad,
                "labeler.train": self._train}

    def _cqt(self, args, kwargs, result):
        samples = np.ascontiguousarray(_arg(args, kwargs, 0, "audio").samples)
        self.cqt_inputs.add(hashlib.blake2b(samples.tobytes(),
                                            digest_size=16).digest())
        # Two real products (cos and sin) per bin, window and frame.
        self.cqt_macs += 2 * self.cqt_window_total * result.n_frames

    def _loss_and_grad(self, args, kwargs, result):
        for item in _arg(args, kwargs, 2, "batch"):
            self.backward_passes += 1
            self.train_frames += int(item.valid_mask().sum())

    def _train(self, args, kwargs, result):
        self.epochs_run += result[1].epochs_run

    def metrics(self, summary: dict) -> dict:
        """``{metric name: (value, unit)}`` from a tracer summary."""

        def get(name, key):
            return summary.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = (get(name, "calls"), "count")
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (get(name, "self_s"), "s")
        for name in TOTAL_TIMES:
            out[f"{name}.total_s"] = (get(name, "total_s"), "s")
        out["features.zscore.self_s"] = (
            get("features.zscore_fit", "self_s")
            + get("features.zscore_apply", "self_s"), "s")
        out["features.cqt.tracks_per_call"] = (
            ratio(len(self.cqt_inputs), get("features.cqt", "calls")), "ratio")
        out["features.cqt.gmac"] = (self.cqt_macs / 1e9, "GMAC")
        # Each multiply-accumulate streams one float64 sample.
        out["features.cqt.gb_read"] = (8 * self.cqt_macs / 1e9, "GB")
        out["labeler.backward_passes"] = (self.backward_passes, "count")
        out["labeler.forward_per_step"] = (
            ratio(get("labeler.forward", "calls"), self.backward_passes),
            "ratio")
        out["labeler.epochs_run"] = (self.epochs_run, "count")
        out["labeler.train_frames_per_s"] = (
            ratio(self.train_frames, get("labeler.train", "total_s")), "1/s")
        out["harness.folds_computed"] = (get("harness.fit", "calls"), "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(v["self_s"] for k, v in summary.items()
                    if k.startswith(layer + ".")), "s")
        return out
