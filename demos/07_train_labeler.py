"""Train the self-attention labeler on synthetic excerpts and verify its
gradients against finite differences."""

import numpy as np

from chordbench.annotations import normalize
from chordbench.features import SAMPLE_RATE, align_labels, cqt, log_amplitude
from chordbench.labeler import (LabelerConfig, SequenceExample, count_params,
                                flatten_params, init_params, loss_and_grad,
                                loss_value, train, unflatten_params,
                                windowed_examples)
from chordbench.synth import (SynthSpec, default_pop_model, quantize_track,
                              render_audio, sample_progression)
from chordbench.templates import fold_to_chroma

# -- gradient check on a tiny float64 instance ------------------------------
config = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=3)
params = init_params(config, dtype=np.float64)
rng = np.random.Generator(np.random.PCG64(0))
batch = [SequenceExample(rng.standard_normal((8, 6)), rng.integers(0, 25, 8))]
_, grads, _ = loss_and_grad(params, config, batch)
flat, analytic = flatten_params(params), flatten_params(grads)
h = 1e-3
numeric = np.zeros_like(flat)
for i in range(len(flat)):
    up, dn = flat.copy(), flat.copy()
    up[i] += h
    dn[i] -= h
    numeric[i] = (loss_value(unflatten_params(params, up), config, batch)
                  - loss_value(unflatten_params(params, dn), config, batch)) / (2 * h)
rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
print(f"gradient check: {count_params(params)} parameters, "
      f"max relative error {rel.max():.2e} vs central differences")

# -- overfit a handful of synthetic excerpts --------------------------------
spec = SynthSpec(n_tracks=1, track_length_s=20.0, octaves=(3, 4), seed=0)
model = default_pop_model()
mats = []
for seed in range(3):
    track = normalize(quantize_track(
        sample_progression(model, 20.0, seed), SAMPLE_RATE))
    feats = fold_to_chroma(log_amplitude(cqt(render_audio(track, spec))))
    mats.append((feats, align_labels(track, feats)))

items, _ = windowed_examples(mats)

train_config = LabelerConfig(input_dim=12, model_dim=32, n_layers=1,
                             n_heads=4, seed=1)
print(f"\ntraining on {len(items)} windows of 108 frames...")
params, report = train(train_config, items, lr=3e-3, batch_size=len(items),
                       max_epochs=120, patience=120)
for epoch in (0, 19, 59, report.epochs_run - 1):
    print(f"  epoch {epoch + 1:3d}: loss {report.losses[epoch]:.4f}  "
          f"frame accuracy {report.accuracies[epoch]:.3f}")
# With no validation set, an epoch's accuracy is that of its own steps.
print(f"deterministic given the seed; last epoch's training accuracy "
      f"{report.accuracies[-1]:.3f}")
