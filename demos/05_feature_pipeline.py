"""Constant-Q features: analysis, log amplitude, windows, pitch shift."""

import numpy as np

from chordbench.features import (HOP, AudioBuffer, SAMPLE_RATE, cqt,
                                 log_amplitude, pitch_shift_cqt, window_slices,
                                 zscore_apply, zscore_fit)

t = np.arange(12 * SAMPLE_RATE) / SAMPLE_RATE
audio = AudioBuffer(np.sin(2 * np.pi * 440.0 * t))

mags = cqt(audio)
print(f"CQT of a 12 s 440 Hz sine: {mags.n_frames} frames x {mags.n_bins} bins "
      f"(hop {HOP} samples)")
mid = mags.n_frames // 2
print(f"strongest bin at mid-track: {mags.values[mid].argmax()} "
      "(A4 sits 45 semitones = 90 quarter-tone bins above C1)")

logf = log_amplitude(mags)
print(f"log amplitude range: [{logf.values.min():.1f}, {logf.values.max():.1f}]"
      " (silence floors at ln 1e-6 = -13.8)")

stats = zscore_fit([logf])
normed = zscore_apply(logf, stats)
print(f"after z-normalization: mean {normed.values.mean():+.2e}, "
      f"std {normed.values.std():.3f}")

up = pitch_shift_cqt(logf, 1)
print(f"shift +1 semitone moves the peak to bin {up.values[mid].argmax()} "
      "(2 bins per semitone)")

windows = window_slices(normed.n_frames)
print(f"{normed.n_frames} frames -> {len(windows)} training windows of 108 "
      f"frames, stride 54; last window has "
      f"{len(normed.values[windows[-1]])} valid frames")
