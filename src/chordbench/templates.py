"""Chroma-template chord recognizer.

The classic knowledge-based baseline: fold log-CQT features to a
12-dimensional pitch-class profile, then pick the chord whose binary triad
template has the highest cosine similarity per frame.  Frames whose total
energy falls below 1% of the track's median frame energy (a level-invariant
rule) are labeled no-chord.
"""

from __future__ import annotations

import numpy as np

from .annotations import SegmentTrack
from .features import BINS_PER_OCTAVE, FeatureError, FeatureMatrix, frames_to_track
from .labels import NOCHORD_CLASS, majmin_label, pitch_class_set

ADAPTIVE_THRESHOLD_FRACTION = 0.01


def _triad_templates() -> np.ndarray:
    """Binary pitch-class rows of the triad classes ``0 .. NOCHORD_CLASS-1``."""
    rows = np.zeros((NOCHORD_CLASS, 12))
    for index in range(NOCHORD_CLASS):
        rows[index, sorted(pitch_class_set(majmin_label(index)))] = 1.0
    rows.flags.writeable = False
    return rows


TRIAD_TEMPLATES = _triad_templates()


def fold_to_chroma(features: FeatureMatrix) -> FeatureMatrix:
    """Collapse log-CQT bins to 12 pitch-class magnitudes per frame.

    Bin k sits 2 bins per semitone above C1, so it contributes to pitch
    class ``(k // 2) % 12``; magnitudes are recovered with exp before
    summing.
    """
    if features.bin_kind != "cqt_log":
        raise FeatureError(f"expected log-CQT features, got {features.bin_kind}")
    if features.n_bins % BINS_PER_OCTAVE != 0:
        raise FeatureError(f"bin count {features.n_bins} is not a whole "
                           "number of octaves")
    mags = np.exp(features.values)
    classes = (np.arange(features.n_bins) // 2) % 12
    folded = np.zeros((features.n_frames, 12))
    for p in range(12):
        folded[:, p] = mags[:, classes == p].sum(axis=1)
    return FeatureMatrix(folded, features.hop_samples, features.sample_rate_hz,
                         "chroma12")


def template_predict(chroma) -> np.ndarray:
    """Per-frame class indices from cosine similarity against the triads.

    ``chroma`` is a (frames, 12) array or a chroma FeatureMatrix.  Ties
    break toward the lowest class index; low-energy frames map to no-chord.
    """
    values = chroma.values if isinstance(chroma, FeatureMatrix) else np.asarray(chroma)
    if values.ndim != 2 or values.shape[1] != 12:
        raise FeatureError(f"expected (frames, 12) chroma, got {values.shape}")

    energy = values.sum(axis=1)
    threshold = ADAPTIVE_THRESHOLD_FRACTION * float(np.median(energy))

    t_norm = np.linalg.norm(TRIAD_TEMPLATES, axis=1)
    f_norm = np.linalg.norm(values, axis=1)
    sims = values @ TRIAD_TEMPLATES.T
    denom = np.outer(f_norm, t_norm)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0, sims / denom, 0.0)
    classes = sims.argmax(axis=1)
    classes[energy < threshold] = NOCHORD_CLASS
    return classes.astype(np.int64)


def recognize_track(features: FeatureMatrix, source_id: str = "") -> SegmentTrack:
    """The template recognizer: log-CQT features to a normalized chord track."""
    chroma = fold_to_chroma(features)
    classes = template_predict(chroma)
    return frames_to_track(classes, chroma.hop_samples, chroma.sample_rate_hz,
                           source_id)
