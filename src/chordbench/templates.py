"""Chroma-template chord recognizer.

The classic knowledge-based baseline: fold log-CQT features to a
12-dimensional pitch-class profile, then pick the chord whose binary triad
template has the highest cosine similarity per frame.  Frames whose total
energy falls below a threshold (by default 1% of the track's median frame
energy, which keeps the rule level-invariant) are labeled no-chord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotations import SegmentTrack
from .features import BINS_PER_OCTAVE, FeatureError, FeatureMatrix, frames_to_track
from .labels import N_MAJMIN_CLASSES, NOCHORD_CLASS

ADAPTIVE_THRESHOLD_FRACTION = 0.01


@dataclass(frozen=True)
class ChromaTemplates:
    """Binary 12-vector templates for the 25-class vocabulary.

    ``energy_threshold`` of None selects the adaptive per-track default.
    """

    templates: np.ndarray
    energy_threshold: float | None = None

    def __post_init__(self):
        t = np.asarray(self.templates, dtype=np.float64)
        if t.shape != (N_MAJMIN_CLASSES, 12):
            raise ValueError(f"templates have shape {t.shape}")
        object.__setattr__(self, "templates", t)


def default_templates(energy_threshold: float | None = None) -> ChromaTemplates:
    """Major/minor triad templates; the no-chord template is all zero."""
    t = np.zeros((N_MAJMIN_CLASSES, 12))
    for root in range(12):
        t[root, [root, (root + 4) % 12, (root + 7) % 12]] = 1.0
        t[12 + root, [root, (root + 3) % 12, (root + 7) % 12]] = 1.0
    return ChromaTemplates(t, energy_threshold)


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


def template_predict(chroma, templates: ChromaTemplates | None = None) -> np.ndarray:
    """Per-frame class indices from cosine similarity against the templates.

    ``chroma`` is a (frames, 12) array or a chroma FeatureMatrix.  Ties
    break toward the lowest class index; low-energy frames map to no-chord.
    """
    if templates is None:
        templates = default_templates()
    values = chroma.values if isinstance(chroma, FeatureMatrix) else np.asarray(chroma)
    if values.ndim != 2 or values.shape[1] != 12:
        raise FeatureError(f"expected (frames, 12) chroma, got {values.shape}")

    energy = values.sum(axis=1)
    threshold = templates.energy_threshold
    if threshold is None:
        threshold = ADAPTIVE_THRESHOLD_FRACTION * float(np.median(energy))

    chord_templates = templates.templates[:24]
    t_norm = np.linalg.norm(chord_templates, axis=1)
    f_norm = np.linalg.norm(values, axis=1)
    sims = values @ chord_templates.T
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
