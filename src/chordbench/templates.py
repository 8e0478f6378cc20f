"""Chroma-template chord recognizer.

The classic knowledge-based baseline: fold log-CQT features to a
12-dimensional pitch-class profile, then pick the chord whose binary triad
template has the highest cosine similarity per frame.  Frames whose total
energy falls below 1% of the track's median frame energy (a level-invariant
rule) are labeled no-chord.

Like the labeler, the recognizer hands ``(frames, 25)`` scores to
:func:`~chordbench.features.decode_scores`; the no-chord rule is the N column
of :func:`template_scores`, ``+inf`` on low-energy frames, ``-inf`` elsewhere.
"""

from __future__ import annotations

import numpy as np

from .annotations import SegmentTrack
from .features import BINS_PER_OCTAVE, FeatureError, FeatureMatrix, decode_scores
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
    class ``(k // 2) % 12``; magnitudes are recovered with exp, in float64
    whatever the input's dtype, before summing.  A frame whose magnitudes
    overflow (a log-CQT value above about 709) raises :class:`FeatureError`
    naming the first such frame.
    """
    if features.bin_kind != "cqt_log":
        raise FeatureError(f"expected log-CQT features, got {features.bin_kind}")
    if features.n_bins % BINS_PER_OCTAVE != 0:
        raise FeatureError(f"bin count {features.n_bins} is not a whole "
                           "number of octaves")
    classes = (np.arange(features.n_bins) // 2) % 12
    folded = np.zeros((features.n_frames, 12))
    with np.errstate(over="ignore"):
        mags = np.exp(features.values, dtype=np.float64)
        for p in range(12):
            folded[:, p] = mags[:, classes == p].sum(axis=1)
    overflowed = ~np.isfinite(folded).all(axis=1)
    if overflowed.any():
        frame = int(overflowed.argmax())
        raise FeatureError(f"frame {frame}: log-CQT values up to "
                           f"{features.values[frame].max():g} are too large "
                           "for exp")
    return FeatureMatrix(folded, "chroma12")


def template_scores(chroma: FeatureMatrix) -> np.ndarray:
    """Per-frame scores of the 25 classes, shape (frames, 25), of ``chroma12``.

    Columns 0-23 are the cosine similarity to each triad (0 for an all-zero
    frame); the N column is ``+inf`` below the adaptive threshold, else ``-inf``.
    """
    if chroma.bin_kind != "chroma12":
        raise FeatureError(f"expected chroma12 features, got {chroma.bin_kind}")
    values = chroma.values

    energy = values.sum(axis=1)
    threshold = ADAPTIVE_THRESHOLD_FRACTION * float(np.median(energy))

    t_norm = np.linalg.norm(TRIAD_TEMPLATES, axis=1)
    f_norm = np.linalg.norm(values, axis=1)
    sims = values @ TRIAD_TEMPLATES.T
    denom = np.outer(f_norm, t_norm)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0, sims / denom, 0.0)
    return np.column_stack([sims, np.where(energy < threshold, np.inf, -np.inf)])


def template_predict(chroma: FeatureMatrix) -> np.ndarray:
    """Per-frame class indices: the argmax of :func:`template_scores`."""
    return template_scores(chroma).argmax(axis=1)


def recognize_track(features: FeatureMatrix, source_id: str) -> SegmentTrack:
    """The template recognizer: log-CQT features to a normalized chord track."""
    return decode_scores(template_scores(fold_to_chroma(features)), source_id)
