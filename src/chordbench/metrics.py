"""Chord comparison metrics and duration-weighted sequence scoring.

Single-chord metrics score a (reference, predicted) label pair in [0, 1]:

- ``root``: 1 iff the roots match (both no-chord also counts as a match).
- ``majmin``: 1 iff both labels reduce to the same major/minor/no-chord class.
- ``mirex``: 1 iff the labels share at least three pitch classes.
- ``ccm``: graded content score (C - I + |y|) / (2|y|) over pitch-class sets,
  where y is the reference set, C the correctly predicted classes, and I the
  extra predicted classes.

Sequence scoring aligns two tracks on the union of their boundaries and
averages a single-chord metric weighted by segment duration.  With a binary
metric this equals the weighted chord symbol recall (correct duration over
total duration).
"""

from __future__ import annotations

from dataclasses import dataclass

from .annotations import TIME_EPS, SegmentTrack, crop, normalize
from .labels import ChordLabel, pitch_class_set, to_majmin


class EvaluationError(ValueError):
    """Raised for unusable track pairs (span mismatch, zero-length span)."""


def root_metric(ref: ChordLabel, pred: ChordLabel) -> float:
    if ref.is_nochord and pred.is_nochord:
        return 1.0
    if ref.is_nochord or pred.is_nochord:
        return 0.0
    return 1.0 if ref.root == pred.root else 0.0


def majmin_metric(ref: ChordLabel, pred: ChordLabel) -> float:
    return 1.0 if to_majmin(ref) == to_majmin(pred) else 0.0


def mirex_metric(ref: ChordLabel, pred: ChordLabel) -> float:
    if ref.is_nochord and pred.is_nochord:
        return 1.0
    common = pitch_class_set(ref) & pitch_class_set(pred)
    return 1.0 if len(common) >= 3 else 0.0


def ccm(ref: ChordLabel, pred: ChordLabel) -> float:
    y = pitch_class_set(ref)
    y_hat = pitch_class_set(pred)
    if not y:
        return 1.0 if not y_hat else 0.0
    correct = len(y & y_hat)
    extra = len(y_hat - y)
    value = (correct - extra + len(y)) / (2 * len(y))
    return min(1.0, max(0.0, value))


METRICS = {
    "root": root_metric,
    "majmin": majmin_metric,
    "mirex": mirex_metric,
    "ccm": ccm,
}


@dataclass(frozen=True)
class AlignedSegment:
    start_s: float
    end_s: float
    ref_label: ChordLabel
    pred_label: ChordLabel

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class TrackScore:
    value: float
    total_duration_s: float


def align(ref_track: SegmentTrack, pred_track: SegmentTrack) -> list:
    """Overlay two normalized tracks on the union of their boundaries.

    Both tracks must partition the same span (within 1e-6 s).  Every output
    interval carries exactly one reference and one predicted label, and the
    intervals partition the span.
    """
    if not ref_track.segments or not pred_track.segments:
        raise EvaluationError("cannot align empty tracks")
    if (abs(ref_track.start_s - pred_track.start_s) > 1e-6
            or abs(ref_track.end_s - pred_track.end_s) > 1e-6):
        raise EvaluationError(
            f"span mismatch: reference ({ref_track.start_s}, {ref_track.end_s}) "
            f"vs prediction ({pred_track.start_s}, {pred_track.end_s})")

    boundaries = sorted({s.start_s for s in ref_track}
                        | {s.start_s for s in pred_track}
                        | {ref_track.end_s})
    merged = [boundaries[0]]
    for b in boundaries[1:]:
        if b - merged[-1] > TIME_EPS:
            merged.append(b)

    out = []
    ref_i = pred_i = 0
    ref_segs, pred_segs = ref_track.segments, pred_track.segments
    for start, end in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (start + end)
        while ref_i + 1 < len(ref_segs) and ref_segs[ref_i].end_s <= mid:
            ref_i += 1
        while pred_i + 1 < len(pred_segs) and pred_segs[pred_i].end_s <= mid:
            pred_i += 1
        out.append(AlignedSegment(start, end,
                                  ref_segs[ref_i].label, pred_segs[pred_i].label))
    return out


def weighted_score(ref_track: SegmentTrack, pred_track: SegmentTrack,
                   metric) -> TrackScore:
    """Duration-weighted mean of a single-chord metric over aligned segments."""
    return _weighted(align(ref_track, pred_track), metric)


def _weighted(pairs, metric) -> TrackScore:
    total = sum(p.duration_s for p in pairs)
    if total <= 0:
        raise EvaluationError("zero-length evaluation span")
    acc = sum(p.duration_s * metric(p.ref_label, p.pred_label) for p in pairs)
    return TrackScore(acc / total, total)


def evaluate_pair(ref_track: SegmentTrack, pred_track: SegmentTrack,
                  metrics=("root", "majmin", "mirex", "ccm")) -> dict:
    """Score a prediction against a reference over the reference extent.

    The evaluation span runs from 0.0 to the reference end; both tracks are
    gap-filled with no-chord over that span and the prediction is cropped to
    it.  The two are aligned once and scored with each metric named in
    ``metrics``; returns ``{metric_name: TrackScore}``.
    """
    if not ref_track.segments:
        raise EvaluationError("empty reference track")
    span = (0.0, ref_track.end_s)
    pairs = align(normalize(ref_track, span),
                  normalize(crop(pred_track, *span), span))
    return {name: _weighted(pairs, METRICS[name]) for name in metrics}


def aggregate_fold(scores) -> float:
    """Combine per-song scores into one fold-level score, weighted by duration."""
    scores = list(scores)
    if not scores:
        raise EvaluationError("no scores to aggregate")
    total = sum(s.total_duration_s for s in scores)
    if total <= 0:
        raise EvaluationError("zero total duration in fold")
    return sum(s.value * s.total_duration_s for s in scores) / total
