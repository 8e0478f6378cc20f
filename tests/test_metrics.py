import numpy as np
import pytest

from chordbench import metrics
from chordbench.annotations import SegmentTrack, TimedSegment, normalize
from chordbench.labels import (majmin_label, parse_harte, pitch_class_set,
                               transpose)
from chordbench.metrics import (METRICS, EvaluationError, TrackScore,
                                aggregate_fold, align, ccm, evaluate_pair,
                                majmin_metric, mirex_metric, root_metric,
                                weighted_score)

ALL_CLASSES = [majmin_label(c) for c in range(25)]


def lab(text):
    return parse_harte(text)


def track(*triples, source_id="t"):
    return SegmentTrack(tuple(TimedSegment(s, e, parse_harte(l))
                              for s, e, l in triples), source_id)


def ccm_oracle(ref, pred):
    """Set-arithmetic reference implementation, independent of metrics.ccm."""
    y = set(pitch_class_set(ref))
    y_hat = set(pitch_class_set(pred))
    if len(y) == 0 and len(y_hat) == 0:
        return 1.0
    if len(y) == 0:
        return 0.0
    c = sum(1 for p in y_hat if p in y)
    i = sum(1 for p in y_hat if p not in y)
    raw = (c - i + len(y)) / (2.0 * len(y))
    return min(1.0, max(0.0, raw))


def grid_score(ref_track, pred_track, metric, cell_s=0.001):
    """Grid-sampling oracle: evaluate the metric on every 1 ms cell.

    Uses searchsorted lookups and a per-label-pair table, but every cell is
    scored independently; no boundary sweep is involved.
    """
    start, end = ref_track.start_s, ref_track.end_s
    n_cells = int(round((end - start) / cell_s))
    mids = start + (np.arange(n_cells) + 0.5) * cell_s

    def cell_labels(t):
        starts = np.array([s.start_s for s in t.segments])
        idx = np.searchsorted(starts, mids, side="right") - 1
        return idx

    ref_idx = cell_labels(ref_track)
    pred_idx = cell_labels(pred_track)
    table = {}
    total = 0.0
    for ri, pi in zip(ref_idx, pred_idx):
        key = (int(ri), int(pi))
        if key not in table:
            table[key] = metric(ref_track.segments[ri].label,
                                pred_track.segments[pi].label)
        total += table[key]
    return total / n_cells


def random_normalized_pair(rng, length_ms=15000):
    def one(source_id):
        n_cuts = int(rng.integers(3, 12))
        cuts = np.sort(rng.choice(np.arange(1, length_ms), n_cuts, replace=False))
        bounds = np.concatenate([[0], cuts, [length_ms]]) / 1000.0
        segs = [TimedSegment(s, e, majmin_label(int(rng.integers(0, 25))))
                for s, e in zip(bounds[:-1], bounds[1:])]
        return normalize(SegmentTrack(tuple(segs), source_id))
    return one("ref"), one("pred")


class TestSingleChordMetrics:
    def test_root_examples(self):
        assert root_metric(lab("C:maj"), lab("C:min")) == 1.0
        assert root_metric(lab("C:maj"), lab("G:maj")) == 0.0
        assert root_metric(lab("N"), lab("N")) == 1.0
        assert root_metric(lab("N"), lab("C:maj")) == 0.0

    def test_majmin_examples(self):
        assert majmin_metric(lab("C:maj7"), lab("C:maj")) == 1.0
        assert majmin_metric(lab("C:maj"), lab("C:min")) == 0.0
        assert majmin_metric(lab("N"), lab("C:maj")) == 0.0

    def test_mirex_examples(self):
        assert mirex_metric(lab("C:maj"), lab("C:maj7")) == 1.0
        assert mirex_metric(lab("C:maj"), lab("A:min")) == 0.0
        assert mirex_metric(lab("C:maj"), lab("C:maj")) == 1.0
        assert mirex_metric(lab("N"), lab("N")) == 1.0

    def test_ccm_worked_values(self):
        assert ccm(lab("C:maj"), lab("C:maj")) == 1.0
        assert ccm(lab("C:maj"), lab("C:min")) == pytest.approx(4.0 / 6.0)
        assert ccm(lab("C:maj"), lab("G:maj")) == pytest.approx(2.0 / 6.0)
        assert ccm(lab("C:maj"), lab("N")) == 0.5
        assert ccm(lab("N"), lab("N")) == 1.0
        assert ccm(lab("N"), lab("C:maj")) == 0.0

    def test_ccm_matches_oracle_exhaustively(self):
        for a in ALL_CLASSES:
            for b in ALL_CLASSES:
                assert ccm(a, b) == ccm_oracle(a, b)

    def test_ccm_is_one_iff_equal_sets(self):
        for a in ALL_CLASSES:
            for b in ALL_CLASSES:
                value = ccm(a, b)
                assert 0.0 <= value <= 1.0
                equal_sets = pitch_class_set(a) == pitch_class_set(b)
                assert (value == 1.0) == equal_sets

    def test_identity_scores_one(self):
        for metric in METRICS.values():
            for a in ALL_CLASSES:
                assert metric(a, a) == 1.0

    def test_transposition_equivariance(self):
        for metric in METRICS.values():
            for a in ALL_CLASSES:
                for b in ALL_CLASSES:
                    base = metric(a, b)
                    for k in range(12):
                        assert metric(transpose(a, k), transpose(b, k)) == base


class TestAlign:
    def test_boundary_union_example(self):
        ref = track((0, 2, "C:maj"), (2, 4, "G:maj"))
        pred = track((0, 1, "C:maj"), (1, 4, "G:maj"))
        pairs = align(ref, pred)
        got = [(p.start_s, p.end_s, str(p.ref_label), str(p.pred_label))
               for p in pairs]
        assert got == [(0, 1, "C:maj", "C:maj"), (1, 2, "C:maj", "G:maj"),
                       (2, 4, "G:maj", "G:maj")]

    def test_identical_tracks(self):
        t = track((0, 2, "C:maj"), (2, 4, "G:maj"))
        for p in align(t, t):
            assert p.ref_label == p.pred_label

    def test_all_nochord_prediction(self):
        ref = track((0, 2, "C:maj"), (2, 4, "G:maj"))
        pred = track((0, 4, "N"))
        assert all(p.pred_label.is_nochord for p in align(ref, pred))

    def test_span_mismatch(self):
        with pytest.raises(EvaluationError, match="span mismatch"):
            align(track((0, 4, "C:maj")), track((0, 5, "C:maj")))

    def test_partition_covers_span(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(20):
            ref, pred = random_normalized_pair(rng)
            pairs = align(ref, pred)
            assert pairs[0].start_s == ref.start_s
            assert pairs[-1].end_s == pytest.approx(ref.end_s)
            total = sum(p.duration_s for p in pairs)
            assert total == pytest.approx(ref.end_s - ref.start_s, rel=1e-12)


class TestWeightedScore:
    def test_worked_example(self):
        ref = track((0, 2, "C:maj"), (2, 4, "G:maj"))
        pred = track((0, 1, "C:maj"), (1, 4, "G:maj"))
        assert weighted_score(ref, pred, majmin_metric).value == pytest.approx(0.75)

    def test_perfect_prediction(self):
        rng = np.random.Generator(np.random.PCG64(4))
        ref, _ = random_normalized_pair(rng)
        for metric in METRICS.values():
            assert weighted_score(ref, ref, metric).value == 1.0

    def test_matches_grid_oracle(self):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(20):
            ref, pred = random_normalized_pair(rng, length_ms=8000)
            for metric in METRICS.values():
                sweep = weighted_score(ref, pred, metric).value
                grid = grid_score(ref, pred, metric)
                assert abs(sweep - grid) <= 1e-9 * max(1.0, abs(grid))

    def test_subdivision_invariance(self):
        ref = track((0, 2, "C:maj"), (2, 4, "G:maj"))
        pred = track((0, 4, "C:maj"))
        base = weighted_score(ref, pred, majmin_metric).value
        split = track((0, 1.3, "C:maj"), (1.3, 2, "C:maj"), (2, 4, "G:maj"))
        assert weighted_score(split, pred, majmin_metric).value == pytest.approx(base)

    def test_duration_scaling_invariance(self):
        rng = np.random.Generator(np.random.PCG64(8))
        ref, pred = random_normalized_pair(rng)
        base = weighted_score(ref, pred, ccm).value
        scale = 3.0

        def scaled(t):
            return SegmentTrack(tuple(
                TimedSegment(s.start_s * scale, s.end_s * scale, s.label)
                for s in t), t.source_id)
        assert weighted_score(scaled(ref), scaled(pred), ccm).value == \
            pytest.approx(base, rel=1e-12)


class TestEvaluatePair:
    def test_crops_prediction_to_reference(self):
        ref = track((0, 4, "C:maj"))
        pred = track((0, 4, "C:maj"), (4, 9, "G:maj"))
        scores = evaluate_pair(ref, pred, ["majmin"])
        assert scores["majmin"].value == 1.0
        assert scores["majmin"].total_duration_s == pytest.approx(4.0)

    def test_pads_short_prediction_with_nochord(self):
        ref = track((0, 4, "C:maj"))
        pred = track((0, 2, "C:maj"))
        scores = evaluate_pair(ref, pred, ["majmin"])
        assert scores["majmin"].value == pytest.approx(0.5)

    def test_aligns_once_for_every_metric(self, monkeypatch):
        ref, pred = random_normalized_pair(np.random.Generator(np.random.PCG64(12)))
        calls = []

        def counting_align(a, b):
            calls.append((a, b))
            return align(a, b)

        monkeypatch.setattr(metrics, "align", counting_align)
        scores = evaluate_pair(ref, pred, METRICS)
        assert len(calls) == 1
        assert list(scores) == list(METRICS)
        for name, metric in METRICS.items():
            assert scores[name] == weighted_score(ref, pred, metric)


class TestAggregateFold:
    def test_single_song(self):
        assert aggregate_fold([TrackScore(0.8, 12.0)]) == pytest.approx(0.8)

    def test_duration_weighting(self):
        scores = [TrackScore(0.5, 10.0), TrackScore(1.0, 30.0)]
        assert aggregate_fold(scores) == pytest.approx(0.875)

    def test_all_equal(self):
        scores = [TrackScore(0.6, d) for d in (5.0, 10.0, 20.0)]
        assert aggregate_fold(scores) == pytest.approx(0.6)

    def test_empty_error(self):
        with pytest.raises(EvaluationError):
            aggregate_fold([])
