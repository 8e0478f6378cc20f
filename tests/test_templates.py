import numpy as np
import pytest

from chordbench.features import (FeatureError, FeatureMatrix, N_BINS, cqt,
                                 log_amplitude)
from chordbench.labels import NOCHORD_CLASS, transpose_majmin
from chordbench.templates import (ADAPTIVE_THRESHOLD_FRACTION, fold_to_chroma,
                                  recognize_track, template_predict,
                                  template_scores)
from test_features import sine, interior_frames


def log_matrix(values):
    return FeatureMatrix(np.asarray(values, dtype=np.float64), "cqt_log")


def chroma(values):
    return FeatureMatrix(np.asarray(values, dtype=np.float64), "chroma12")


class TestFoldToChroma:
    def test_sine_folds_to_pitch_class(self):
        audio = sine(440.0)
        folded = fold_to_chroma(log_amplitude(cqt(audio)))
        lo, hi = interior_frames(len(audio.samples), folded.n_frames)
        assert np.all(folded.values[lo:hi + 1].argmax(axis=1) == 9)  # A

    def test_silence_near_zero(self):
        folded = fold_to_chroma(log_matrix(np.full((4, N_BINS), np.log(1e-6))))
        assert folded.values.max() < 1e-4
        assert np.allclose(folded.values, folded.values[0, 0])

    def test_bin_zero_maps_to_c(self):
        values = np.full((2, N_BINS), np.log(1e-6))
        values[:, 0] = 0.0  # unit magnitude at the lowest bin (C1)
        folded = fold_to_chroma(log_matrix(values))
        assert np.all(folded.values.argmax(axis=1) == 0)

    def test_rejects_wrong_bin_count(self):
        with pytest.raises(FeatureError):
            fold_to_chroma(log_matrix(np.zeros((2, 100))))


class TestTemplatePredict:
    def test_exact_major_chroma(self):
        frame = np.zeros((1, 12))
        frame[0, [0, 4, 7]] = 1.0
        assert template_predict(chroma(frame))[0] == 0

    def test_zero_frame_is_nochord(self):
        frames = np.zeros((5, 12))
        frames[:3, [2, 6, 9]] = 1.0  # keep median energy nonzero
        classes = template_predict(chroma(frames))
        assert classes[3] == NOCHORD_CLASS
        assert classes[4] == NOCHORD_CLASS

    def test_minor_chroma(self):
        frame = np.zeros((1, 12))
        frame[0, [9, 0, 4]] = 1.0  # A minor
        assert template_predict(chroma(frame))[0] == 12 + 9

    def test_tie_breaks_to_lowest_index(self):
        # uniform chroma ties every template; lowest class index wins
        frame = np.ones((1, 12))
        assert template_predict(chroma(frame))[0] == 0

    def test_rotation_consistency(self):
        rng = np.random.Generator(np.random.PCG64(51))
        frames = rng.random((40, 12)) + 0.05
        base = template_predict(chroma(frames))
        for k in range(12):
            rotated = np.roll(frames, k, axis=1)
            shifted = template_predict(chroma(rotated))
            expected = np.array([transpose_majmin(int(c), k) for c in base])
            assert np.array_equal(shifted, expected), k

    def test_adaptive_threshold_is_level_invariant(self):
        rng = np.random.Generator(np.random.PCG64(52))
        frames = rng.random((60, 12)) + 0.01
        frames[::7] *= 1e-4  # silent-ish frames
        quiet = template_predict(chroma(frames))
        loud = template_predict(chroma(frames * 250.0))
        assert np.array_equal(quiet, loud)

    def test_rejects_other_feature_kinds(self):
        with pytest.raises(FeatureError, match="expected chroma12 features, "
                                               "got cqt_log"):
            template_predict(log_matrix(np.zeros((2, N_BINS))))


class TestTemplateScores:
    def test_no_chord_column_wins_exactly_below_the_threshold(self):
        rng = np.random.Generator(np.random.PCG64(53))
        frames = rng.random((80, 12)) + 0.01
        frames[::5] *= 1e-3  # every fifth frame quiet
        frames[3] = 0.0  # an all-zero frame scores 0 against every triad
        scores = template_scores(chroma(frames))
        assert scores.shape == (80, NOCHORD_CLASS + 1)
        energy = frames.sum(axis=1)
        low = energy < ADAPTIVE_THRESHOLD_FRACTION * np.median(energy)
        assert low.sum() == 17
        assert np.array_equal(scores[:, NOCHORD_CLASS],
                              np.where(low, np.inf, -np.inf))
        assert np.array_equal(scores.argmax(axis=1) == NOCHORD_CLASS, low)
        assert np.isfinite(scores[:, :NOCHORD_CLASS]).all()
        assert not scores[3, :NOCHORD_CLASS].any()

    def test_predict_is_the_argmax_of_the_scores(self):
        rng = np.random.Generator(np.random.PCG64(54))
        frames = rng.random((50, 12))
        frames[::6] *= 1e-3
        got = template_predict(chroma(frames))
        assert np.array_equal(got, template_scores(chroma(frames)).argmax(axis=1))
        assert (got == NOCHORD_CLASS).sum() == 9

    def test_nan_frame_fails_before_recognition(self):
        values = np.zeros((60, N_BINS))
        values[30, 5] = np.nan
        with pytest.raises(FeatureError, match="^frame 30 is not finite$"):
            recognize_track(log_matrix(values), "t")

    @pytest.mark.parametrize("frame, bins, value", [
        (12, [5], 800.0),  # exp(800) overflows
        (20, slice(None), 708.0),  # exp(708) does not, but 12 of them do
    ], ids=["exp", "sum"])
    def test_overflowing_frame_is_named(self, frame, bins, value):
        values = np.zeros((60, N_BINS))
        values[frame, bins] = value
        values[frame + 5, 7] = 900.0  # a later frame is not named
        with pytest.raises(FeatureError, match=(
                rf"^frame {frame}: log-CQT values up to {value:g} are too "
                "large for exp$")):
            recognize_track(log_matrix(values), "t")


def test_end_to_end_c_major_track():
    from chordbench.annotations import SegmentTrack, TimedSegment
    from chordbench.labels import parse_harte
    from chordbench.synth import SynthSpec, render_audio
    track = SegmentTrack((TimedSegment(0.0, 3.0, parse_harte("C:maj")),), "t")
    spec = SynthSpec(n_tracks=1, track_length_s=10.0, octaves=(3, 4), seed=0)
    audio = render_audio(track, spec)
    folded = fold_to_chroma(log_amplitude(cqt(audio)))
    classes = template_predict(folded)
    lo, hi = interior_frames(len(audio.samples), folded.n_frames)
    inner = classes[lo:hi + 1]
    assert (inner == 0).mean() >= 0.99
