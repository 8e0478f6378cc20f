import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided
from scipy.io import wavfile

from chordbench.annotations import SegmentTrack, TimedSegment
from chordbench.features import (BIN_KINDS, AudioBuffer, FeatureError,
                                 FeatureMatrix, FRAME_S, HOP, LOG_EPS,
                                 LOG_FLOOR, N_BINS, SAMPLE_RATE, align_labels,
                                 cqt, cqt_bin_frequencies, cqt_window_lengths,
                                 decode_scores, frames_to_track, load_wav,
                                 log_amplitude, min_cqt_samples, pitch_shift_cqt,
                                 read_feature_cache, save_wav, window_slices,
                                 write_feature_cache, zscore_apply, zscore_fit,
                                 _group_kernel)
from chordbench.labels import parse_harte
from conftest import mutate


def sine(freq_hz, seconds=2.0, amplitude=1.0):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq_hz * t))


def interior_frames(n_samples, n_frames):
    half = min_cqt_samples() // 2
    lo = int(np.ceil(half / HOP))
    hi = min(n_frames - 1, (n_samples - half) // HOP)
    return lo, hi


def cqt_per_bin(audio):
    """Reference CQT: a loop of one windowed projection per bin."""
    x = np.asarray(audio.samples, dtype=np.float64)
    freqs = cqt_bin_frequencies()
    win_lens = cqt_window_lengths()
    max_win = int(win_lens[0])
    n_frames = 1 + len(x) // HOP
    pad = max_win // 2 + 1
    xp = np.pad(x, (pad, pad))
    stride = xp.strides[0]
    mags = np.empty((n_frames, N_BINS), dtype=np.float64)
    for k in range(N_BINS):
        n_k = int(win_lens[k])
        window = np.hanning(n_k)
        window /= window.sum()
        phase = 2.0 * np.pi * freqs[k] * np.arange(n_k) / SAMPLE_RATE
        first = pad - n_k // 2
        frames = as_strided(xp[first:], shape=(n_frames, n_k),
                            strides=(stride * HOP, stride))
        mags[:, k] = np.hypot(frames @ (window * np.cos(phase)),
                              frames @ (window * np.sin(phase)))
    return mags


def noise(n_samples, seed):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.standard_normal(n_samples))


def triad_with_noise(seconds=3.0):
    rng = np.random.default_rng(5)
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    tones = sum(np.sin(2 * np.pi * f * t) for f in (261.63, 329.63, 392.00))
    return AudioBuffer(tones / 3 + 0.05 * rng.standard_normal(t.size))


def matrix(values, kind="cqt_log"):
    return FeatureMatrix(np.asarray(values, dtype=np.float64), kind)


class TestCqt:
    def test_reference_sine_bin(self):
        audio = sine(440.0)
        fm = cqt(audio)
        lo, hi = interior_frames(len(audio.samples), fm.n_frames)
        assert np.all(fm.values[lo:hi + 1].argmax(axis=1) == 90)

    def test_fmin_sine_bin(self):
        audio = sine(32.7032)
        fm = cqt(audio)
        lo, hi = interior_frames(len(audio.samples), fm.n_frames)
        assert np.all(fm.values[lo:hi + 1].argmax(axis=1) == 0)

    def test_silence_is_zero(self):
        fm = cqt(AudioBuffer(np.zeros(2 * SAMPLE_RATE)))
        assert fm.values.max() == 0.0

    def test_shape_and_metadata(self):
        fm = cqt(sine(220.0))
        assert fm.n_bins == N_BINS
        assert fm.n_frames == 1 + (2 * SAMPLE_RATE) // HOP
        assert fm.bin_kind == "cqt_mag"

    def test_linearity(self):
        quiet = cqt(sine(440.0, amplitude=0.25))
        loud = cqt(sine(440.0, amplitude=0.5))
        assert np.allclose(loud.values, 2.0 * quiet.values, rtol=1e-9, atol=1e-15)

    def test_rejects_short_audio(self):
        with pytest.raises(FeatureError, match="at least"):
            cqt(AudioBuffer(np.zeros(min_cqt_samples() - 1)))

    @pytest.mark.parametrize("audio", [
        pytest.param(sine(32.7032), id="sine-fmin"),
        pytest.param(sine(440.0), id="sine-440"),
        pytest.param(sine(466.16), id="sine-466"),
        pytest.param(triad_with_noise(), id="triad-noise"),
        pytest.param(noise(min_cqt_samples(), 3), id="min-length"),
        # 42 frames: one chunk, shorter than the 128 frames a chunk holds.
        pytest.param(noise(41 * HOP + 7, 4), id="partial-block"),
        pytest.param(noise(127 * HOP + 5, 6), id="128-frames"),
        pytest.param(noise(128 * HOP + 5, 7), id="129-frames"),
        # 301 frames: two full chunks and a partial one of 45.
        pytest.param(noise(300 * HOP + 900, 8), id="three-chunks"),
        # Around a hop multiple: one sample short of a 51st frame, then
        # frame 50 centred one past the last sample, then on it.
        pytest.param(noise(50 * HOP - 1, 9), id="k-hop-minus-1"),
        pytest.param(noise(50 * HOP, 10), id="k-hop"),
        pytest.param(noise(50 * HOP + 1, 11), id="k-hop-plus-1"),
    ])
    def test_matches_per_bin_reference(self, audio):
        expected = cqt_per_bin(audio)
        got = cqt(audio).values
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12
        assert np.array_equal(got.argmax(axis=1), expected.argmax(axis=1))

    def test_memory_does_not_grow_with_track_length(self):
        def peak_beyond_output(seconds):
            audio = noise(int(seconds * SAMPLE_RATE), 12)
            tracemalloc.start()
            try:
                values = cqt(audio).values
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - values.nbytes

        # The first call of a process builds and keeps the 12 kernels.
        _group_kernel.cache_clear()
        cold = peak_beyond_output(30)
        assert _group_kernel.cache_info().currsize == N_BINS // 12
        kernel_bytes = sum(_group_kernel(lo).nbytes
                           for lo in range(0, N_BINS, 12))
        assert kernel_bytes == 16_515_072
        assert cold <= kernel_bytes + 4 * 2**20
        short, long = peak_beyond_output(30), peak_beyond_output(300)
        assert long <= 16 * 2**20
        assert long <= 4 * 2**20
        assert abs(long - short) <= 2**20

    def test_cached_kernels_give_bit_identical_output(self):
        audio = triad_with_noise()
        _group_kernel.cache_clear()
        cold = cqt(audio).values
        warm = cqt(audio).values
        assert cold.tobytes() == warm.tobytes()
        assert _group_kernel.cache_info().hits == N_BINS // 12
        for lo in range(0, N_BINS, 12):
            kernel = _group_kernel(lo)
            assert not kernel.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kernel[0, 0] = 1.0
            fresh = _group_kernel.__wrapped__(lo)
            assert fresh is not kernel
            assert fresh.tobytes() == kernel.tobytes()

    def test_reads_non_contiguous_read_only_samples(self):
        mono = triad_with_noise().samples
        stereo = np.stack([mono, -mono], axis=1)
        view = stereo[:, 0]
        view.flags.writeable = False
        before = stereo.copy()
        got = cqt(AudioBuffer(view)).values
        assert np.array_equal(stereo, before)
        contiguous = cqt(AudioBuffer(np.ascontiguousarray(view)))
        assert np.array_equal(got, contiguous.values)


class TestLogAmplitude:
    def test_zero_magnitude_floor(self):
        fm = log_amplitude(matrix(np.zeros((3, N_BINS)), kind="cqt_mag"))
        assert np.allclose(fm.values, np.log(LOG_EPS))

    def test_unit_magnitude_near_zero(self):
        fm = log_amplitude(matrix(np.ones((2, N_BINS)), kind="cqt_mag"))
        assert np.allclose(fm.values, np.log(1.0 + LOG_EPS))
        assert abs(fm.values[0, 0]) < 2e-6

    def test_monotone(self):
        values = np.linspace(0, 2, 10)[None, :].repeat(2, axis=0)
        fm = log_amplitude(matrix(values, kind="cqt_mag"))
        assert np.all(np.diff(fm.values[0]) > 0)

    def test_requires_magnitude_input(self):
        with pytest.raises(FeatureError):
            log_amplitude(matrix(np.zeros((2, N_BINS)), kind="cqt_log"))


class TestZscore:
    def test_two_values(self):
        fm = matrix(np.array([[0.0, 2.0]]))
        stats = zscore_fit([fm])
        assert stats.mean == pytest.approx(1.0)
        assert stats.std == pytest.approx(1.0)

    def test_constant_error(self):
        with pytest.raises(FeatureError, match="variance"):
            zscore_fit([matrix(np.ones((4, 3)))])

    @pytest.mark.parametrize("mean, std, message", [
        (0.0, 0.0, "std is not above 0: 0.0"),
        (0.0, -1.0, "std is not above 0: -1.0"),
        (float("nan"), 1.0, "mean is not a finite number: nan"),
        (0.0, float("inf"), "std is not a finite number: inf"),
        (True, 1.0, "mean is not a finite number: True"),
    ])
    def test_stats_must_be_finite_with_positive_std(self, mean, std, message):
        from chordbench.features import NormStats
        with pytest.raises(FeatureError, match=re.escape(message)):
            NormStats(mean, std)

    def test_matches_two_pass_oracle(self):
        rng = np.random.Generator(np.random.PCG64(31))
        mats = [matrix(rng.standard_normal((int(rng.integers(5, 40)), 6)) * 3 + 1)
                for _ in range(8)]
        stats = zscore_fit(mats)
        flat = np.concatenate([m.values.ravel() for m in mats])
        mean = flat.sum() / flat.size
        var = ((flat - mean) ** 2).sum() / flat.size
        assert stats.mean == pytest.approx(mean, abs=1e-9)
        assert stats.std == pytest.approx(np.sqrt(var), abs=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [2, 7, 9, 129, 8193, 1_200_000])
    def test_equals_numpy_mean_and_std(self, size, dtype):
        # Sizes around numpy's 8- and 128-element pairwise-sum blocks and its
        # 8192-element buffer; the in-place fit must give np.std's floats.
        rng = np.random.Generator(np.random.PCG64(size))
        values = (rng.standard_normal(size) * 3 - 40).astype(dtype)
        parts = np.array_split(values, min(3, size))
        stats = zscore_fit([FeatureMatrix(part.reshape(-1, 1), "cqt_log")
                            for part in parts])
        flat = np.concatenate([part.astype(np.float64) for part in parts])
        assert stats.mean == float(flat.mean())
        assert stats.std == float(flat.std())

    def test_self_normalization(self):
        rng = np.random.Generator(np.random.PCG64(32))
        mats = [matrix(rng.standard_normal((20, 4)) * 5 - 2) for _ in range(4)]
        stats = zscore_fit(mats)
        normed = np.concatenate([zscore_apply(m, stats).values.ravel()
                                 for m in mats])
        assert abs(normed.mean()) < 1e-9
        assert abs(normed.std() - 1.0) < 1e-9

    def test_identity_stats(self):
        fm = matrix(np.arange(6.0).reshape(2, 3))
        from chordbench.features import NormStats
        out = zscore_apply(fm, NormStats(0.0, 1.0))
        assert np.array_equal(out.values, fm.values)


class TestWindowSlices:
    def test_exact_tiling(self):
        assert window_slices(216) == [slice(0, 108), slice(54, 162),
                                      slice(108, 216)]

    def test_single_window(self):
        assert window_slices(108) == [slice(0, 108)]

    def test_padded_window(self):
        windows = window_slices(100)
        assert windows == [slice(0, 108)]
        assert len(np.ones((100, 2))[windows[0]]) == 100

    def test_tail_coverage(self):
        windows = window_slices(217)
        assert [w.start for w in windows] == [0, 54, 108, 162]
        assert all(w.stop - w.start == 108 for w in windows)
        assert len(np.zeros((217, 2))[windows[-1]]) == 55

    def test_reassembly(self):
        rng = np.random.Generator(np.random.PCG64(34))
        values = rng.standard_normal((200, 3))
        rebuilt = np.full_like(values, np.nan)
        for w in window_slices(len(values)):
            rebuilt[w] = values[w]
        assert np.array_equal(rebuilt, values)

    def test_empty_error(self):
        with pytest.raises(FeatureError):
            window_slices(0)


class TestPitchShiftCqt:
    def test_identity_shift(self):
        fm = matrix(np.random.default_rng(0).standard_normal((5, N_BINS)))
        assert np.array_equal(pitch_shift_cqt(fm, 0).values, fm.values)

    def test_sine_shift(self):
        feats = log_amplitude(cqt(sine(440.0)))
        shifted = pitch_shift_cqt(feats, 1)
        lo, hi = interior_frames(2 * SAMPLE_RATE, feats.n_frames)
        assert np.all(shifted.values[lo:hi + 1].argmax(axis=1) == 92)

    def test_round_trip_interior_bins(self):
        rng = np.random.Generator(np.random.PCG64(35))
        fm = matrix(rng.standard_normal((4, N_BINS)))
        back = pitch_shift_cqt(pitch_shift_cqt(fm, -5), 5)
        assert np.array_equal(back.values[:, 10:], fm.values[:, 10:])
        assert np.all(back.values[:, :10] == LOG_FLOOR)

    def test_range_check(self):
        fm = matrix(np.zeros((2, N_BINS)))
        with pytest.raises(FeatureError):
            pitch_shift_cqt(fm, -6)
        with pytest.raises(FeatureError):
            pitch_shift_cqt(fm, 7)

    def test_vacated_bins_floor(self):
        fm = matrix(np.ones((2, N_BINS)))
        shifted = pitch_shift_cqt(fm, 3)
        assert np.all(shifted.values[:, :6] == LOG_FLOOR)


class TestAlignLabels:
    def test_constant_track(self):
        track = SegmentTrack((TimedSegment(0.0, 10.5, parse_harte("C:maj")),), "t")
        fm = matrix(np.zeros((108, 2)))
        classes = align_labels(track, fm)
        assert np.all(classes == 0)

    def test_boundary_goes_to_later_segment(self):
        period = HOP / SAMPLE_RATE
        boundary = 1.5 * period  # center of frame 1
        track = SegmentTrack((TimedSegment(0.0, boundary, parse_harte("C:maj")),
                              TimedSegment(boundary, 1.0, parse_harte("G:maj"))), "t")
        classes = align_labels(track, matrix(np.zeros((4, 2))))
        assert classes[1] == 7  # frame center == boundary -> later segment

    def test_tail_is_nochord(self):
        track = SegmentTrack((TimedSegment(0.0, 0.2, parse_harte("C:maj")),), "t")
        classes = align_labels(track, matrix(np.zeros((20, 2))))
        assert classes[0] == 0
        assert np.all(classes[5:] == 24)


class TestFramesToTrack:
    def test_constant_sequence(self):
        t = frames_to_track(np.zeros(10, dtype=int), HOP, SAMPLE_RATE, "p")
        assert len(t) == 1
        assert t.segments[0].start_s == 0.0
        assert t.segments[0].end_s == pytest.approx(10 * HOP / SAMPLE_RATE)

    def test_alternating(self):
        classes = np.array([0, 7, 0, 7])
        t = frames_to_track(classes, HOP, SAMPLE_RATE, "p")
        assert len(t) == 4

    def test_round_trip_with_align(self):
        rng = np.random.Generator(np.random.PCG64(36))
        period = HOP / SAMPLE_RATE
        classes = rng.integers(0, 25, 50)
        t = frames_to_track(classes, HOP, SAMPLE_RATE, "p")
        back = align_labels(t, matrix(np.zeros((50, 2))))
        # merging equal neighbours preserves the frame labels exactly
        assert np.array_equal(back, classes)
        assert t.end_s == pytest.approx(50 * period)

    def test_frames_take_the_given_timing(self):
        t = frames_to_track([0, 0, 0, 7, 7, 7], 1024, 8000, "p")
        period = 1024 / 8000
        assert [(s.start_s, s.end_s, str(s.label)) for s in t.segments] == [
            (0.0, 3 * period, "C:maj"), (3 * period, 6 * period, "G:maj")]


class TestDecodeScores:
    def test_top_class_per_frame_ties_to_the_lowest(self):
        scores = np.zeros((4, 25))
        scores[0, [3, 9]] = 1.0  # a tie: class 3 wins
        scores[1, 9] = 2.0
        scores[2:, 24] = np.inf
        t = decode_scores(scores, "p")
        assert [str(s.label) for s in t.segments] == ["D#:maj", "A:maj", "N"]
        assert t.source_id == "p"

    def test_frames_take_the_timing_of_the_features(self):
        # Every feature matrix has the one frame timing, FRAME_S.
        scores = np.zeros((6, 25))
        scores[3:, 7] = 1.0
        t = decode_scores(scores, "p")
        assert t == frames_to_track([0, 0, 0, 7, 7, 7], HOP, SAMPLE_RATE, "p")
        assert FRAME_S == HOP / SAMPLE_RATE
        assert t.segments[1].start_s == 3 * FRAME_S


class TestCacheAndWav:
    @pytest.mark.parametrize("kind", BIN_KINDS)
    def test_cache_round_trip(self, tmp_path, kind):
        rng = np.random.Generator(np.random.PCG64(41))
        fm = matrix(rng.standard_normal((30, 12)).astype(np.float32), kind=kind)
        labels = rng.integers(0, 25, 30)
        p = tmp_path / "x.cbf"
        write_feature_cache(p, fm, labels)
        back, back_labels = read_feature_cache(p)
        assert back.bin_kind == fm.bin_kind
        assert np.allclose(back.values, fm.values, atol=1e-6)
        assert np.array_equal(back_labels, labels)

    def test_cache_kind_codes(self, tmp_path):
        p = tmp_path / "x.cbf"
        for kind, code in [("cqt_mag", 0), ("cqt_log", 1), ("chroma12", 3)]:
            write_feature_cache(p, matrix(np.zeros((4, 2)), kind=kind))
            assert p.read_bytes()[4] == code
        data = bytearray(p.read_bytes())
        data[4] = 2  # the unused code of a 24-bin chroma kind
        p.write_bytes(bytes(data))
        with pytest.raises(FeatureError,
                           match=r"x\.cbf: unknown bin kind code 2"):
            read_feature_cache(p)

    def test_cache_without_labels(self, tmp_path):
        fm = matrix(np.zeros((4, 2), dtype=np.float32))
        p = tmp_path / "x.cbf"
        write_feature_cache(p, fm)
        _, labels = read_feature_cache(p)
        assert labels is None

    def test_cache_bad_magic(self, tmp_path):
        p = tmp_path / "x.cbf"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FeatureError):
            read_feature_cache(p)

    @pytest.mark.parametrize("cut", [10, 24, -5])
    def test_cache_truncated_names_file_and_block(self, tmp_path, cut):
        p = tmp_path / "x.cbf"
        write_feature_cache(p, matrix(np.ones((4, 3))))
        p.write_bytes(p.read_bytes()[:cut])
        block = "header" if cut == 10 else "value block"  # 24, -5: mid-float
        with pytest.raises(FeatureError, match=rf"x\.cbf: truncated {block}"):
            read_feature_cache(p)

    # 37 stray bytes after a labelled cache; an unlabelled cache followed by
    # its 5 frames' label bytes, which must not load as unlabelled.
    @pytest.mark.parametrize("labels, extra, block", [
        (np.array([0, 1, 2, 3, 4]), b"\0" * 37, "label"),
        (None, bytes([0, 1, 2, 3, 4]), "value")])
    def test_cache_bytes_after_last_block_fail(self, tmp_path, labels, extra,
                                               block):
        p = tmp_path / "x.cbf"
        write_feature_cache(p, matrix(np.ones((5, 3))), labels)
        p.write_bytes(p.read_bytes() + extra)
        with pytest.raises(FeatureError, match=rf"x\.cbf: {len(extra)} bytes "
                           rf"after the {block} block$"):
            read_feature_cache(p)

    @pytest.mark.parametrize("hop, rate", [(1024, SAMPLE_RATE), (HOP, 44100)])
    def test_cache_other_timing_names_file(self, tmp_path, hop, rate):
        p = tmp_path / "x.cbf"
        write_feature_cache(p, matrix(np.zeros((4, 2))))
        data = bytearray(p.read_bytes())
        data[6:14] = struct.pack("<II", hop, rate)  # the header's timing words
        p.write_bytes(bytes(data))
        with pytest.raises(FeatureError, match=re.escape(
                f"x.cbf: hop {hop} at {rate} Hz; features must have hop 2048 "
                "at 22050 Hz")):
            read_feature_cache(p)

    def test_cache_label_flag_other_than_0_or_1_names_file(self, tmp_path):
        p = tmp_path / "x.cbf"
        write_feature_cache(p, matrix(np.zeros((4, 2))),
                            np.zeros(4, dtype=np.int64))
        data = bytearray(p.read_bytes())
        data[5] = 2  # the has_labels flag
        p.write_bytes(bytes(data))
        with pytest.raises(FeatureError, match=re.escape(
                "x.cbf: has_labels flag 2 is not 0 or 1")):
            read_feature_cache(p)

    # A 2-frame, 3-bin chroma12 cache byte for byte (docs/cache.md): magic,
    # kind code 3, the label flag, hop 2048, 22050 Hz, frames, bins, the
    # float32 values, then one label byte per frame.
    @pytest.mark.parametrize("labels, flag, tail", [
        pytest.param(np.array([7, 24]), "01", "0718", id="labelled"),
        pytest.param(None, "00", "", id="unlabelled")])
    def test_cache_golden_bytes(self, tmp_path, labels, flag, tail):
        p = tmp_path / "x.cbf"
        write_feature_cache(p, matrix([[0.5, -1.0, 2.0], [0.25, 0.0, -3.5]],
                                      kind="chroma12"), labels)
        assert p.read_bytes().hex() == (
            "43424631" "03" + flag + "00080000" "22560000" "02000000" "03000000"
            "0000003f" "000080bf" "00000040" "0000803e" "00000000" "000060c0"
            + tail)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cache_non_finite_value_names_file_and_frame(self, tmp_path, bad):
        # A FeatureMatrix holds only finite values, so the bad values are
        # written over the value block of a valid cache.
        p = tmp_path / "x.cbf"
        write_feature_cache(p, matrix(np.zeros((40, 3))))
        data = bytearray(p.read_bytes())
        start = 22 + 4 * (17 * 3 + 1)  # header, then frame 17, bin 1
        data[start:start + 4] = struct.pack("<f", bad)
        p.write_bytes(bytes(data))
        with pytest.raises(FeatureError, match=r"x\.cbf: frame 17 is not finite"):
            read_feature_cache(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrix_rejects_non_finite_values(self, bad):
        values = np.zeros((60, 4))
        values[30:, 2] = bad
        with pytest.raises(FeatureError, match="^frame 30 is not finite$"):
            matrix(values)

    # Refused where the matrix is built, as AudioBuffer refuses empty audio,
    # so that no cache the reader would reject can be written.
    @pytest.mark.parametrize("shape", [(0, 12), (40, 0), (0, 0)])
    def test_matrix_rejects_0_frames_or_0_bins(self, tmp_path, shape):
        with pytest.raises(FeatureError, match=re.escape(
                f"{shape[0]} frames of {shape[1]} bins; features hold at "
                "least 1 of each")):
            write_feature_cache(tmp_path / "x.cbf", matrix(np.zeros(shape)))
        assert not (tmp_path / "x.cbf").exists()

    def test_cache_label_out_of_range_names_file_and_frame(self, tmp_path):
        p = tmp_path / "x.cbf"
        write_feature_cache(p, matrix(np.zeros((4, 2))), np.array([0, 24, 0, 3]))
        data = bytearray(p.read_bytes())
        data[-2] = 200  # frame 2 of the 4-byte label block
        p.write_bytes(bytes(data))
        with pytest.raises(FeatureError,
                           match=r"x\.cbf: frame 2: label 200 is not a class"):
            read_feature_cache(p)

    @pytest.mark.parametrize("bad", [25, 300, -1])
    def test_write_rejects_label_out_of_range(self, tmp_path, bad):
        p = tmp_path / "x.cbf"
        with pytest.raises(FeatureError,
                           match=rf"x\.cbf: frame 1: label {bad} is not a class"):
            write_feature_cache(p, matrix(np.zeros((3, 2))),
                                np.array([0, bad, 24]))
        assert not p.exists()

    def test_write_rejects_a_label_count_naming_file(self, tmp_path):
        p = tmp_path / "x.cbf"
        with pytest.raises(FeatureError,
                           match=r"x\.cbf: 2 labels for 3 frames$"):
            write_feature_cache(p, matrix(np.zeros((3, 2))), np.array([0, 24]))
        assert not p.exists()

    def test_wav_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(42))
        audio = AudioBuffer(rng.uniform(-0.9, 0.9, 4000))
        p = tmp_path / "x.wav"
        save_wav(p, audio)
        back = load_wav(p)
        assert wavfile.read(p)[0] == SAMPLE_RATE
        assert np.allclose(back.samples, audio.samples, atol=1.0 / 32000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_float_wav_with_non_finite_sample_names_file_and_sample(
            self, tmp_path, bad):
        from scipy.io import wavfile
        p = tmp_path / "f.wav"
        samples = np.linspace(-0.5, 0.5, 3000, dtype=np.float32)
        samples[1234] = bad
        samples[2000] = bad
        wavfile.write(p, SAMPLE_RATE, samples)
        with pytest.raises(FeatureError,
                           match=r"f\.wav: sample 1234 is not finite"):
            load_wav(p)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_buffer_rejects_non_finite_samples(self, bad):
        samples = np.zeros(500)
        samples[7] = bad
        with pytest.raises(FeatureError, match=r"^sample 7 is not finite$"):
            AudioBuffer(samples)

    def test_wav_stereo_downmix(self, tmp_path):
        from scipy.io import wavfile
        p = tmp_path / "s.wav"
        left = np.full(1000, 8000, dtype=np.int16)
        right = np.zeros(1000, dtype=np.int16)
        wavfile.write(p, SAMPLE_RATE, np.stack([left, right], axis=1))
        audio = load_wav(p)
        assert audio.samples.ndim == 1
        assert audio.samples[0] == pytest.approx(4000 / 32768)


def fmt_body(tag, channels, bits, extensible=False):
    """A ``fmt `` chunk body; ``extensible`` wraps ``tag`` as a sub-format GUID."""
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels,
                       SAMPLE_RATE, SAMPLE_RATE * block, block, bits)
    if extensible:
        body += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", tag) + (
            b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71")
    return body


def riff(*chunks):
    """A RIFF WAVE file of ``(id, body)`` chunks, each odd body padded."""
    out = b"WAVE"
    for chunk_id, body in chunks:
        out += struct.pack("<4sI", chunk_id, len(body)) + body
        out += b"\x00" * (len(body) % 2)
    return b"RIFF" + struct.pack("<I", len(out)) + out


def int24_bytes(values):
    """Little-endian 24-bit PCM bytes of an int array."""
    raw = np.asarray(values, dtype="<i4").reshape(-1, 1).view(np.uint8)
    return raw[:, :3].tobytes()


def scipy_load(path):
    """``load_wav`` as it was written on ``scipy.io.wavfile.read``."""
    rate, data = wavfile.read(path)
    scale = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}
    samples = data.astype(np.float64)
    if data.dtype in scale:
        samples = samples / scale[data.dtype]
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return rate, samples


def assert_loads_as_scipy(path):
    rate, samples = scipy_load(path)
    audio = load_wav(path)
    assert rate == SAMPLE_RATE
    assert audio.samples.dtype == np.float64
    assert audio.samples.tobytes() == samples.tobytes()
    return audio


class TestWavReader:
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("dtype", ["int16", "int32", "float32",
                                       "float64"])
    def test_matches_scipy(self, tmp_path, dtype, channels):
        rng = np.random.default_rng(channels)
        data = rng.uniform(-0.9, 0.9, (1500, channels))
        if dtype.startswith("int"):
            data = np.round(data * np.iinfo(dtype).max)
        data = data.astype(dtype)
        p = tmp_path / "x.wav"
        wavfile.write(p, SAMPLE_RATE, data[:, 0] if channels == 1 else data)
        audio = assert_loads_as_scipy(p)
        assert len(audio.samples) == 1500

    @pytest.mark.parametrize("channels", [1, 2])
    def test_int24(self, tmp_path, channels):
        values = np.array([0, 1, -1, 2**23 - 1, -2**23, 123456, -654321, 7,
                           -8, 2**22] * channels)
        p = tmp_path / "x.wav"
        p.write_bytes(riff((b"fmt ", fmt_body(1, channels, 24)),
                           (b"data", int24_bytes(values))))
        audio = assert_loads_as_scipy(p)
        expected = (values / 2**23).reshape(-1, channels).mean(axis=1)
        assert np.array_equal(audio.samples, expected)

    @pytest.mark.parametrize("tag, bits, dtype", [
        (1, 16, "<i2"), (1, 24, None), (1, 32, "<i4"), (3, 32, "<f4"),
        (3, 64, "<f8")])
    def test_wave_format_extensible(self, tmp_path, tag, bits, dtype):
        rng = np.random.default_rng(bits)
        if dtype is None:
            data = int24_bytes(rng.integers(-2**23, 2**23, 2 * 700))
        elif tag == 1:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, 2 * 700,
                                dtype=dtype).tobytes()
        else:
            data = rng.uniform(-1, 1, 2 * 700).astype(dtype).tobytes()
        p = tmp_path / "x.wav"
        p.write_bytes(riff((b"fmt ", fmt_body(tag, 2, bits, extensible=True)),
                           (b"data", data)))
        assert len(assert_loads_as_scipy(p).samples) == 700

    def test_skips_list_and_odd_sized_chunks(self, tmp_path):
        pcm = np.arange(-600, 600, 3, dtype="<i2")
        p = tmp_path / "x.wav"
        p.write_bytes(riff((b"LIST", b"INFOISFT\x04\x00\x00\x00abc\x00"),
                           (b"fmt ", fmt_body(1, 1, 16)),
                           (b"JUNK", b"12345"),
                           (b"data", pcm.tobytes())))
        assert b"12345\x00data" in p.read_bytes()
        audio = assert_loads_as_scipy(p)
        assert np.array_equal(audio.samples, pcm / 32768.0)

    @pytest.mark.parametrize("content, message", [
        (b"hello, not audio at all", "not a RIFF WAVE file"),
        (b"", "not a RIFF WAVE file"),
        (riff((b"LIST", b"INFO")), "no 'fmt ' chunk"),
        (riff((b"data", b"\x00\x00" * 10)), "no 'fmt ' chunk before 'data'"),
        (riff((b"fmt ", fmt_body(1, 1, 16))), "no 'data' chunk"),
        (riff((b"fmt ", fmt_body(1, 1, 16)), (b"data", b"\x01\x00" * 500)
              )[:-10], "truncated 'data' chunk: 990 of 1000 bytes"),
        (riff((b"fmt ", fmt_body(1, 1, 8)), (b"data", b"\x80" * 1000)),
         "unsupported sample format 8-bit PCM"),
        (riff((b"fmt ", fmt_body(1, 1, 8, extensible=True)),
              (b"data", b"\x80" * 1000)),
         "unsupported sample format 8-bit PCM"),
        (riff((b"fmt ", fmt_body(3, 1, 16)), (b"data", b"\x00" * 1000)),
         "unsupported sample format 16-bit float"),
        (riff((b"fmt ", fmt_body(2, 1, 16)), (b"data", b"\x00" * 1000)),
         "unsupported sample format format tag 0x0002"),
        (riff((b"fmt ", fmt_body(1, 1, 16, extensible=True)[:-1] + b"\x00"),
              (b"data", b"\x00" * 1000)),
         "unknown WAVE_FORMAT_EXTENSIBLE sub-format"),
        (riff((b"fmt ", fmt_body(1, 1, 16)[:10]), (b"data", b"\x00" * 1000)),
         "'fmt ' chunk has 10 of 16 bytes"),
        (riff((b"fmt ", fmt_body(1, 0, 16)), (b"data", b"\x00" * 1000)),
         "'fmt ' chunk declares 0 channels"),
    ], ids=["junk", "empty", "no-fmt", "data-before-fmt", "no-data",
            "truncated-data", "pcm8", "pcm8-extensible", "float16", "adpcm",
            "unknown-guid", "short-fmt", "no-channels"])
    def test_bad_file_names_path(self, tmp_path, content, message):
        p = tmp_path / "bad.wav"
        p.write_bytes(content)
        with pytest.raises(FeatureError,
                           match=f"^{re.escape(f'{p}: {message}')}"):
            load_wav(p)

    @pytest.mark.parametrize("chunk_id, message", [
        (b"data", "truncated 'data' chunk: 600 of 4294967280 bytes"),
        (b"fmt ", "'fmt ' chunk has 624 of 4294967280 bytes"),
    ], ids=["data", "fmt"])
    def test_chunk_size_past_the_end_allocates_nothing(self, tmp_path,
                                                       chunk_id, message):
        # A 644-byte file whose chunk header claims 0xFFFFFFF0 bytes.
        content = riff((b"fmt ", fmt_body(1, 1, 16)), (b"data", b"\x00" * 600))
        at = content.index(chunk_id) + 4
        content = content[:at] + struct.pack("<I", 0xFFFFFFF0) + content[at + 4:]
        assert len(content) == 644
        p = tmp_path / "huge.wav"
        p.write_bytes(content)
        tracemalloc.start()
        try:
            with pytest.raises(FeatureError,
                               match=f"^{re.escape(f'{p}: {message}')}$"):
                load_wav(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("rate", [0, 22051, 44100])
    def test_rejects_wrong_rate(self, tmp_path, rate):
        p = tmp_path / "r.wav"
        wavfile.write(p, rate, np.zeros(3000, dtype=np.int16))
        with pytest.raises(FeatureError, match=f"^{re.escape(str(p))}: "
                           f"expected 22050 Hz audio, got {rate} Hz; "
                           "resample before analysis$"):
            load_wav(p)

    def test_save_wav_matches_scipy_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        audio = AudioBuffer(rng.uniform(-1.2, 1.2, 4001))
        pcm = np.clip(np.round(audio.samples * 32768.0), -32768,
                      32767).astype(np.int16)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
        save_wav(ours, audio)
        wavfile.write(theirs, SAMPLE_RATE, pcm)
        assert ours.read_bytes() == theirs.read_bytes()
        assert np.array_equal(load_wav(ours).samples, pcm / 32768.0)


# A 16-bit mono WAV of 300 samples: a 44-byte header of 11 little-endian
# 32-bit words, the sample rate at byte 24, then 600 data bytes.
MUTANT_BASE = riff((b"fmt ", fmt_body(1, 1, 16)),
                   (b"data", np.arange(-900, 900, 6, dtype="<i2").tobytes()))
WAV_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, len(MUTANT_BASE) - 1),
              st.integers(0, 7)),
    st.tuples(st.just("word"), st.integers(0, 10).map(lambda i: 4 * i),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("truncate"), st.integers(0, len(MUTANT_BASE) - 1),
              st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, len(MUTANT_BASE)),
              st.integers(0, 255)))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(WAV_MUTATIONS)
@example(("word", 24, 0))
def test_wav_mutants_load_or_name_the_file(tmp_path, mutation):
    """Each mutant loads as finite audio of a finite duration, or raises
    :class:`FeatureError` naming the file."""
    p = tmp_path / "mutant.wav"
    p.write_bytes(mutate(MUTANT_BASE, mutation))
    try:
        audio = load_wav(p)
    except FeatureError as exc:
        assert str(exc).startswith(f"{p}: "), str(exc)
        return
    assert len(audio.samples) > 0
    assert np.isfinite(audio.samples).all()
    assert np.isfinite(audio.duration_s)


# A labelled cqt_log cache of 4 frames of 5 bins (docs/cache.md): a 22-byte
# header, whose u32 hop, rate, frame and bin words start at bytes 6, 10, 14
# and 18, then 80 value bytes and 4 label bytes.
CBF_BASE = (b"CBF1" + struct.pack("<BBIIII", 1, 1, HOP, SAMPLE_RATE, 4, 5)
            + np.linspace(-2.0, 2.0, 20, dtype="<f4").tobytes()
            + bytes([0, 5, 24, 12]))
CBF_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, len(CBF_BASE) - 1),
              st.integers(0, 7)),
    # The magic, the magic's end with the kind and flag bytes, and the four
    # u32 header words.
    st.tuples(st.just("word"), st.sampled_from([0, 2, 6, 10, 14, 18]),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("truncate"), st.integers(0, len(CBF_BASE) - 1),
              st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, len(CBF_BASE)),
              st.integers(0, 255)))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(CBF_MUTATIONS)
@example(("truncate", len(CBF_BASE), 0))  # the base itself, unchanged
@example(("word", 14, 0))  # 0 frames
@example(("word", 18, 0))  # 0 bins
def test_cbf_mutants_load_or_name_the_file(tmp_path, mutation):
    """Each mutant loads as finite values with a class index per frame, or
    raises :class:`FeatureError` naming the file."""
    p = tmp_path / "mutant.cbf"
    p.write_bytes(mutate(CBF_BASE, mutation))
    try:
        features, labels = read_feature_cache(p)
    except FeatureError as exc:
        assert str(exc).startswith(f"{p}: "), str(exc)
        return
    assert features.n_frames > 0 and features.n_bins > 0
    assert np.isfinite(features.values).all()
    if labels is not None:
        assert labels.shape == (features.n_frames,)
        assert ((labels >= 0) & (labels <= 24)).all()
