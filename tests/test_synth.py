from dataclasses import replace

import numpy as np
import pytest

from chordbench.annotations import read_lab
from chordbench.features import cqt, load_wav, log_amplitude, SAMPLE_RATE
from chordbench.labels import NOCHORD_CLASS, majmin_label, to_majmin
from chordbench.synth import (ProgressionModel, SynthError, SynthSpec,
                              default_pop_model, emit_dataset,
                              model_from_stats, quantize_track, read_manifest,
                              render_audio, sample_progression, uniform_model)
from chordbench.templates import fold_to_chroma


class TestModelFromStats:
    def test_single_entry_peaked(self):
        counts = np.zeros((25, 25))
        counts[0, 7] = 1.0
        hist = np.zeros(25)
        hist[0] = 1
        model = model_from_stats(counts, hist)
        row = model.transition[0]
        # smoothed: (1 + 0.1) / (1 + 24 * 0.1)
        assert row[7] == pytest.approx(1.1 / 3.4)
        assert row[1] == pytest.approx(0.1 / 3.4)
        assert row.argmax() == 7
        assert model.initial[0] == 1.0

    def test_uniform_counts(self):
        counts = np.ones((25, 25))
        np.fill_diagonal(counts, 0.0)
        model = model_from_stats(counts, np.ones(25))
        assert np.allclose(model.transition[0, 1:], 1.0 / 24.0)

    def test_zero_row_uniform_fallback(self):
        counts = np.zeros((25, 25))
        counts[0, 7] = 5.0
        model = model_from_stats(counts, np.ones(25))
        row = model.transition[3]
        assert row[3] == 0.0
        others = np.delete(row, 3)
        assert np.allclose(others, 1.0 / 24.0)

    def test_all_zero_error(self):
        with pytest.raises(SynthError, match="all-zero"):
            model_from_stats(np.zeros((25, 25)), np.ones(25))


class TestModelInvariants:
    @pytest.mark.parametrize("model", [default_pop_model(), uniform_model()])
    def test_rows_stochastic(self, model):
        assert np.allclose(model.transition.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.diag(model.transition) == 0.0)
        assert model.initial.sum() == pytest.approx(1.0)

    def test_rejects_self_transitions(self):
        t = np.full((25, 25), 1.0 / 25.0)
        with pytest.raises(SynthError):
            ProgressionModel(t, np.full(25, 1.0 / 25.0))


class TestSampleProgression:
    def test_deterministic(self):
        model = default_pop_model()
        a = sample_progression(model, 30.0, 99)
        b = sample_progression(model, 30.0, 99)
        assert a == b

    def test_length_truncation(self):
        track = sample_progression(default_pop_model(), 17.0, 1)
        assert track.end_s == pytest.approx(17.0)
        assert track.start_s == 0.0

    def test_no_self_transitions(self):
        track = sample_progression(uniform_model(), 120.0, 5)
        classes = [to_majmin(s.label) for s in track]
        assert all(a != b for a, b in zip(classes[:-1], classes[1:]))

    def test_degenerate_single_chord(self):
        model = replace(uniform_model(), duration_s=(1000.0, 1000.0))
        track = sample_progression(model, 12.0, 3)
        assert len(track) == 1

    def test_chain_frequencies_match_rows(self):
        model = replace(default_pop_model(), duration_s=(0.01, 0.011))
        rng_steps = 100_000
        track = sample_progression(model, rng_steps * 0.0105, 17)
        classes = [to_majmin(s.label) for s in track]
        counts = np.zeros((25, 25))
        for a, b in zip(classes[:-1], classes[1:]):
            counts[a, b] += 1
        for state in range(25):
            total = counts[state].sum()
            if total < 2000:
                continue
            empirical = counts[state] / total
            tv = 0.5 * np.abs(empirical - model.transition[state]).sum()
            assert tv < 0.05, (state, tv)


class TestRenderAudio:
    def spec(self, **kw):
        defaults = dict(n_tracks=1, track_length_s=10.0, octaves=(4,), seed=0)
        defaults.update(kw)
        return SynthSpec(**defaults)

    def test_c_major_spectrum_peaks(self):
        track = quantize_track(sample_progression(
            replace(uniform_model(), duration_s=(100.0, 100.0)), 10.0, 0),
            SAMPLE_RATE)
        # force a C major chord regardless of the sampled state
        from chordbench.annotations import SegmentTrack, TimedSegment
        from chordbench.labels import parse_harte
        track = SegmentTrack((TimedSegment(0.0, 1.0, parse_harte("C:maj")),), "t")
        audio = render_audio(track, self.spec())
        spectrum = np.abs(np.fft.rfft(audio.samples))
        freqs = np.fft.rfftfreq(len(audio.samples), 1.0 / SAMPLE_RATE)
        peaks = []
        for target in (261.63, 329.63, 392.00):
            window = (freqs > target - 5) & (freqs < target + 5)
            peaks.append(spectrum[window].max())
        background = np.median(spectrum)
        assert all(p > 50 * background for p in peaks)

    def test_all_nochord_is_silent(self):
        from chordbench.annotations import SegmentTrack, TimedSegment
        from chordbench.labels import NO_CHORD
        track = SegmentTrack((TimedSegment(0.0, 2.0, NO_CHORD),), "t")
        audio = render_audio(track, self.spec())
        assert np.all(audio.samples == 0.0)

    def test_peak_level(self):
        track = sample_progression(default_pop_model(), 12.0, 2)
        audio = render_audio(track, self.spec())
        assert np.abs(audio.samples).max() == pytest.approx(0.9)

    def test_unsupported_rate(self):
        track = sample_progression(default_pop_model(), 12.0, 2)
        with pytest.raises(SynthError, match="sample rate"):
            render_audio(track, SynthSpec(n_tracks=1, track_length_s=10.0,
                                          sample_rate_hz=500, octaves=(4,)))

    def test_transposed_render_shifts_cqt(self):
        from chordbench.annotations import SegmentTrack, TimedSegment
        from chordbench.labels import parse_harte, transpose
        base = SegmentTrack((TimedSegment(0.0, 2.0, parse_harte("C:maj")),), "t")
        up = SegmentTrack((TimedSegment(0.0, 2.0, transpose(parse_harte("C:maj"), 1)),), "t")
        spec = self.spec(sample_rate_hz=SAMPLE_RATE)
        fa = log_amplitude(cqt(render_audio(base, spec)))
        fb = log_amplitude(cqt(render_audio(up, spec)))
        mid = fa.n_frames // 2
        top_a = set(np.argsort(fa.values[mid])[-3:])
        top_b = set(np.argsort(fb.values[mid])[-3:])
        assert top_b == {b + 2 for b in top_a}


class TestEmitDataset:
    def test_files_and_manifest(self, tmp_path):
        spec = SynthSpec(n_tracks=3, track_length_s=10.0, octaves=(4,), seed=11)
        entries = emit_dataset(spec, default_pop_model(), tmp_path)
        assert len(entries) == 3
        for entry in entries:
            assert (tmp_path / entry["path"]).exists()
            assert (tmp_path / (entry["id"] + ".lab")).exists()
        manifest = read_manifest(tmp_path / "manifest.jsonl")
        assert manifest == entries

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = SynthSpec(n_tracks=2, track_length_s=10.0, octaves=(4,), seed=12)
        model = default_pop_model()
        emit_dataset(spec, model, tmp_path / "a")
        emit_dataset(spec, model, tmp_path / "b")
        for name in ("synth_0000.wav", "synth_0001.wav", "synth_0000.lab",
                     "manifest.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_lab_duration_matches_wav(self, tmp_path):
        spec = SynthSpec(n_tracks=2, track_length_s=11.0, octaves=(4,), seed=13)
        entries = emit_dataset(spec, default_pop_model(), tmp_path)
        for entry in entries:
            audio = load_wav(tmp_path / entry["path"])
            track = read_lab(tmp_path / (entry["id"] + ".lab"))
            assert abs(track.end_s - audio.duration_s) <= 1.0 / spec.sample_rate_hz

    def test_spec_validation(self):
        with pytest.raises(SynthError):
            SynthSpec(n_tracks=0, track_length_s=30.0)
        with pytest.raises(SynthError):
            SynthSpec(n_tracks=1, track_length_s=5.0)


def test_rendered_audio_energy_on_annotated_classes(tmp_path):
    # clean synthesis: folded CQT energy concentrates on chord pitch classes
    spec = SynthSpec(n_tracks=1, track_length_s=15.0, octaves=(3, 4), seed=21)
    model = default_pop_model()
    track = quantize_track(sample_progression(model, 15.0, 7), SAMPLE_RATE)
    audio = render_audio(track, spec)
    feats = fold_to_chroma(log_amplitude(cqt(audio)))
    from chordbench.features import align_labels
    from chordbench.labels import pitch_class_set
    classes = align_labels(track, feats)
    interior = slice(6, feats.n_frames - 6)
    hits = total = 0
    for frame, c in zip(feats.values[interior], classes[interior]):
        if c == NOCHORD_CLASS:
            continue
        pcs = sorted(pitch_class_set(majmin_label(int(c))))
        top3 = set(np.argsort(frame)[-3:])
        total += 1
        if top3 == set(pcs):
            hits += 1
    assert total > 0
    assert hits / total >= 0.99
