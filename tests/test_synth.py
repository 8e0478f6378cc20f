import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from chordbench import synth, workers
from chordbench.annotations import (SegmentTrack, TimedSegment, normalize,
                                    read_lab)
from chordbench.features import cqt, load_wav, log_amplitude, SAMPLE_RATE
from chordbench.labels import (NO_CHORD, NOCHORD_CLASS, majmin_label,
                               parse_harte, pitch_class_set, to_majmin)
from chordbench.synth import (FADE_S, PEAK_LEVEL, ProgressionModel,
                              SynthError, SynthSpec, default_pop_model,
                              emit_dataset, model_from_stats, quantize_track,
                              read_manifest, render_audio, sample_progression,
                              uniform_model)
from chordbench.templates import fold_to_chroma
from conftest import needs_workers, no_child_left, time_limit, use_cpus


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
        track = SegmentTrack((TimedSegment(0.0, 2.0, NO_CHORD),), "t")
        audio = render_audio(track, self.spec())
        assert np.all(audio.samples == 0.0)

    def test_peak_level(self):
        track = sample_progression(default_pop_model(), 12.0, 2)
        audio = render_audio(track, self.spec())
        assert np.abs(audio.samples).max() == pytest.approx(0.9)

    def test_transposed_render_shifts_cqt(self):
        from chordbench.labels import transpose
        base = SegmentTrack((TimedSegment(0.0, 2.0, parse_harte("C:maj")),), "t")
        up = SegmentTrack((TimedSegment(0.0, 2.0, transpose(parse_harte("C:maj"), 1)),), "t")
        spec = self.spec()
        fa = log_amplitude(cqt(render_audio(base, spec)))
        fb = log_amplitude(cqt(render_audio(up, spec)))
        mid = fa.n_frames // 2
        top_a = set(np.argsort(fa.values[mid])[-3:])
        top_b = set(np.argsort(fb.values[mid])[-3:])
        assert top_b == {b + 2 for b in top_a}


def render_per_segment(track, spec):
    """Reference renderer: each segment's sines computed at its own length.

    This is the loop ``render_audio`` replaced; it writes each chord over
    ``buf`` (``quantize_track`` gives no two chords a shared sample).
    """
    sr = SAMPLE_RATE
    q = quantize_track(track, sr)
    n_total = round(q.end_s * sr) if q.segments else round(track.end_s * sr)
    buf = np.zeros(n_total, dtype=np.float64)
    fade_n = round(FADE_S * sr)
    for seg in q:
        pcs = pitch_class_set(seg.label)
        if not pcs:
            continue
        i0 = round(seg.start_s * sr)
        i1 = round(seg.end_s * sr)
        n = i1 - i0
        t = np.arange(n) / sr
        wave = np.zeros(n)
        for pc in sorted(pcs):
            for octave in spec.octaves:
                f = 440.0 * 2.0 ** ((12 * (octave + 1) + pc - 69) / 12.0)
                wave += np.sin(2.0 * np.pi * f * t)
        m = min(fade_n, n // 2)
        if m > 0:
            ramp = np.linspace(0.0, 1.0, m, endpoint=False)
            wave[:m] *= ramp
            wave[n - m:] *= ramp[::-1]
        buf[i0:i1] = wave
    peak = np.abs(buf).max()
    if peak > 0:
        buf *= PEAK_LEVEL / peak
    return buf


def assert_renders_like_reference(track, spec):
    got = render_audio(track, spec)
    assert got.samples.tobytes() == render_per_segment(track, spec).tobytes()


def track_from_samples(bounds, labels, sr):
    """Hand-built track with boundaries given in (fractional) samples."""
    return SegmentTrack(tuple(
        TimedSegment(a / sr, b / sr, parse_harte(label))
        for (a, b), label in zip(bounds, labels)), "hand")


class TestRenderMatchesPerSegment:
    """``render_audio`` gives the reference renderer's samples bit for bit."""

    @pytest.mark.parametrize("model, seed, octaves, length_s", [
        ("pop", 1, (4,), 61.3),
        ("uniform", 2, (3, 4), 10.0),
        ("pop", 3, (2, 3, 4, 5), 10.0),
        ("uniform", 4, (4,), 23.7),
        ("pop", 5, (3, 4), 30.0),
        ("uniform", 6, (2, 3, 4, 5), 12.5),
    ])
    def test_sampled_progressions(self, model, seed, octaves, length_s):
        model = default_pop_model() if model == "pop" else uniform_model()
        spec = SynthSpec(1, length_s, octaves=octaves, seed=seed)
        track = normalize(quantize_track(
            sample_progression(model, length_s, seed), SAMPLE_RATE))
        assert_renders_like_reference(track, spec)

    @pytest.mark.parametrize("n_segments", [1, 2, 7, 40])
    def test_hand_built_tracks(self, n_segments):
        rng = np.random.default_rng(n_segments)
        spec = SynthSpec(1, 10.0, octaves=(3, 4))
        lengths = rng.integers(1, 3 * round(FADE_S * SAMPLE_RATE),
                               n_segments)
        edges = np.concatenate([[0], np.cumsum(lengths)])
        vocab = ["C:maj", "C:maj", "A:min", "N", "G:7", "D:min/b3", "F:maj/5"]
        labels = rng.choice(vocab, n_segments)
        assert_renders_like_reference(
            track_from_samples(zip(edges[:-1], edges[1:]), labels,
                               SAMPLE_RATE), spec)

    def test_segments_shorter_than_two_fades(self):
        spec = SynthSpec(1, 10.0, octaves=(3, 4))
        edges = [0, 500, 501, 503, 506, 900, 901, 1500]
        labels = ["C:maj", "E:min", "C:maj", "A:min", "G:maj", "E:min", "N"]
        assert_renders_like_reference(
            track_from_samples(zip(edges[:-1], edges[1:]), labels,
                               SAMPLE_RATE), spec)

    def test_rounded_spans_that_share_a_sample(self):
        # TIME_EPS lets a segment start up to 1e-9 s before the previous one
        # ends; at 2 GHz that is two samples, so rounded spans could overlap.
        # Each span starts at the previous span's end sample instead, and
        # the one-sample G:maj, left without a sample, is dropped.
        sr = 2 * 10**9
        bounds = [(0, 50000.6), (50000.4, 100000), (100000, 150000.6),
                  (150000.4, 200000.6), (200000.4, 250000.6),
                  (250000.1, 250000.6), (250000.3, 300000)]
        labels = ["C:maj", "A:min", "N", "F:maj", "N", "G:maj", "E:min"]
        track = track_from_samples(bounds, labels, sr)
        spans = [(round(s.start_s * sr), round(s.end_s * sr))
                 for s in quantize_track(track, sr)]
        assert spans == [(0, 50001), (50001, 100000), (100000, 150001),
                         (150001, 200001), (200001, 250001), (250001, 300000)]

    def test_sub_eps_overlap_across_a_half_sample(self):
        # The segments overlap by 9e-11 s, which SegmentTrack accepts, but
        # the boundaries round to samples 1001 and 1000.
        sr = SAMPLE_RATE
        track = SegmentTrack((
            TimedSegment(0.0, (1000.5 + 1e-6) / sr, parse_harte("C:maj")),
            TimedSegment((1000.5 - 1e-6) / sr, 0.1, parse_harte("A:min"))))
        spans = [(round(s.start_s * sr), round(s.end_s * sr))
                 for s in quantize_track(track, sr)]
        assert spans == [(0, 1001), (1001, 2205)]
        assert_renders_like_reference(track, SynthSpec(1, 10.0, octaves=(4,)))


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
            assert abs(track.end_s - audio.duration_s) <= 1.0 / SAMPLE_RATE

    def test_spec_validation(self, tmp_path):
        with pytest.raises(SynthError):
            SynthSpec(n_tracks=0, track_length_s=30.0)
        with pytest.raises(SynthError):
            SynthSpec(n_tracks=1, track_length_s=5.0)
        for octaves in [(), [3, 4], (3.0, 4), (True,), None]:
            with pytest.raises(SynthError, match="octaves must be"):
                SynthSpec(n_tracks=1, track_length_s=10.0, octaves=octaves)
        # B9 (15.8 kHz) is above the 11.025 kHz Nyquist frequency
        with pytest.raises(SynthError, match="for octaves \\(4, 9\\)"):
            SynthSpec(n_tracks=1, track_length_s=10.0, octaves=(4, 9))
        with pytest.raises(SynthError):
            emit_dataset(SynthSpec(1, 10.0, octaves=(), seed=3),
                         default_pop_model(), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    # sha256 of every file emit_dataset wrote for these two sets before
    # render_audio computed each pitch's sine once per track; a dataset
    # must stay byte-identical across versions.
    GOLDEN = {
        "pop": {
            "manifest.jsonl": "ceac5952f001ede429ae29576df660e685b4a7486ba4f6d3d6720f3ec8845d54",
            "synth_0000.lab": "a9323e0f1aa156d814c44bcbfd8283b89c9b4721b11dd15510cc4a944ea18b33",
            "synth_0000.wav": "0b198d88781b640e60e75f22f6757ba04cecc2c8bab57681fdaf8921e4853c9c",
            "synth_0001.lab": "66c15e3f7f875a0ac8b2efaa8772751f43b5c6e68872a169527de8fc0ba3e38a",
            "synth_0001.wav": "84d9b1d022ef16870b5bfb709d0277e1960d2c54cf90ddae4c3a9ba29a8219de",
        },
        "uniform": {
            "manifest.jsonl": "7f2e7bf8d871bf7a4cb14ebfb965a4e5c344916a2968bc6ff19b168cdbb358b2",
            "synth_0000.lab": "7d58f5fb0869576848f6c17914e1616a1e455b130b72613cfc5c806a531909da",
            "synth_0000.wav": "adb87ef05ea77a5b1fec8b0add40191428017cce2766fb0d74295be956799170",
            "synth_0001.lab": "065e709070500bbd71a0112770af4d4c58532f4dc198a8fc61cc40d759df2c48",
            "synth_0001.wav": "cd812a95ffeab693fed8adb3ac1f1175f62dd621533d4350d66a4d65560fa432",
        },
    }

    @pytest.mark.parametrize("model, spec", [
        ("pop", SynthSpec(2, 10.0, octaves=(3, 4), seed=5)),
        ("uniform", SynthSpec(2, 12.5, octaves=(2, 3, 4, 5), seed=6)),
    ])
    def test_files_match_pinned_digests(self, tmp_path, model, spec,
                                        monkeypatch, started):
        # On one CPU the tracks render in this process; on two, where
        # workers are forked, each of the two tracks in its own worker.
        forks = workers._WORKER_CONTEXT is not None
        for n_cpus, n_started in [(1, 0), (2, 2 if forks else 0)]:
            use_cpus(monkeypatch, n_cpus)
            out = tmp_path / str(n_cpus)
            emit_dataset(spec, default_pop_model() if model == "pop"
                         else uniform_model(), out)
            assert len(started) == n_started
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in out.iterdir()}
            assert digests == self.GOLDEN[model]

    @needs_workers
    def test_failed_track_in_a_worker_ends_the_call(self, tmp_path,
                                                    monkeypatch, started):
        use_cpus(monkeypatch, 2)
        save_wav = synth.save_wav

        def track_1_fails(path, audio):
            if "synth_0002.wav" in str(path):
                # Worker 0 writes half of track 2, then would take a minute.
                with open(path, "wb") as fh:
                    fh.write(b"RIFF")
                time.sleep(60)
            if "synth_0001.wav" in str(path):
                # Worker 1 fails track 1 once track 2 is being written.
                deadline = time.monotonic() + 10
                while not any(p.name.startswith("synth_0002.wav.")
                              for p in tmp_path.iterdir()):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                raise OSError(28, "No space left on device")
            save_wav(path, audio)

        monkeypatch.setattr(synth, "save_wav", track_1_fails)
        spec = SynthSpec(n_tracks=4, track_length_s=10.0, octaves=(4,), seed=3)
        with time_limit(20), pytest.raises(OSError,
                                           match="No space left on device"):
            emit_dataset(spec, default_pop_model(), tmp_path)
        assert len(started) == 2
        assert no_child_left()
        names = sorted(p.name for p in tmp_path.iterdir())
        # Track 0 was written before track 1 failed; nothing else is left.
        assert names == ["synth_0000.lab", "synth_0000.wav"]


def test_rendered_audio_energy_on_annotated_classes(tmp_path):
    # clean synthesis: folded CQT energy concentrates on chord pitch classes
    spec = SynthSpec(n_tracks=1, track_length_s=15.0, octaves=(3, 4), seed=21)
    model = default_pop_model()
    track = quantize_track(sample_progression(model, 15.0, 7), SAMPLE_RATE)
    audio = render_audio(track, spec)
    feats = fold_to_chroma(log_amplitude(cqt(audio)))
    from chordbench.features import align_labels
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
