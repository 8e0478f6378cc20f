"""Synthetic chord-annotated audio datasets.

A Markov progression model over the 25-class vocabulary drives segment
sampling; each segment is rendered as an additive sum of sines at the
chord's pitch classes across the configured octaves, with short linear
fades at the boundaries.  Every segment's sines start at phase 0, so a
segment's sine is a prefix of the same pitch's sine in any longer segment:
each pitch's sine is computed once per track, at the length of the
longest segment that sounds it.  Annotation boundaries are quantized to
sample boundaries, so the emitted .lab files are exact.

Randomness comes from numpy's PCG64 generator seeded per track, which makes
dataset generation a pure function of (spec, model): regenerating with the
same inputs reproduces every file byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import workers
from .annotations import (SegmentTrack, TimedSegment, _open_utf8, normalize,
                          write_lab)
from .features import SAMPLE_RATE, AudioBuffer, save_wav
from .labels import (N_MAJMIN_CLASSES, NOCHORD_CLASS, majmin_label,
                     pitch_class_set)

ROW_SUM_TOL = 1e-9
FADE_S = 0.010
PEAK_LEVEL = 0.9
DEFAULT_DURATION_RANGE = (1.0, 4.0)
TRANSITION_SMOOTHING = 0.1


class SynthError(ValueError):
    """Raised for invalid progression models or synthesis specs."""


@dataclass(frozen=True)
class ProgressionModel:
    """Markov chord progression model over the 25-class vocabulary."""

    transition: np.ndarray
    initial: np.ndarray
    duration_s: tuple = DEFAULT_DURATION_RANGE

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=np.float64)
        p = np.asarray(self.initial, dtype=np.float64)
        if t.shape != (N_MAJMIN_CLASSES, N_MAJMIN_CLASSES):
            raise SynthError(f"transition matrix has shape {t.shape}")
        if p.shape != (N_MAJMIN_CLASSES,):
            raise SynthError(f"initial distribution has shape {p.shape}")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise SynthError("transition rows must sum to 1")
        if np.any(np.diag(t) != 0.0):
            raise SynthError("self-transitions are not allowed")
        if abs(p.sum() - 1.0) > ROW_SUM_TOL:
            raise SynthError("initial distribution must sum to 1")
        if not self.duration_s[0] > 0 or not self.duration_s[1] >= self.duration_s[0]:
            raise SynthError(f"bad duration range {self.duration_s}")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "initial", p)


@dataclass(frozen=True)
class SynthSpec:
    """Declarative description of one synthetic dataset.

    Audio is rendered at the toolkit's one analysis rate,
    :data:`~chordbench.features.SAMPLE_RATE`, so the highest pitch of
    ``octaves`` must lie below its Nyquist frequency.
    """

    n_tracks: int
    track_length_s: float
    octaves: tuple = (3, 4)
    seed: int = 0

    def __post_init__(self):
        if self.n_tracks < 1:
            raise SynthError("n_tracks must be at least 1")
        if self.track_length_s < 10:
            raise SynthError("track_length_s must be at least 10 s")
        if (not isinstance(self.octaves, tuple) or not self.octaves
                or not all(type(o) is int for o in self.octaves)):
            raise SynthError(
                f"octaves must be a non-empty tuple of ints, not {self.octaves!r}")
        fmax = max(_pitch_frequency(11, o) for o in self.octaves)
        if fmax >= SAMPLE_RATE / 2:
            raise SynthError(f"unsupported sample rate {SAMPLE_RATE} Hz for "
                             f"octaves {self.octaves}: B{max(self.octaves)} "
                             f"({fmax:.0f} Hz) is above the Nyquist frequency")


def model_from_stats(matrix: np.ndarray, histogram: np.ndarray) -> ProgressionModel:
    """Build a progression model from transition counts and occurrences.

    Rows are normalized with additive smoothing on the off-diagonal entries,
    so unseen rows fall back to a uniform choice over the other 24 classes.
    The initial distribution is proportional to the occurrence histogram
    (uniform when the histogram is empty).
    """
    counts = np.asarray(matrix, dtype=np.float64)
    if counts.shape != (N_MAJMIN_CLASSES, N_MAJMIN_CLASSES):
        raise SynthError(f"transition counts have shape {counts.shape}")
    if not np.any(counts):
        raise SynthError("all-zero transition matrix")
    smoothed = counts + TRANSITION_SMOOTHING
    np.fill_diagonal(smoothed, 0.0)
    transition = smoothed / smoothed.sum(axis=1, keepdims=True)

    occ = np.asarray(histogram, dtype=np.float64)
    if occ.shape != (N_MAJMIN_CLASSES,):
        raise SynthError(f"histogram has shape {occ.shape}")
    initial = occ / occ.sum() if occ.sum() > 0 else np.full(N_MAJMIN_CLASSES,
                                                            1.0 / N_MAJMIN_CLASSES)
    return ProgressionModel(transition, initial)


def uniform_model() -> ProgressionModel:
    """Uniform transitions to every other class; uniform start."""
    t = np.full((N_MAJMIN_CLASSES, N_MAJMIN_CLASSES),
                1.0 / (N_MAJMIN_CLASSES - 1))
    np.fill_diagonal(t, 0.0)
    p = np.full(N_MAJMIN_CLASSES, 1.0 / N_MAJMIN_CLASSES)
    return ProgressionModel(t, p)


# Root movements favored by common progressions (semitones up, weight).
_POP_ROOT_WEIGHTS = {5: 4.0, 7: 4.0, 2: 2.0, 9: 2.0, 10: 1.0, 3: 1.0, 4: 0.5, 8: 0.5}
_POP_SAME_FAMILY = 1.0
_POP_CROSS_FAMILY = 0.5
# matches the uniform model's silence rate, so the two differ only in
# progression structure
_POP_TO_N = 1.0


def default_pop_model() -> ProgressionModel:
    """A progression model skewed toward fourth/fifth root movement.

    Stands in for the statistics of popular-music corpora: strong diagonal
    bands at the most common root distances, light traffic to and from the
    no-chord state.
    """
    weights = np.zeros((N_MAJMIN_CLASSES, N_MAJMIN_CLASSES))
    for a in range(24):
        root_a, fam_a = a % 12, a // 12
        for b in range(24):
            if a == b:
                continue
            root_b, fam_b = b % 12, b // 12
            w = _POP_ROOT_WEIGHTS.get((root_b - root_a) % 12, 0.1)
            w *= _POP_SAME_FAMILY if fam_a == fam_b else _POP_CROSS_FAMILY
            weights[a, b] = w
        weights[a, NOCHORD_CLASS] = _POP_TO_N
    weights[NOCHORD_CLASS, :24] = 1.0
    transition = weights / weights.sum(axis=1, keepdims=True)
    initial = np.zeros(N_MAJMIN_CLASSES)
    initial[:12] = 2.0  # start on a major chord more often than a minor one
    initial[12:24] = 1.0
    initial /= initial.sum()
    return ProgressionModel(transition, initial)


def sample_progression(model: ProgressionModel, length_s: float,
                       seed) -> SegmentTrack:
    """Sample one chord progression of the given length.

    Chord durations are uniform in the model's range; the final segment is
    truncated at ``length_s``.  Deterministic given the seed.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = model.duration_s
    segments = []
    state = int(rng.choice(N_MAJMIN_CLASSES, p=model.initial))
    t = 0.0
    while t < length_s:
        dur = float(rng.uniform(lo, hi))
        end = min(t + dur, length_s)
        segments.append(TimedSegment(t, end, majmin_label(state)))
        t = end
        state = int(rng.choice(N_MAJMIN_CLASSES, p=model.transition[state]))
    return SegmentTrack(tuple(segments), source_id=f"synth-{seed}")


def _pitch_frequency(pitch_class: int, octave: int) -> float:
    midi = 12 * (octave + 1) + pitch_class
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


def quantize_track(track: SegmentTrack, sample_rate_hz: int) -> SegmentTrack:
    """Snap segment boundaries to exact sample boundaries.

    Each segment starts no earlier than the previous one's end sample, so
    two segments that overlap by less than ``TIME_EPS`` never share a
    sample; a segment left without a sample is dropped.
    """
    out = []
    prev_e = -math.inf
    for seg in track:
        s = max(round(seg.start_s * sample_rate_hz), prev_e)
        e = round(seg.end_s * sample_rate_hz)
        if e > s:
            out.append(TimedSegment(s / sample_rate_hz, e / sample_rate_hz,
                                    seg.label))
            prev_e = e
    return SegmentTrack(tuple(out), track.source_id)


def render_audio(track: SegmentTrack, spec: SynthSpec) -> AudioBuffer:
    """Render a progression as additive sine synthesis.

    Every pitch class of each chord sounds in every configured octave with
    equal amplitude; segments get a 10 ms linear fade at both ends and the
    whole track is peak-normalized to 0.9.  No-chord renders silence.
    Each segment's sines start at phase 0, so each pitch's sine is computed
    once, at the length of the longest segment that sounds it, and added
    as a prefix into every segment that sounds it: ascending pitch classes,
    octaves in spec order, the same sums as rendering segment by segment.
    The sample times and the sine are computed into prefixes of two buffers
    sized for the track's longest chord, allocated once per track.
    """
    sr = SAMPLE_RATE
    q = quantize_track(track, sr)
    n_total = round(q.end_s * sr) if q.segments else round(track.end_s * sr)
    buf = np.zeros(n_total, dtype=np.float64)
    fade_n = round(FADE_S * sr)
    chords = []  # (first sample, end sample, pitch classes)
    for seg in q:
        pcs = pitch_class_set(seg.label)
        if pcs:
            chords.append((round(seg.start_s * sr), round(seg.end_s * sr), pcs))
    longest = max((i1 - i0 for i0, i1, _ in chords), default=0)
    t_all = np.arange(longest) / sr
    wave_all = np.empty(longest)
    for pc in range(12):
        spans = [(i0, i1) for i0, i1, pcs in chords if pc in pcs]
        if not spans:
            continue
        n = max(i1 - i0 for i0, i1 in spans)
        t, wave = t_all[:n], wave_all[:n]
        for octave in spec.octaves:
            np.multiply(2.0 * np.pi * _pitch_frequency(pc, octave), t, out=wave)
            np.sin(wave, out=wave)
            for i0, i1 in spans:
                buf[i0:i1] += wave[:i1 - i0]
    for i0, i1, _ in chords:
        m = min(fade_n, (i1 - i0) // 2)
        if m > 0:
            ramp = np.linspace(0.0, 1.0, m, endpoint=False)
            buf[i0:i0 + m] *= ramp
            buf[i1 - m:i1] *= ramp[::-1]
    peak = np.abs(buf).max()
    if peak > 0:
        buf *= PEAK_LEVEL / peak
    return AudioBuffer(buf)


def track_seed(spec_seed: int, index: int) -> int:
    """Stable per-track seed derived from the dataset seed."""
    ss = np.random.SeedSequence(entropy=spec_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def emit_dataset(spec: SynthSpec, model: ProgressionModel, out_dir) -> list:
    """Generate WAV + .lab pairs and a JSON-lines manifest.

    Returns the manifest entries (id, path, duration, seed).  Regeneration
    with the same spec and model is byte-identical.  The tracks are
    rendered in up to one worker process per usable CPU where workers fork
    (:func:`chordbench.workers.ordered_map`), and in this process elsewhere.
    Each file is written to a temporary name and then renamed, and the
    manifest is written last, in track order, so every file is the same
    as from one process.  A track that fails raises its error, and then no
    manifest and no temporary file is left.
    """
    os.makedirs(out_dir, exist_ok=True)
    render = functools.partial(_emit_track, spec, model, out_dir)
    with workers.ordered_map(render, range(spec.n_tracks),
                             workers.usable_cpus(), "track") as tracks:
        entries = list(tracks)
    with open(os.path.join(out_dir, "manifest.jsonl"), "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entries


def _emit_track(spec, model, out_dir, index) -> dict:
    """Write track ``index``'s WAV and ``.lab`` files; its manifest entry."""
    seed = track_seed(spec.seed, index)
    track_id = f"synth_{index:04d}"
    progression = sample_progression(model, spec.track_length_s, seed)
    quantized = normalize(quantize_track(progression, SAMPLE_RATE))
    audio = render_audio(quantized, spec)
    wav_name = f"{track_id}.wav"
    with workers.replacing(os.path.join(out_dir, wav_name)) as tmp_path:
        save_wav(tmp_path, audio)
    with workers.replacing(os.path.join(out_dir, f"{track_id}.lab")) as tmp_path:
        write_lab(quantized, tmp_path)
    return {
        "id": track_id,
        "path": wav_name,
        "duration": round(audio.duration_s, 6),
        "seed": seed,
    }


def read_manifest(path) -> list:
    """Read a JSON-lines dataset manifest (format in docs/manifest.md).

    A line that is not a JSON object whose ``id`` and ``path`` are
    non-empty strings, or whose ``id`` an earlier line has, raises
    :class:`SynthError` naming ``<path>:<line>``, and bytes that are not
    UTF-8 raise ``AnnotationError`` naming it; blank lines are skipped.
    """
    entries = []
    first_line_of = {}
    with _open_utf8(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SynthError(f"{path}:{line_no}: not JSON: {exc}") from None
            if not isinstance(entry, dict):
                raise SynthError(f"{path}:{line_no}: not a JSON object")
            for key in ("id", "path"):
                if key not in entry:
                    raise SynthError(f"{path}:{line_no}: missing key {key!r}")
                if not (isinstance(entry[key], str) and entry[key]):
                    raise SynthError(f"{path}:{line_no}: {key} must be a "
                                     f"non-empty string, got {entry[key]!r}")
            if entry["id"] in first_line_of:
                raise SynthError(f"{path}:{line_no}: duplicate id "
                                 f"{entry['id']!r} (line "
                                 f"{first_line_of[entry['id']]})")
            first_line_of[entry["id"]] = line_no
            entries.append(entry)
    return entries
