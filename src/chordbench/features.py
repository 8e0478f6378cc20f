"""Audio feature pipeline: constant-Q analysis, normalization, windowing.

The constant-Q transform covers 6 octaves from C1 (32.7032 Hz) at 24 bins
per octave with a hop of 2048 samples at 22050 Hz.  Each bin is a direct
windowed complex projection: bin k has center frequency
``fmin * 2**(k / 24)`` and a Hann window of ``Q * sr / f_k`` samples
(capped at 32768), where ``Q = 1 / (2**(1/24) - 1)``.  Frames are centered
at multiples of the hop; the edges are zero-padded.

The projections are computed half an octave at a time.  The 12 bins of a
group are zero-padded to the group's longest window, keeping each window
centred where it was, so they read the same frame of samples; their cosine
and sine kernels form one matrix, and one matrix product per block of 16
frames computes all 24 projections.  The padding adds only zeros, so each
magnitude equals the bin-by-bin projection up to rounding (below 1e-12).

Downstream stages: log amplitude with a 1e-6 floor, global z-normalization
fitted on training data, 108-frame windows with 54-frame stride, and pitch
augmentation as a 2-bins-per-semitone shift in the log-CQT domain.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .labels import NOCHORD_CLASS, majmin_label, to_majmin
from .annotations import SegmentTrack, TimedSegment, normalize

SAMPLE_RATE = 22050
HOP = 2048
BINS_PER_OCTAVE = 24
N_OCTAVES = 6
N_BINS = BINS_PER_OCTAVE * N_OCTAVES
FMIN_HZ = 32.7032  # C1
Q_FACTOR = 1.0 / (2.0 ** (1.0 / BINS_PER_OCTAVE) - 1.0)
MAX_WINDOW = 32768  # largest power of two at most 2 s of audio at 22050 Hz
_GROUP_BINS = 12  # bins sharing one CQT kernel matrix: half an octave
_FRAME_BLOCK = 16  # frames per CQT matrix product
LOG_EPS = 1e-6
LOG_FLOOR = float(np.log(LOG_EPS))

WINDOW_FRAMES = 108  # round(10 s * 22050 / 2048)
WINDOW_STRIDE = 54

SHIFT_RANGE = (-5, 6)

BIN_KINDS = ("cqt_mag", "cqt_log", "chroma24", "chroma12")


class FeatureError(ValueError):
    """Raised for invalid audio or feature inputs."""


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if len(self.samples) == 0:
            raise FeatureError("empty audio buffer")
        finite = np.isfinite(self.samples)
        if not finite.all():
            raise FeatureError(f"sample {int(np.argmin(finite))} is not finite")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class FeatureMatrix:
    """Frames x bins matrix with frame timing metadata.

    Frame i corresponds to time ``i * hop_samples / sample_rate_hz``.
    """

    values: np.ndarray
    hop_samples: int
    sample_rate_hz: int
    bin_kind: str

    def __post_init__(self):
        if self.values.ndim != 2:
            raise FeatureError(f"expected 2-D feature values, got {self.values.shape}")
        if self.bin_kind not in BIN_KINDS:
            raise FeatureError(f"unknown bin kind {self.bin_kind!r}")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    @property
    def frame_period_s(self) -> float:
        return self.hop_samples / self.sample_rate_hz


@dataclass(frozen=True)
class NormStats:
    """Global mean and standard deviation for z-normalization."""

    mean: float
    std: float


@dataclass(frozen=True)
class FeatureWindow:
    """A fixed-length slice of a feature matrix, zero-padded at the tail."""

    matrix: FeatureMatrix
    start_frame: int
    valid_frames: int

    @property
    def padded(self) -> bool:
        return self.valid_frames < self.matrix.n_frames


def load_wav(path) -> AudioBuffer:
    """Read a WAV file; stereo is downmixed by averaging channels.

    A NaN or infinite sample raises :class:`FeatureError` naming the path and
    the first such sample.
    """
    rate, data = wavfile.read(path)
    data = np.asarray(data)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FeatureError(f"{path}: unsupported sample format {data.dtype}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    try:
        return AudioBuffer(samples, int(rate))
    except FeatureError as err:
        raise FeatureError(f"{path}: {err}") from None


def save_wav(path, audio: AudioBuffer) -> None:
    """Write 16-bit PCM mono."""
    pcm = np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype(np.int16)
    wavfile.write(path, audio.sample_rate_hz, pcm)


def cqt_bin_frequencies() -> np.ndarray:
    return FMIN_HZ * 2.0 ** (np.arange(N_BINS) / BINS_PER_OCTAVE)


def cqt_window_lengths() -> np.ndarray:
    lengths = np.round(Q_FACTOR * SAMPLE_RATE / cqt_bin_frequencies()).astype(int)
    return np.minimum(lengths, MAX_WINDOW)


def min_cqt_samples() -> int:
    """Shortest analyzable signal: one full window of the lowest bin."""
    return int(cqt_window_lengths()[0])


def cqt(audio: AudioBuffer) -> FeatureMatrix:
    """Constant-Q magnitude transform (frames x 144 bins).

    The input must be at 22050 Hz; resample beforehand if necessary.  Frame
    t is centered at sample ``t * 2048``, and there are
    ``1 + n_samples // 2048`` frames.

    The bins are computed in 12 groups as the module docstring describes:
    each group's kernels form one ``(L, 24)`` matrix for its longest window
    ``L``, and the frames are copied 16 at a time into a contiguous block,
    with zeros past either end of the signal, for one matrix product with
    it.  The caller's samples are only read, and no padded copy of them is
    made.  The kernels are built on every call, not cached, to keep memory
    flat: all 12 together hold 15 MB, while one kernel and one frame block
    take at most 7.4 MB, and building them is a small part of the call.
    """
    if audio.sample_rate_hz != SAMPLE_RATE:
        raise FeatureError(
            f"expected {SAMPLE_RATE} Hz audio, got {audio.sample_rate_hz} Hz; "
            "resample before analysis")
    x = np.asarray(audio.samples, dtype=np.float64)
    freqs = cqt_bin_frequencies()
    win_lens = cqt_window_lengths()
    max_win = int(win_lens[0])
    if len(x) < max_win:
        raise FeatureError(
            f"audio too short for analysis: {len(x)} samples, "
            f"need at least {max_win} ({max_win / SAMPLE_RATE:.3f} s)")

    n_frames = 1 + len(x) // HOP
    mags = np.empty((n_frames, N_BINS), dtype=np.float64)
    for lo in range(0, N_BINS, _GROUP_BINS):
        width = int(win_lens[lo])
        kernel = np.zeros((width, 2 * _GROUP_BINS), dtype=np.float64)
        for i, k in enumerate(range(lo, lo + _GROUP_BINS)):
            n_k = int(win_lens[k])
            window = np.hanning(n_k)
            window /= window.sum()
            phase = 2.0 * np.pi * freqs[k] * np.arange(n_k) / SAMPLE_RATE
            offset = width // 2 - n_k // 2
            kernel[offset:offset + n_k, i] = window * np.cos(phase)
            kernel[offset:offset + n_k, _GROUP_BINS + i] = window * np.sin(phase)
        block = np.empty((_FRAME_BLOCK, width), dtype=np.float64)
        for start in range(0, n_frames, _FRAME_BLOCK):
            count = min(_FRAME_BLOCK, n_frames - start)
            centers = range(start * HOP, (start + count) * HOP, HOP)
            for row, center in zip(block, centers):
                _read_frame(x, center - width // 2, row)
            prod = block[:count] @ kernel
            mags[start:start + count, lo:lo + _GROUP_BINS] = np.hypot(
                prod[:, :_GROUP_BINS], prod[:, _GROUP_BINS:])
    return FeatureMatrix(mags, HOP, SAMPLE_RATE, "cqt_mag")


def _read_frame(x: np.ndarray, first: int, out: np.ndarray) -> None:
    """Copy ``x[first:first + len(out)]`` into ``out``, zero outside ``x``."""
    lo, hi = max(first, 0), min(first + len(out), len(x))
    if hi - lo < len(out):
        out.fill(0.0)
    out[lo - first:hi - first] = x[lo:hi]


def log_amplitude(features: FeatureMatrix) -> FeatureMatrix:
    """Elementwise ``ln(magnitude + 1e-6)``."""
    if features.bin_kind != "cqt_mag":
        raise FeatureError(f"expected magnitude features, got {features.bin_kind}")
    values = np.log(features.values + LOG_EPS)
    return FeatureMatrix(values, features.hop_samples, features.sample_rate_hz,
                         "cqt_log")


def log_cqt_from_wav(path) -> FeatureMatrix:
    """The feature recipe shared by every front end: log-CQT of a WAV file."""
    return log_amplitude(cqt(load_wav(path)))


def zscore_fit(training_features) -> NormStats:
    """Mean and standard deviation over every value of the training set."""
    mats = [np.asarray(f.values, dtype=np.float64) for f in training_features]
    if not mats or sum(m.size for m in mats) < 2:
        raise FeatureError("need at least two training values to fit normalization")
    flat = np.concatenate([m.ravel() for m in mats])
    mean = float(flat.mean())
    std = float(flat.std())
    if std <= 0:
        raise FeatureError("zero variance in training features")
    return NormStats(mean, std)


def zscore_apply(features: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    values = (features.values - stats.mean) / stats.std
    return FeatureMatrix(values, features.hop_samples, features.sample_rate_hz,
                         features.bin_kind)


def window_slices(features: FeatureMatrix,
                  window_frames: int = WINDOW_FRAMES,
                  stride_frames: int = WINDOW_STRIDE) -> list:
    """Cut a track into fixed-length windows with half-window overlap.

    The final window is zero-padded up to ``window_frames`` and carries its
    count of valid frames.
    """
    n = features.n_frames
    if n == 0:
        raise FeatureError("empty feature matrix")
    n_windows = max(1, -(-(n - window_frames) // stride_frames) + 1)
    out = []
    for w in range(n_windows):
        start = w * stride_frames
        chunk = features.values[start:start + window_frames]
        valid = chunk.shape[0]
        if valid < window_frames:
            pad = np.zeros((window_frames - valid, features.n_bins),
                           dtype=chunk.dtype)
            chunk = np.vstack([chunk, pad])
        matrix = FeatureMatrix(chunk, features.hop_samples,
                               features.sample_rate_hz, features.bin_kind)
        out.append(FeatureWindow(matrix, start, valid))
    return out


def pitch_shift_cqt(features: FeatureMatrix, semitones: int) -> FeatureMatrix:
    """Shift log-CQT features by 2 bins per semitone.

    Vacated bins take the log floor value (the log of a zero magnitude).
    """
    if features.bin_kind != "cqt_log":
        raise FeatureError(f"expected log-CQT features, got {features.bin_kind}")
    if features.n_bins != N_BINS:
        raise FeatureError(f"expected {N_BINS} bins, got {features.n_bins}")
    if not SHIFT_RANGE[0] <= semitones <= SHIFT_RANGE[1]:
        raise FeatureError(
            f"pitch shift {semitones} outside supported range {SHIFT_RANGE}")
    shift = 2 * semitones
    out = np.full_like(features.values, LOG_FLOOR)
    if shift > 0:
        out[:, shift:] = features.values[:, :-shift]
    elif shift < 0:
        out[:, :shift] = features.values[:, -shift:]
    else:
        out[:] = features.values
    return FeatureMatrix(out, features.hop_samples, features.sample_rate_hz,
                         "cqt_log")


def align_labels(track: SegmentTrack, features: FeatureMatrix) -> np.ndarray:
    """Class index per frame, sampled at frame centers.

    Frame i is labeled by the segment containing time
    ``(i + 0.5) * hop / sr`` under half-open ``[start, end)`` segments;
    times outside the track map to the no-chord class.
    """
    classes = np.full(features.n_frames, NOCHORD_CLASS, dtype=np.int64)
    if not track.segments:
        return classes
    times = (np.arange(features.n_frames) + 0.5) * features.frame_period_s
    starts = np.array([s.start_s for s in track.segments])
    ends = np.array([s.end_s for s in track.segments])
    seg_classes = np.array([to_majmin(s.label) for s in track.segments])
    idx = np.searchsorted(starts, times, side="right") - 1
    valid = (idx >= 0) & (times < ends[np.clip(idx, 0, len(ends) - 1)])
    classes[valid] = seg_classes[idx[valid]]
    return classes


def frames_to_track(classes: np.ndarray, hop_samples: int, sample_rate_hz: int,
                    source_id: str = "") -> SegmentTrack:
    """Merge per-frame classes into a normalized segment track.

    Frame i covers ``[i * hop / sr, (i + 1) * hop / sr)``.
    """
    classes = np.asarray(classes)
    if classes.size == 0:
        return SegmentTrack((), source_id)
    period = hop_samples / sample_rate_hz
    changes = np.flatnonzero(classes[1:] != classes[:-1]) + 1
    starts = np.concatenate([[0], changes])
    ends = np.concatenate([changes, [classes.size]])
    segments = tuple(
        TimedSegment(s * period, e * period, majmin_label(int(classes[s])))
        for s, e in zip(starts, ends))
    return normalize(SegmentTrack(segments, source_id))


# --- flat binary feature cache (docs/cache.md) ----------------------------

CACHE_MAGIC = b"CBF1"
_CACHE_KIND_CODES = {kind: i for i, kind in enumerate(BIN_KINDS)}
_CACHE_KIND_NAMES = {i: kind for kind, i in _CACHE_KIND_CODES.items()}


def write_feature_cache(path, features: FeatureMatrix,
                        labels: np.ndarray | None = None) -> None:
    """Write a feature matrix (and optional frame labels) as a flat binary file."""
    if labels is not None:
        if len(labels) != features.n_frames:
            raise FeatureError("label count does not match frame count")
        labels = np.asarray(labels)
        bad = np.flatnonzero((labels < 0) | (labels > NOCHORD_CLASS))
        if bad.size:
            raise FeatureError(
                f"{path}: frame {bad[0]}: label {labels[bad[0]]} is not a "
                f"class index 0-{NOCHORD_CLASS}")
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<BBIIII", _CACHE_KIND_CODES[features.bin_kind],
                             1 if labels is not None else 0,
                             features.hop_samples, features.sample_rate_hz,
                             features.n_frames, features.n_bins))
        fh.write(np.ascontiguousarray(features.values, dtype="<f4").tobytes())
        if labels is not None:
            fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def read_feature_cache(path):
    """Read a flat binary feature file; returns ``(features, labels_or_None)``."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise FeatureError(f"{path}: not a feature cache file")
        header = fh.read(18)
        if len(header) != 18:
            raise FeatureError(f"{path}: truncated header")
        kind_code, has_labels, hop, rate, n_frames, n_bins = struct.unpack(
            "<BBIIII", header)
        if kind_code not in _CACHE_KIND_NAMES:
            raise FeatureError(f"{path}: unknown bin kind code {kind_code}")
        block = fh.read(4 * n_frames * n_bins)
        if len(block) != 4 * n_frames * n_bins:
            raise FeatureError(f"{path}: truncated value block")
        values = np.frombuffer(block, dtype="<f4").reshape(
            n_frames, n_bins).astype(np.float64)
        labels = None
        if has_labels:
            labels = np.frombuffer(fh.read(n_frames), dtype=np.uint8)
            if labels.size != n_frames:
                raise FeatureError(f"{path}: truncated label block")
            labels = labels.astype(np.int64)
            bad = np.flatnonzero(labels > NOCHORD_CLASS)
            if bad.size:
                raise FeatureError(
                    f"{path}: frame {bad[0]}: label {labels[bad[0]]} is not a "
                    f"class index 0-{NOCHORD_CLASS}")
    matrix = FeatureMatrix(values, hop, rate, _CACHE_KIND_NAMES[kind_code])
    return matrix, labels
