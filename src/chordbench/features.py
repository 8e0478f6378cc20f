"""Audio feature pipeline: constant-Q analysis, normalization, windowing.

The constant-Q transform covers 6 octaves from C1 (32.7032 Hz) at 24 bins
per octave with a hop of 2048 samples at 22050 Hz.  Each bin is a direct
windowed complex projection: bin k has center frequency
``fmin * 2**(k / 24)`` and a Hann window of ``Q * sr / f_k`` samples
(capped at 32768), where ``Q = 1 / (2**(1/24) - 1)``.  Frames are centered
at multiples of the hop; the edges are zero-padded.

The projections are computed half an octave at a time.  The 12 bins of a
group are zero-padded to the group's longest window W, keeping each window
centred where it was, so they read the same frame of samples.  The signal
is read in hop-aligned blocks of 2048 samples: frame t's window starts at
``t * 2048 - W // 2`` and so spans the ``m = ceil(W / 2048)`` consecutive
blocks that start there.  The 24 cosine and sine kernels are cut into m
pieces of one block each, and one matrix product of a chunk of blocks with
all the pieces gives every block's partial projections; a frame's
projection is the sum of its m partials.  The padding adds only zeros, so
each magnitude equals the bin-by-bin projection up to rounding (below
1e-12).  Each group's kernel depends only on the constants above, so it is
built once per process, by the first call, and kept read-only: the 12 hold
16.5 MB.

``AudioBuffer(samples)`` is 22050 Hz audio.  WAV files are read, at that
rate only, and written with :mod:`struct` and the standard :mod:`wave`
module (formats in docs/formats.md).

Downstream stages: log amplitude with a 1e-6 floor, global z-normalization
fitted on training data, 108-frame windows with 54-frame stride, and pitch
augmentation as a 2-bins-per-semitone shift in the log-CQT domain.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .labels import NOCHORD_CLASS, majmin_label, to_majmin
from .annotations import SegmentTrack, TimedSegment, normalize

SAMPLE_RATE = 22050
HOP = 2048
FRAME_S = HOP / SAMPLE_RATE  # seconds between frame starts
BINS_PER_OCTAVE = 24
N_OCTAVES = 6
N_BINS = BINS_PER_OCTAVE * N_OCTAVES
FMIN_HZ = 32.7032  # C1
Q_FACTOR = 1.0 / (2.0 ** (1.0 / BINS_PER_OCTAVE) - 1.0)
MAX_WINDOW = 32768  # largest power of two at most 2 s of audio at 22050 Hz
_GROUP_BINS = 12  # bins sharing one CQT kernel matrix: half an octave
_CHUNK_FRAMES = 128  # frames per CQT matrix product
LOG_EPS = 1e-6
LOG_FLOOR = float(np.log(LOG_EPS))

WINDOW_FRAMES = 108  # round(10 s * 22050 / 2048)
WINDOW_STRIDE = 54

SHIFT_RANGE = (-5, 6)

BIN_KINDS = ("cqt_mag", "cqt_log", "chroma12")


class FeatureError(ValueError):
    """Raised for invalid audio or feature inputs."""


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray

    def __post_init__(self):
        if len(self.samples) == 0:
            raise FeatureError("empty audio buffer")
        finite = np.isfinite(self.samples)
        if not finite.all():
            raise FeatureError(f"sample {int(np.argmin(finite))} is not finite")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / SAMPLE_RATE


@dataclass(frozen=True)
class FeatureMatrix:
    """Frames x bins matrix of one of the :data:`BIN_KINDS`.

    Frame i corresponds to time ``i * FRAME_S``.  Values of 0 frames or 0
    bins raise :class:`FeatureError`, as does a NaN or infinite value,
    naming its first frame.
    Values computed from audio are float64; values read from a cache are its
    float32 (:func:`read_feature_cache`).  Computations on them upcast to
    float64 (:func:`zscore_fit`, :func:`zscore_apply`,
    :func:`~chordbench.templates.fold_to_chroma`), and the labeler's training
    windows are float32 views of each z-scored track.
    """

    values: np.ndarray
    bin_kind: str

    # Not fields: read by the benchmark's frames_to_track call; ROADMAP
    # item 1 removes them.
    hop_samples = HOP
    sample_rate_hz = SAMPLE_RATE

    def __post_init__(self):
        if self.values.ndim != 2:
            raise FeatureError(f"expected 2-D feature values, got {self.values.shape}")
        if 0 in self.values.shape:
            raise FeatureError(f"{self.n_frames} frames of {self.n_bins} "
                               "bins; features hold at least 1 of each")
        if self.bin_kind not in BIN_KINDS:
            raise FeatureError(f"unknown bin kind {self.bin_kind!r}")
        finite = np.isfinite(self.values).all(axis=1)
        if not finite.all():
            raise FeatureError(f"frame {int(np.argmin(finite))} is not finite")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Global mean and standard deviation for z-normalization.

    Both must be finite numbers and ``std`` above 0, or z-scoring would
    turn every value into the same number or into NaN.
    """

    mean: float
    std: float

    def __post_init__(self):
        for name in ("mean", "std"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise FeatureError(f"{name} is not a finite number: {value!r}")
        if self.std <= 0:
            raise FeatureError(f"std is not above 0: {self.std!r}; z-scoring "
                               "needs a non-zero variance")


def load_wav(path) -> AudioBuffer:
    """Read a WAV file; stereo is downmixed by averaging channels.

    Reads 16-, 24- and 32-bit PCM and 32- and 64-bit float, with any channel
    count, in a plain or ``WAVE_FORMAT_EXTENSIBLE`` header (docs/formats.md).
    Another format, a rate other than 22050 Hz, a file that is not a WAV
    file, or a missing or truncated chunk raises :class:`FeatureError` naming
    the path, as does a NaN or infinite sample, with the index of the first.
    """
    rate, data = _read_wav(path)
    if rate != SAMPLE_RATE:
        raise FeatureError(f"{path}: expected {SAMPLE_RATE} Hz audio, got "
                           f"{rate} Hz; resample before analysis")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        samples = data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    try:
        return AudioBuffer(samples)
    except FeatureError as err:
        raise FeatureError(f"{path}: {err}") from None


_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2-15 of every KSDATAFORMAT_SUBTYPE GUID; bytes 0-1 hold the format.
_SUBTYPE_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format, bits per sample) -> sample dtype; 24-bit PCM reads as int32.
_WAV_DTYPES = {(_WAVE_FORMAT_PCM, 16): "<i2", (_WAVE_FORMAT_PCM, 24): "<i4",
               (_WAVE_FORMAT_PCM, 32): "<i4",
               (_WAVE_FORMAT_IEEE_FLOAT, 32): "<f4",
               (_WAVE_FORMAT_IEEE_FLOAT, 64): "<f8"}


def _read_wav(path):
    """``(rate, samples)`` of a WAV file, as ``scipy.io.wavfile.read`` gives.

    ``samples`` is 1-D for one channel and frames x channels otherwise.
    Chunks other than ``fmt `` and ``data`` are skipped, with the pad byte
    that follows an odd-sized one.  24-bit samples come shifted left into
    int32, so every PCM format scales by its dtype's range.  A partial frame
    at the end of the ``data`` chunk is dropped.  A chunk is read only as
    far as the file goes, so a size that claims more costs no memory.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def read_chunk(size):
            return fh.read(min(size, max(file_size - fh.tell(), 0)))

        head = fh.read(12)
        if head[:4] != b"RIFF" or head[8:] != b"WAVE":
            raise FeatureError(f"{path}: not a RIFF WAVE file")
        fmt = None
        while True:
            chunk = fh.read(8)
            if len(chunk) < 8:
                missing = "fmt " if fmt is None else "data"
                raise FeatureError(f"{path}: no {missing!r} chunk")
            chunk_id, size = struct.unpack("<4sI", chunk)
            if chunk_id == b"fmt ":
                fmt = _wav_format(path, read_chunk(size), size)
                fh.seek(size % 2, 1)
            elif chunk_id == b"data":
                if fmt is None:
                    raise FeatureError(f"{path}: no 'fmt ' chunk before 'data'")
                break
            else:
                fh.seek(size + size % 2, 1)
        rate, channels, bits, dtype = fmt
        data = read_chunk(size)
    if len(data) < size:
        raise FeatureError(f"{path}: truncated 'data' chunk: {len(data)} of "
                           f"{size} bytes")
    width = bits // 8
    n_frames = size // (width * channels)
    data = np.frombuffer(data, dtype=np.uint8, count=n_frames * width * channels)
    if bits == 24:
        wide = np.zeros((data.size // 3, 4), dtype=np.uint8)
        wide[:, 1:] = data.reshape(-1, 3)
        data = wide
    samples = data.view(dtype).reshape(n_frames, channels)
    return rate, samples[:, 0] if channels == 1 else samples


def _wav_format(path, body, size):
    """``(rate, channels, bits, dtype)`` of a ``fmt `` chunk's body."""
    if len(body) < max(size, 16):
        raise FeatureError(f"{path}: 'fmt ' chunk has {len(body)} of "
                           f"{max(size, 16)} bytes")
    tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", body[:16])
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        guid = body[24:40]
        if len(guid) < 16 or guid[2:] != _SUBTYPE_GUID_TAIL:
            raise FeatureError(f"{path}: unknown WAVE_FORMAT_EXTENSIBLE "
                               "sub-format")
        tag = int.from_bytes(guid[:2], "little")
    if (tag, bits) not in _WAV_DTYPES:
        kind = {_WAVE_FORMAT_PCM: "PCM", _WAVE_FORMAT_IEEE_FLOAT: "float"}
        described = (f"{bits}-bit {kind[tag]}" if tag in kind
                     else f"format tag 0x{tag:04x}")
        raise FeatureError(f"{path}: unsupported sample format {described}; "
                           "expected 16-, 24- or 32-bit PCM or 32- or "
                           "64-bit float")
    if channels == 0:
        raise FeatureError(f"{path}: 'fmt ' chunk declares 0 channels")
    return rate, channels, bits, _WAV_DTYPES[tag, bits]


def save_wav(path, audio: AudioBuffer) -> None:
    """Write 16-bit PCM mono at :data:`SAMPLE_RATE`."""
    pcm = np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype("<i2")
    with open(path, "wb") as fh, wave.open(fh, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(SAMPLE_RATE)
        out.writeframes(pcm.tobytes())


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

    The input must hold at least :func:`min_cqt_samples` samples.  Frame
    t is centered at sample ``t * 2048``, and there are
    ``1 + n_samples // 2048`` frames.

    The bins are computed in 12 groups as the module docstring describes.
    A group's kernels form one ``(24 * m, 2048)`` matrix whose row
    ``i * m + j`` holds samples ``j * 2048`` to ``(j + 1) * 2048 - 1`` of
    column i, zero past W.  For each chunk of at most 128 frames, the
    ``chunk + m - 1`` blocks those frames read are copied with one slice,
    with zeros past either end of the signal, into one buffer, and one
    matrix product of that buffer with the kernel gives all their partial
    projections.  The caller's samples are only read, and no padded copy of
    them is made.

    The 12 kernels, 16.5 MB together, are built by the first call in a
    process and kept for the rest of it, so that call takes about 50 ms
    longer than later ones (2-core x86-64).  Memory stays flat whatever the
    track length: besides the output, the kernels and a few small arrays,
    one chunk buffer of at most 2.3 MB is live at a time.
    """
    x = np.asarray(audio.samples, dtype=np.float64)
    need = min_cqt_samples()
    if len(x) < need:
        raise FeatureError(
            f"audio too short for analysis: {len(x)} samples, "
            f"need at least {need} ({need / SAMPLE_RATE:.3f} s)")
    win_lens = cqt_window_lengths()

    n_frames = 1 + len(x) // HOP
    mags = np.empty((n_frames, N_BINS), dtype=np.float64)
    for lo in range(0, N_BINS, _GROUP_BINS):
        _group_magnitudes(x, _group_kernel(lo), int(win_lens[lo]),
                          mags[:, lo:lo + _GROUP_BINS])
    return FeatureMatrix(mags, "cqt_mag")


def build_cqt_kernels() -> None:
    """Build the 12 group kernels now, as the first :func:`cqt` call would:
    worker processes forked afterwards share them instead of each building
    its own 16.5 MB."""
    for lo in range(0, N_BINS, _GROUP_BINS):
        _group_kernel(lo)


@functools.cache
def _group_kernel(lo: int) -> np.ndarray:
    """Read-only ``(24 * m, 2048)`` kernel of the group starting at bin ``lo``.

    Row ``i * m + j`` holds piece j of column i: columns 0-11 are the
    windowed cosines of bins ``lo`` to ``lo + 11``, columns 12-23 their
    sines, each centred in the group's longest window W.
    """
    group = slice(lo, lo + _GROUP_BINS)
    freqs, win_lens = cqt_bin_frequencies()[group], cqt_window_lengths()[group]
    width = int(win_lens[0])
    m = -(-width // HOP)
    kernel = np.zeros((2 * _GROUP_BINS, m * HOP), dtype=np.float64)
    for i, (freq, n_k) in enumerate(zip(freqs, win_lens)):
        n_k = int(n_k)
        window = np.hanning(n_k)
        window /= window.sum()
        phase = 2.0 * np.pi * freq * np.arange(n_k) / SAMPLE_RATE
        offset = width // 2 - n_k // 2
        kernel[i, offset:offset + n_k] = window * np.cos(phase)
        kernel[_GROUP_BINS + i, offset:offset + n_k] = window * np.sin(phase)
    kernel = kernel.reshape(2 * _GROUP_BINS * m, HOP)
    kernel.flags.writeable = False
    return kernel


def _group_magnitudes(x: np.ndarray, kernel: np.ndarray, width: int,
                      out: np.ndarray) -> None:
    """Magnitudes of one group's bins into ``out``; ``width`` is its W."""
    m = len(kernel) // (2 * _GROUP_BINS)
    n_frames = len(out)
    buf = np.empty((min(_CHUNK_FRAMES, n_frames) + m - 1) * HOP)
    for start in range(0, n_frames, _CHUNK_FRAMES):
        count = min(_CHUNK_FRAMES, n_frames - start)
        n_blocks = count + m - 1
        blocks = buf[:n_blocks * HOP]
        first = start * HOP - width // 2
        lo, hi = max(first, 0), min(first + len(blocks), len(x))
        if hi - lo < len(blocks):
            blocks.fill(0.0)
        blocks[lo - first:hi - first] = x[lo:hi]
        # part[u, c, j]: block start + u against piece j of column c.
        part = (blocks.reshape(n_blocks, HOP) @ kernel.T).reshape(
            n_blocks, 2 * _GROUP_BINS, m)
        proj = sum(part[j:j + count, :, j] for j in range(m))
        out[start:start + count] = np.hypot(proj[:, :_GROUP_BINS],
                                            proj[:, _GROUP_BINS:])


def log_amplitude(features: FeatureMatrix) -> FeatureMatrix:
    """Elementwise ``ln(magnitude + 1e-6)``."""
    if features.bin_kind != "cqt_mag":
        raise FeatureError(f"expected magnitude features, got {features.bin_kind}")
    values = np.log(features.values + LOG_EPS)
    return FeatureMatrix(values, "cqt_log")


def log_cqt_from_wav(path) -> FeatureMatrix:
    """The feature recipe shared by every front end: log-CQT of a WAV file.

    An error of :func:`cqt` (a signal too short) is raised naming the path.
    """
    audio = load_wav(path)
    try:
        return log_amplitude(cqt(audio))
    except FeatureError as err:
        raise FeatureError(f"{path}: {err}") from None


def zscore_fit(training_features) -> NormStats:
    """Mean and standard deviation over every value of the training set.

    A set whose values are all equal has no :class:`NormStats` and raises.
    """
    mats = [np.asarray(f.values).ravel() for f in training_features]
    if not mats or sum(m.size for m in mats) < 2:
        raise FeatureError("need at least two training values to fit normalization")
    flat = np.concatenate(mats, dtype=np.float64)
    mean = float(flat.mean())
    # The steps of ``np.std``, in place on ``flat`` instead of on a copy.
    flat -= mean
    np.multiply(flat, flat, out=flat)
    return NormStats(mean, math.sqrt(float(flat.sum()) / flat.size))


def zscore_apply(features: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """``(values - mean) / std`` in float64, whatever the values' dtype."""
    values = np.subtract(features.values, stats.mean, dtype=np.float64)
    values /= stats.std
    return FeatureMatrix(values, features.bin_kind)


def window_slices(n_frames: int) -> list:
    """The training windows of an ``n_frames``-frame track, as slices.

    Windows are ``WINDOW_FRAMES`` long and start ``WINDOW_STRIDE`` apart,
    half a window, from frame 0 until one reaches the last frame; that last
    window may run past the end, and slicing with it gives fewer frames.
    """
    if n_frames < 1:
        raise FeatureError("empty feature matrix")
    n_windows = max(1, -(-(n_frames - WINDOW_FRAMES) // WINDOW_STRIDE) + 1)
    return [slice(start, start + WINDOW_FRAMES)
            for start in range(0, n_windows * WINDOW_STRIDE, WINDOW_STRIDE)]


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
    return FeatureMatrix(out, "cqt_log")


def align_labels(track: SegmentTrack, features: FeatureMatrix) -> np.ndarray:
    """Class index per frame, sampled at frame centers.

    Frame i is labeled by the segment containing time
    ``(i + 0.5) * FRAME_S`` under half-open ``[start, end)`` segments;
    times outside the track map to the no-chord class.
    """
    classes = np.full(features.n_frames, NOCHORD_CLASS, dtype=np.int64)
    if not track.segments:
        return classes
    times = (np.arange(features.n_frames) + 0.5) * FRAME_S
    starts = np.array([s.start_s for s in track.segments])
    ends = np.array([s.end_s for s in track.segments])
    seg_classes = np.array([to_majmin(s.label) for s in track.segments])
    idx = np.searchsorted(starts, times, side="right") - 1
    valid = (idx >= 0) & (times < ends[np.clip(idx, 0, len(ends) - 1)])
    classes[valid] = seg_classes[idx[valid]]
    return classes


def check_labels(labels, n_frames: int, where: str) -> None:
    """Raise :class:`FeatureError`, prefixed ``where``, unless ``labels``
    hold one integer class index 0-24 for each of ``n_frames`` frames."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != n_frames:
        raise FeatureError(f"{where}{labels.size} labels for {n_frames} frames")
    if not np.issubdtype(labels.dtype, np.integer):
        raise FeatureError(f"{where}labels are {labels.dtype}, not class "
                           "indices")
    bad = np.flatnonzero((labels < 0) | (labels > NOCHORD_CLASS))
    if bad.size:
        raise FeatureError(f"{where}frame {bad[0]}: label {labels[bad[0]]} "
                           f"is not a class index 0-{NOCHORD_CLASS}")


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


def decode_scores(scores: np.ndarray, source_id: str) -> SegmentTrack:
    """The chord track of ``(frames, 25)`` class scores: each frame's top
    class, ties to the lowest, frame i covering ``[i, i + 1) * FRAME_S``."""
    return frames_to_track(scores.argmax(axis=1), HOP, SAMPLE_RATE, source_id)


# --- flat binary feature cache (docs/cache.md) ----------------------------

CACHE_MAGIC = b"CBF1"
# Code 2 was a 24-bin chroma kind that nothing produced; it stays unused.
_CACHE_KIND_CODES = {"cqt_mag": 0, "cqt_log": 1, "chroma12": 3}
_CACHE_KIND_NAMES = {i: kind for kind, i in _CACHE_KIND_CODES.items()}


def write_feature_cache(path, features: FeatureMatrix,
                        labels: np.ndarray | None = None) -> None:
    """Write a feature matrix (and optional frame labels) as a flat binary
    file; labels are checked by :func:`check_labels`, naming the path."""
    if labels is not None:
        check_labels(labels, features.n_frames, f"{path}: ")
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<BBIIII", _CACHE_KIND_CODES[features.bin_kind],
                             1 if labels is not None else 0,
                             HOP, SAMPLE_RATE, features.n_frames, features.n_bins))
        fh.write(np.ascontiguousarray(features.values, dtype="<f4").tobytes())
        if labels is not None:
            fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def read_feature_cache(path):
    """Read a flat binary feature file; returns ``(features, labels_or_None)``.

    The features hold the file's float32 values, read-only; computations
    that need float64 upcast them.  A file that is not a feature file, ends
    early or holds bytes after its last block, has a has_labels flag other
    than 0 or 1, 0 frames or 0 bins, a frame timing other than ``HOP``
    samples at ``SAMPLE_RATE``, or holds a NaN or infinite value or a label
    that is not a class index raises :class:`FeatureError` naming the path
    and, for a bad value or label, the first frame with one.
    """
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
        if has_labels not in (0, 1):
            raise FeatureError(f"{path}: has_labels flag {has_labels} is "
                               "not 0 or 1")
        if (hop, rate) != (HOP, SAMPLE_RATE):
            raise FeatureError(f"{path}: hop {hop} at {rate} Hz; features "
                               f"must have hop {HOP} at {SAMPLE_RATE} Hz")
        if not (n_frames and n_bins):
            raise FeatureError(f"{path}: {n_frames} frames of {n_bins} bins; "
                               "a feature cache holds at least 1 of each")
        # Checked before reading, so that a corrupt count never asks for
        # more memory than the file holds.
        n_bytes = 4 * n_frames * n_bins
        if fh.tell() + n_bytes > os.fstat(fh.fileno()).st_size:
            raise FeatureError(f"{path}: truncated value block")
        values = np.frombuffer(fh.read(n_bytes),
                               dtype="<f4").reshape(n_frames, n_bins)
        try:
            matrix = FeatureMatrix(values, _CACHE_KIND_NAMES[kind_code])
        except FeatureError as exc:  # a non-finite value
            raise FeatureError(f"{path}: {exc}") from None
        labels = None
        if has_labels:
            labels = np.frombuffer(fh.read(n_frames), dtype=np.uint8)
            if labels.size != n_frames:
                raise FeatureError(f"{path}: truncated label block")
            labels = labels.astype(np.int64)
            check_labels(labels, n_frames, f"{path}: ")
        end = fh.tell()
        extra = fh.seek(0, os.SEEK_END) - end
        if extra:
            last = "label" if has_labels else "value"
            raise FeatureError(f"{path}: {extra} bytes after the {last} block")
    return matrix, labels
