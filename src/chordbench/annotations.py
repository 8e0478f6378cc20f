"""Timed chord annotations: reading, writing, and normalization.

Supported on-disk formats (details in docs/formats.md):

- ``.lab``: whitespace-separated ``start end label`` rows (tab-separated on
  output, six decimal places).
- CSV with a header row naming start/end columns and one label column per
  notation (the Winterreise layout); delimiter auto-detected.
- A pragmatic ARFF subset: ``@relation`` / ``@attribute`` / ``@data`` with
  numeric onset/offset and a string or nominal chord attribute.

Normalization pads gaps with no-chord segments from time zero and merges
equal consecutive labels, so every evaluated track partitions its span.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

from .labels import NO_CHORD, ChordLabel, parse_harte, render

# Gaps and overlaps below this (seconds) are treated as float noise.
TIME_EPS = 1e-9


class AnnotationError(ValueError):
    """Raised for malformed annotation files or invalid segment layouts."""


@dataclass(frozen=True)
class TimedSegment:
    start_s: float
    end_s: float
    label: ChordLabel

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise AnnotationError("non-finite time")
        if not self.end_s > self.start_s:
            raise AnnotationError(
                f"segment end {self.end_s} not after start {self.start_s}")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class SegmentTrack:
    """A time-ordered, non-overlapping list of labeled segments."""

    segments: tuple
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        prev = None
        for seg in self.segments:
            if prev is not None:
                if seg.start_s < prev.start_s:
                    raise AnnotationError("segments not sorted by start time")
                if seg.start_s < prev.end_s - TIME_EPS:
                    raise AnnotationError(
                        f"segments overlap: ({prev.start_s}, {prev.end_s}) and "
                        f"({seg.start_s}, {seg.end_s})")
            prev = seg

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def start_s(self) -> float:
        return self.segments[0].start_s if self.segments else 0.0

    @property
    def end_s(self) -> float:
        return self.segments[-1].end_s if self.segments else 0.0

    @property
    def duration_s(self) -> float:
        return sum(s.duration_s for s in self.segments)


def read_lab(path) -> SegmentTrack:
    """Read a ``start end label`` annotation file.

    Each non-blank line is one row, split at whitespace into three fields.
    A line with fewer fields raises :class:`AnnotationError` naming the
    file and line; every row then follows the contract of :func:`_read_rows`.
    """
    def rows(fh):
        for lineno, line in enumerate(fh, start=1):
            parts = line.split(None, 2)
            if len(parts) == 3:
                yield lineno, parts[0], parts[1], parts[2].strip()
            elif parts:
                raise AnnotationError(
                    f"{path}:{lineno}: expected 'start end label', got {line.strip()!r}")

    with _open_utf8(path) as fh:
        return _read_rows(path, rows(fh))


def _open_utf8(path, newline=None) -> io.StringIO:
    """The text of a UTF-8 file, opened as :func:`open` would in text mode.

    A byte sequence that is not UTF-8 raises :class:`AnnotationError` naming
    the file and the line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].decode("utf-8")
        lineno = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise AnnotationError(
            f"{path}:{lineno}: not UTF-8 text: {exc.reason} "
            f"(byte 0x{raw[exc.start]:02x})") from None
    return io.StringIO(text, newline=newline)


def _read_rows(path, rows) -> SegmentTrack:
    """The track of ``rows`` read from ``path``, its stem as ``source_id``.

    Each row is a ``(line number, start text, end text, label text)`` tuple.
    A row whose times are not numbers, whose label does not parse, or whose
    segment is invalid raises :class:`AnnotationError` as
    ``<path>:<line>: <reason>``.  Once every row has parsed, rows that
    overlap or are out of order raise ``<path>: rows i and j ...``.
    """
    segments, lines = [], []
    for lineno, start, end, label in rows:
        try:
            times = float(start), float(end)
        except ValueError:
            raise AnnotationError(f"{path}:{lineno}: bad time field in "
                                  f"{' '.join((start, end, label))!r}") from None
        try:
            segments.append(TimedSegment(*times, parse_harte(label)))
        except ValueError as exc:
            raise AnnotationError(f"{path}:{lineno}: {exc}") from None
        lines.append(lineno)
    for i in range(1, len(segments)):
        prev, seg = segments[i - 1], segments[i]
        if seg.start_s < prev.start_s or seg.start_s < prev.end_s - TIME_EPS:
            raise AnnotationError(
                f"{path}: rows {lines[i - 1]} and {lines[i]} overlap or are out of order")
    stem = str(path).replace("\\", "/").rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return SegmentTrack(tuple(segments), stem)


def write_lab(track: SegmentTrack, path) -> None:
    """Write tab-separated ``start end label`` rows, six decimal places."""
    with open(path, "w") as fh:
        for seg in track:
            fh.write(f"{seg.start_s:.6f}\t{seg.end_s:.6f}\t{render(seg.label)}\n")


def read_winterreise_csv(path, notation: str = "shorthand") -> SegmentTrack:
    """Read a per-notation chord annotation CSV.

    The file has ``start`` and ``end`` columns and a label column per
    notation; ``notation`` selects which one is parsed ("shorthand" or
    "majmin").  Delimiter is auto-detected among comma, semicolon, and tab,
    from the header line only: a quoted field below it may hold any of them.
    Each row is named by the line it ends on, and a short row reads its
    missing fields as empty text; every row then follows the contract of
    :func:`_read_rows`.
    """
    if notation not in ("shorthand", "majmin"):
        raise AnnotationError(f"unknown notation {notation!r}")
    with _open_utf8(path, newline="") as fh:
        header_line = fh.readline()
        fh.seek(0)
        try:
            dialect = csv.Sniffer().sniff(header_line, delimiters=",;\t")
        except csv.Error:
            dialect = csv.excel
        reader = csv.DictReader(fh, dialect=dialect, restval="")
        header = reader.fieldnames or []
        keys = ("start", "end", notation)
        for key in keys:
            if key not in header:
                raise AnnotationError(
                    f"{path}: missing column {key!r} (have {header})")
        return _read_rows(path, ((reader.line_num, *(row[k] for k in keys))
                                 for row in reader))


# Literal found in some generated annotation exports; stands for no chord.
BASS_NOTE_EXCEPTION = "BASS NOTE EXCEPTION"

_ARFF_ATTR_RE = re.compile(r"@attribute\s+('[^']*'|\"[^\"]*\"|\S+)\s+(.+)",
                           re.IGNORECASE)


def read_aam_arff(path) -> SegmentTrack:
    """Read chord segments from an ARFF file.

    Looks for numeric onset/offset (or start/end) attributes and a chord
    attribute; rows whose chord value is the literal ``BASS NOTE EXCEPTION``
    become no-chord segments.  A data row with the wrong number of fields
    raises :class:`AnnotationError` naming the file and line; every row
    then follows the contract of :func:`_read_rows`.
    """
    def rows(fh):
        attributes, columns = [], None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if columns is not None:
                fields = next(csv.reader(io.StringIO(line), quotechar="'"))
                if len(fields) != len(attributes):
                    raise AnnotationError(f"{path}:{lineno}: expected "
                                          f"{len(attributes)} fields, got {len(fields)}")
                start, end, chord = (fields[i] for i in columns)
                text = chord.strip().strip("'\"")
                yield lineno, start, end, "N" if text == BASS_NOTE_EXCEPTION else text
            elif low.startswith("@attribute"):
                m = _ARFF_ATTR_RE.match(line)
                if not m:
                    raise AnnotationError(f"{path}:{lineno}: bad @attribute line")
                attributes.append(m.group(1).strip("'\""))
            elif low.startswith("@data"):
                columns = [_find_attr(path, attributes, keys) for keys in
                           (("onset", "start"), ("offset", "end"), ("chord", "label"))]
            elif not low.startswith("@relation"):
                raise AnnotationError(f"{path}:{lineno}: unexpected header line {line!r}")
        if columns is None:
            raise AnnotationError(f"{path}: no @data section found")

    with _open_utf8(path) as fh:
        return _read_rows(path, rows(fh))


def _find_attr(path, attributes, keys):
    """The index of the first attribute whose name contains one of ``keys``."""
    for i, name in enumerate(attributes):
        low = name.lower()
        if any(k in low for k in keys):
            return i
    raise AnnotationError(f"{path}: no {keys[0]} attribute among {attributes}")


def normalize(track: SegmentTrack,
              span: tuple | None = None) -> SegmentTrack:
    """Gap-fill with no-chord and merge equal consecutive labels.

    With ``span=(start, end)`` the result covers the span exactly; the span
    must contain the track extent.  Without a span the result covers the
    track's own extent.  Idempotent.
    """
    segments = list(track.segments)
    if span is not None:
        span_start, span_end = span
        if not span_end > span_start:
            raise AnnotationError(f"empty span {span}")
        if segments and (span_start > track.start_s + TIME_EPS
                         or span_end < track.end_s - TIME_EPS):
            raise AnnotationError(
                f"span {span} smaller than track extent "
                f"({track.start_s}, {track.end_s})")
    elif segments:
        span_start, span_end = track.start_s, track.end_s
    else:
        return SegmentTrack((), track.source_id)

    out = []
    cursor = span_start
    for seg in segments:
        if seg.start_s > cursor + TIME_EPS:
            _append_merged(out, TimedSegment(cursor, seg.start_s, NO_CHORD))
            cursor = seg.start_s
        # snap float noise at the joint
        _append_merged(out, TimedSegment(cursor, seg.end_s, seg.label))
        cursor = seg.end_s
    if span_end > cursor + TIME_EPS:
        _append_merged(out, TimedSegment(cursor, span_end, NO_CHORD))
    return SegmentTrack(tuple(out), track.source_id)


def _append_merged(out: list, seg: TimedSegment) -> None:
    if out and out[-1].label == seg.label:
        out[-1] = TimedSegment(out[-1].start_s, seg.end_s, seg.label)
    else:
        out.append(seg)


def crop(track: SegmentTrack, start_s: float, end_s: float) -> SegmentTrack:
    """Intersect a track with ``[start_s, end_s]``, trimming boundary segments."""
    if not end_s > start_s:
        raise AnnotationError(f"empty crop window ({start_s}, {end_s})")
    out = []
    for seg in track:
        s = max(seg.start_s, start_s)
        e = min(seg.end_s, end_s)
        if e - s > TIME_EPS:
            out.append(TimedSegment(s, e, seg.label))
    return SegmentTrack(tuple(out), track.source_id)
