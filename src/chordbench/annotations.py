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


def read_lab(path, source_id: str | None = None) -> SegmentTrack:
    """Read a ``start end label`` annotation file.

    Raises :class:`AnnotationError` with the line number for unparseable
    rows, and names both offending rows for overlaps or non-monotonic times.
    """
    segments = []
    rows = []
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise AnnotationError(f"{path}:{lineno}: expected 'start end label', got {line!r}")
            try:
                start, end = float(parts[0]), float(parts[1])
            except ValueError:
                raise AnnotationError(f"{path}:{lineno}: bad time field in {line!r}") from None
            try:
                label = parse_harte(parts[2])
            except ValueError as exc:
                raise AnnotationError(f"{path}:{lineno}: {exc}") from None
            try:
                seg = TimedSegment(start, end, label)
            except AnnotationError as exc:
                raise AnnotationError(f"{path}:{lineno}: {exc}") from None
            rows.append(lineno)
            segments.append(seg)
    return _track_from_rows(path, segments, rows, source_id)


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


def _track_from_rows(path, segments, rows, source_id):
    """The track of ``segments`` read from line numbers ``rows`` of ``path``.

    Checks the order :class:`SegmentTrack` requires first, so an overlap or
    a reversal names the file and both rows.
    """
    for i in range(1, len(segments)):
        prev, seg = segments[i - 1], segments[i]
        if seg.start_s < prev.start_s or seg.start_s < prev.end_s - TIME_EPS:
            raise AnnotationError(
                f"{path}: rows {rows[i - 1]} and {rows[i]} overlap or are out of order")
    if source_id is None:
        source_id = _stem(path)
    return SegmentTrack(tuple(segments), source_id)


def write_lab(track: SegmentTrack, path) -> None:
    """Write tab-separated ``start end label`` rows, six decimal places."""
    with open(path, "w") as fh:
        for seg in track:
            fh.write(f"{seg.start_s:.6f}\t{seg.end_s:.6f}\t{render(seg.label)}\n")


_DEFAULT_CSV_COLUMNS = {
    "start": "start",
    "end": "end",
    "shorthand": "shorthand",
    "majmin": "majmin",
}


def read_winterreise_csv(path, notation: str = "shorthand",
                         columns: dict | None = None,
                         source_id: str | None = None) -> SegmentTrack:
    """Read a per-notation chord annotation CSV.

    ``notation`` selects which label column is parsed ("shorthand" or
    "majmin").  ``columns`` overrides the default column-name mapping when a
    file uses different headers.  Delimiter is auto-detected among comma,
    semicolon, and tab.
    """
    colmap = dict(_DEFAULT_CSV_COLUMNS)
    if columns:
        colmap.update(columns)
    if notation not in colmap:
        raise AnnotationError(f"unknown notation {notation!r}")
    with _open_utf8(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        try:
            dialect = csv.Sniffer().sniff(sample, delimiters=",;\t")
        except csv.Error:
            dialect = csv.excel
        reader = csv.DictReader(fh, dialect=dialect)
        header = reader.fieldnames or []
        for key in ("start", "end", notation):
            if colmap[key] not in header:
                raise AnnotationError(
                    f"{path}: missing column {colmap[key]!r} (have {header})")
        segments, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            try:
                start = float(row[colmap["start"]])
                end = float(row[colmap["end"]])
                label = parse_harte(row[colmap[notation]])
                segments.append(TimedSegment(start, end, label))
            except (TypeError, ValueError) as exc:
                raise AnnotationError(f"{path}:{lineno}: {exc}") from None
            rows.append(lineno)
    return _track_from_rows(path, segments, rows, source_id)


# Literal found in some generated annotation exports; stands for no chord.
BASS_NOTE_EXCEPTION = "BASS NOTE EXCEPTION"

_ARFF_ATTR_RE = re.compile(r"@attribute\s+('[^']*'|\"[^\"]*\"|\S+)\s+(.+)",
                           re.IGNORECASE)


def read_aam_arff(path, source_id: str | None = None) -> SegmentTrack:
    """Read chord segments from an ARFF file.

    Looks for numeric onset/offset (or start/end) attributes and a chord
    attribute; rows whose chord value is the literal ``BASS NOTE EXCEPTION``
    become no-chord segments.
    """
    attributes = []
    segments, rows = [], []
    in_data = False
    onset_i = offset_i = chord_i = None
    with _open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if not in_data:
                if low.startswith("@relation"):
                    continue
                if low.startswith("@attribute"):
                    m = _ARFF_ATTR_RE.match(line)
                    if not m:
                        raise AnnotationError(f"{path}:{lineno}: bad @attribute line")
                    attributes.append(m.group(1).strip("'\""))
                    continue
                if low.startswith("@data"):
                    onset_i = _find_attr(attributes, ("onset", "start"))
                    offset_i = _find_attr(attributes, ("offset", "end"))
                    chord_i = _find_attr(attributes, ("chord", "label"))
                    for name, idx in (("onset", onset_i), ("offset", offset_i),
                                      ("chord", chord_i)):
                        if idx is None:
                            raise AnnotationError(
                                f"{path}: no {name} attribute among {attributes}")
                    in_data = True
                    continue
                raise AnnotationError(f"{path}:{lineno}: unexpected header line {line!r}")
            fields = next(csv.reader(io.StringIO(line), quotechar="'"))
            if len(fields) != len(attributes):
                raise AnnotationError(
                    f"{path}:{lineno}: expected {len(attributes)} fields, got {len(fields)}")
            try:
                start = float(fields[onset_i])
                end = float(fields[offset_i])
            except ValueError:
                raise AnnotationError(f"{path}:{lineno}: bad time field") from None
            text = fields[chord_i].strip().strip("'\"")
            if text == BASS_NOTE_EXCEPTION:
                label = NO_CHORD
            else:
                try:
                    label = parse_harte(text)
                except ValueError as exc:
                    raise AnnotationError(f"{path}:{lineno}: {exc}") from None
            try:
                segments.append(TimedSegment(start, end, label))
            except AnnotationError as exc:
                raise AnnotationError(f"{path}:{lineno}: {exc}") from None
            rows.append(lineno)
    if not in_data:
        raise AnnotationError(f"{path}: no @data section found")
    return _track_from_rows(path, segments, rows, source_id)


def _find_attr(attributes, keys):
    for i, name in enumerate(attributes):
        low = name.lower()
        if any(k in low for k in keys):
            return i
    return None


def _stem(path) -> str:
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


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
