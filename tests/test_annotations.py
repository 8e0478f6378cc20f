import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chordbench.annotations import (TIME_EPS, AnnotationError, SegmentTrack,
                                    TimedSegment, crop, normalize,
                                    read_aam_arff, read_lab,
                                    read_winterreise_csv, write_lab)
from chordbench.labels import NO_CHORD, parse_harte

C = parse_harte("C:maj")
G = parse_harte("G:maj")


def track(*triples, source_id="t"):
    return SegmentTrack(tuple(TimedSegment(s, e, parse_harte(l))
                              for s, e, l in triples), source_id)


def random_track(rng, n_segments=8, source_id="r"):
    # millisecond-aligned boundaries, labels over the 25-class vocabulary
    bounds = np.sort(rng.choice(np.arange(1, 30000), n_segments, replace=False))
    bounds = np.concatenate([[0], bounds]) / 1000.0
    names = ["N"] + [f"{n}:maj" for n in
                     ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")]
    segs = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        segs.append(TimedSegment(s, e, parse_harte(names[int(rng.integers(len(names)))])))
    return SegmentTrack(tuple(segs), source_id)


class TestLab:
    def test_read_basic(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.0 2.5 C:maj\n2.5 4.0 N\n")
        t = read_lab(p)
        assert t.segments[0] == TimedSegment(0.0, 2.5, C)
        assert t.segments[1].label == NO_CHORD
        assert t.source_id == "a"

    def test_read_tab_separated(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.000000\t2.500000\tC:maj\n")
        assert read_lab(p).segments[0].label == C

    def test_overlap_names_both_rows(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.0 2.0 C:maj\n1.5 3.0 G:maj\n")
        with pytest.raises(AnnotationError, match="rows 1 and 2"):
            read_lab(p)

    def test_bad_line_number(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.0 1.0 C:maj\n1.0 oops G:maj\n")
        with pytest.raises(AnnotationError, match=":2"):
            read_lab(p)

    def test_write_format(self, tmp_path):
        p = tmp_path / "out.lab"
        write_lab(track((0.0, 2.5, "C:maj")), p)
        assert p.read_text() == "0.000000\t2.500000\tC:maj\n"

    def test_write_empty(self, tmp_path):
        p = tmp_path / "out.lab"
        write_lab(SegmentTrack(()), p)
        assert p.read_text() == ""

    def test_round_trip_random_tracks(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(7))
        for i in range(100):
            t = random_track(rng, source_id=f"r{i}")
            p = tmp_path / f"r{i}.lab"
            write_lab(t, p)
            back = read_lab(p)
            assert back == t


class TestWinterreiseCsv:
    def test_semicolon_delimited(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("start;end;shorthand;majmin\n"
                     "0.0;1.5;C:maj;C:maj\n"
                     "1.5;2.5;A:min7;A:min\n")
        t = read_winterreise_csv(p, notation="shorthand")
        assert t.segments[0] == TimedSegment(0.0, 1.5, C)
        assert t.segments[1].label.quality.kind == "min7"

    def test_majmin_column_reduces(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("start,end,shorthand,majmin\n"
                     "0.0,1.5,C:maj7,C:maj\n"
                     "1.5,2.5,N,N\n")
        t = read_winterreise_csv(p, notation="majmin")
        for seg in t:
            assert seg.label.is_nochord or seg.label.quality.kind in ("maj", "min")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("begin,end,shorthand\n0,1,C:maj\n")
        with pytest.raises(AnnotationError, match="missing column"):
            read_winterreise_csv(p)



ARFF = """\
@relation chords

@attribute onset numeric
@attribute offset numeric
@attribute chord string

@data
0.0,1.2,'C:maj'
1.2,2.0,'BASS NOTE EXCEPTION'
2.0,3.5,'G:maj'
"""


class TestArff:
    def test_read_basic(self, tmp_path):
        p = tmp_path / "a.arff"
        p.write_text(ARFF)
        t = read_aam_arff(p)
        assert t.segments[0] == TimedSegment(0.0, 1.2, C)
        assert t.segments[2].label == G

    def test_bass_note_exception_becomes_nochord(self, tmp_path):
        p = tmp_path / "a.arff"
        p.write_text(ARFF)
        assert read_aam_arff(p).segments[1].label == NO_CHORD

    def test_missing_chord_attribute(self, tmp_path):
        p = tmp_path / "a.arff"
        p.write_text("@relation x\n@attribute onset numeric\n"
                     "@attribute offset numeric\n@data\n0,1\n")
        with pytest.raises(AnnotationError, match="no chord attribute"):
            read_aam_arff(p)

    def test_field_count_error_names_line(self, tmp_path):
        p = tmp_path / "a.arff"
        p.write_text("@relation x\n@attribute onset numeric\n"
                     "@attribute offset numeric\n@attribute chord string\n"
                     "@data\n0.0,1.0\n")
        with pytest.raises(AnnotationError, match=":6"):
            read_aam_arff(p)

    def test_conversion_preserves_times_and_labels(self, tmp_path):
        src = tmp_path / "a.arff"
        src.write_text(ARFF)
        t = read_aam_arff(src)
        out = tmp_path / "a.lab"
        write_lab(t, out)
        back = read_lab(out)
        for a, b in zip(t, back):
            assert abs(a.start_s - b.start_s) < 1e-6
            assert abs(a.end_s - b.end_s) < 1e-6
            assert a.label == b.label


class TestNormalize:
    def test_gap_fill_with_span(self):
        t = normalize(track((1.0, 2.0, "C:maj")), span=(0.0, 3.0))
        assert [(s.start_s, s.end_s, str(s.label)) for s in t] == \
            [(0.0, 1.0, "N"), (1.0, 2.0, "C:maj"), (2.0, 3.0, "N")]

    def test_merges_equal_neighbors(self):
        t = normalize(track((0.0, 1.0, "C:maj"), (1.0, 2.0, "C:maj")))
        assert len(t) == 1
        assert t.segments[0] == TimedSegment(0.0, 2.0, C)

    def test_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            t = normalize(random_track(rng), span=(0.0, 40.0))
            assert normalize(t, span=(0.0, 40.0)) == t
            assert normalize(t) == t

    def test_interior_gap(self):
        t = normalize(track((0.0, 1.0, "C:maj"), (2.0, 3.0, "G:maj")))
        assert str(t.segments[1].label) == "N"
        assert t.segments[1].start_s == 1.0 and t.segments[1].end_s == 2.0

    def test_span_too_small(self):
        with pytest.raises(AnnotationError, match="span"):
            normalize(track((0.0, 5.0, "C:maj")), span=(0.0, 4.0))

    def test_duration_preserved_with_exact_span(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(20):
            t = random_track(rng)
            n = normalize(t, span=(t.start_s, t.end_s))
            assert abs(n.duration_s - (t.end_s - t.start_s)) < 1e-9

    def test_empty_track_with_span(self):
        t = normalize(SegmentTrack(()), span=(0.0, 2.0))
        assert len(t) == 1 and t.segments[0].label == NO_CHORD


class TestTrackInvariants:
    def test_rejects_overlap(self):
        with pytest.raises(AnnotationError):
            track((0.0, 2.0, "C:maj"), (1.0, 3.0, "G:maj"))

    def test_rejects_unsorted(self):
        with pytest.raises(AnnotationError):
            track((2.0, 3.0, "C:maj"), (0.0, 1.0, "G:maj"))

    def test_rejects_empty_segment(self):
        with pytest.raises(AnnotationError):
            TimedSegment(1.0, 1.0, C)


NON_FINITE_ROWS = {"inf": ("0", "inf"), "-inf": ("-inf", "1"),
                   "nan": ("1", "nan")}


@pytest.mark.parametrize("value", sorted(NON_FINITE_ROWS))
@pytest.mark.parametrize("fmt", ["lab", "csv", "arff"])
def test_non_finite_time_names_file_and_row(tmp_path, value, fmt):
    start, end = NON_FINITE_ROWS[value]
    p = tmp_path / f"a.{fmt}"
    if fmt == "lab":
        p.write_text(f"0.0 1.0 C:maj\n{start} {end} G:maj\n")
        reader, row = read_lab, 2
    elif fmt == "csv":
        p.write_text(f"start,end,shorthand\n0.0,1.0,C:maj\n{start},{end},G:maj\n")
        reader, row = read_winterreise_csv, 3
    else:
        p.write_text("@relation x\n@attribute onset numeric\n"
                     "@attribute offset numeric\n@attribute chord string\n"
                     f"@data\n0.0,1.0,'C:maj'\n{start},{end},'G:maj'\n")
        reader, row = read_aam_arff, 7
    with pytest.raises(AnnotationError, match=f"a.{fmt}:{row}: non-finite time"):
        reader(p)


OVERLAPS = {"overlap": ("0.0 2.0", "1.5 3.0"),
            # within TIME_EPS of the previous end but before its start
            "reversed": ("1.0 1.0000000005", "0.9999999999 2.0")}


@pytest.mark.parametrize("case", sorted(OVERLAPS))
@pytest.mark.parametrize("fmt", ["lab", "csv", "arff"])
def test_out_of_order_rows_name_file_and_rows(tmp_path, case, fmt):
    first, second = (r.split() for r in OVERLAPS[case])
    p = tmp_path / f"a.{fmt}"
    if fmt == "lab":
        p.write_text(f"{' '.join(first)} C:maj\n{' '.join(second)} G:maj\n")
        reader, rows = read_lab, (1, 2)
    elif fmt == "csv":
        p.write_text(f"start,end,shorthand\n{','.join(first)},C:maj\n"
                     f"{','.join(second)},G:maj\n")
        reader, rows = read_winterreise_csv, (2, 3)
    else:
        p.write_text("@relation x\n@attribute onset numeric\n"
                     "@attribute offset numeric\n@attribute chord string\n"
                     f"@data\n{','.join(first)},'C:maj'\n"
                     f"{','.join(second)},'G:maj'\n")
        reader, rows = read_aam_arff, (6, 7)
    with pytest.raises(AnnotationError,
                       match=f"a.{fmt}: rows {rows[0]} and {rows[1]} overlap"):
        reader(p)


@pytest.mark.parametrize("fmt", ["lab", "csv", "arff"])
def test_non_utf8_bytes_name_file_and_line(tmp_path, fmt):
    p = tmp_path / f"a.{fmt}"
    if fmt == "lab":
        p.write_bytes(b"0.0 1.0 C:maj\n1.0 2.0 \xff\xfe:maj\n")
        reader, line = read_lab, 2
    elif fmt == "csv":
        p.write_bytes(b"start,end,shorthand\n0.0,1.0,C:maj\n1.0,2.0,\xff:maj\n")
        reader, line = read_winterreise_csv, 3
    else:
        p.write_bytes(b"@relation x\n@attribute onset numeric\n"
                      b"@attribute offset numeric\n@attribute chord string\n"
                      b"@data\n0.0,1.0,'C:maj'\n1.0,2.0,'\xff:maj'\n")
        reader, line = read_aam_arff, 7
    with pytest.raises(AnnotationError,
                       match=f"^{re.escape(str(p))}:{line}: not UTF-8 text"):
        reader(p)


def write_rows(path, fmt, rows):
    """Write ``(start, end, label)`` rows as ``fmt``, ``None`` for a blank
    line, with a lone surrogate written as the byte it escapes; returns the
    line number of each row."""
    header = {"lab": [], "csv": ["start,end,shorthand"],
              "arff": ["@relation x", "@attribute onset numeric",
                       "@attribute offset numeric", "@attribute chord string",
                       "@data"]}[fmt]
    template = {"lab": "{} {} {}", "csv": "{},{},{}", "arff": "{},{},'{}'"}[fmt]
    lines = header + ["" if row is None else template.format(*row) for row in rows]
    path.write_bytes("".join(line + "\n" for line in lines)
                     .encode("utf-8", "surrogateescape"))
    return [len(header) + i + 1 for i, row in enumerate(rows) if row is not None]


C_ROW = ("0", "1", "C:maj")
# case: (rows, reason the last row fails with); "rows" stands for the order
# error naming the last row and the one before it
BAD_ROWS = {
    "bad-time": ([C_ROW, ("1", "x", "G:maj")], "bad time field in '1 x G:maj'"),
    "bad-label": ([C_ROW, ("1", "2", "X:bad")], "malformed chord label 'X:bad'"),
    "non-finite": ([C_ROW, ("1", "inf", "G:maj")], "non-finite time"),
    "end-before-start": ([C_ROW, ("2", "1", "G:maj")],
                         "segment end 1.0 not after start 2.0"),
    "overlap": ([("0", "2", "C:maj"), ("1.5", "3", "G:maj")], "rows"),
    "reversal": ([("1", "2", "C:maj"), ("0", "0.5", "G:maj")], "rows"),
    "not-utf8": ([C_ROW, ("1", "2", "\udcff:maj")],
                 "not UTF-8 text: invalid start byte (byte 0xff)"),
    "blank-then-bad-label": ([C_ROW, None, ("1", "2", "X:bad")],
                             "malformed chord label 'X:bad'"),
    "blank-then-overlap": ([("0", "2", "C:maj"), None, None, ("1.5", "3", "G:maj")],
                           "rows"),
}
READERS = {"lab": read_lab, "csv": read_winterreise_csv, "arff": read_aam_arff}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_bad_row_names_file_and_physical_line(tmp_path, fmt, case):
    rows, reason = BAD_ROWS[case]
    p = tmp_path / f"a.{fmt}"
    lines = write_rows(p, fmt, rows)
    if reason == "rows":
        expected = f"{p}: rows {lines[-2]} and {lines[-1]} overlap or are out of order"
    else:
        expected = f"{p}:{lines[-1]}: {reason}"
    with pytest.raises(AnnotationError, match=f"^{re.escape(expected)}$"):
        READERS[fmt](p)


def test_short_csv_row_is_a_bad_time_field(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("start,end,shorthand\n0,1,C:maj\n1\n")
    with pytest.raises(AnnotationError, match=re.escape(
            f"{p}:3: bad time field in '1  '")):
        read_winterreise_csv(p)


# Time fields: any float's text (nan, +-inf, negative, huge, tiny) or any
# text without a line break; rows may be reversed, overlapping or unordered.
TIME_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats().map(str),
    st.sampled_from(["-0", "1e400", "-1e400", "NaN", "Infinity", "1_0", "0x10",
                     "", " ", "1.0.0"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r")),
)


def fuzz_time_fields(test):
    """Run ``test(tmp_path, rows)`` on 300 lists of 1-4 ``(start, end)`` texts."""
    return settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])(
        given(st.lists(st.tuples(TIME_TEXT, TIME_TEXT), min_size=1, max_size=4))(test))


def assert_valid_track_or_named_error(path, reader):
    try:
        t = reader(path)
    except AnnotationError as exc:
        assert re.match(re.escape(str(path)) + r"(:\d+: |: rows \d+ and \d+ )",
                        str(exc)), str(exc)
        return
    prev_end = -math.inf
    for seg in t:
        assert math.isfinite(seg.start_s) and math.isfinite(seg.end_s)
        assert seg.end_s > seg.start_s
        assert seg.start_s >= prev_end - TIME_EPS
        prev_end = seg.end_s


@fuzz_time_fields
def test_lab_time_fields_fuzz(tmp_path, rows):
    p = tmp_path / "fuzz.lab"
    p.write_text("".join(f"{start} {end} C:maj\n" for start, end in rows),
                 encoding="utf-8")
    assert_valid_track_or_named_error(p, read_lab)


@example(rows=[('";', '0.0')])  # a quoted ";" once made ";" the delimiter
@fuzz_time_fields
def test_csv_time_fields_fuzz(tmp_path, rows):
    p = tmp_path / "fuzz.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "end", "shorthand"])
        writer.writerows([start, end, "C:maj"] for start, end in rows)
    assert_valid_track_or_named_error(p, read_winterreise_csv)


@fuzz_time_fields
def test_arff_time_fields_fuzz(tmp_path, rows):
    p = tmp_path / "fuzz.arff"
    data = io.StringIO()
    csv.writer(data, quotechar="'", lineterminator="\n").writerows(
        [start, end, "C:maj"] for start, end in rows)
    p.write_text("@relation x\n@attribute onset numeric\n"
                 "@attribute offset numeric\n@attribute chord string\n"
                 "@data\n" + data.getvalue(), encoding="utf-8")
    assert_valid_track_or_named_error(p, read_aam_arff)


def test_crop_trims_boundaries():
    t = crop(track((0.0, 2.0, "C:maj"), (2.0, 4.0, "G:maj")), 1.0, 3.0)
    assert [(s.start_s, s.end_s) for s in t] == [(1.0, 2.0), (2.0, 3.0)]
