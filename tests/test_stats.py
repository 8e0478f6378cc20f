import numpy as np
import pytest

from chordbench.annotations import SegmentTrack, TimedSegment
from chordbench.labels import NOCHORD_CLASS, majmin_label, to_majmin
from chordbench.stats import (chord_occurrences, chord_transitions,
                              export_histogram_csv, export_transitions_csv, read_histogram_csv,
                              read_transitions_csv)


def class_track(classes, source_id="t"):
    segs = [TimedSegment(float(i), float(i + 1), majmin_label(c))
            for i, c in enumerate(classes)]
    return SegmentTrack(tuple(segs), source_id)


def occurrence_oracle(tracks):
    """Run-length encoding oracle, independent of the counting code."""
    counts = np.zeros(25, dtype=int)
    for t in tracks:
        classes = [to_majmin(s.label) for s in t]
        previous = None
        for c in classes:
            if c != previous:
                counts[c] += 1
            previous = c
    return counts


def transition_oracle(tracks):
    """Naive pairwise scan over deduplicated class sequences."""
    counts = np.zeros((25, 25), dtype=int)
    for t in tracks:
        classes = [to_majmin(s.label) for s in t]
        dedup = []
        for c in classes:
            if not dedup or dedup[-1] != c:
                dedup.append(c)
        for i in range(len(dedup) - 1):
            counts[dedup[i], dedup[i + 1]] += 1
    return counts


def random_tracks(rng, n_tracks, max_segments=12):
    tracks = []
    for i in range(n_tracks):
        n = int(rng.integers(1, max_segments))
        classes = rng.integers(0, 25, n)
        tracks.append(class_track(classes, source_id=f"r{i}"))
    return tracks


C_MAJ, G_MAJ = 0, 7


def test_occurrences_count_runs_once():
    t = class_track([C_MAJ, C_MAJ, G_MAJ, C_MAJ])
    counts = chord_occurrences([t])
    assert counts[C_MAJ] == 2
    assert counts[G_MAJ] == 1
    assert counts.sum() == 3


def test_occurrences_empty():
    assert chord_occurrences([]).sum() == 0


def test_occurrences_match_rle_oracle():
    rng = np.random.Generator(np.random.PCG64(21))
    tracks = random_tracks(rng, 200)
    assert np.array_equal(chord_occurrences(tracks), occurrence_oracle(tracks))


def test_transitions_example():
    t = class_track([C_MAJ, C_MAJ, G_MAJ, G_MAJ, C_MAJ])
    m = chord_transitions([t])
    assert m[C_MAJ, G_MAJ] == 1
    assert m[G_MAJ, C_MAJ] == 1
    assert m.sum() == 2


def test_transitions_single_segment():
    assert chord_transitions([class_track([C_MAJ])]).sum() == 0


def test_transitions_match_pairwise_oracle():
    rng = np.random.Generator(np.random.PCG64(22))
    tracks = random_tracks(rng, 200)
    assert np.array_equal(chord_transitions(tracks), transition_oracle(tracks))


def test_transitions_zero_diagonal():
    rng = np.random.Generator(np.random.PCG64(23))
    m = chord_transitions(random_tracks(rng, 50))
    assert np.all(np.diag(m) == 0)


def test_transitions_do_not_cross_tracks():
    a = class_track([C_MAJ])
    b = class_track([G_MAJ], source_id="u")
    assert chord_transitions([a, b]).sum() == 0


def test_skip_n_counts_through_silence():
    t = class_track([C_MAJ, NOCHORD_CLASS, G_MAJ])
    default = chord_transitions([t])
    assert default[C_MAJ, NOCHORD_CLASS] == 1
    assert default[NOCHORD_CLASS, G_MAJ] == 1
    assert default[C_MAJ, G_MAJ] == 0
    skipped = chord_transitions([t], skip_n=True)
    assert skipped[C_MAJ, G_MAJ] == 1
    assert skipped.sum() == 1
    # same chord on both sides of silence: no change counted
    again = chord_transitions([class_track([C_MAJ, NOCHORD_CLASS, C_MAJ])],
                              skip_n=True)
    assert again.sum() == 0


def test_histogram_sum_equals_run_count():
    rng = np.random.Generator(np.random.PCG64(24))
    tracks = random_tracks(rng, 100)
    runs = occurrence_oracle(tracks).sum()
    assert chord_occurrences(tracks).sum() == runs


def test_matrix_sum_equals_runs_minus_tracks():
    rng = np.random.Generator(np.random.PCG64(25))
    tracks = random_tracks(rng, 100)
    expected = sum(max(0, occurrence_oracle([t]).sum() - 1) for t in tracks)
    assert chord_transitions(tracks).sum() == expected


def test_subdivision_invariance():
    t = class_track([C_MAJ, G_MAJ])
    split = SegmentTrack((TimedSegment(0.0, 0.5, majmin_label(C_MAJ)),
                          TimedSegment(0.5, 1.0, majmin_label(C_MAJ)),
                          TimedSegment(1.0, 2.0, majmin_label(G_MAJ))), "t")
    assert np.array_equal(chord_occurrences([t]), chord_occurrences([split]))
    assert np.array_equal(chord_transitions([t]), chord_transitions([split]))


class TestExport:
    def test_histogram_rows(self, tmp_path):
        counts = chord_occurrences([class_track([C_MAJ, G_MAJ])])
        p = tmp_path / "occ.csv"
        export_histogram_csv(counts, p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 26  # header + 25 classes
        assert lines[0] == "class,count"

    def test_matrix_shape(self, tmp_path):
        m = chord_transitions([class_track([C_MAJ, G_MAJ])])
        p = tmp_path / "trans.csv"
        export_transitions_csv(m, p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 26
        assert len(lines[1].split(",")) == 26

    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(26))
        tracks = random_tracks(rng, 50)
        counts = chord_occurrences(tracks)
        matrix = chord_transitions(tracks)
        export_histogram_csv(counts, tmp_path / "occ.csv")
        export_transitions_csv(matrix, tmp_path / "trans.csv")
        assert np.array_equal(read_histogram_csv(tmp_path / "occ.csv"), counts)
        assert np.array_equal(read_transitions_csv(tmp_path / "trans.csv"), matrix)

    def test_drop_n(self, tmp_path):
        counts = chord_occurrences([class_track([NOCHORD_CLASS, C_MAJ])])
        p = tmp_path / "occ.csv"
        export_histogram_csv(counts, p, drop_n=True)
        text = p.read_text()
        assert len(text.strip().splitlines()) == 25
        assert "\nN," not in text
