"""Occurrence and transition statistics over chord annotation tracks.

Counting operates on the 25-class major/minor vocabulary.  A chord run
(maximal stretch of consecutive segments sharing a class) counts as one
occurrence no matter how many annotation rows it spans, and only changes to
a different class count as transitions.  Transitions never cross track
boundaries.
"""

from __future__ import annotations

import csv

import numpy as np

from .labels import N_MAJMIN_CLASSES, NOCHORD_CLASS, majmin_name, to_majmin


def _class_runs(track) -> list:
    """Run-length compressed class sequence of one track."""
    runs = []
    for seg in track:
        c = to_majmin(seg.label)
        if not runs or runs[-1] != c:
            runs.append(c)
    return runs


def chord_occurrences(tracks) -> np.ndarray:
    """Count chord runs per class over a collection of tracks.

    Returns a length-25 integer array indexed by major/minor class.
    """
    counts = np.zeros(N_MAJMIN_CLASSES, dtype=np.int64)
    for track in tracks:
        for c in _class_runs(track):
            counts[c] += 1
    return counts


def chord_transitions(tracks, skip_n: bool = False) -> np.ndarray:
    """Count changes from one class to a different class, per track.

    Returns a 25x25 integer matrix (from-class x to-class) with a zero
    diagonal.  With ``skip_n`` the no-chord class is removed from the run
    sequence first, so a change through silence counts as a chord-to-chord
    change (equal classes on both sides of the silence then count as no
    change).
    """
    counts = np.zeros((N_MAJMIN_CLASSES, N_MAJMIN_CLASSES), dtype=np.int64)
    for track in tracks:
        runs = _class_runs(track)
        if skip_n:
            runs = [c for c in runs if c != NOCHORD_CLASS]
        for a, b in zip(runs[:-1], runs[1:]):
            if a != b:
                counts[a, b] += 1
    return counts


def _kept_classes(drop_n: bool) -> list:
    classes = list(range(N_MAJMIN_CLASSES))
    if drop_n:
        classes.remove(NOCHORD_CLASS)
    return classes


def export_histogram_csv(counts: np.ndarray, path, drop_n: bool = False) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "count"])
        for c in _kept_classes(drop_n):
            writer.writerow([majmin_name(c), int(counts[c])])


def export_transitions_csv(matrix: np.ndarray, path, drop_n: bool = False) -> None:
    classes = _kept_classes(drop_n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from\\to"] + [majmin_name(c) for c in classes])
        for a in classes:
            writer.writerow([majmin_name(a)] + [int(matrix[a, b]) for b in classes])


_NAME_TO_CLASS = {majmin_name(c): c for c in range(N_MAJMIN_CLASSES)}


def read_histogram_csv(path) -> np.ndarray:
    """Inverse of :func:`export_histogram_csv`; missing classes read as zero."""
    counts = np.zeros(N_MAJMIN_CLASSES, dtype=np.int64)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["class", "count"]:
            raise ValueError(f"{path}: unexpected histogram header {header}")
        for row in reader:
            counts[_NAME_TO_CLASS[row[0]]] = int(row[1])
    return counts


def read_transitions_csv(path) -> np.ndarray:
    """Inverse of :func:`export_transitions_csv`; missing classes read as zero."""
    matrix = np.zeros((N_MAJMIN_CLASSES, N_MAJMIN_CLASSES), dtype=np.int64)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [_NAME_TO_CLASS[name] for name in header[1:]]
        for row in reader:
            a = _NAME_TO_CLASS[row[0]]
            for b, value in zip(cols, row[1:]):
                matrix[a, b] = int(value)
    return matrix
