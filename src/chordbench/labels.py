"""Chord labels: parsing, rendering, and pitch-class algebra.

Labels follow the conventional ``root:quality[/bass]`` text syntax used by
.lab annotation files (grammar in docs/harte.md), with the bare token ``N``
for "no chord".  Enharmonic spellings collapse to pitch-class integers
(Db == C# == 1); the renderer emits sharps canonically.

The module also defines the 25-class major/minor vocabulary used throughout
the toolkit: indices 0-11 are major chords rooted C..B, 12-23 minor chords
rooted C..B, and 24 is the no-chord class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

PITCH_CLASS_NAMES = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]

_NATURALS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Scale degree -> semitones above the root (major scale reference).
_DEGREE_SEMITONES = {1: 0, 2: 2, 3: 4, 4: 5, 5: 7, 6: 9, 7: 11,
                     8: 12, 9: 14, 10: 16, 11: 17, 12: 19, 13: 21}

# Canonical rendering of an interval (semitones above root) as a degree token.
_INTERVAL_DEGREE = {0: "1", 1: "b2", 2: "2", 3: "b3", 4: "3", 5: "4",
                    6: "b5", 7: "5", 8: "b6", 9: "6", 10: "b7", 11: "7"}

# Named qualities and their interval sets.
QUALITY_INTERVALS = {
    "maj": frozenset({0, 4, 7}),
    "min": frozenset({0, 3, 7}),
    "dim": frozenset({0, 3, 6}),
    "aug": frozenset({0, 4, 8}),
    "sus2": frozenset({0, 2, 7}),
    "sus4": frozenset({0, 5, 7}),
    "maj7": frozenset({0, 4, 7, 11}),
    "min7": frozenset({0, 3, 7, 10}),
    "dom7": frozenset({0, 4, 7, 10}),
    "maj6": frozenset({0, 4, 7, 9}),
    "min6": frozenset({0, 3, 7, 9}),
}

# Spellings that map onto a named quality.
_QUALITY_ALIASES = {"7": "dom7", "6": "maj6", "": "maj"}

# Common extended shorthands reduce to explicit interval sets rather than a
# named quality; keeps large annotation dictionaries parseable.
_EXTENDED_SHORTHANDS = {
    "dim7": frozenset({0, 3, 6, 9}),
    "hdim7": frozenset({0, 3, 6, 10}),
    "minmaj7": frozenset({0, 3, 7, 11}),
    "sus": frozenset({0, 5, 7}),
    "5": frozenset({0, 7}),
    "1": frozenset({0}),
    "9": frozenset({0, 2, 4, 7, 10}),
    "maj9": frozenset({0, 2, 4, 7, 11}),
    "min9": frozenset({0, 2, 3, 7, 10}),
    "11": frozenset({0, 2, 4, 5, 7, 10}),
    "min11": frozenset({0, 2, 3, 5, 7, 10}),
    "13": frozenset({0, 2, 4, 7, 9, 10}),
    "maj13": frozenset({0, 2, 4, 7, 9, 11}),
    "min13": frozenset({0, 2, 3, 7, 9, 10}),
}

NOCHORD_CLASS = 24
N_MAJMIN_CLASSES = 25


class ChordParseError(ValueError):
    """Raised when a chord label string cannot be parsed."""


@dataclass(frozen=True)
class ChordQuality:
    """A chord quality: a named kind and its semitone interval set.

    ``kind`` is one of the named qualities (maj, min, dim, aug, sus2, sus4,
    maj7, min7, dom7, maj6, min6) or ``"other"`` for anything expressed only
    as an interval set.
    """

    kind: str
    intervals: frozenset

    @staticmethod
    def named(kind: str) -> "ChordQuality":
        return ChordQuality(kind, QUALITY_INTERVALS[kind])

    @staticmethod
    def other(intervals) -> "ChordQuality":
        ivals = frozenset(i % 12 for i in intervals)
        for kind, known in QUALITY_INTERVALS.items():
            if ivals == known:
                return ChordQuality(kind, known)
        return ChordQuality("other", ivals)


MAJ = ChordQuality.named("maj")
MIN = ChordQuality.named("min")


@dataclass(frozen=True)
class ChordLabel:
    """A chord symbol: root pitch class, quality, optional bass interval.

    ``root`` and ``quality`` are both None exactly when the label is the
    no-chord symbol.  ``bass`` is a semitone interval above the root (kept
    even when it duplicates a chord tone), or None when unspecified.
    """

    root: int | None
    quality: ChordQuality | None
    bass: int | None = None

    def __post_init__(self):
        if self.root is None:
            if self.quality is not None or self.bass is not None:
                raise ValueError("no-chord label cannot carry quality or bass")
        else:
            if not 0 <= self.root <= 11:
                raise ValueError(f"root pitch class out of range: {self.root}")
            if self.quality is None:
                raise ValueError("chord label requires a quality")

    @property
    def is_nochord(self) -> bool:
        return self.root is None

    def __str__(self) -> str:
        return render(self)


NO_CHORD = ChordLabel(None, None)


def _parse_root(token: str) -> int:
    if not token or token[0] not in _NATURALS:
        raise ChordParseError(f"bad root token {token!r}")
    pc = _NATURALS[token[0]]
    for ch in token[1:]:
        if ch == "#":
            pc += 1
        elif ch == "b":
            pc -= 1
        else:
            raise ChordParseError(f"bad accidental in root token {token!r}")
    return pc % 12


def _parse_degree(token: str) -> int:
    m = re.fullmatch(r"([#b]*)(\d+)", token)
    if not m:
        raise ChordParseError(f"bad degree token {token!r}")
    degree = int(m.group(2))
    if degree not in _DEGREE_SEMITONES:
        raise ChordParseError(f"bad degree token {token!r}")
    shift = sum(1 if c == "#" else -1 for c in m.group(1))
    return (_DEGREE_SEMITONES[degree] + shift) % 12


def _parse_degree_list(body: str, token: str) -> frozenset:
    parts = [p.strip() for p in body.split(",")]
    if not parts or any(not p for p in parts):
        raise ChordParseError(f"bad degree list {token!r}")
    return frozenset(_parse_degree(p) for p in parts)


def _parse_quality(token: str) -> ChordQuality:
    name = _QUALITY_ALIASES.get(token, token)
    if name in QUALITY_INTERVALS:
        return ChordQuality.named(name)
    if token in _EXTENDED_SHORTHANDS:
        return ChordQuality.other(_EXTENDED_SHORTHANDS[token])
    m = re.fullmatch(r"([^()]*)\((.*)\)", token)
    if m:
        base, additions = m.group(1), m.group(2)
        added = _parse_degree_list(additions, token)
        if base == "":
            return ChordQuality.other(added)
        base_name = _QUALITY_ALIASES.get(base, base)
        if base_name in QUALITY_INTERVALS:
            return ChordQuality.other(QUALITY_INTERVALS[base_name] | added)
        if base in _EXTENDED_SHORTHANDS:
            return ChordQuality.other(_EXTENDED_SHORTHANDS[base] | added)
    raise ChordParseError(f"unknown quality token {token!r}")


_LABEL_RE = re.compile(r"^([A-G][#b]*)(?::([^/]+))?(?:/(.+))?$")


def parse_harte(text: str) -> ChordLabel:
    """Parse a chord label string into a :class:`ChordLabel`.

    Accepts ``N`` (no chord), ``<root>``, ``<root>:<quality>``, and either
    form followed by ``/<bass degree>``.  A missing quality means major.
    Raises :class:`ChordParseError` naming the offending token.
    """
    text = text.strip()
    if not text:
        raise ChordParseError("empty chord label")
    if text == "N":
        return NO_CHORD
    m = _LABEL_RE.match(text)
    if not m:
        raise ChordParseError(f"malformed chord label {text!r}")
    root = _parse_root(m.group(1))
    quality = _parse_quality(m.group(2)) if m.group(2) is not None else MAJ
    bass = _parse_degree(m.group(3)) if m.group(3) is not None else None
    return ChordLabel(root, quality, bass)


def render(label: ChordLabel) -> str:
    """Render a label back to text; sharps are used for black keys."""
    if label.is_nochord:
        return "N"
    name = PITCH_CLASS_NAMES[label.root]
    q = label.quality
    if q.kind == "other":
        degrees = ",".join(_INTERVAL_DEGREE[i] for i in sorted(q.intervals))
        text = f"{name}:({degrees})"
    else:
        text = f"{name}:{q.kind if q.kind != 'dom7' else '7'}"
    if label.bass is not None:
        text += "/" + _INTERVAL_DEGREE[label.bass]
    return text


def pitch_class_set(label: ChordLabel) -> frozenset:
    """Pitch classes sounded by a label (empty for no-chord)."""
    if label.is_nochord:
        return frozenset()
    pcs = {(label.root + i) % 12 for i in label.quality.intervals}
    if label.bass is not None:
        pcs.add((label.root + label.bass) % 12)
    return frozenset(pcs)


def to_majmin(label: ChordLabel) -> int:
    """Reduce a label to the 25-class major/minor vocabulary.

    Qualities containing a minor third map to the minor family, everything
    else (major third, suspensions, power chords) to the major family.
    """
    if label.is_nochord:
        return NOCHORD_CLASS
    if 3 in label.quality.intervals:
        return 12 + label.root
    return label.root


def transpose(label: ChordLabel, semitones: int) -> ChordLabel:
    """Shift the root by ``semitones`` (mod 12); no-chord is a fixed point."""
    if label.is_nochord:
        return label
    return ChordLabel((label.root + semitones) % 12, label.quality, label.bass)


def majmin_name(index: int) -> str:
    """Display name of a class in the 25-class vocabulary."""
    return render(majmin_label(index))


def majmin_label(index: int) -> ChordLabel:
    """A canonical :class:`ChordLabel` for a class in the 25-class vocabulary."""
    if index == NOCHORD_CLASS:
        return NO_CHORD
    if 0 <= index < 12:
        return ChordLabel(index, MAJ)
    if 12 <= index < 24:
        return ChordLabel(index - 12, MIN)
    raise ValueError(f"class index out of range: {index}")


def transpose_majmin(index: int, semitones: int) -> int:
    """Transpose within the 25-class vocabulary (family preserved, N fixed)."""
    if index == NOCHORD_CLASS:
        return index
    family = index // 12
    return family * 12 + (index % 12 + semitones) % 12
