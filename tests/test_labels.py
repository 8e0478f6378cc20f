import numpy as np
import pytest

from chordbench.labels import (MAJ, MIN, NO_CHORD, NOCHORD_CLASS, ChordLabel,
                               ChordParseError, ChordQuality, majmin_label,
                               majmin_name, parse_harte, pitch_class_set,
                               render, to_majmin, transpose,
                               transpose_majmin)

# a spread of labels touching every quality family
CORPUS = [
    "N", "C", "C:maj", "C:min", "Db:min7", "G/5", "A:min", "B:maj",
    "F#:dim", "Eb:aug", "D:sus2", "D:sus4", "C:maj7", "A:min7", "E:7",
    "G:maj6", "G:min6", "Bb:maj/3", "C:dim7", "F:hdim7", "C:minmaj7",
    "C:(1,b3,b5)", "A:(1,4,5)", "C:9", "G:maj/5", "C:min/b3", "E:maj/7",
]


def test_parse_nochord():
    assert parse_harte("N").is_nochord


def test_parse_major():
    label = parse_harte("C:maj")
    assert label.root == 0
    assert label.quality == MAJ


def test_parse_enharmonic_flat():
    label = parse_harte("Db:min7")
    assert label.root == 1
    assert label.quality.kind == "min7"


def test_parse_bass_degree():
    label = parse_harte("G/5")
    assert label.root == 7
    assert label.quality == MAJ
    assert label.bass == 7


def test_parse_defaults_to_major():
    assert parse_harte("A") == ChordLabel(9, MAJ)


@pytest.mark.parametrize("bad", ["", "H:maj", "C:blah", "C:maj/x", "Cm#",
                                 "C:()", "X", "C:(1,,5)"])
def test_parse_errors(bad):
    with pytest.raises(ChordParseError):
        parse_harte(bad)


def test_pitch_class_sets():
    assert pitch_class_set(parse_harte("C:maj")) == {0, 4, 7}
    assert pitch_class_set(parse_harte("A:min")) == {9, 0, 4}
    assert pitch_class_set(NO_CHORD) == frozenset()


def test_pitch_class_set_includes_bass():
    assert pitch_class_set(parse_harte("C:maj/2")) == {0, 2, 4, 7}


def test_to_majmin_examples():
    assert to_majmin(parse_harte("C:maj7")) == 0
    assert to_majmin(parse_harte("D:dim")) == 14
    assert to_majmin(NO_CHORD) == NOCHORD_CLASS
    assert to_majmin(parse_harte("C:sus4")) == 0
    assert to_majmin(parse_harte("C:aug")) == 0
    assert to_majmin(parse_harte("C:min6")) == 12


def test_to_majmin_total_over_corpus():
    for text in CORPUS:
        assert 0 <= to_majmin(parse_harte(text)) <= 24


def test_transpose_examples():
    assert transpose(parse_harte("B:maj"), 2) == parse_harte("C#:maj")
    assert transpose(NO_CHORD, 5) == NO_CHORD
    assert transpose(parse_harte("C:min"), 0) == parse_harte("C:min")


def test_render_round_trip_fixed_point():
    for text in CORPUS:
        once = parse_harte(text)
        again = parse_harte(render(once))
        assert once == again, text


def test_transpose_shifts_pitch_class_set():
    for text in CORPUS:
        label = parse_harte(text)
        base = pitch_class_set(label)
        for k in range(12):
            shifted = pitch_class_set(transpose(label, k))
            assert shifted == {(p + k) % 12 for p in base}, (text, k)


def test_transpose_inverse():
    for text in CORPUS:
        label = parse_harte(text)
        for k in range(-12, 13):
            assert transpose(transpose(label, k), -k) == label


def test_transpose_commutes_with_majmin():
    for text in CORPUS:
        label = parse_harte(text)
        for k in range(12):
            assert to_majmin(transpose(label, k)) == \
                transpose_majmin(to_majmin(label), k)


def test_majmin_vocabulary_layout():
    assert majmin_name(0) == "C:maj"
    assert majmin_name(11) == "B:maj"
    assert majmin_name(12) == "C:min"
    assert majmin_name(23) == "B:min"
    assert majmin_name(24) == "N"
    for c in range(25):
        assert to_majmin(majmin_label(c)) == c


def test_quality_other_canonicalizes_known_sets():
    assert ChordQuality.other({0, 4, 7}).kind == "maj"
    assert ChordQuality.other({0, 1, 2}).kind == "other"


def test_nochord_label_invariants():
    with pytest.raises(ValueError):
        ChordLabel(None, MAJ)
    with pytest.raises(ValueError):
        ChordLabel(0, None)
    with pytest.raises(ValueError):
        ChordLabel(12, MIN)


def test_random_labels_round_trip():
    rng = np.random.Generator(np.random.PCG64(5))
    kinds = list(ChordQuality.named(k) for k in
                 ("maj", "min", "dim", "aug", "sus2", "sus4",
                  "maj7", "min7", "dom7", "maj6", "min6"))
    for _ in range(200):
        root = int(rng.integers(0, 12))
        quality = kinds[int(rng.integers(0, len(kinds)))]
        bass = int(rng.integers(0, 12)) if rng.random() < 0.3 else None
        label = ChordLabel(root, quality, bass)
        assert parse_harte(render(label)) == label
