"""Invariance of the template recognizer under transformed signals.

Time shift: silence of a whole number of hops put before a track shifts
the template's chord track by the same time after that silence.
"""

import numpy as np
import pytest

from chordbench.annotations import crop, normalize
from chordbench.features import (FRAME_S, HOP, SAMPLE_RATE, AudioBuffer, cqt,
                                 log_amplitude)
from chordbench.synth import (SynthSpec, default_pop_model, quantize_track,
                              render_audio, sample_progression, track_seed)
from chordbench.templates import recognize_track

SPEC = SynthSpec(n_tracks=2, track_length_s=10.0, seed=4)


def template_track(samples):
    features = log_amplitude(cqt(AudioBuffer(samples)))
    return recognize_track(features, "")


@pytest.fixture(scope="module")
def pop_tracks():
    """``(samples, template track)`` of each of ``SPEC``'s pop tracks,
    rendered as ``emit_dataset`` renders them."""
    tracks = []
    for index in range(SPEC.n_tracks):
        progression = sample_progression(default_pop_model(),
                                         SPEC.track_length_s,
                                         track_seed(SPEC.seed, index))
        audio = render_audio(normalize(quantize_track(progression,
                                                      SAMPLE_RATE)), SPEC)
        tracks.append((audio.samples, template_track(audio.samples)))
    return tracks


@pytest.mark.parametrize("n_hops", [10, 100])
def test_leading_silence_shifts_the_template_track(pop_tracks, n_hops):
    lead_s = n_hops * FRAME_S
    for samples, original in pop_tracks:
        shifted = template_track(np.concatenate([np.zeros(n_hops * HOP),
                                                 samples]))
        after = crop(shifted, lead_s, shifted.end_s)
        assert [seg.label for seg in after] == [seg.label for seg in original]
        for seg, want in zip(after, original):
            assert seg.start_s - lead_s == pytest.approx(want.start_s, abs=1e-9)
            assert seg.end_s - lead_s == pytest.approx(want.end_s, abs=1e-9)
