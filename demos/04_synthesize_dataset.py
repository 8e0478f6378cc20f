"""Generate a small chord-annotated audio dataset and inspect it."""

import json
import tempfile
from pathlib import Path

from chordbench.annotations import read_lab
from chordbench.features import SAMPLE_RATE, load_wav
from chordbench.synth import SynthSpec, default_pop_model, emit_dataset

with tempfile.TemporaryDirectory(prefix="chordbench_demo_") as tmp:
    out = Path(tmp)
    spec = SynthSpec(n_tracks=3, track_length_s=12.0, octaves=(3, 4), seed=7)
    entries = emit_dataset(spec, default_pop_model(), out)

    print(f"wrote {len(entries)} tracks to {out}")
    print("\n== manifest ==")
    for entry in entries:
        print("  " + json.dumps(entry, sort_keys=True))

    first = entries[0]
    audio = load_wav(out / first["path"])
    track = read_lab(out / (first["id"] + ".lab"))
    print(f"\n== {first['id']} ==")
    print(f"audio: {audio.duration_s:.6f} s at {SAMPLE_RATE} Hz, "
          f"peak {abs(audio.samples).max():.2f}")
    print(f"annotation: {len(track)} segments, ends at {track.end_s:.6f} s")
    for seg in track.segments[:6]:
        print(f"  {seg.start_s:9.6f} {seg.end_s:9.6f}  {seg.label}")
    print("  ...")
    print("\nevery boundary sits on an exact sample; rerunning with the same "
          "spec reproduces the files byte for byte")
