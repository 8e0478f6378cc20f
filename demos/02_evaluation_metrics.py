"""Single-chord metrics and duration-weighted sequence scoring."""

from chordbench.annotations import SegmentTrack, TimedSegment
from chordbench.labels import parse_harte
from chordbench.metrics import METRICS, align, evaluate_pair, weighted_score

print("== single-chord metrics ==")
pairs = [("C:maj", "C:maj"), ("C:maj", "C:min"), ("C:maj", "C:maj7"),
         ("C:maj", "G:maj"), ("C:maj", "N"), ("N", "N")]
header = f"{'ref':>8} {'pred':>8}" + "".join(f"{m:>8}" for m in METRICS)
print(header)
for ref, pred in pairs:
    a, b = parse_harte(ref), parse_harte(pred)
    row = f"{ref:>8} {pred:>8}"
    for metric in METRICS.values():
        row += f"{metric(a, b):>8.3f}"
    print(row)


def track(*triples):
    return SegmentTrack(tuple(TimedSegment(s, e, parse_harte(l))
                              for s, e, l in triples), "demo")


print("\n== sequence scoring ==")
reference = track((0, 2, "C:maj"), (2, 4, "G:maj"))
predicted = track((0, 1, "C:maj"), (1, 4, "G:maj"))
print("aligned intervals (boundary union):")
for seg in align(reference, predicted):
    print(f"  [{seg.start_s:.1f}, {seg.end_s:.1f})  "
          f"ref={seg.ref_label}  pred={seg.pred_label}")
score = weighted_score(reference, predicted, METRICS["majmin"])
print(f"majmin weighted score: {score.value:.3f} "
      f"over {score.total_duration_s:.1f} s  (3 of 4 seconds correct)")

print("\nevaluate_pair crops and pads to the reference extent:")
long_prediction = track((0, 2, "C:maj"), (2, 9, "G:maj"))
for name, ts in evaluate_pair(reference, long_prediction).items():
    print(f"  {name:>7}: {ts.value:.3f}")
