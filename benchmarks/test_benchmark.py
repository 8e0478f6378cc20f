"""Tests of the benchmark itself: span arithmetic, tracing, repeatable counts.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.SRC))

import chordbench  # noqa: E402
from chordbench import features, harness  # noqa: E402
from layers import LayerProbe  # noqa: E402
from speed import REFERENCE_S, CalibratedTimer  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import TemplateEval, TrainPredict, XvalMatrix  # noqa: E402


def test_self_time_subtracts_child_coverage_once():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),   # overlaps a: [1, 6] covered once
        Span("a.child", 2.0, 3.0, 1, "r"),
        Span("c", 9.0, 12.0, 0, "r"),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_nests_spans_and_restores_every_name():
    original = features.cqt
    assert harness.cqt is original
    tracer = Tracer(chordbench)
    tracer.install()
    try:
        assert harness.cqt is features.cqt is not original
        with tracer.root("bench.pass", "test/pass"):
            features.frames_to_track([0, 0, 1], 2048, 22050)
    finally:
        tracer.uninstall()
    assert harness.cqt is features.cqt is original
    by_name = {s.name: s for s in tracer.spans}
    frames = by_name["features.frames_to_track"]
    assert tracer.spans[frames.parent].name == "bench.pass"
    assert tracer.spans[by_name["annotations.normalize"].parent] is frames
    assert {s.run_id for s in tracer.spans} == {"test/pass"}
    summary = tracer.summary()
    assert summary["bench.pass"]["self_s"] <= summary["bench.pass"]["total_s"]


def test_hook_time_is_no_span_self_time():
    def slow_hook(args, kwargs, result):
        time.sleep(0.05)

    tracer = Tracer(chordbench, {"annotations.normalize": slow_hook})
    tracer.install()
    try:
        with tracer.root("bench.pass", "test/pass"):
            features.frames_to_track([0, 0, 1], 2048, 22050)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["bench.hook"]["self_s"] >= 0.05
    assert summary["features.frames_to_track"]["self_s"] < 0.05
    assert summary["bench.pass"]["self_s"] < 0.05


class FixedSpeeds:
    """Stands in for :class:`speed.SpeedProbe` with given sample times."""

    def __init__(self, samples):
        self.samples = iter(samples)

    def sample(self):
        return next(self.samples)


def test_calibrated_time_uses_the_samples_around_each_call():
    timer = CalibratedTimer(FixedSpeeds([REFERENCE_S, 3 * REFERENCE_S,
                                         REFERENCE_S]))
    raw, scaled, result = timer.time(time.sleep, 0.02)
    assert result is None and raw >= 0.02
    # The machine ran at half the reference speed, on average, around it.
    assert scaled == pytest.approx(raw / 2)
    raw, scaled, _ = timer.time(time.sleep, 0.02)
    assert scaled == pytest.approx(raw / 2)
    assert timer.samples == [REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S]


def test_split_scales_each_step_by_its_own_samples():
    # Reference speed around the first step, a third of it around the
    # second; the samples' own time is left out.
    timer = CalibratedTimer(FixedSpeeds([REFERENCE_S, REFERENCE_S,
                                         5 * REFERENCE_S]))
    steps = []

    def two_steps():
        start = time.perf_counter()
        time.sleep(0.02)
        steps.append(time.perf_counter() - start)
        timer.split()
        start = time.perf_counter()
        time.sleep(0.03)
        steps.append(time.perf_counter() - start)

    raw, scaled, _ = timer.time(two_steps)
    assert raw == pytest.approx(sum(steps), abs=2e-3)
    assert scaled == pytest.approx(steps[0] + steps[1] / 3, abs=2e-3)


def traced_counts(workload, root, seed):
    """Counts of one traced set-up and passes, after checking their outputs."""
    probe = LayerProbe()
    tracer = Tracer(chordbench, probe.hooks())
    data, results = str(root / "data"), []
    tracer.install()
    try:
        workload.setup(data, seed)
        for index in range(workload.min_passes):
            out = str(root / f"out{index}")
            results.append((out, workload.run_pass(data, out, index,
                                                   lambda: None)))
    finally:
        tracer.uninstall()
    outcomes = [workload.check(data, out, outputs) for out, outputs in results]
    quality, problems = workload.summarize(outcomes)
    problems += [p for o in outcomes for p in o.problems]
    assert quality and not problems, problems
    assert not any(o.failed for o in outcomes)
    shutil.rmtree(root)
    values = probe.metrics(tracer.summary())
    return {k: v for k, (v, unit) in values.items() if unit == "count"}


SMALL = {
    "template_eval": lambda: TemplateEval(n_tracks=2, length_s=10.0),
    "xval_matrix": lambda: XvalMatrix(n_tracks=3, length_s=10.0, max_epochs=2),
    "train_predict": lambda: TrainPredict(n_train=2, n_test=1, length_s=10.0,
                                          aug="-1..1", max_epochs=2,
                                          model_dim=16, n_layers=1),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_for_one_seed(name, tmp_path):
    first = traced_counts(SMALL[name](), tmp_path / "first", seed=5)
    second = traced_counts(SMALL[name](), tmp_path / "second", seed=5)
    assert first == second
    if name == "xval_matrix":
        # 3 tracks per set: each of the three runners extracts all 6 once.
        assert first["features.cqt.calls"] == 18
        # Every epoch runs one forward pass per training window in
        # loss_and_grad, frame_accuracy and loss_value; each runner then
        # predicts all 6 tracks.  Demo 08 gives 13,524 = 3 * 4,500 + 24.
        assert first["labeler.forward.calls"] == (
            3 * first["labeler.backward_passes"] + 2 * 6)
        assert first["labeler.epochs_run"] == 2 * 6 * 2
        assert first["harness.folds_computed"] == 3 * 6


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    per_layer = {k: unit for k, (v, unit) in LayerProbe().metrics({}).items()}
    per_layer["trace.overhead_pct"] = "%"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "template_eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
