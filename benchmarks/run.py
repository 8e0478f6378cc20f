"""chordbench benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 benchmarks/run.py --workload template_eval --seed 1 \\
        --seconds 20 --trace 0

Each invocation is one fresh process for one workload (``template_eval``,
``xval_matrix`` or ``train_predict``).  It generates the inputs from
``--seed`` several times (the workload's ``setups``) to time set-up, then
repeats the workload's timed pass until ``--seconds`` have passed (at
least ``min_passes`` passes), checking every pass's outputs.  Times are
scaled to a reference machine speed (``speed.py``).  With ``--trace 0``
the last line of standard output holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one extra traced set-up
and ``min_passes`` traced passes, and the tracing overhead against the
untraced passes of the same run.  The line before it is a report with the
machine, the per-pass times and any problems found.

Work files go to ``.bench_work/`` and are removed on exit; spans of traced
runs and the quality records of each seed and source version stay in
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Fix the BLAS thread count before numpy is first imported (inside main),
# so that timings do not follow the library's per-machine default.  On a
# 2-vCPU machine the default of two threads made `cqt` slower, not faster.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "audio_x_realtime": "x",
                    "majmin_pct": "%", "ccm_pct": "%", "peak_rss_mb": "MB"}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_requested": int(BLAS_THREADS),
            "blas_threads": blas_threads()}


def measure(workload, seed, seconds, trace, work):
    """Set up, run timed passes and (with ``trace``) the traced passes.

    Every set-up and pass is timed between two speed samples (see
    ``speed.py``): ``setup_s`` and ``pass_s`` hold its time at reference
    speed, ``raw_setup_s`` and ``raw_pass_s`` its wall time as measured.
    """
    from speed import CalibratedTimer, SpeedProbe

    timer = CalibratedTimer(SpeedProbe())
    result = {"setup_s": [], "raw_setup_s": [], "pass_s": [],
              "raw_pass_s": [], "outcomes": []}
    for i in range(1 if trace else workload.setups):
        raw, scaled, _ = timer.time(workload.setup, str(work / f"setup{i}"),
                                    seed)
        result["raw_setup_s"].append(raw)
        result["setup_s"].append(scaled)
        if i:
            shutil.rmtree(work / f"setup{i}")
    data = str(work / "setup0")
    start = time.perf_counter()
    while (len(result["pass_s"]) < workload.min_passes
           or time.perf_counter() - start < seconds):
        index = len(result["pass_s"])
        out = work / f"pass{index}"
        raw, scaled, outputs = timer.time(workload.run_pass, data, str(out),
                                          index, timer.split)
        result["raw_pass_s"].append(raw)
        result["pass_s"].append(scaled)
        result["outcomes"].append(workload.check(data, str(out), outputs))
        shutil.rmtree(out, ignore_errors=True)
        if len(result["pass_s"]) == workload.min_passes:
            # Peak memory of the set-ups and one cover of the inputs: later
            # passes only add heap fragmentation, which grows with their
            # number and so with the machine's speed.  ru_maxrss is in KiB.
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        result.update(traced_passes(workload, seed, work, timer))
        result["outcomes"].extend(result["traced_outcomes"])
    result["speed_samples"] = timer.samples
    return result


def traced_passes(workload, seed, work, timer):
    """One more set-up and ``min_passes`` passes, every function traced.

    ``traced_pass_s`` holds each traced pass's time at reference speed.
    """
    import chordbench
    from layers import LayerProbe
    from tracer import Tracer

    probe = LayerProbe()
    tracer = Tracer(chordbench, probe.hooks())
    data = str(work / "traced")
    run_id = f"{workload.name}/{seed}"

    def traced_pass(index, out):
        with tracer.root("bench.pass", f"{run_id}/pass{index}"):
            return workload.run_pass(data, out, index, timer.split)

    results, pass_s = [], []
    tracer.install()
    try:
        with tracer.root("bench.setup", f"{run_id}/setup"):
            workload.setup(data, seed)
        for index in range(workload.min_passes):
            out = str(work / f"traced_pass{index}")
            _, scaled, outputs = timer.time(traced_pass, index, out)
            pass_s.append(scaled)
            results.append((out, outputs))
    finally:
        tracer.uninstall()
    # Checks call chordbench too, so they run once the patches are gone.
    outcomes = [workload.check(data, out, outputs)
                for out, outputs in results]
    return {"tracer": tracer, "probe": probe, "traced_outcomes": outcomes,
            "traced_pass_s": pass_s}


def code_digest() -> str:
    """Digest of the program and benchmark sources that set the scores."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("chordbench/*.py"),
                        *(ROOT / "benchmarks").glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def quality_record(workload_name, seed, quality) -> list:
    """Compare ``quality`` with earlier runs of this seed and these sources."""
    path = (ROOT / ".bench_out" / "quality"
            / f"{workload_name}-{seed}-{code_digest()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != quality:
            return [f"quality {quality} differs from an earlier run of "
                    f"seed {seed}: {recorded}"]
        return []
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(quality, sort_keys=True))
    os.replace(tmp, path)
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("template_eval", "xval_matrix",
                                 "train_predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chordbench" / "__init__.py").is_file():
        print(f"error: no chordbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=ROOT / ".bench_work"))
    try:
        run = measure(workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = run["outcomes"]
    problems = [p for o in outcomes for p in o.problems]
    quality, found = workload.summarize(outcomes)
    problems += found
    if not problems:
        problems += quality_record(args.workload, args.seed, quality)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wall_s = statistics.median(run["pass_s"])
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine_info(),
              "setup_s": run["setup_s"], "pass_s": run["pass_s"],
              "raw_setup_s": run["raw_setup_s"],
              "raw_pass_s": run["raw_pass_s"],
              "speed_samples": run["speed_samples"],
              "quality": quality,
              "failed_ops_ratio": failed / attempted,
              "problems": problems[:20]}

    if args.trace:
        tracer, probe = run["tracer"], run["probe"]
        values = probe.metrics(tracer.summary())
        traced_s = statistics.median(run["traced_pass_s"])
        values["trace.overhead_pct"] = (
            100.0 * (traced_s - wall_s) / wall_s, "%")
        spans = ROOT / ".bench_out" / "spans" / \
            f"{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(spans)
        report["spans"] = str(spans.relative_to(ROOT))
        report["traced_pass_s"] = run["traced_pass_s"]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(run["setup_s"]),
            "audio_x_realtime": (statistics.median(
                o.audio_s / s for o, s in zip(outcomes, run["pass_s"]))
                if not failed else 0.0),
            "majmin_pct": quality.get("majmin_pct", 0.0),
            "ccm_pct": quality.get("ccm_pct", 0.0),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        values = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
