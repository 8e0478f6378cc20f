"""Command-line entry points (``chordbench <subcommand>``).

Thin wrappers over the library: convert, eval, stats, extract, synth,
train, predict, and xval.  Features, template recognition, labeler
training (``labeler.fit``) and labeler prediction
(``TrainedLabeler.recognize``) come from the same library functions the
harness calls.  ``extract``, and ``predict`` on WAV files, compute the
log-CQT of each file on every usable CPU (:func:`_map_wavs`).  Run
``chordbench <subcommand> --help`` for the flags of each.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import glob
import json
import os
import re
import sys

import numpy as np

from . import (annotations, checkpoint, features, harness, labeler, metrics,
               stats, synth, templates, workers)
from .labels import N_MAJMIN_CLASSES, transpose_majmin


def _lab_files(directory):
    return sorted(glob.glob(os.path.join(directory, "*.lab")))


def cmd_convert(args):
    readers = {
        "lab": annotations.read_lab,
        "csv": lambda p: annotations.read_winterreise_csv(p, notation=args.notation),
        "arff": annotations.read_aam_arff,
    }
    track = readers[args.src_format](args.infile)
    annotations.write_lab(track, args.outfile)
    print(f"wrote {args.outfile} ({len(track)} segments)")


def cmd_eval(args):
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not names:
        raise SystemExit(f"--metrics {args.metrics!r} names no metric")
    for name in names:
        if name not in metrics.METRICS:
            raise SystemExit(f"unknown metric {name!r}")
    ref_paths = _lab_files(args.ref)
    if not ref_paths:
        raise SystemExit(f"no .lab files in {args.ref}")
    rows = []
    for ref_path in ref_paths:
        song_id = os.path.splitext(os.path.basename(ref_path))[0]
        pred_path = os.path.join(args.pred, song_id + ".lab")
        if not os.path.exists(pred_path):
            raise SystemExit(f"no prediction for {song_id!r} in {args.pred}")
        try:
            scored = metrics.evaluate_pair(annotations.read_lab(ref_path),
                                           annotations.read_lab(pred_path), names)
        except metrics.EvaluationError as exc:
            raise metrics.EvaluationError(f"{ref_path}: {exc}") from None
        for name in names:
            ts = scored[name]
            rows.append([song_id, name, repr(ts.value), repr(ts.total_duration_s)])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["song_id", "metric", "score", "duration_s"])
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")


def cmd_stats(args):
    if not (args.occurrences or args.transitions):
        raise SystemExit("stats writes nothing without --occurrences or "
                         "--transitions; give one or both")
    tracks = [annotations.read_lab(p) for p in _lab_files(args.indir)]
    if not tracks:
        raise SystemExit(f"no .lab files in {args.indir}")
    if args.occurrences:
        counts = stats.chord_occurrences(tracks)
        stats.export_histogram_csv(counts, args.occurrences, drop_n=args.drop_n)
        print(f"wrote {args.occurrences}")
    if args.transitions:
        matrix = stats.chord_transitions(tracks, skip_n=args.skip_n_transitions)
        stats.export_transitions_csv(matrix, args.transitions, drop_n=args.drop_n)
        print(f"wrote {args.transitions}")


def _parse_shift_range(text):
    """``LO..HI`` as the shifts LO to HI, both within ``features.SHIFT_RANGE``."""
    lo_min, hi_max = features.SHIFT_RANGE
    m = re.fullmatch(r"([+-]?\d+)\.\.([+-]?\d+)", text)
    if not m or not lo_min <= int(m[1]) <= int(m[2]) <= hi_max:
        raise SystemExit(f"--aug: bad shift range {text!r}; expected LO..HI "
                         f"with {lo_min} <= LO <= HI <= {hi_max}")
    return range(int(m[1]), int(m[2]) + 1)


def _map_wavs(fn, wav_paths):
    """:func:`chordbench.workers.ordered_map` of ``fn`` over ``wav_paths``.

    Where workers fork (Linux), up to one per usable CPU computes them, as
    ``synth.emit_dataset`` renders tracks; elsewhere this process does.
    The CQT kernels are built first, so that the workers share them.
    """
    features.build_cqt_kernels()
    return workers.ordered_map(fn, wav_paths, workers.usable_cpus(),
                               "log-CQT features")


def _labelled_log_cqt(labels_dir, wav_path):
    """The log-CQT of ``wav_path`` and its frame labels, aligned from the
    ``.lab`` file of the same stem in ``labels_dir``."""
    stem = os.path.splitext(os.path.basename(wav_path))[0]
    lab_path = os.path.join(labels_dir, stem + ".lab")
    track = annotations.normalize(annotations.read_lab(lab_path))
    logcqt = features.log_cqt_from_wav(wav_path)
    return logcqt, features.align_labels(track, logcqt)


def cmd_extract(args):
    shifts = _parse_shift_range(args.aug) if args.aug else [0]
    os.makedirs(args.out, exist_ok=True)
    wavs = sorted(glob.glob(os.path.join(args.indir, "*.wav")))
    if not wavs:
        raise SystemExit(f"no .wav files in {args.indir}")
    # Every cache is written here, in input order, so the files, the
    # progress lines and the first error are those of a serial loop.
    with _map_wavs(functools.partial(_labelled_log_cqt, args.labels),
                   wavs) as tracks:
        for wav_path, (logcqt, labels) in zip(wavs, tracks):
            stem = os.path.splitext(os.path.basename(wav_path))[0]
            for k in shifts:
                shifted = features.pitch_shift_cqt(logcqt, k)
                table = np.array([transpose_majmin(c, k)
                                  for c in range(N_MAJMIN_CLASSES)])
                out_path = os.path.join(args.out, f"{stem}.shift{k:+d}.cbf")
                features.write_feature_cache(out_path, shifted, table[labels])
            print(f"{stem}: {len(shifts)} shift(s)")
    print(f"wrote caches to {args.out}")


def cmd_synth(args):
    if args.model == "pop":
        model = synth.default_pop_model()
    elif args.model == "uniform":
        model = synth.uniform_model()
    else:
        matrix = stats.read_transitions_csv(args.model)
        histogram = (stats.read_histogram_csv(args.hist) if args.hist
                     else matrix.sum(axis=1))
        try:
            model = synth.model_from_stats(matrix, histogram)
        except synth.SynthError as exc:
            raise synth.SynthError(f"{args.model}: {exc}") from None
    spec = synth.SynthSpec(n_tracks=args.n, track_length_s=args.length,
                           seed=args.seed)
    entries = synth.emit_dataset(spec, model, args.out)
    print(f"wrote {len(entries)} tracks to {args.out}")


def _load_cached_items(data_dir):
    paths = sorted(glob.glob(os.path.join(data_dir, "*.cbf")))
    if not paths:
        raise SystemExit(f"no .cbf feature caches in {data_dir}")
    pairs = []
    for path in paths:
        matrix, labels = features.read_feature_cache(path)
        if labels is None:
            raise SystemExit(f"{path}: cache has no labels; re-run extract")
        pairs.append((matrix, labels))
    return pairs


# Hyperparameters of ``train`` and their defaults; any other config key is an error.
TRAIN_DEFAULTS = {"seed": 0, "model_dim": 64, "n_layers": 2, "n_heads": 4,
                  "lr": 1e-3, "batch_size": 8, "max_epochs": 50, "patience": 5,
                  "val_fraction": 0.1}


def cmd_train(args):
    # Outside the ``try``: ``_open_utf8`` names the file on a non-UTF-8 byte.
    with annotations._open_utf8(args.config) as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
        labeler.check_hyperparameters(cfg, TRAIN_DEFAULTS, "key")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: not JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    pairs = _load_cached_items(args.data)
    hyper = {**TRAIN_DEFAULTS, **cfg}
    model, report = labeler.fit(pairs, **hyper)
    checkpoint.save_checkpoint(args.out, model)
    # ``accuracies`` are those of the validation windows, or without them
    # those of the training windows as the last epoch's steps scored them.
    monitored = "validation" if hyper["val_fraction"] > 0 else "training"
    print(f"trained {report.epochs_run} epochs, "
          f"final loss {report.losses[-1]:.4f}, "
          f"{monitored} accuracy {report.accuracies[-1]:.3f}")
    print(f"wrote {args.out}")


def cmd_predict(args):
    suffix = ".wav"
    inputs = sorted(glob.glob(os.path.join(args.indir, "*" + suffix)))
    if not inputs:
        suffix = ".shift+0.cbf"
        inputs = sorted(glob.glob(os.path.join(args.indir, "*" + suffix)))
    if not inputs:
        raise SystemExit(f"no .wav or .shift+0.cbf inputs in {args.indir}")
    if args.model == "template":
        recognize = templates.recognize_track
    else:
        recognize = checkpoint.load_checkpoint(args.model).recognize
    if suffix == ".wav":
        source = _map_wavs(features.log_cqt_from_wav, inputs)
    else:
        source = contextlib.nullcontext(
            features.read_feature_cache(path)[0] for path in inputs)
    with source as matrices:
        for path, matrix in zip(inputs, matrices):
            # All inputs end in ``suffix``, so no two of them share a stem.
            stem = os.path.basename(path)[:-len(suffix)]
            try:
                track = recognize(matrix, stem)
            except features.FeatureError as exc:
                raise features.FeatureError(
                    f"model {args.model} on {path}: {exc}") from None
            # Made only now, so a run that fails before its first prediction
            # leaves no output directory behind.
            os.makedirs(args.out, exist_ok=True)
            annotations.write_lab(track, os.path.join(args.out, stem + ".lab"))
    print(f"wrote {len(inputs)} predictions to {args.out}")


def cmd_xval(args):
    datasets, experiments = harness.load_experiments(args.experiments)
    corpus = harness.load_corpus(args.data_root, datasets)
    every_entry = [e for entries in corpus.values() for e in entries]
    plan = harness.make_folds(every_entry, seed=args.fold_seed, k=args.folds)
    os.makedirs(args.out, exist_ok=True)
    summary = []
    for config in experiments:
        rows = harness.run_experiment(config, plan, corpus, args.out)
        summary.extend(rows)
        for row in rows:
            print(f"exp {row['experiment']} {row['dataset']:>8} "
                  f"{row['metric']:>6}: {row['mean']:.2f} ± {row['std']:.2f}")
    harness.emit_report(summary, os.path.join(args.out, "summary.csv"),
                        os.path.join(args.out, "summary.txt"))
    print(f"wrote {os.path.join(args.out, 'summary.csv')}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chordbench",
        description="Chord recognition experiment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert annotation formats to .lab")
    p.add_argument("--from", dest="src_format", required=True,
                   choices=["lab", "csv", "arff"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--notation", default="shorthand",
                   choices=["shorthand", "majmin"],
                   help="label column for CSV input")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--ref", required=True, help="directory of reference .lab files")
    p.add_argument("--pred", required=True, help="directory of predicted .lab files")
    p.add_argument("--metrics", default="root,majmin,mirex,ccm")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="occurrence and transition statistics")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--occurrences", help="output histogram CSV")
    p.add_argument("--transitions", help="output transition matrix CSV")
    p.add_argument("--drop-n", action="store_true",
                   help="omit the no-chord bin from the exports")
    p.add_argument("--skip-n-transitions", action="store_true",
                   help="count changes through silence as chord-to-chord")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("extract", help="extract log-CQT feature caches")
    p.add_argument("--in", dest="indir", required=True, help="WAV directory")
    p.add_argument("--labels", required=True, help=".lab directory")
    p.add_argument("--aug", help="semitone shift range, e.g. --aug=-5..6")
    p.add_argument("--out", required=True, help="cache directory")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, default=48, help="number of tracks")
    p.add_argument("--len", dest="length", type=float, default=60.0,
                   help="track length in seconds")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.add_argument("--model", default="pop",
                   help="'pop', 'uniform', or a transition-matrix CSV")
    p.add_argument("--hist", help="occurrence histogram CSV for the start distribution")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the sequence labeler")
    p.add_argument("--config", required=True, help="JSON hyperparameter file")
    p.add_argument("--data", required=True, help="feature cache directory")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict chord tracks")
    p.add_argument("--model", required=True,
                   help="checkpoint path, or 'template' for the baseline")
    p.add_argument("--in", dest="indir", required=True,
                   help="directory of .wav files or feature caches")
    p.add_argument("--out", required=True, help="output .lab directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("xval", help="run a cross-validation experiment matrix")
    p.add_argument("--experiments", required=True, help="experiments JSON file")
    p.add_argument("--data-root", required=True)
    p.add_argument("--out", required=True, help="results directory")
    p.add_argument("--folds", type=int, default=6)
    p.add_argument("--fold-seed", type=int, default=0)
    p.set_defaults(func=cmd_xval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, harness.FoldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
