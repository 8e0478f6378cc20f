"""Cross-validation planning, experiment orchestration, and reporting.

An experiment trains a recognizer on the training split of one or more
datasets and scores its predictions on the validation split of each
evaluation dataset, for every fold of a shared fold plan.  :func:`fit`
returns a fold's recognizer, the callable ``chordbench predict`` also runs:
``templates.recognize_track`` or a trained labeler's ``recognize``; tests
and the benchmark tracer substitute their own by patching ``harness.fit``.
:func:`make_folds` assigns folds by song id, so entries that share a song
id share a fold.  :func:`load_corpus`, which ``chordbench xval`` uses, gives
each manifest line its own song id, so there two performances of one song
are two songs and can land in different folds (docs/manifest.md).
Completed folds are persisted as ``fold_<i>/scores.csv`` under the
experiment directory (written to a temporary name, then renamed) and are
not recomputed on rerun.

Before any fold runs, :func:`run_experiment` builds one job per fold to
compute: the fold, its training ``(store file, .lab path)`` pairs and its
``(dataset, song_id, store file, .lab path)`` rows to score.  A fold runs
from its job alone.  On Linux, the folds of a trained-model experiment run in
up to one forked worker process per usable CPU, each on its own share of the
CPUs (:func:`chordbench.workers.ordered_map`), with results identical to
running them one after another in this process, as they run elsewhere.

Every experiment of a run reads its log-CQT features from one feature store,
``<out_dir>/features/<blake2b of the WAV bytes>.cbf`` (the ``.cbf`` format of
docs/cache.md, kind ``cqt_log``), so each recording is analysed once per
output directory, and a rerun or resumed run reuses the stored features.
While building the jobs, each WAV the folds to compute use is hashed once,
by the first fold that uses it, so a changed WAV gets a new key in the next
experiment.  Before any fold runs, the missing feature files are computed
in one ordered map on every usable CPU (forked workers on Linux, as for
``chordbench extract``), and this process writes each of them, in
first-use order, so fold workers only read the store.  The store does not
record the feature recipe: after a recipe change, use a fresh output
directory.

Summary scores are duration-weighted within a fold and reported as
``mean +/- std`` over folds, in percent.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .annotations import _open_utf8, normalize, read_lab
from . import labeler
from .features import (align_labels, log_cqt_from_wav, map_wavs,
                       read_feature_cache, write_feature_cache)
from .metrics import TrackScore, aggregate_fold, evaluate_pair
from .templates import fold_to_chroma, recognize_track
from .synth import read_manifest
from .workers import ordered_map, replacing, usable_cpus

DEFAULT_METRICS = ("root", "majmin", "ccm")
# The labeler's ``model_params`` keys and their defaults (docs/experiments.md):
# xval trains one model per fold, so a smaller, shorter run than ``train``'s.
LABELER_DEFAULTS = {**labeler.DEFAULTS, "model_dim": 32, "n_layers": 1,
                    "lr": 3e-3, "max_epochs": 30}


class HarnessError(ValueError):
    """Raised for invalid experiment setups."""


class FoldError(RuntimeError):
    """Raised by :func:`run_experiment` for any error inside one fold."""


@dataclass(frozen=True)
class SongEntry:
    """One recording: a performance of a song, its WAV and ``.lab`` files."""

    song_id: str
    audio_path: str = ""
    label_path: str = ""


@dataclass(frozen=True)
class FoldPlan:
    fold_of_song: dict
    k: int

    def fold_of(self, entry: SongEntry) -> int:
        return self.fold_of_song[entry.song_id]


def make_folds(songs, seed, k: int = 6) -> FoldPlan:
    """Assign songs to ``k`` folds, keeping same-song performances together.

    Songs are canonically sorted before the seeded shuffle, so the plan does
    not depend on input order; fold sizes differ by at most one song.
    """
    song_ids = sorted({e.song_id for e in songs})
    if len(song_ids) < k:
        raise HarnessError(f"need at least {k} distinct songs, got {len(song_ids)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(song_ids))
    assignment = {song_ids[int(j)]: i % k for i, j in enumerate(order)}
    return FoldPlan(assignment, k)


def balance_datasets(datasets: dict, seed, quota: int) -> dict:
    """Bring every dataset to ``quota`` entries.

    Entries are taken in ``(song_id, audio_path)`` order.  Larger datasets
    are subsampled deterministically; smaller ones are repeated
    whole-number times, topped up with a seeded sample of the remainder.
    A dataset already at quota passes through unchanged.
    """
    out = {}
    for name in sorted(datasets):
        entries = sorted(datasets[name], key=lambda e: (e.song_id, e.audio_path))
        if not entries:
            raise HarnessError(f"dataset {name!r} is empty")
        rng = np.random.Generator(np.random.PCG64([seed, _name_entropy(name)]))
        n = len(entries)
        if n == quota:
            out[name] = list(datasets[name])
        elif n > quota:
            picked = rng.permutation(n)[:quota]
            out[name] = [entries[int(i)] for i in sorted(picked)]
        else:
            reps = quota // n
            remainder = quota - reps * n
            balanced = entries * reps
            extra = rng.permutation(n)[:remainder]
            balanced += [entries[int(i)] for i in sorted(extra)]
            out[name] = balanced
    return out


def _name_entropy(name: str) -> int:
    return int.from_bytes(name.encode("utf-8")[:8].ljust(8, b"\0"), "little")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked by the rules of docs/experiments.md as it is
    built; the dataset lists are stored as tuples.  The first rule broken
    raises :class:`HarnessError` as ``experiment <id>: <reason>``."""

    id: int
    train_datasets: tuple
    model: str
    eval_datasets: tuple
    balance: bool = False
    seed: int = 0
    balance_quota: int | None = None
    model_params: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            for key in ("train_datasets", "eval_datasets"):
                names = getattr(self, key)
                if not (isinstance(names, (list, tuple))
                        and all(isinstance(name, str) for name in names)):
                    raise ValueError(f"{key} must be a list of dataset names, "
                                     f"got {names!r}")
                object.__setattr__(self, key, tuple(names))
            # type() rather than isinstance(), which takes a bool as an int.
            if type(self.id) is not int:
                raise ValueError(f"id must be an integer, got {self.id!r}")
            if not (type(self.seed) is int and self.seed >= 0):
                raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
            if not self.eval_datasets:
                raise ValueError("eval_datasets must not be empty")
            if self.model not in ("template", "labeler"):
                raise ValueError(f"unknown model {self.model!r}")
            if self.model == "labeler" and not self.train_datasets:
                raise ValueError("model 'labeler' needs train_datasets")
            if self.model == "template" and self.train_datasets:
                raise ValueError("model 'template' takes no train_datasets")
            if self.model == "template" and self.model_params != {}:
                raise ValueError("model 'template' takes no model_params")
            if not isinstance(self.balance, bool):
                raise ValueError(f"balance must be true or false, got {self.balance!r}")
            if self.balance and len(self.train_datasets) < 2:
                raise ValueError("balance needs two or more train_datasets")
            quota = self.balance_quota
            if quota is not None and not (type(quota) is int and quota >= 1):
                raise ValueError(f"balance_quota must be a positive integer, "
                                 f"got {quota!r}")
            if quota is not None and not self.balance:
                raise ValueError("balance_quota needs balance: true")
            if self.model == "labeler":
                labeler.check_hyperparameters(
                    self.model_params, LABELER_DEFAULTS, "model_params key")
        except ValueError as exc:
            raise HarnessError(f"experiment {self.id}: {exc}") from None


def _wav_key(audio_path) -> str:
    """The feature-store key of a WAV file: the blake2b digest of its bytes."""
    with open(audio_path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=20).hexdigest()


def _store_path(store_dir, audio_path) -> str:
    """The path of the WAV's store file in ``store_dir``, named by the
    blake2b digest of the WAV bytes."""
    return os.path.join(store_dir, f"{_wav_key(audio_path)}.cbf")


def _fill_store(config, misses) -> None:
    """Compute and write the missing store files ``misses``.

    ``misses`` maps each missing store file to ``(WAV path, fold)``: the
    recording to analyse and the first fold that uses it, in first-use
    order.  The log-CQTs are computed on every usable CPU
    (:func:`~chordbench.features.map_wavs`); this process writes each
    file, in that order, to a unique temporary name and renames it into
    place, so a failed write leaves no store file.  An error is raised as
    the :class:`FoldError` of the recording's first fold, and no later
    file is written.
    """
    if not misses:  # a warm store starts no worker
        return
    with map_wavs(log_cqt_from_wav,
                  [audio_path for audio_path, _ in misses.values()]) as computed:
        for path, (_, fold) in misses.items():
            with _in_fold(config, fold):
                os.makedirs(os.path.dirname(path), exist_ok=True)
                logcqt = next(computed)
                with replacing(path) as tmp_path:
                    write_feature_cache(tmp_path, logcqt)


def fit(config: ExperimentConfig, train, seed):
    """The recognizer that labels one fold's tracks for ``config``.

    The result is called as ``recognize(features, source_id)`` on each
    track's stored float32 log-CQT and returns its normalized chord track.
    The template model needs no training; the labeler is trained on
    ``train``, the fold's ``(store file, .lab path)`` pairs, as chroma folded
    in float64 with ``config.model_params`` over :data:`LABELER_DEFAULTS`;
    its full training windows are float32 views of each z-scored track
    (:func:`~chordbench.labeler.windowed_examples`).
    """
    if config.model == "template":
        return recognize_track
    pairs = []
    for store_path, label_path in train:
        chroma = fold_to_chroma(read_feature_cache(store_path)[0])
        track = normalize(read_lab(label_path))
        pairs.append((chroma, align_labels(track, chroma)))
    model, _report = labeler.fit(pairs, seed,
                                 **{**LABELER_DEFAULTS, **config.model_params})
    return model.recognize


def experiment_seed(config_seed: int, fold: int) -> int:
    ss = np.random.SeedSequence(entropy=config_seed, spawn_key=(fold,))
    return int(ss.generate_state(1, np.uint64)[0] % (2 ** 31))


def run_experiment(config: ExperimentConfig, fold_plan: FoldPlan, corpus: dict,
                   out_dir) -> list:
    """Run one experiment across all folds; returns summary rows.

    ``corpus`` maps dataset name to its song entries.  Folds with an
    existing ``scores.csv`` are loaded instead of recomputed, so interrupted
    runs resume where they stopped.  The folds to compute become jobs
    (:func:`_fold_jobs`) that run in this process or in workers, as the
    module docstring says, and each calls :func:`fit` for its recognizer.
    Fold files are written in fold order; an error inside a fold is raised
    as :class:`FoldError`, prefixed with the experiment and fold, and no
    later fold is written.  Every worker has exited when this function
    returns or raises.
    """
    for name in set(config.train_datasets) | set(config.eval_datasets):
        if name not in corpus:
            raise HarnessError(f"experiment {config.id}: unknown dataset {name!r}")
    store_dir = os.path.join(out_dir, "features")
    scores_paths = [os.path.join(out_dir, f"exp_{config.id}", f"fold_{fold}",
                                 "scores.csv") for fold in range(fold_plan.k)]
    todo = [fold for fold, path in enumerate(scores_paths)
            if not os.path.exists(path)]
    if todo:
        jobs = _fold_jobs(config, fold_plan, corpus, todo, store_dir)
        # A template fold takes less time than starting a worker.
        n_workers = 1 if config.model == "template" else usable_cpus()
        with ordered_map(functools.partial(_run_fold, config), jobs,
                         n_workers, "fold") as results:
            for fold, _train, _to_score in jobs:
                with _in_fold(config, fold):
                    rows = next(results)
                os.makedirs(os.path.dirname(scores_paths[fold]), exist_ok=True)
                _write_fold_scores(scores_paths[fold], rows)
    all_rows = [row for path in scores_paths for row in _read_fold_scores(path)]
    return summarize(config, all_rows, fold_plan.k)


@contextlib.contextmanager
def _in_fold(config, fold):
    """Raise any error of the block as ``config``'s :class:`FoldError` ``fold``."""
    try:
        yield
    except Exception as exc:
        raise FoldError(f"experiment {config.id}, fold {fold}: {exc}") from exc


def _fold_jobs(config, fold_plan, corpus, todo, store_dir) -> list:
    """The ``(fold, train, to_score)`` job of each fold in ``todo``, with
    every store file they read in place.

    ``train`` holds the fold's ``(store file, .lab path)`` training pairs,
    balanced if ``config`` asks for it, and ``to_score`` its ``(dataset,
    song_id, store file, .lab path)`` rows.  A recording is hashed by the
    first fold that uses it, and its missing store file is computed
    (:func:`_fill_store`) after the jobs are built, so an error in either is
    raised as that fold's :class:`FoldError`.  Where a fold fails while its
    job is built, the store files that earlier folds miss are computed
    first, so the error raised is the one that hashing and computing each
    recording in turn would meet first.
    """
    stored = {}
    misses = {}

    def store(entry, fold):
        if entry.audio_path not in stored:
            path = _store_path(store_dir, entry.audio_path)
            if path not in misses and not os.path.exists(path):
                misses[path] = (entry.audio_path, fold)
            stored[entry.audio_path] = path
        return stored[entry.audio_path]

    jobs = []
    try:
        for fold in todo:
            with _in_fold(config, fold):
                train_by_dataset = {
                    name: [e for e in corpus[name]
                           if fold_plan.fold_of(e) != fold]
                    for name in config.train_datasets}
                if config.balance:
                    quota = config.balance_quota
                    if quota is None:
                        quota = min(len(v) for v in train_by_dataset.values())
                    train_by_dataset = balance_datasets(train_by_dataset,
                                                        seed=config.seed,
                                                        quota=quota)
                train = [(store(e, fold), e.label_path)
                         for name in config.train_datasets
                         for e in train_by_dataset[name]]
                to_score = [(name, e.song_id, store(e, fold), e.label_path)
                            for name in config.eval_datasets
                            for e in corpus[name]
                            if fold_plan.fold_of(e) == fold]
            jobs.append((fold, train, to_score))
    except FoldError:
        _fill_store(config, misses)  # an earlier recording's error wins
        raise
    _fill_store(config, misses)
    return jobs


def _run_fold(config, job):
    fold, train, to_score = job
    recognize = fit(config, train, experiment_seed(config.seed, fold))
    rows = []
    for name, song_id, store_path, label_path in to_score:
        features, _ = read_feature_cache(store_path)
        scored = evaluate_pair(read_lab(label_path), recognize(features, song_id),
                               DEFAULT_METRICS)
        for metric in DEFAULT_METRICS:
            ts = scored[metric]
            rows.append({"fold": fold, "dataset": name, "song_id": song_id,
                         "metric": metric, "score": ts.value,
                         "duration_s": ts.total_duration_s})
    return rows


_FOLD_FIELDS = ["fold", "dataset", "song_id", "metric", "score", "duration_s"]


def _write_fold_scores(path, rows):
    with replacing(path) as tmp_path, open(tmp_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FOLD_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "score": repr(float(row["score"])),
                             "duration_s": repr(float(row["duration_s"]))})


def _read_fold_scores(path):
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({"fold": int(row["fold"]), "dataset": row["dataset"],
                         "song_id": row["song_id"], "metric": row["metric"],
                         "score": float(row["score"]),
                         "duration_s": float(row["duration_s"])})
    return rows


def summarize(config, rows, k) -> list:
    """Fold-level aggregation and percent-scale mean/std over folds."""
    summary = []
    for dataset in config.eval_datasets:
        for metric in DEFAULT_METRICS:
            fold_scores = []
            for fold in range(k):
                picked = [TrackScore(r["score"], r["duration_s"]) for r in rows
                          if r["fold"] == fold and r["dataset"] == dataset
                          and r["metric"] == metric]
                if picked:
                    fold_scores.append(aggregate_fold(picked))
            values = 100.0 * np.array(fold_scores)
            summary.append({"experiment": config.id, "dataset": dataset,
                            "metric": metric,
                            "mean": float(values.mean()),
                            "std": float(values.std(ddof=1)) if len(values) > 1 else 0.0,
                            "folds": len(values)})
    return summary


_SUMMARY_FIELDS = ["experiment", "dataset", "metric", "mean", "std", "folds"]


def emit_report(rows, csv_path, text_path) -> None:
    """Write summary rows as CSV plus an aligned text table.

    The text table has one row per experiment and one column per
    (dataset, metric) pair; each cell shows ``mean +/- std`` in percent and
    the largest mean in each column is marked with ``*``.
    """
    if not rows:
        raise HarnessError("no summary rows to report")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "mean": repr(row["mean"]),
                             "std": repr(row["std"])})
    experiments = sorted({r["experiment"] for r in rows})
    columns = []
    for row in rows:
        col = (row["dataset"], row["metric"])
        if col not in columns:
            columns.append(col)
    cells = {(r["experiment"], (r["dataset"], r["metric"])): r for r in rows}
    col_max = {col: max(cells[(e, col)]["mean"] for e in experiments
                        if (e, col) in cells)
               for col in columns}
    headers = ["exp"] + [f"{d}/{m}" for d, m in columns]
    lines = []
    for e in experiments:
        line = [str(e)]
        for col in columns:
            row = cells.get((e, col))
            if row is None:
                line.append("-")
                continue
            mark = "*" if row["mean"] == col_max[col] else " "
            line.append(f"{row['mean']:.2f} ± {row['std']:.2f}{mark}")
        lines.append(line)
    widths = [max(len(headers[i]), max(len(l[i]) for l in lines))
              for i in range(len(headers))]
    with open(text_path, "w") as fh:
        fh.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n")
        fh.write("  ".join("-" * w for w in widths) + "\n")
        for line in lines:
            fh.write("  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n")


def load_corpus(data_root, datasets: dict) -> dict:
    """Load song entries from per-dataset manifests.

    ``datasets`` maps dataset name to its directory under ``data_root``;
    each directory must contain ``manifest.jsonl`` (audio paths relative to
    the directory, labels alongside with a .lab extension).  A manifest
    with no recordings raises :class:`HarnessError` naming it.
    """
    corpus = {}
    for name, subdir in datasets.items():
        base = os.path.join(data_root, subdir)
        manifest = os.path.join(base, "manifest.jsonl")
        entries = []
        for item in read_manifest(manifest):
            audio = os.path.join(base, item["path"])
            label = os.path.splitext(audio)[0] + ".lab"
            entries.append(SongEntry(song_id=f"{name}/{item['id']}",
                                     audio_path=audio, label_path=label))
        if not entries:
            raise HarnessError(f"{manifest}: no recordings")
        corpus[name] = entries
    return corpus


def load_experiments(path):
    """Read an experiments config file (format in docs/experiments.md).

    Returns ``(datasets, experiments)``.  Each experiment is built as
    ``ExperimentConfig(**item)``, which checks it; a missing
    ``train_datasets`` is read as ``[]``.  Checked here is only what needs
    the whole file: JSON shape, dataset directories that are not strings,
    unknown and missing keys, duplicate ids and dataset names that
    ``datasets`` lacks.  Errors raise :class:`HarnessError` prefixed
    ``<file>: `` and, for an experiment, ``experiments[<index>]: ``; bytes
    that are not UTF-8 raise ``AnnotationError`` naming ``<file>:<line>``.
    """
    with _open_utf8(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"{path}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise HarnessError(f"{path}: not a JSON object")
    for key in data:
        if key not in ("datasets", "experiments"):
            raise HarnessError(f"{path}: unknown key {key!r}")
    datasets = data.get("datasets", {})
    if not isinstance(datasets, dict):
        raise HarnessError(f"{path}: datasets: not a JSON object")
    for name, subdir in datasets.items():
        if not isinstance(subdir, str):
            raise HarnessError(f"{path}: datasets: {name}: not a JSON string")
    items = data.get("experiments", [])
    if not isinstance(items, list):
        raise HarnessError(f"{path}: experiments: not a JSON list")
    known = {f.name for f in fields(ExperimentConfig)}
    experiments = []
    for index, item in enumerate(items):
        try:
            if not isinstance(item, dict):
                raise HarnessError("not a JSON object")
            for key in item:
                if key not in known:
                    raise HarnessError(f"unknown key {key!r}")
            for key in ("id", "model", "eval_datasets"):
                if key not in item:
                    raise HarnessError(f"missing key {key!r}")
            config = ExperimentConfig(**{"train_datasets": [], **item})
            if any(e.id == config.id for e in experiments):
                # Both would write, and resume from, exp_<id>/fold_*/scores.csv.
                raise HarnessError(f"duplicate id {config.id}")
            for key in ("train_datasets", "eval_datasets"):
                if not set(getattr(config, key)) <= set(datasets):
                    raise HarnessError(
                        f"{key} must be a list of names in datasets "
                        f"{sorted(datasets)}, got {item[key]!r}")
        except HarnessError as exc:
            raise HarnessError(f"{path}: experiments[{index}]: {exc}") from None
        experiments.append(config)
    return datasets, experiments

