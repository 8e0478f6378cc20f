"""Cross-validation planning, experiment orchestration, and reporting.

An experiment trains a recognizer on the training split of one or more
datasets and scores its predictions on the validation split of each
evaluation dataset, for every fold of a shared fold plan.  :func:`fit`
returns a fold's recognizer, the callable ``chordbench predict`` also runs:
``templates.recognize_track`` or a trained labeler's ``recognize``; tests
and the benchmark tracer substitute their own by patching ``harness.fit``.
Fold assignment is by song, so multiple performances of the same song
always share a fold.
Completed folds are persisted as ``fold_<i>/scores.csv`` under the
experiment directory (written to a temporary name, then renamed) and are
not recomputed on rerun.

The folds of a trained-model experiment run in up to one worker process per
usable CPU, with results identical to running them one after another.  Each
worker is a fresh interpreter that holds its own numpy and model, so patching
``harness.fit`` or tracing functions reaches only folds run in-process:
template folds, and every fold when only one worker would run.

Every experiment of a run reads its log-CQT features from one feature store,
``<out_dir>/features/<blake2b of the WAV bytes>.cbf`` (the ``.cbf`` format of
docs/cache.md, kind ``cqt_log``), so each recording is analysed once per
output directory, and a rerun or resumed run reuses the stored features.
:func:`run_experiment` hashes each WAV it uses once, before its first
computed fold, so a changed WAV gets a new key in the next experiment, and
stores every missing feature file before any fold runs, so workers only read
the store.  The store does not record the feature recipe: after a recipe
change, use a fresh output directory.

Summary scores are duration-weighted within a fold and reported as
``mean +/- std`` over folds, in percent.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import pickle
import subprocess
import sys
import uuid
from dataclasses import dataclass, field, replace

import numpy as np

from .annotations import normalize, read_lab
from . import labeler
from .features import (FeatureMatrix, align_labels, log_cqt_from_wav,
                       read_feature_cache, write_feature_cache)
from .metrics import TrackScore, aggregate_fold, evaluate_pair
from .templates import fold_to_chroma, recognize_track
from .synth import read_manifest

DEFAULT_METRICS = ("root", "majmin", "ccm")
# The labeler's ``model_params`` keys and their defaults (docs/experiments.md).
LABELER_DEFAULTS = {"model_dim": 32, "n_layers": 1, "n_heads": 4, "lr": 3e-3,
                    "batch_size": 8, "max_epochs": 30, "patience": 5}


class HarnessError(ValueError):
    """Raised for invalid experiment setups."""


class FoldError(RuntimeError):
    """Raised by :func:`run_experiment` for any error inside one fold."""


@dataclass(frozen=True)
class SongEntry:
    """One recording; ``feature_key`` is its feature-store key, once known."""

    song_id: str
    performance_id: str | None = None
    audio_path: str = ""
    label_path: str = ""
    feature_key: str | None = None

    def log_cqt(self, store_dir) -> FeatureMatrix:
        """This recording's log-CQT through the feature store ``store_dir``."""
        return stored_log_cqt(store_dir, self.audio_path, self.feature_key)


@dataclass(frozen=True)
class FoldPlan:
    fold_of_song: dict
    k: int
    seed: int

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
    return FoldPlan(assignment, k, seed)


def balance_datasets(datasets: dict, seed, quota: int) -> dict:
    """Bring every dataset to ``quota`` entries.

    Larger datasets are subsampled deterministically; smaller ones are
    repeated whole-number times, topped up with a seeded sample of the
    remainder.  A dataset already at quota passes through unchanged.
    """
    out = {}
    for name in sorted(datasets):
        entries = sorted(datasets[name], key=lambda e: (e.song_id, str(e.performance_id)))
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
    id: int
    train_datasets: tuple
    model: str
    eval_datasets: tuple
    balance: bool = False
    seed: int = 0
    balance_quota: int | None = None
    model_params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "train_datasets", tuple(self.train_datasets))
        object.__setattr__(self, "eval_datasets", tuple(self.eval_datasets))
        if self.model not in ("template", "labeler"):
            raise HarnessError(f"unknown model {self.model!r}")
        if self.model != "template" and not self.train_datasets:
            raise HarnessError("trainable model requires training datasets")
        quota = self.balance_quota
        if quota is not None and (isinstance(quota, bool)
                                  or not isinstance(quota, int) or quota < 1):
            raise HarnessError(f"experiment {self.id}: balance_quota must be a "
                               f"positive integer, got {quota!r}")
        if self.model == "labeler":
            try:
                labeler.check_hyperparameters(self.model_params,
                                              LABELER_DEFAULTS,
                                              "model_params key")
            except ValueError as exc:
                raise HarnessError(f"experiment {self.id}: {exc}") from None


def _wav_key(audio_path) -> str:
    """The feature-store key of a WAV file: the blake2b digest of its bytes."""
    with open(audio_path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=20).hexdigest()


def stored_log_cqt(store_dir, audio_path, key=None) -> FeatureMatrix:
    """The log-CQT of a WAV file, through the feature store ``store_dir``.

    The store file is named by ``key``, the blake2b digest of the WAV bytes,
    which is computed from the file when not given.  On a miss the features
    are computed and written to a unique temporary name, then renamed into
    place, so a failed write leaves no store file.  The result is always
    read back from the store, so every caller sees the same float32-rounded
    values.
    """
    if key is None:
        key = _wav_key(audio_path)
    features, _ = read_feature_cache(_store(store_dir, audio_path, key))
    return features


def _store(store_dir, audio_path, key) -> str:
    """The path of ``key``'s store file, computed from the WAV if missing."""
    path = os.path.join(store_dir, f"{key}.cbf")
    if not os.path.exists(path):
        os.makedirs(store_dir, exist_ok=True)
        tmp_path = f"{path}.{uuid.uuid4().hex}.tmp"
        try:
            write_feature_cache(tmp_path, log_cqt_from_wav(audio_path))
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
    return path


def fit(config: ExperimentConfig, store_dir, train_entries, seed):
    """The recognizer that labels one fold's tracks for ``config``.

    The result is called as ``recognize(features, source_id)`` on each
    track's stored log-CQT and returns its normalized chord track.  The
    template model needs no training; the labeler is trained on folded
    chroma of ``train_entries`` with ``config.model_params`` over
    :data:`LABELER_DEFAULTS`.
    """
    if config.model == "template":
        return recognize_track
    pairs = []
    for entry in train_entries:
        chroma = fold_to_chroma(entry.log_cqt(store_dir))
        track = normalize(read_lab(entry.label_path))
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
    runs resume where they stopped.  Features come from the store in
    ``<out_dir>/features``, shared by every experiment run into ``out_dir``;
    each WAV the experiment uses is hashed for its store key once, and its
    missing store file is computed in this process, before any fold runs.
    Each computed fold calls :func:`fit` for the recognizer that labels its
    tracks.  A trained model's folds run in ``min(folds to compute, usable
    CPUs)`` worker processes, each on a round-robin share of the folds; each
    worker is a fresh interpreter with its own numpy and model, and results
    are identical to running the folds here.  Template folds, and all folds
    when only one worker would run, run in this process, where a patched
    ``harness.fit`` or a tracer sees them.  Fold files are written in fold
    order; an error inside a fold is raised as :class:`FoldError`, prefixed
    with the experiment and fold, and no later fold is written.  Every
    worker has exited when this function returns or raises.
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
        keyed = _key_and_store(config, fold_plan, corpus, todo, store_dir)
        n_workers = min(len(todo), _usable_cpus())
        if config.model == "template":
            n_workers = 1  # a fold takes less time than starting a worker
        with contextlib.ExitStack() as stack:
            workers = []
            if n_workers > 1:
                workers = [_start_worker(stack, (config, fold_plan, keyed,
                                                 todo[w::n_workers], store_dir))
                           for w in range(n_workers)]
            for index, fold in enumerate(todo):
                if workers:
                    rows = _fold_result(workers[index % n_workers], config, fold)
                else:
                    with _in_fold(config, fold):
                        rows = _run_fold(config, fold_plan, keyed, fold,
                                         store_dir)
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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _key_and_store(config, fold_plan, corpus, todo, store_dir) -> dict:
    """The datasets ``config`` uses, each entry with its ``feature_key``.

    Every entry that a fold in ``todo`` trains or scores on has its store
    file once this returns.  An error is raised as the :class:`FoldError` of
    the first fold in ``todo`` that uses the failing entry, the fold that
    would have met it first.
    """
    names = dict.fromkeys(config.train_datasets + config.eval_datasets)
    with _in_fold(config, todo[0]):
        keyed = {name: [replace(e, feature_key=_wav_key(e.audio_path))
                        for e in corpus[name]]
                 for name in names}
    for fold in todo:
        with _in_fold(config, fold):
            train_entries, to_score = _fold_split(config, fold_plan, keyed,
                                                  fold)
            for entry in train_entries + [entry for _, entry in to_score]:
                _store(store_dir, entry.audio_path, entry.feature_key)
    return keyed


def _fold_split(config, fold_plan, corpus, fold):
    """One fold's training entries and its ``(dataset, entry)`` pairs to score."""
    train_by_dataset = {
        name: [e for e in corpus[name] if fold_plan.fold_of(e) != fold]
        for name in config.train_datasets}
    if config.balance and len(config.train_datasets) > 1:
        quota = config.balance_quota
        if quota is None:
            quota = min(len(v) for v in train_by_dataset.values())
        train_by_dataset = balance_datasets(train_by_dataset,
                                            seed=config.seed, quota=quota)
    train_entries = [e for name in config.train_datasets
                     for e in train_by_dataset[name]]
    to_score = [(name, entry) for name in config.eval_datasets
                for entry in corpus[name] if fold_plan.fold_of(entry) == fold]
    return train_entries, to_score


def _run_fold(config, fold_plan, corpus, fold, store_dir):
    train_entries, to_score = _fold_split(config, fold_plan, corpus, fold)
    recognize = fit(config, store_dir, train_entries,
                    experiment_seed(config.seed, fold))
    rows = []
    for name, entry in to_score:
        predicted = recognize(entry.log_cqt(store_dir), entry.song_id)
        scored = evaluate_pair(read_lab(entry.label_path), predicted,
                               DEFAULT_METRICS)
        for metric in DEFAULT_METRICS:
            ts = scored[metric]
            rows.append({"fold": fold, "dataset": name,
                         "song_id": entry.song_id,
                         "metric": metric, "score": ts.value,
                         "duration_s": ts.total_duration_s})
    return rows


# A fold worker ignores Ctrl-C: the parent stops it when interrupted.
_WORKER_CODE = ("import signal; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                "from chordbench.harness import _fold_worker; _fold_worker()")


def _start_worker(stack, job):
    """A worker process running ``_run_fold`` on ``job``'s folds.

    ``job`` is ``(config, fold_plan, corpus, folds, store_dir)``.  The worker
    imports this copy of the package, inherits the ``-W`` options, and is
    killed and waited for when ``stack`` closes.
    """
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src_dir, path] if path else [src_dir])}
    proc = subprocess.Popen(
        [sys.executable, *(f"-W{option}" for option in sys.warnoptions),
         "-c", _WORKER_CODE],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    stack.callback(_stop_worker, proc)
    try:
        with proc.stdin:
            pickle.dump(job, proc.stdin)
    except BrokenPipeError:
        pass  # the worker died; reading its first result reports how
    return proc


def _stop_worker(proc):
    proc.kill()
    proc.wait()
    proc.stdout.close()


def _fold_result(proc, config, fold):
    """The rows of ``fold``, the next result of the worker ``proc``."""
    try:
        rows, error = pickle.load(proc.stdout)
    except (EOFError, pickle.UnpicklingError):
        raise FoldError(f"experiment {config.id}, fold {fold}: worker process "
                        f"exited with code {proc.wait()} before returning "
                        "the fold") from None
    if error is not None:
        raise FoldError(f"experiment {config.id}, fold {fold}: {error}") from error
    return rows


def _fold_worker():
    """Run the folds of the job pickled on stdin; see :func:`_start_worker`.

    Writes one pickled ``(rows, exception)`` per fold, in the job's order,
    to the original stdout, and stops after the first failed fold.  Anything
    else printed goes to stderr.
    """
    with os.fdopen(os.dup(1), "wb") as results:
        os.dup2(2, 1)
        config, fold_plan, corpus, folds, store_dir = pickle.load(sys.stdin.buffer)
        for fold in folds:
            try:
                rows, error = _run_fold(config, fold_plan, corpus, fold,
                                        store_dir), None
            except Exception as exc:
                rows, error = None, exc
            results.write(pickle.dumps((rows, error)))
            results.flush()
            if error is not None:
                break


_FOLD_FIELDS = ["fold", "dataset", "song_id", "metric", "score", "duration_s"]


def _write_fold_scores(path, rows):
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FOLD_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "score": repr(float(row["score"])),
                             "duration_s": repr(float(row["duration_s"]))})
    os.replace(tmp_path, path)


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


def read_summary_csv(path) -> list:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({"experiment": int(row["experiment"]),
                         "dataset": row["dataset"], "metric": row["metric"],
                         "mean": float(row["mean"]), "std": float(row["std"]),
                         "folds": int(row["folds"])})
    return rows


def load_corpus(data_root, datasets: dict) -> dict:
    """Load song entries from per-dataset manifests.

    ``datasets`` maps dataset name to its directory under ``data_root``;
    each directory must contain ``manifest.jsonl`` (audio paths relative to
    the directory, labels alongside with a .lab extension).
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
        corpus[name] = entries
    return corpus


def load_experiments(path):
    """Read an experiments config file (format in docs/experiments.md).

    A file that is not a JSON object, or an experiment that is not one,
    lacks ``id``, ``model`` or ``eval_datasets``, or has a non-integer
    ``id`` or ``seed``, raises :class:`HarnessError` naming the file and
    the experiment's index in the ``experiments`` list.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"{path}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise HarnessError(f"{path}: not a JSON object")
    datasets = data.get("datasets", {})
    experiments = []
    for index, item in enumerate(data.get("experiments", [])):
        if not isinstance(item, dict):
            raise HarnessError(f"{path}: experiments[{index}]: not a JSON object")
        for key in ("id", "model", "eval_datasets"):
            if key not in item:
                raise HarnessError(
                    f"{path}: experiments[{index}]: missing key {key!r}")
        try:
            exp_id, seed = int(item["id"]), int(item.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise HarnessError(f"{path}: experiments[{index}]: {exc}") from None
        experiments.append(ExperimentConfig(
            id=exp_id,
            train_datasets=tuple(item.get("train_datasets", ())),
            model=item["model"],
            eval_datasets=tuple(item["eval_datasets"]),
            balance=bool(item.get("balance", False)),
            seed=seed,
            balance_quota=item.get("balance_quota"),
            model_params=item.get("model_params", {})))
    return datasets, experiments


def default_experiments(seed: int = 7) -> dict:
    """A small experiment matrix over two synthetic datasets.

    Experiment 0 is the training-free template baseline; 1-3 train the
    labeler on each dataset and on their balanced union, all evaluated on
    both datasets.
    """
    evals = ["synthA", "synthB"]
    return {
        "datasets": {"synthA": "synthA", "synthB": "synthB"},
        "experiments": [
            {"id": 0, "model": "template", "train_datasets": [],
             "eval_datasets": evals, "seed": seed},
            {"id": 1, "model": "labeler", "train_datasets": ["synthA"],
             "eval_datasets": evals, "seed": seed},
            {"id": 2, "model": "labeler", "train_datasets": ["synthB"],
             "eval_datasets": evals, "seed": seed},
            {"id": 3, "model": "labeler", "train_datasets": ["synthA", "synthB"],
             "eval_datasets": evals, "balance": True, "seed": seed},
        ],
    }
