"""The benchmark's workloads.

Each workload generates its inputs with ``chordbench.synth`` from a seed
(:meth:`setup`, repeated ``setups`` times in an untraced run, which
reports the median), runs the program on those files (:meth:`run_pass`,
the timed region), checks what the program produced (:meth:`check`,
never timed or traced) and derives the run's quality scores from the
checked passes (:meth:`summarize`).  Library calls go through module attributes
(``features.cqt``, not a name imported from ``features``) so that the
tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field

from chordbench import annotations, cli, features, harness, metrics, synth, templates

QUALITY = ("majmin", "ccm")


@dataclass
class Outcome:
    """What :meth:`check` found in one pass's outputs."""

    attempted: int = 0
    failed: int = 0
    audio_s: float = 0.0  # audio recognized in the pass
    quality: dict = field(default_factory=dict)  # e.g. {"majmin_pct": 97.1}
    key: str = ""  # which input the pass covered, where passes differ
    scores: dict = field(default_factory=dict)  # metric -> TrackScore
    problems: list = field(default_factory=list)

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(problem)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _quiet_cli(argv) -> int:
    """``chordbench`` command line, with its progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _weighted_pct(scores) -> float:
    return float(100.0 * metrics.aggregate_fold(scores))


class Workload:
    """Set-up, timed pass and checks of one workload.

    A run repeats :meth:`run_pass` with a growing pass index, at least
    ``min_passes`` times, and checks each pass on its own
    (:meth:`check`).  A pass made of long steps calls ``split`` between
    them, so that the timer samples the machine's speed there.  :meth:`summarize` then derives the run's quality
    scores from all of its checked passes.
    """

    name = ""
    setups = 1  # set-ups per untraced run; ``setup_s`` is their median
    min_passes = 1  # passes that cover the workload's inputs once

    def summarize(self, outcomes):
        """``(quality, problems)``: every pass must score the same."""
        quality = outcomes[0].quality
        if any(o.quality != quality for o in outcomes):
            return quality, ["quality differs between passes: "
                             f"{[o.quality for o in outcomes]}"]
        return quality, []


class TemplateEval(Workload):
    """Template recognizer over one synthetic set, one track per pass.

    Pass ``i`` recognizes track ``i`` modulo the set size, so that a run
    times many short passes and its median resists the machine's swings;
    ``min_passes`` covers the set once.
    """

    name = "template_eval"
    setups = 5  # each well under a second

    def __init__(self, n_tracks=6, length_s=30.0):
        self.n_tracks = n_tracks
        self.length_s = length_s
        self.min_passes = n_tracks

    def setup(self, root, seed):
        spec = synth.SynthSpec(self.n_tracks, self.length_s, seed=seed)
        synth.emit_dataset(spec, synth.default_pop_model(),
                           os.path.join(root, "tracks"))

    def run_pass(self, root, out_dir, index, split):
        data = os.path.join(root, "tracks")
        entries = synth.read_manifest(os.path.join(data, "manifest.jsonl"))
        entry = entries[index % len(entries)]
        stem = os.path.join(data, entry["id"])
        try:
            chroma = templates.fold_to_chroma(features.log_amplitude(
                features.cqt(features.load_wav(stem + ".wav"))))
            classes = templates.template_predict(chroma)
            predicted = features.frames_to_track(
                classes, chroma.hop_samples, chroma.sample_rate_hz,
                entry["id"])
            reference = annotations.normalize(
                annotations.read_lab(stem + ".lab"))
            return entry, metrics.evaluate_pair(reference, predicted, QUALITY)
        except Exception as exc:  # a failed track; keep measuring
            return entry, exc

    def check(self, root, out_dir, result):
        entry, scored = result
        out = Outcome(attempted=1, key=entry["id"])
        if isinstance(scored, Exception):
            out.fail(f"{entry['id']}: {_error(scored)}")
        elif not _finite(*(scored[name].value for name in QUALITY)):
            out.fail(f"{entry['id']}: non-finite score")
        else:
            out.audio_s = entry["duration"]
            out.scores = {name: scored[name] for name in QUALITY}
            out.quality = {f"{name}_pct": 100.0 * scored[name].value
                           for name in QUALITY}
        return out

    def summarize(self, outcomes):
        """Duration-weighted scores over the set, against the floors."""
        first, problems = {}, []
        for out in outcomes:
            if out.failed:
                continue
            seen = first.setdefault(out.key, out)
            if out.quality != seen.quality:
                problems.append(f"{out.key}: quality {out.quality} differs "
                                f"from an earlier pass: {seen.quality}")
        if len(first) != self.n_tracks:
            problems.append(f"{len(first)} of {self.n_tracks} tracks "
                            "recognized")
            return {}, problems
        quality = {f"{name}_pct": _weighted_pct(
            [out.scores[name] for out in first.values()]) for name in QUALITY}
        floors = {"majmin_pct": 90.0, "ccm_pct": 93.0}
        for key, floor in floors.items():
            if not quality[key] >= floor:
                problems.append(f"{key} {quality[key]:.2f} below floor {floor}")
        return quality, problems


class XvalMatrix(Workload):
    """The demo-08 cross-validation matrix through ``harness.run_experiment``.

    A pop set and a uniform set, six folds, the template baseline and two
    labeler experiments (d=32, one layer) whose patience equals
    ``max_epochs``, so every fold trains for exactly ``max_epochs`` epochs.
    """

    name = "xval_matrix"
    setups = 5  # each under a second
    DATASETS = {"synthA": "synthA", "synthB": "synthB"}
    FOLDS = 6

    def __init__(self, n_tracks=6, length_s=20.0, max_epochs=25):
        self.n_tracks = n_tracks
        self.length_s = length_s
        self.max_epochs = max_epochs

    def setup(self, root, seed):
        spec = synth.SynthSpec(self.n_tracks, self.length_s, seed=seed)
        synth.emit_dataset(spec, synth.default_pop_model(),
                           os.path.join(root, "synthA"))
        synth.emit_dataset(spec, synth.uniform_model(),
                           os.path.join(root, "synthB"))

    def experiments(self):
        params = {"model_dim": 32, "n_layers": 1, "n_heads": 4,
                  "max_epochs": self.max_epochs, "patience": self.max_epochs}
        evals = tuple(self.DATASETS)
        return [
            harness.ExperimentConfig(id=0, train_datasets=(), model="template",
                                     eval_datasets=evals, seed=7),
            harness.ExperimentConfig(id=1, train_datasets=("synthA",),
                                     model="labeler", eval_datasets=evals,
                                     seed=7, model_params=params),
            harness.ExperimentConfig(id=2, train_datasets=("synthB",),
                                     model="labeler", eval_datasets=evals,
                                     seed=7, model_params=params),
        ]

    def run_pass(self, root, out_dir, index, split):
        corpus = harness.load_corpus(root, self.DATASETS)
        plan = harness.make_folds([e for v in corpus.values() for e in v],
                                  seed=0, k=self.FOLDS)
        summaries = {}
        for config in self.experiments():
            try:
                summaries[config.id] = harness.run_experiment(
                    config, plan, corpus, out_dir)
            except Exception as exc:  # one failed experiment; keep measuring
                summaries[config.id] = exc
            split()
        return plan, summaries

    def check(self, root, out_dir, result):
        plan, summaries = result
        out = Outcome()
        tracks = {}  # song id -> duration
        for name, subdir in self.DATASETS.items():
            for entry in synth.read_manifest(
                    os.path.join(root, subdir, "manifest.jsonl")):
                tracks[f"{name}/{entry['id']}"] = entry["duration"]
        # The plan is not stratified by dataset, so a dataset may be absent
        # from a fold; its cells then hold one fold fewer.
        folds_of = {name: len({plan.fold_of_song[s] for s in tracks
                               if s.startswith(name + "/")})
                    for name in self.DATASETS}
        labeler_cells = {name: [] for name in QUALITY}
        for config in self.experiments():
            out.attempted += self.FOLDS
            summary = summaries[config.id]
            if isinstance(summary, Exception):
                out.fail(f"experiment {config.id}: {_error(summary)}",
                         self.FOLDS)
                continue
            for row in summary:
                if (row["folds"] != folds_of[row["dataset"]]
                        or not _finite(row["mean"])):
                    out.problems.append(
                        f"experiment {config.id} {row['dataset']}/"
                        f"{row['metric']}: {row['folds']} folds, "
                        f"mean {row['mean']}")
                elif config.model == "labeler" and row["metric"] in QUALITY:
                    labeler_cells[row["metric"]].append(row["mean"])
            seen = {}
            for fold in range(self.FOLDS):
                problem = self._check_fold(config, plan, out_dir, fold, seen)
                if problem:
                    out.fail(f"experiment {config.id} fold {fold}: {problem}")
            for song in tracks:
                if seen.get(song) != len(QUALITY):
                    out.problems.append(f"experiment {config.id}: {song} "
                                        f"scored {seen.get(song, 0)} times")
            out.audio_s += sum(tracks.values())
        if out.failed or out.problems:
            return out
        out.quality = {f"{name}_pct": sum(v) / len(v)
                       for name, v in labeler_cells.items()}
        return out

    def _check_fold(self, config, plan, out_dir, fold, seen):
        path = os.path.join(out_dir, f"exp_{config.id}", f"fold_{fold}",
                            "scores.csv")
        if not os.path.exists(path):
            return "no scores.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if int(row["fold"]) != fold:
                return f"row of fold {row['fold']}"
            planned = plan.fold_of_song.get(row["song_id"])
            if planned != fold:
                return f"{row['song_id']} belongs to fold {planned}"
            if not _finite(float(row["score"]), float(row["duration_s"])):
                return f"non-finite score for {row['song_id']}"
            if row["metric"] in QUALITY:
                seen[row["song_id"]] = seen.get(row["song_id"], 0) + 1
        return None


class TrainPredict(Workload):
    """The command-line path on cached features: train, predict, eval.

    Set-up synthesizes a training and a held-out set and extracts log-CQT
    caches (``extract --aug`` for training, plain ``extract`` for the
    held-out set).  The timed pass trains the labeler (d=64, two layers,
    10 % validation, patience equal to ``max_epochs``), predicts from the
    held-out ``.shift+0.cbf`` caches and scores the predictions.
    """

    name = "train_predict"
    setups = 3  # each several seconds: feature extraction runs `cqt`

    def __init__(self, n_train=8, n_test=4, length_s=20.0, aug="-2..2",
                 max_epochs=8, model_dim=64, n_layers=2):
        self.n_train = n_train
        self.n_test = n_test
        self.length_s = length_s
        self.aug = aug
        self.config = {"model_dim": model_dim, "n_layers": n_layers,
                       "n_heads": 4, "lr": 3e-3, "batch_size": 8,
                       "max_epochs": max_epochs, "patience": max_epochs,
                       "val_fraction": 0.1, "seed": 0}

    def setup(self, root, seed):
        model = synth.default_pop_model()
        # The held-out set draws from a seed range no training set uses.
        synth.emit_dataset(synth.SynthSpec(self.n_train, self.length_s,
                                           seed=seed),
                           model, os.path.join(root, "train"))
        synth.emit_dataset(synth.SynthSpec(self.n_test, self.length_s,
                                           seed=seed + 2 ** 32),
                           model, os.path.join(root, "test"))
        for argv in (["--aug=" + self.aug, "--in", "train", "--labels",
                      "train", "--out", "train_cache"],
                     ["--in", "test", "--labels", "test", "--out",
                      "test_cache"]):
            argv = [a if a.startswith("--") else os.path.join(root, a)
                    for a in argv]
            if _quiet_cli(["extract", *argv]) != 0:
                raise RuntimeError(f"extract {' '.join(argv)} failed")
        with open(os.path.join(root, "train.json"), "w") as fh:
            json.dump(self.config, fh)

    def run_pass(self, root, out_dir, index, split):
        os.makedirs(out_dir, exist_ok=True)
        model = os.path.join(out_dir, "model.ckpt")
        pred = os.path.join(out_dir, "pred")
        steps = [
            ["train", "--config", os.path.join(root, "train.json"),
             "--data", os.path.join(root, "train_cache"), "--out", model],
            ["predict", "--model", model,
             "--in", os.path.join(root, "test_cache"), "--out", pred],
            ["eval", "--ref", os.path.join(root, "test"), "--pred", pred,
             "--metrics", ",".join(QUALITY),
             "--out", os.path.join(out_dir, "scores.csv")],
        ]
        codes = []
        for argv in steps:
            codes.append(_quiet_cli(argv))
            if codes[-1] != 0:
                break
            split()
        return codes

    def check(self, root, out_dir, codes):
        out = Outcome(attempted=self.n_test)
        if codes[-1] != 0:
            out.fail(f"{['train', 'predict', 'eval'][len(codes) - 1]} "
                     f"exited with {codes[-1]}", self.n_test)
            return out
        with open(os.path.join(out_dir, "scores.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        kept = {name: [] for name in QUALITY}
        test = os.path.join(root, "test")
        for entry in synth.read_manifest(os.path.join(test, "manifest.jsonl")):
            song = entry["id"]
            try:
                reference = annotations.normalize(
                    annotations.read_lab(os.path.join(test, song + ".lab")))
                predicted = annotations.read_lab(
                    os.path.join(out_dir, "pred", song + ".lab"))
            except (OSError, ValueError) as exc:
                out.fail(f"{song}: {_error(exc)}")
                continue
            gaps = predicted.end_s - predicted.start_s - predicted.duration_s
            if (not predicted.segments or predicted.start_s > 0.0
                    or predicted.end_s < reference.end_s or gaps > 1e-6):
                out.fail(f"{song}: prediction covers {predicted.start_s}.."
                         f"{predicted.end_s} with {gaps} s of gaps, "
                         f"reference 0..{reference.end_s}")
                continue
            scored = {r["metric"]: r for r in rows if r["song_id"] == song}
            values = [float(scored[name]["score"]) for name in QUALITY
                      if name in scored]
            if len(values) != len(QUALITY) or not _finite(*values):
                out.fail(f"{song}: missing or non-finite score")
                continue
            out.audio_s += entry["duration"]
            for name in QUALITY:
                kept[name].append(metrics.TrackScore(
                    float(scored[name]["score"]),
                    float(scored[name]["duration_s"])))
        if out.failed:
            return out
        out.quality = {f"{name}_pct": _weighted_pct(kept[name])
                       for name in QUALITY}
        return out


WORKLOADS = {w.name: w for w in (TemplateEval, XvalMatrix, TrainPredict)}
