import csv
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from chordbench import features, harness, workers
from chordbench.annotations import AnnotationError, normalize, read_lab
from chordbench.features import (load_wav, log_cqt_from_wav,
                                 read_feature_cache, save_wav)
from chordbench.harness import (ExperimentConfig, FoldError, HarnessError,
                                SongEntry, balance_datasets, emit_report,
                                load_corpus, load_experiments, make_folds,
                                run_experiment)
from chordbench.synth import SynthError
from conftest import needs_workers, no_child_left, use_cpus


# The example matrix of docs/experiments.md.
EXAMPLE_MATRIX = (pathlib.Path(__file__).resolve().parents[1] / "docs"
                  / "experiments.json")


def example_matrix():
    return json.loads(EXAMPLE_MATRIX.read_text())


def songs_with_performances(n_songs, n_perf=2):
    return [SongEntry(song_id=f"song{i:03d}", audio_path=f"p{j}.wav")
            for i in range(n_songs) for j in range(n_perf)]


class TestMakeFolds:
    def test_pairing_constraint_and_balance(self):
        entries = songs_with_performances(24, 2)
        plan = make_folds(entries, seed=5)
        by_song = {}
        for e in entries:
            by_song.setdefault(e.song_id, set()).add(plan.fold_of(e))
        assert all(len(folds) == 1 for folds in by_song.values())
        sizes = np.bincount([plan.fold_of_song[s] for s in by_song], minlength=6)
        assert np.all(sizes == 4)

    def test_six_songs_one_per_fold(self):
        entries = songs_with_performances(6, 1)
        plan = make_folds(entries, seed=1)
        assert sorted(plan.fold_of_song.values()) == list(range(6))

    def test_input_order_invariance(self):
        entries = songs_with_performances(13, 2)
        plan_a = make_folds(entries, seed=9)
        plan_b = make_folds(list(reversed(entries)), seed=9)
        assert plan_a.fold_of_song == plan_b.fold_of_song

    def test_too_few_songs(self):
        with pytest.raises(HarnessError):
            make_folds(songs_with_performances(5), seed=0)

    def test_folds_partition_songs(self):
        entries = songs_with_performances(20, 2)
        plan = make_folds(entries, seed=3)
        assert set(plan.fold_of_song) == {e.song_id for e in entries}
        assert set(plan.fold_of_song.values()) <= set(range(6))


class TestBalanceDatasets:
    def entries(self, n, dataset):
        return [SongEntry(song_id=f"{dataset}{i:05d}") for i in range(n)]

    def test_paper_scheme(self):
        datasets = {"big": self.entries(3000, "big"),
                    "mid": self.entries(739, "mid"),
                    "small": self.entries(48, "small")}
        balanced = balance_datasets(datasets, seed=4, quota=192)
        assert all(len(v) == 192 for v in balanced.values())
        small_counts = {}
        for e in balanced["small"]:
            small_counts[e.song_id] = small_counts.get(e.song_id, 0) + 1
        assert all(c == 4 for c in small_counts.values())

    def test_at_quota_unchanged(self):
        datasets = {"exact": self.entries(192, "exact")}
        balanced = balance_datasets(datasets, seed=4, quota=192)
        assert balanced["exact"] == datasets["exact"]

    def test_subsample_is_deterministic(self):
        datasets = {"big": self.entries(500, "big")}
        a = balance_datasets(datasets, seed=8, quota=100)
        b = balance_datasets(datasets, seed=8, quota=100)
        assert a == b
        c = balance_datasets(datasets, seed=9, quota=100)
        assert a != c

    def test_non_divisible_topup(self):
        datasets = {"odd": self.entries(50, "odd")}
        balanced = balance_datasets(datasets, seed=2, quota=192)
        assert len(balanced["odd"]) == 192
        counts = {}
        for e in balanced["odd"]:
            counts[e.song_id] = counts.get(e.song_id, 0) + 1
        assert set(counts.values()) <= {3, 4}

    def test_empty_dataset_error(self):
        with pytest.raises(HarnessError):
            balance_datasets({"empty": []}, seed=0, quota=192)


class EchoFit:
    """A ``fit`` whose recognizer is perfect: it returns the reference
    annotation of the song it is asked to label."""

    def __init__(self, corpus):
        self.label_path = {e.song_id: e.label_path
                           for entries in corpus.values() for e in entries}
        self.fit_calls = 0

    def __call__(self, config, train, seed):
        self.fit_calls += 1

        def recognize(features, source_id):
            return normalize(read_lab(self.label_path[source_id]))
        return recognize


@pytest.fixture()
def corpus(tiny_dataset):
    out, _ = tiny_dataset
    return load_corpus(os.path.dirname(out), {"tiny": os.path.basename(out)})


class TestRunExperiment:
    def config(self, **kw):
        base = dict(id=0, train_datasets=(), model="template",
                    eval_datasets=("tiny",), seed=7)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_row_accounting(self, corpus, tmp_path):
        plan = make_folds(corpus["tiny"], seed=0)
        summary = run_experiment(self.config(), plan, corpus, tmp_path)
        # one row per (dataset, metric)
        assert len(summary) == 3
        assert all(row["folds"] == 6 for row in summary)
        for fold in range(6):
            assert os.path.exists(tmp_path / "exp_0" / f"fold_{fold}" / "scores.csv")

    def test_perfect_predictor_scores_100(self, corpus, tmp_path,
                                          monkeypatch):
        plan = make_folds(corpus["tiny"], seed=0)
        monkeypatch.setattr(harness, "fit", EchoFit(corpus))
        summary = run_experiment(self.config(), plan, corpus, tmp_path)
        for row in summary:
            assert row["mean"] == pytest.approx(100.0)
            assert row["std"] == pytest.approx(0.0)

    def test_resumable_skips_completed_folds(self, corpus, tmp_path,
                                             monkeypatch):
        plan = make_folds(corpus["tiny"], seed=0)
        fit = EchoFit(corpus)
        monkeypatch.setattr(harness, "fit", fit)
        first = run_experiment(self.config(), plan, corpus, tmp_path)
        assert fit.fit_calls == 6
        second = run_experiment(self.config(), plan, corpus, tmp_path)
        assert fit.fit_calls == 6  # nothing recomputed
        assert first == second

    def test_summary_matches_hand_computation(self, corpus, tmp_path):
        from chordbench.harness import _read_fold_scores
        plan = make_folds(corpus["tiny"], seed=0)
        config = self.config()
        summary = run_experiment(config, plan, corpus, tmp_path)
        rows = []
        for fold in range(6):
            rows.extend(_read_fold_scores(
                tmp_path / "exp_0" / f"fold_{fold}" / "scores.csv"))
        for metric in ("root", "majmin", "ccm"):
            fold_values = []
            for fold in range(6):
                picked = [r for r in rows
                          if r["fold"] == fold and r["metric"] == metric]
                num = sum(r["score"] * r["duration_s"] for r in picked)
                den = sum(r["duration_s"] for r in picked)
                fold_values.append(100.0 * num / den)
            expected_mean = float(np.mean(fold_values))
            expected_std = float(np.std(fold_values, ddof=1))
            row = next(r for r in summary if r["metric"] == metric)
            assert row["mean"] == pytest.approx(expected_mean, abs=1e-9)
            assert row["std"] == pytest.approx(expected_std, abs=1e-9)

    def test_rerun_from_scratch_is_bit_exact(self, corpus, tmp_path):
        plan = make_folds(corpus["tiny"], seed=0)
        first = run_experiment(self.config(), plan, corpus, tmp_path / "a")
        second = run_experiment(self.config(), plan, corpus, tmp_path / "b")
        assert first == second
        for fold in range(6):
            a = (tmp_path / "a" / "exp_0" / f"fold_{fold}" / "scores.csv").read_bytes()
            b = (tmp_path / "b" / "exp_0" / f"fold_{fold}" / "scores.csv").read_bytes()
            assert a == b

    def test_interrupted_fold_write_leaves_no_scores(self, corpus, tmp_path,
                                                     monkeypatch):
        plan = make_folds(corpus["tiny"], seed=0)
        real_writerow = csv.DictWriter.writerow

        def failing_writerow(writer, row):
            if row.get("fold") == 0:
                raise OSError("disk full")
            return real_writerow(writer, row)

        monkeypatch.setattr(csv.DictWriter, "writerow", failing_writerow)
        monkeypatch.setattr(harness, "fit", EchoFit(corpus))
        with pytest.raises(OSError, match="disk full"):
            run_experiment(self.config(), plan, corpus, tmp_path)
        assert not (tmp_path / "exp_0" / "fold_0" / "scores.csv").exists()
        assert list((tmp_path / "exp_0" / "fold_0").glob("*.tmp")) == []
        monkeypatch.undo()
        fit = EchoFit(corpus)
        monkeypatch.setattr(harness, "fit", fit)
        summary = run_experiment(self.config(), plan, corpus, tmp_path)
        assert fit.fit_calls == 6
        assert all(row["folds"] == 6 for row in summary)

    def test_unknown_dataset_error(self, corpus, tmp_path):
        plan = make_folds(corpus["tiny"], seed=0)
        with pytest.raises(HarnessError, match="unknown dataset"):
            run_experiment(self.config(eval_datasets=("missing",)), plan,
                           corpus, tmp_path)

    def test_trainable_model_requires_train_data(self):
        with pytest.raises(HarnessError):
            ExperimentConfig(id=1, train_datasets=(), model="labeler",
                             eval_datasets=("tiny",))

    def test_unknown_model_params_key_error(self):
        with pytest.raises(HarnessError, match=re.escape(
                "experiment 4: unknown model_params key 'dropout'")):
            ExperimentConfig(id=4, train_datasets=("tiny",), model="labeler",
                             eval_datasets=("tiny",),
                             model_params={"model_dim": 8, "dropout": 0.1})

    @pytest.mark.parametrize("key, value, message", [
        ("max_epochs", "1", "must be an integer, got '1'"),
        ("patience", 2.0, "must be an integer, got 2.0"),
        ("n_heads", True, "must be an integer, got True"),
        ("lr", "0.1", "must be a number, got '0.1'"),
    ])
    def test_model_params_types_are_checked(self, key, value, message):
        with pytest.raises(HarnessError, match=re.escape(
                f"experiment 5: model_params key {key!r} {message}")):
            ExperimentConfig(id=5, train_datasets=("tiny",), model="labeler",
                             eval_datasets=("tiny",),
                             model_params={"lr": 1, key: value})

    def test_model_params_must_be_an_object(self):
        with pytest.raises(HarnessError, match=re.escape(
                "experiment 5: expected a JSON object of model_params keys, "
                "got 5")):
            ExperimentConfig(id=5, train_datasets=("tiny",), model="labeler",
                             eval_datasets=("tiny",), model_params=5)

    @pytest.mark.parametrize("quota, shown", [("x", "'x'"), (0, "0"),
                                              (True, "True")])
    def test_balance_quota_must_be_positive_integer(self, quota, shown):
        with pytest.raises(HarnessError, match=re.escape(
                f"experiment 3: balance_quota must be a positive integer, "
                f"got {shown}")):
            ExperimentConfig(id=3, train_datasets=("a", "b"), model="labeler",
                             eval_datasets=("a",), balance=True,
                             balance_quota=quota)


def count_cqt_inputs(monkeypatch):
    """Patch ``features.cqt`` to record a digest of every signal it analyses."""
    seen = []
    real_cqt = features.cqt

    def counting_cqt(audio):
        seen.append(hashlib.blake2b(audio.samples.tobytes()).hexdigest())
        return real_cqt(audio)

    monkeypatch.setattr(features, "cqt", counting_cqt)
    return seen


def count_wav_keys(monkeypatch):
    """Patch ``harness._wav_key`` to record the path of every WAV it hashes."""
    hashed = []
    real_key = harness._wav_key

    def counting_key(audio_path):
        hashed.append(audio_path)
        return real_key(audio_path)

    monkeypatch.setattr(harness, "_wav_key", counting_key)
    return hashed


@pytest.fixture()
def own_corpus(tiny_dataset, tmp_path):
    """A private copy of the tiny dataset, safe to modify."""
    data_dir, _ = tiny_dataset
    shutil.copytree(data_dir, tmp_path / "data" / "tiny")
    return load_corpus(tmp_path / "data", {"tiny": "tiny"})


def fold_scores(out):
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.glob("exp_*/fold_*/scores.csv"))}


class TestFeatureStore:
    TEMPLATE = ExperimentConfig(id=0, train_datasets=(), model="template",
                                eval_datasets=("tiny",), seed=7)
    LABELER = ExperimentConfig(
        id=1, train_datasets=("tiny",), model="labeler",
        eval_datasets=("tiny",), seed=7,
        model_params={"model_dim": 8, "n_layers": 1, "n_heads": 2,
                      "max_epochs": 1, "patience": 1})

    def test_experiments_share_one_extraction_per_track(self, corpus, tmp_path,
                                                        monkeypatch):
        seen = count_cqt_inputs(monkeypatch)
        plan = make_folds(corpus["tiny"], seed=0)
        for config in (self.TEMPLATE, self.LABELER):
            run_experiment(config, plan, corpus, tmp_path)
        assert len(seen) == len(set(seen)) == len(corpus["tiny"])
        assert len(list((tmp_path / "features").glob("*.cbf"))) == len(seen)

    def test_rerun_reuses_store_and_scores_are_identical(self, corpus, tmp_path,
                                                         monkeypatch):
        plan = make_folds(corpus["tiny"], seed=0)
        for config in (self.TEMPLATE, self.LABELER):
            run_experiment(config, plan, corpus, tmp_path)
        first = fold_scores(tmp_path)
        assert len(first) == 12
        for path in first:
            os.remove(tmp_path / path)
        seen = count_cqt_inputs(monkeypatch)
        for config in (self.TEMPLATE, self.LABELER):
            run_experiment(config, plan, corpus, tmp_path)
        assert seen == []
        assert fold_scores(tmp_path) == first

    def test_each_wav_is_hashed_once_per_experiment(self, corpus, tmp_path,
                                                    monkeypatch):
        hashed = count_wav_keys(monkeypatch)
        plan = make_folds(corpus["tiny"], seed=0)
        paths = sorted(e.audio_path for e in corpus["tiny"])
        for config in (self.TEMPLATE, self.LABELER):
            hashed.clear()
            run_experiment(config, plan, corpus, tmp_path)
            assert sorted(hashed) == paths
        first = fold_scores(tmp_path)
        hashed.clear()
        run_experiment(self.LABELER, plan, corpus, tmp_path)
        assert hashed == []  # every fold resumed
        os.remove(tmp_path / "exp_1" / "fold_2" / "scores.csv")
        run_experiment(self.LABELER, plan, corpus, tmp_path)
        assert sorted(hashed) == paths
        assert fold_scores(tmp_path) == first

    def test_resumed_fold_hashes_only_its_recordings(self, corpus, tmp_path,
                                                     monkeypatch):
        plan = make_folds(corpus["tiny"], seed=0)
        run_experiment(self.TEMPLATE, plan, corpus, tmp_path)
        first = fold_scores(tmp_path)
        os.remove(tmp_path / "exp_0" / "fold_2" / "scores.csv")
        hashed = count_wav_keys(monkeypatch)
        seen = count_cqt_inputs(monkeypatch)
        run_experiment(self.TEMPLATE, plan, corpus, tmp_path)
        assert hashed == [e.audio_path for e in corpus["tiny"]
                          if plan.fold_of(e) == 2]
        assert seen == []
        assert fold_scores(tmp_path) == first

    def test_unreadable_wav_fails_the_fold_that_uses_it(self, own_corpus,
                                                        tmp_path):
        entries = own_corpus["tiny"]
        plan = make_folds(entries, seed=0)
        (entry,) = [e for e in entries if plan.fold_of(e) == 3]
        os.remove(entry.audio_path)
        out = tmp_path / "out"
        with pytest.raises(FoldError, match=re.escape(
                "experiment 0, fold 3: [Errno 2] No such file or directory: "
                f"{entry.audio_path!r}")):
            run_experiment(self.TEMPLATE, plan, own_corpus, out)
        assert fold_scores(out) == {}

    def test_changed_wav_recomputes_only_that_track(self, own_corpus, tmp_path,
                                                    monkeypatch):
        entries = own_corpus["tiny"]
        plan = make_folds(entries, seed=0)
        out = tmp_path / "out"
        run_experiment(self.TEMPLATE, plan, own_corpus, out)
        audio = load_wav(entries[0].audio_path)
        save_wav(entries[0].audio_path,
                 features.AudioBuffer(0.5 * audio.samples))
        shutil.rmtree(out / "exp_0")
        seen = count_cqt_inputs(monkeypatch)
        run_experiment(self.TEMPLATE, plan, own_corpus, out)
        assert seen == [hashlib.blake2b(
            load_wav(entries[0].audio_path).samples.tobytes()).hexdigest()]
        assert len(list((out / "features").glob("*.cbf"))) == len(entries) + 1

    def test_failed_store_write_leaves_no_store_file(self, corpus, tmp_path,
                                                     monkeypatch):
        real_write = harness.write_feature_cache

        def truncated_write(path, matrix, labels=None):
            real_write(path, matrix, labels)
            with open(path, "r+b") as fh:
                fh.truncate(40)
            raise OSError("disk full")

        monkeypatch.setattr(harness, "write_feature_cache", truncated_write)
        plan = make_folds(corpus["tiny"], seed=0)
        with pytest.raises(RuntimeError, match="disk full"):
            run_experiment(self.TEMPLATE, plan, corpus, tmp_path)
        assert list((tmp_path / "features").iterdir()) == []
        monkeypatch.undo()
        summary = run_experiment(self.TEMPLATE, plan, corpus, tmp_path)
        assert all(row["folds"] == 6 for row in summary)
        assert len(list((tmp_path / "features").iterdir())) == len(corpus["tiny"])

    def test_stored_features_match_recipe_within_float32(self, corpus, tmp_path):
        wav = corpus["tiny"][0].audio_path
        fresh = log_cqt_from_wav(wav)
        stored = read_feature_cache(harness._store(tmp_path / "store", wav))[0]
        (path,) = (tmp_path / "store").glob("*.cbf")
        with open(wav, "rb") as fh:
            key = hashlib.blake2b(fh.read(), digest_size=20).hexdigest()
        assert path.stem == key
        assert stored.bin_kind == fresh.bin_kind == "cqt_log"
        assert np.array_equal(stored.values,
                              fresh.values.astype(np.float32).astype(np.float64))
        assert np.allclose(stored.values, fresh.values, rtol=2.0 ** -24, atol=0)
        again = read_feature_cache(harness._store(tmp_path / "store", wav))[0]
        assert np.array_equal(again.values, stored.values)
        assert np.array_equal(read_feature_cache(path)[0].values, stored.values)


def corrupt_label(entry):
    """Make row 3 of ``entry``'s ``.lab`` file malformed."""
    with open(entry.label_path) as fh:
        rows = fh.read().splitlines()
    rows.insert(2, "oops not a row")
    with open(entry.label_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def worker_that_exits_3(job, results):
    """A ``workers._worker`` that exits at once with code 3."""
    os._exit(3)


@needs_workers
class TestFoldWorkers:
    LABELER = replace(TestFeatureStore.LABELER, model_params={
        **TestFeatureStore.LABELER.model_params, "max_epochs": 2,
        "patience": 2})

    def test_workers_write_the_bytes_of_in_process_folds(
            self, corpus, tmp_path, monkeypatch, started):
        plan = make_folds(corpus["tiny"], seed=0)
        use_cpus(monkeypatch, 2)
        parallel = run_experiment(self.LABELER, plan, corpus, tmp_path / "a")
        assert len(started) == 2
        use_cpus(monkeypatch, 1)
        serial = run_experiment(self.LABELER, plan, corpus, tmp_path / "b")
        assert len(started) == 2  # one usable CPU: no worker
        assert parallel == serial
        in_workers = fold_scores(tmp_path / "a")
        assert len(in_workers) == 6
        assert in_workers == fold_scores(tmp_path / "b")
        # A forked worker holds the parent's warning filters, so a warning
        # under the "error" filter fails the fold that warns.
        use_cpus(monkeypatch, 2)
        run_fold = harness._run_fold

        def warning_fold(config, job):
            if job[0] == 3:
                warnings.warn("fold 3 warns")
            return run_fold(config, job)

        monkeypatch.setattr(harness, "_run_fold", warning_fold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FoldError, match=re.escape(
                    "experiment 1, fold 3: fold 3 warns")):
                run_experiment(self.LABELER, plan, corpus, tmp_path / "c")
        assert len(started) == 4
        assert len(fold_scores(tmp_path / "c")) == 3
        assert no_child_left()

    def test_features_are_computed_in_the_parent(self, corpus, tmp_path,
                                                 monkeypatch, started):
        use_cpus(monkeypatch, 2)
        seen = count_cqt_inputs(monkeypatch)
        plan = make_folds(corpus["tiny"], seed=0)
        run_experiment(self.LABELER, plan, corpus, tmp_path)
        assert len(started) == 2
        assert len(seen) == len(set(seen)) == len(corpus["tiny"])
        assert len(list((tmp_path / "features").glob("*.cbf"))) == len(seen)
        assert no_child_left()
        run_experiment(TestFeatureStore.TEMPLATE, plan, corpus, tmp_path)
        assert len(started) == 2  # template folds run in-process
        assert len(seen) == len(corpus["tiny"])

    def test_failed_fold_in_a_worker_ends_the_run(self, own_corpus, tmp_path,
                                                  monkeypatch, started):
        use_cpus(monkeypatch, 2)
        entry = own_corpus["tiny"][1]
        corrupt_label(entry)
        plan = make_folds(own_corpus["tiny"], seed=0)
        out = tmp_path / "out"
        # Every fold reads the label: fold 0 fails first, in a worker.
        with pytest.raises(FoldError, match=re.escape(
                f"experiment 1, fold 0: {entry.label_path}:3: bad time field")):
            run_experiment(self.LABELER, plan, own_corpus, out)
        assert len(started) == 2
        assert fold_scores(out) == {}
        assert no_child_left()

    def test_worker_that_dies_names_its_fold_and_exit_code(
            self, corpus, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(workers, "_worker", worker_that_exits_3)
        plan = make_folds(corpus["tiny"], seed=0)
        with pytest.raises(FoldError, match=re.escape(
                "experiment 1, fold 0: worker process exited with code 3 "
                "before returning the fold")):
            run_experiment(self.LABELER, plan, corpus, tmp_path)
        assert fold_scores(tmp_path) == {}
        assert no_child_left()

    # Runs one labeler experiment on two workers and prints the page faults
    # of its waited-for workers.
    FAULTS = """
import os, resource, sys
os.sched_getaffinity = lambda pid: {0, 1}
from chordbench import harness
data_root, name, out, exp_id = sys.argv[1:]
corpus = harness.load_corpus(data_root, {name: name})
config = harness.ExperimentConfig(
    id=int(exp_id), train_datasets=(name,), model="labeler",
    eval_datasets=(name,), model_params={"max_epochs": 6, "patience": 6})
harness.run_experiment(config, harness.make_folds(corpus[name], seed=0),
                       corpus, out)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)
"""

    def test_workers_on_a_warm_store_fault_as_on_a_cold_one(self, tiny_dataset,
                                                           tmp_path):
        # Each run is a fresh interpreter.  The first fills the store, and
        # freeing the CQT's large buffers raises glibc's dynamic mmap
        # threshold that its forked workers inherit; the second only reads
        # the store, and its workers would map and unmap every large
        # training temporary anew.
        data_dir, _ = tiny_dataset
        src_dir = os.path.dirname(os.path.dirname(harness.__file__))
        faults = []
        for exp_id in (1, 2):
            proc = subprocess.run(
                [sys.executable, "-c", self.FAULTS, str(data_dir.parent),
                 data_dir.name, str(tmp_path), str(exp_id)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src_dir})
            assert proc.returncode == 0, proc.stderr
            faults.append(int(proc.stdout))
        cold, warm = faults
        assert warm / cold < 2, faults


class TestReport:
    def rows(self):
        return [
            {"experiment": 0, "dataset": "a", "metric": "root",
             "mean": 91.2345, "std": 1.5, "folds": 6},
            {"experiment": 0, "dataset": "a", "metric": "ccm",
             "mean": 95.0, "std": 0.5, "folds": 6},
            {"experiment": 1, "dataset": "a", "metric": "root",
             "mean": 93.5, "std": 2.0, "folds": 6},
            {"experiment": 1, "dataset": "a", "metric": "ccm",
             "mean": 94.0, "std": 0.25, "folds": 6},
        ]

    def test_csv_round_trip_exact(self, tmp_path):
        p = tmp_path / "summary.csv"
        emit_report(self.rows(), p, tmp_path / "summary.txt")
        with open(p, newline="") as fh:
            rows = [{**row, "experiment": int(row["experiment"]),
                     "mean": float(row["mean"]), "std": float(row["std"]),
                     "folds": int(row["folds"])} for row in csv.DictReader(fh)]
        assert rows == self.rows()

    def test_one_marked_cell_per_column(self, tmp_path):
        csv_p = tmp_path / "summary.csv"
        txt_p = tmp_path / "summary.txt"
        emit_report(self.rows(), csv_p, txt_p)
        text = txt_p.read_text()
        assert text.count("*") == 2
        lines = text.splitlines()
        assert "a/root" in lines[0] and "a/ccm" in lines[0]
        assert "93.50 ± 2.00*" in text   # experiment 1 wins root
        assert "95.00 ± 0.50*" in text   # experiment 0 wins ccm

    def test_empty_error(self, tmp_path):
        with pytest.raises(HarnessError):
            emit_report([], tmp_path / "x.csv", tmp_path / "x.txt")


class TestExperimentsConfig:
    def test_default_matrix_loads(self):
        datasets, experiments = load_experiments(EXAMPLE_MATRIX)
        assert set(datasets) == {"synthA", "synthB"}
        assert [e.id for e in experiments] == [0, 1, 2, 3]
        assert experiments[0].model == "template"
        assert experiments[3].balance
        assert experiments[3].train_datasets == ("synthA", "synthB")

    @pytest.mark.parametrize("key", ["id", "model", "eval_datasets"])
    def test_missing_key_names_file_and_index(self, tmp_path, key):
        import json
        matrix = example_matrix()
        del matrix["experiments"][2][key]
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps(matrix))
        with pytest.raises(HarnessError, match=re.escape(
                f"{p}: experiments[2]: missing key {key!r}")):
            load_experiments(p)

    @pytest.mark.parametrize("key, value, reason", [
        pytest.param("eval_datasets", "synthA", "experiment 2: eval_datasets "
                     "must be a list of dataset names, got 'synthA'",
                     id="eval_datasets-synthA"),
        pytest.param("eval_datasets", ["synthA", "synthC"], "eval_datasets "
                     "must be a list of names in datasets ['synthA', "
                     "'synthB'], got ['synthA', 'synthC']",
                     id="eval_datasets-value1"),
        pytest.param("train_datasets", "synthB", "experiment 2: "
                     "train_datasets must be a list of dataset names, got "
                     "'synthB'", id="train_datasets-synthB"),
        pytest.param("train_datasets", [1], "experiment 2: train_datasets "
                     "must be a list of dataset names, got [1]",
                     id="train_datasets-value3"),
        pytest.param("train_datasets", {"synthB": 1}, "experiment 2: "
                     "train_datasets must be a list of dataset names, got "
                     "{'synthB': 1}", id="train_datasets-value4"),
    ])
    def test_dataset_lists_must_name_datasets(self, tmp_path, key, value,
                                              reason):
        import json
        matrix = example_matrix()
        matrix["experiments"][2][key] = value
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps(matrix))
        with pytest.raises(HarnessError, match=re.escape(
                f"{p}: experiments[2]: {reason}")):
            load_experiments(p)

    @pytest.mark.parametrize("change, reason", [
        ({"id": 1}, "duplicate id 1"),
        pytest.param({"balance": "false"}, "experiment 2: balance must be "
                     "true or false, got 'false'",
                     id="change1-balance must be true or false, got 'false'"),
        pytest.param({"balance": 1}, "experiment 2: balance must be true or "
                     "false, got 1",
                     id="change2-balance must be true or false, got 1"),
        ({"model_param": {"max_epochs": 1}}, "unknown key 'model_param'"),
        ({"balanse": True}, "unknown key 'balanse'"),
    ])
    def test_ambiguous_experiment_is_named(self, tmp_path, change, reason):
        import json
        matrix = example_matrix()
        matrix["experiments"][2].update(change)
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps(matrix))
        with pytest.raises(HarnessError, match=re.escape(
                f"{p}: experiments[2]: {reason}")):
            load_experiments(p)

    def test_file_and_code_build_the_same_experiments(self, tmp_path):
        import json
        matrix = example_matrix()
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps(matrix))
        assert load_experiments(p) == (
            matrix["datasets"],
            [ExperimentConfig(**item) for item in matrix["experiments"]])

    # Each bad experiment fails in ExperimentConfig, with one reason whether
    # it is built in code or read from a file, which only adds its prefix.
    @pytest.mark.parametrize("index, change, reason", [
        (2, {"seed": 7.9}, "experiment 2: seed must be a non-negative "
                           "integer, got 7.9"),
        (2, {"seed": -1}, "experiment 2: seed must be a non-negative "
                          "integer, got -1"),
        (2, {"seed": True}, "experiment 2: seed must be a non-negative "
                            "integer, got True"),
        (2, {"id": 1.5}, "experiment 1.5: id must be an integer, got 1.5"),
        (2, {"id": True}, "experiment True: id must be an integer, got True"),
        (2, {"id": "2"}, "experiment 2: id must be an integer, got '2'"),
        (2, {"model": "hmm"}, "experiment 2: unknown model 'hmm'"),
        (2, {"model": "template"},
         "experiment 2: model 'template' takes no train_datasets"),
        (0, {"model": "labeler"},
         "experiment 0: model 'labeler' needs train_datasets"),
        (2, {"balance": True},
         "experiment 2: balance needs two or more train_datasets"),
        (3, {"balance": "false"},
         "experiment 3: balance must be true or false, got 'false'"),
        (2, {"eval_datasets": []},
         "experiment 2: eval_datasets must not be empty"),
        (2, {"eval_datasets": "synthA"}, "experiment 2: eval_datasets must "
                                         "be a list of dataset names, got "
                                         "'synthA'"),
        (2, {"model_params": {"max_epochs": 0}},
         "experiment 2: model_params key 'max_epochs' must be at least 1, "
         "got 0"),
        (2, {"model_params": {"batch_size": 0}},
         "experiment 2: model_params key 'batch_size' must be at least 1, "
         "got 0"),
        (2, {"model_params": {"lr": -1.0}},
         "experiment 2: model_params key 'lr' must be above 0, got -1.0"),
        (2, {"model_params": {"patience": -1}},
         "experiment 2: model_params key 'patience' must be at least 0, "
         "got -1"),
        (2, {"model_params": {"model_dim": 8, "n_heads": 3}},
         "experiment 2: model_dim 8 is not divisible by n_heads 3"),
        (2, {"model_params": {"model_dim": 30}},
         "experiment 2: model_dim 30 is not divisible by n_heads 4"),
        (0, {"model_params": {"dropout": "x"}},
         "experiment 0: model 'template' takes no model_params"),
    ])
    def test_file_adds_only_its_prefix(self, tmp_path, index, change, reason):
        import json
        matrix = example_matrix()
        matrix["experiments"][index].update(change)
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps(matrix))
        with pytest.raises(HarnessError) as in_code:
            ExperimentConfig(**matrix["experiments"][index])
        with pytest.raises(HarnessError) as in_file:
            load_experiments(p)
        assert str(in_code.value) == reason
        assert str(in_file.value) == f"{p}: experiments[{index}]: {reason}"

    def test_datasets_must_be_an_object(self, tmp_path):
        import json
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps({"datasets": ["synthA"], "experiments": []}))
        with pytest.raises(HarnessError, match=re.escape(
                f"{p}: datasets: not a JSON object")):
            load_experiments(p)

    def test_dataset_directories_must_be_strings(self, tmp_path):
        import json
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps({"datasets": {"A": 3}, "experiments": []}))
        with pytest.raises(HarnessError, match=re.escape(
                f"{p}: datasets: A: not a JSON string")):
            load_experiments(p)

    def test_file_that_is_not_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "experiments.json"
        p.write_bytes(b'{"datasets": {},\n "experiments": [{"id": "\xc8"}]}')
        with pytest.raises(AnnotationError, match=re.escape(
                f"{p}:2: not UTF-8 text: invalid continuation byte "
                "(byte 0xc8)")):
            load_experiments(p)

    @pytest.mark.parametrize("index, change, reason", [
        pytest.param(3, {"balance": False, "balance_quota": 2},
                     "balance_quota needs balance: true", id="3-change0"),
        pytest.param(2, {"balance_quota": 2},
                     "balance_quota needs balance: true", id="2-change1"),
        pytest.param(2, {"balance": True, "balance_quota": 2},
                     "balance needs two or more train_datasets",
                     id="2-change2"),
    ])
    def test_quota_without_effect_is_an_error(self, tmp_path, index, change,
                                              reason):
        import json
        matrix = example_matrix()
        matrix["experiments"][index].update(change)
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps(matrix))
        with pytest.raises(HarnessError, match=re.escape(
                f"experiment {index}: {reason}")):
            load_experiments(p)

    @pytest.mark.parametrize("text, reason", [
        ('{"experiments": [', "not JSON: Expecting value: line 1 column 18"),
        ("[]", "not a JSON object"),
        ('{"experiments": [], "experiment": []}', "unknown key 'experiment'"),
        ('{"experiments": [7]}', "experiments[0]: not a JSON object"),
        ('{"experiments": 5}', "experiments: not a JSON list"),
        ('{"experiments": {"id": 1}}', "experiments: not a JSON list"),
        ('{"experiments": [{"id": "x", "model": "template", '
         '"eval_datasets": []}]}',
         "experiments[0]: experiment x: id must be an integer, got 'x'"),
    ])
    def test_malformed_file_is_named(self, tmp_path, text, reason):
        p = tmp_path / "experiments.json"
        p.write_text(text)
        with pytest.raises(HarnessError, match=re.escape(f"{p}: {reason}")):
            load_experiments(p)


class TestLoadCorpus:
    @pytest.mark.parametrize("line, reason", [
        ('{"id": "x"}', "missing key 'path'"),
        ('{"path": "x.wav"}', "missing key 'id'"),
        ('{"id": "x", "path": ', "not JSON: Expecting value"),
        ('["x.wav"]', "not a JSON object"),
    ])
    def test_bad_manifest_line_names_file_and_line(self, tmp_path, line, reason):
        manifest = tmp_path / "d" / "manifest.jsonl"
        manifest.parent.mkdir()
        manifest.write_text('{"id": "a", "path": "a.wav"}\n\n' + line + "\n")
        with pytest.raises(SynthError, match=re.escape(f"{manifest}:3: {reason}")):
            load_corpus(tmp_path, {"d": "d"})

    def test_manifest_that_is_not_utf8_names_file_and_line(self, tmp_path):
        manifest = tmp_path / "d" / "manifest.jsonl"
        manifest.parent.mkdir()
        manifest.write_bytes(b'{"id": "a", "path": "a.wav"}\n'
                             b'{"id": "\xc8", "path": "b.wav"}\n')
        with pytest.raises(AnnotationError, match=re.escape(
                f"{manifest}:2: not UTF-8 text: invalid continuation byte "
                "(byte 0xc8)")):
            load_corpus(tmp_path, {"d": "d"})
