import csv
import hashlib
import os
import re
import shutil

import numpy as np
import pytest

from chordbench import features, harness
from chordbench.annotations import normalize, read_lab
from chordbench.features import (load_wav, log_cqt_from_wav,
                                 read_feature_cache, save_wav)
from chordbench.harness import (ExperimentConfig, HarnessError,
                                SongEntry, balance_datasets,
                                default_experiments, emit_report,
                                load_corpus, load_experiments, make_folds,
                                read_summary_csv, run_experiment,
                                stored_log_cqt)
from chordbench.synth import SynthError


def songs_with_performances(n_songs, n_perf=2, dataset="d"):
    return [SongEntry(song_id=f"song{i:03d}", performance_id=f"p{j}",
                      dataset=dataset)
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
        return [SongEntry(song_id=f"{dataset}{i:05d}", dataset=dataset)
                for i in range(n)]

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

    def __call__(self, config, store_dir, train_entries, seed):
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

    def test_perfect_predictor_scores_100(self, corpus, tmp_path):
        plan = make_folds(corpus["tiny"], seed=0)
        summary = run_experiment(self.config(), plan, corpus, tmp_path,
                                 fit=EchoFit(corpus))
        for row in summary:
            assert row["mean"] == pytest.approx(100.0)
            assert row["std"] == pytest.approx(0.0)

    def test_resumable_skips_completed_folds(self, corpus, tmp_path):
        plan = make_folds(corpus["tiny"], seed=0)
        fit = EchoFit(corpus)
        first = run_experiment(self.config(), plan, corpus, tmp_path, fit=fit)
        assert fit.fit_calls == 6
        second = run_experiment(self.config(), plan, corpus, tmp_path, fit=fit)
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
        with pytest.raises(OSError, match="disk full"):
            run_experiment(self.config(), plan, corpus, tmp_path,
                           fit=EchoFit(corpus))
        assert not (tmp_path / "exp_0" / "fold_0" / "scores.csv").exists()
        monkeypatch.undo()
        fit = EchoFit(corpus)
        summary = run_experiment(self.config(), plan, corpus, tmp_path,
                                 fit=fit)
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

    @pytest.fixture()
    def own_corpus(self, tiny_dataset, tmp_path):
        """A private copy of the tiny dataset, safe to modify."""
        data_dir, _ = tiny_dataset
        shutil.copytree(data_dir, tmp_path / "data" / "tiny")
        return load_corpus(tmp_path / "data", {"tiny": "tiny"})

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
        hashed = []
        real_key = harness._wav_key

        def counting_key(audio_path):
            hashed.append(audio_path)
            return real_key(audio_path)

        monkeypatch.setattr(harness, "_wav_key", counting_key)
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

    def test_changed_wav_recomputes_only_that_track(self, own_corpus, tmp_path,
                                                    monkeypatch):
        entries = own_corpus["tiny"]
        plan = make_folds(entries, seed=0)
        out = tmp_path / "out"
        run_experiment(self.TEMPLATE, plan, own_corpus, out)
        audio = load_wav(entries[0].audio_path)
        save_wav(entries[0].audio_path,
                 features.AudioBuffer(0.5 * audio.samples, audio.sample_rate_hz))
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
        stored = stored_log_cqt(tmp_path / "store", wav)
        (path,) = (tmp_path / "store").glob("*.cbf")
        with open(wav, "rb") as fh:
            key = hashlib.blake2b(fh.read(), digest_size=20).hexdigest()
        assert path.stem == key
        assert (stored.bin_kind, stored.hop_samples, stored.sample_rate_hz) == (
            "cqt_log", fresh.hop_samples, fresh.sample_rate_hz)
        assert np.array_equal(stored.values,
                              fresh.values.astype(np.float32).astype(np.float64))
        assert np.allclose(stored.values, fresh.values, rtol=2.0 ** -24, atol=0)
        again = stored_log_cqt(tmp_path / "store", wav)
        assert np.array_equal(again.values, stored.values)
        assert np.array_equal(read_feature_cache(path)[0].values, stored.values)


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
        assert read_summary_csv(p) == self.rows()

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
    def test_default_matrix_loads(self, tmp_path):
        import json
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps(default_experiments()))
        datasets, experiments = load_experiments(p)
        assert set(datasets) == {"synthA", "synthB"}
        assert [e.id for e in experiments] == [0, 1, 2, 3]
        assert experiments[0].model == "template"
        assert experiments[3].balance
        assert experiments[3].train_datasets == ("synthA", "synthB")

    @pytest.mark.parametrize("key", ["id", "model", "eval_datasets"])
    def test_missing_key_names_file_and_index(self, tmp_path, key):
        import json
        matrix = default_experiments()
        del matrix["experiments"][2][key]
        p = tmp_path / "experiments.json"
        p.write_text(json.dumps(matrix))
        with pytest.raises(HarnessError, match=re.escape(
                f"{p}: experiments[2]: missing key {key!r}")):
            load_experiments(p)

    @pytest.mark.parametrize("text, reason", [
        ('{"experiments": [', "not JSON: Expecting value: line 1 column 18"),
        ("[]", "not a JSON object"),
        ('{"experiments": [7]}', "experiments[0]: not a JSON object"),
        ('{"experiments": [{"id": "x", "model": "template", '
         '"eval_datasets": []}]}',
         "experiments[0]: invalid literal for int() with base 10: 'x'"),
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
