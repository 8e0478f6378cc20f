import csv
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

import chordbench
from chordbench.annotations import read_lab
from chordbench.checkpoint import load_checkpoint, save_checkpoint
from chordbench.cli import main
from chordbench.features import (CACHE_MAGIC, HOP, N_BINS, SAMPLE_RATE,
                                 FeatureMatrix, NormStats, pitch_shift_cqt,
                                 read_feature_cache, write_feature_cache)
from chordbench import harness, workers
from chordbench.harness import ExperimentConfig, load_corpus, run_experiment
from chordbench.labeler import LabelerConfig, TrainedLabeler, init_params
from chordbench.labels import NOCHORD_CLASS, transpose_majmin
from chordbench.metrics import evaluate_pair
from chordbench.stats import read_histogram_csv, read_transitions_csv
from chordbench.synth import SynthSpec, default_pop_model, emit_dataset
from conftest import needs_workers, no_child_left, use_cpus

ARFF = """\
@relation chords
@attribute onset numeric
@attribute offset numeric
@attribute chord string
@data
0.0,1.2,'C:maj'
1.2,2.0,'BASS NOTE EXCEPTION'
"""


def run(*argv):
    return main(list(argv))


class TestConvert:
    def test_arff_to_lab(self, tmp_path):
        src = tmp_path / "a.arff"
        src.write_text(ARFF)
        out = tmp_path / "a.lab"
        assert run("convert", "--from", "arff",
                   "--in", str(src), "--out", str(out)) == 0
        track = read_lab(out)
        assert len(track) == 2
        assert track.segments[1].label.is_nochord

    def test_csv_to_lab(self, tmp_path):
        src = tmp_path / "w.csv"
        src.write_text("start;end;shorthand;majmin\n0;1;C:maj7;C:maj\n")
        out = tmp_path / "w.lab"
        assert run("convert", "--from", "csv", "--in", str(src),
                   "--out", str(out), "--notation", "majmin") == 0
        assert str(read_lab(out).segments[0].label) == "C:maj"

    def test_error_is_reported(self, tmp_path, capsys):
        src = tmp_path / "bad.lab"
        src.write_text("0.0 1.0 H:maj\n")
        assert run("convert", "--from", "lab",
                   "--in", str(src), "--out", str(tmp_path / "o.lab")) == 1
        assert "error:" in capsys.readouterr().err


class TestEvalAndStats:
    def make_dirs(self, tmp_path):
        ref = tmp_path / "ref"
        pred = tmp_path / "pred"
        ref.mkdir()
        pred.mkdir()
        (ref / "s1.lab").write_text("0.0 2.0 C:maj\n2.0 4.0 G:maj\n")
        (pred / "s1.lab").write_text("0.0 1.0 C:maj\n1.0 4.0 G:maj\n")
        return ref, pred

    def test_eval_writes_scores(self, tmp_path):
        ref, pred = self.make_dirs(tmp_path)
        out = tmp_path / "scores.csv"
        assert run("eval", "--ref", str(ref), "--pred", str(pred),
                   "--metrics", "root,majmin,mirex,ccm", "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        majmin = next(r for r in rows if r["metric"] == "majmin")
        assert float(majmin["score"]) == pytest.approx(0.75)
        assert float(majmin["duration_s"]) == pytest.approx(4.0)

    def test_eval_names_an_empty_reference(self, tmp_path, capsys):
        ref, pred = self.make_dirs(tmp_path)
        (ref / "s1.lab").write_text("")
        assert run("eval", "--ref", str(ref), "--pred", str(pred),
                   "--metrics", "majmin", "--out",
                   str(tmp_path / "scores.csv")) == 1
        assert capsys.readouterr().err == (
            f"error: {ref / 's1.lab'}: empty reference track\n")

    def test_eval_without_reference_files_fails(self, tmp_path):
        _, pred = self.make_dirs(tmp_path)
        ref = tmp_path / "empty"
        ref.mkdir()
        out = tmp_path / "scores.csv"
        with pytest.raises(SystemExit) as caught:
            run("eval", "--ref", str(ref), "--pred", str(pred),
                "--out", str(out))
        assert str(caught.value) == f"no .lab files in {ref}"
        assert not out.exists()

    @pytest.mark.parametrize("names", [",", "", " , "])
    def test_eval_without_a_metric_fails(self, tmp_path, names):
        ref, pred = self.make_dirs(tmp_path)
        out = tmp_path / "scores.csv"
        with pytest.raises(SystemExit) as caught:
            run("eval", "--ref", str(ref), "--pred", str(pred),
                "--metrics", names, "--out", str(out))
        assert str(caught.value) == f"--metrics {names!r} names no metric"
        assert not out.exists()

    def test_stats_outputs(self, tmp_path):
        ref, _ = self.make_dirs(tmp_path)
        occ = tmp_path / "occ.csv"
        trans = tmp_path / "trans.csv"
        assert run("stats", "--in", str(ref), "--occurrences", str(occ),
                   "--transitions", str(trans)) == 0
        counts = read_histogram_csv(occ)
        assert counts[0] == 1 and counts[7] == 1
        matrix = read_transitions_csv(trans)
        assert matrix[0, 7] == 1

    def test_stats_without_an_output_fails(self, tmp_path):
        ref, _ = self.make_dirs(tmp_path)
        with pytest.raises(SystemExit) as caught:
            run("stats", "--in", str(ref))
        assert str(caught.value) == (
            "stats writes nothing without --occurrences or --transitions; "
            "give one or both")


class TestSynthCli:
    def test_generates_dataset(self, tmp_path):
        out = tmp_path / "data"
        assert run("synth", "--n", "2", "--len", "10", "--seed", "3",
                   "--out", str(out)) == 0
        assert (out / "manifest.jsonl").exists()
        assert len(list(out.glob("*.wav"))) == 2
        assert len(list(out.glob("*.lab"))) == 2

    def test_model_from_csv(self, tmp_path):
        from chordbench.stats import export_transitions_csv
        counts = np.zeros((25, 25), dtype=int)
        counts[0, 7] = 10
        counts[7, 0] = 10
        model_csv = tmp_path / "trans.csv"
        export_transitions_csv(counts, model_csv)
        out = tmp_path / "data"
        assert run("synth", "--n", "1", "--len", "10", "--seed", "1",
                   "--out", str(out), "--model", str(model_csv)) == 0
        assert (out / "synth_0000.wav").exists()


TRANSITIONS = "from\\to,C:maj,G:maj\nC:maj,0,3\nG:maj,2,0\n"


@pytest.mark.parametrize("transitions, histogram, message", [
    ("from\\to,C:maj,X:maj\nC:maj,0,3\n", None,
     "{t}:1: unknown class 'X:maj'"),
    ("from\\to,C:maj,G:maj\nC:maj,0,3\nH:min,2,0\n", None,
     "{t}:3: unknown class 'H:min'"),
    ("from\\to,C:maj,G:maj\nC:maj,0,1.5\n", None,
     "{t}:2: count '1.5' is not a non-negative integer"),
    ("from\\to,C:maj,G:maj\nC:maj,0\n", None,
     "{t}:2: 2 cells, the header has 3"),
    ("class,C:maj,G:maj\nC:maj,0,3\n", None,
     "{t}: unexpected transitions header ['class', 'C:maj', 'G:maj']"),
    (TRANSITIONS, "class,count\nC:maj,4\nX:maj,1\n",
     "{h}:3: unknown class 'X:maj'"),
    (TRANSITIONS, "class,count\nC:maj,x\n",
     "{h}:2: count 'x' is not a non-negative integer"),
    (TRANSITIONS, "class,count\nC:maj,-1\n",
     "{h}:2: count '-1' is not a non-negative integer"),
    (TRANSITIONS, "class,count\nC:maj\n",
     "{h}:2: expected a class and a count, got ['C:maj']"),
    ("from\\to,C:maj,G:maj\nC:maj,0,3\nG:maj,\xff,0\n", None,
     "{t}:3: not UTF-8 text: invalid start byte (byte 0xff)"),
    (TRANSITIONS, "class,count\nC:maj,4\nG:maj,\xff\n",
     "{h}:3: not UTF-8 text: invalid start byte (byte 0xff)"),
    ("from\\to,C:maj,G:maj\nC:maj,0,0\nG:maj,0,0\n", None,
     "{t}: all-zero transition matrix"),
], ids=["header-class", "row-class", "float-count", "short-row", "header",
        "hist-class", "hist-text-count", "hist-negative-count",
        "hist-no-count", "not-utf8", "hist-not-utf8", "all-zero"])
def test_synth_names_malformed_stats_csv(tmp_path, capsys, transitions,
                                         histogram, message):
    # Latin-1 writes "\xff" as the single byte 0xff, which is not UTF-8.
    t, h = tmp_path / "t.csv", tmp_path / "h.csv"
    t.write_text(transitions, encoding="latin-1")
    argv = ["synth", "--n", "1", "--len", "10", "--model", str(t),
            "--out", str(tmp_path / "data")]
    if histogram is not None:
        h.write_text(histogram, encoding="latin-1")
        argv += ["--hist", str(h)]
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {message.format(t=t, h=h)}\n")
    assert not (tmp_path / "data").exists()


def test_front_ends_import_without_scipy():
    src_dir = os.path.dirname(os.path.dirname(chordbench.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chordbench.cli, chordbench.harness; "
         "assert 'scipy' not in sys.modules"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src_dir})
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory, tiny_dataset):
    data_dir, _entries = tiny_dataset
    cache = tmp_path_factory.mktemp("cache")
    assert run("extract", "--in", str(data_dir), "--labels", str(data_dir),
               "--out", str(cache)) == 0
    return data_dir, cache


class TestExtractTrainPredict:
    def test_extract_caches(self, pipeline_dirs):
        _, cache = pipeline_dirs
        files = sorted(cache.glob("*.cbf"))
        assert len(files) == 6
        matrix, labels = read_feature_cache(files[0])
        assert matrix.bin_kind == "cqt_log"
        assert matrix.n_bins == 144
        assert labels is not None and len(labels) == matrix.n_frames

    def test_extract_with_augmentation(self, tmp_path, tiny_dataset):
        data_dir, entries = tiny_dataset
        single = tmp_path / "one"
        single.mkdir()
        first = entries[0]["id"]
        os.symlink(data_dir / f"{first}.wav", single / f"{first}.wav")
        (single / f"{first}.lab").write_text(
            "0.0 2.0 N\n2.0 5.0 A:min\n5.0 7.5 Bb:7/3\n7.5 9.0 B:hdim7\n")
        out = tmp_path / "cache"
        assert run("extract", "--in", str(single), "--labels", str(single),
                   "--aug=-5..6", "--out", str(out)) == 0
        assert len(list(out.glob("*.cbf"))) == 12
        base, base_labels = read_feature_cache(out / f"{first}.shift+0.cbf")
        assert {NOCHORD_CLASS, 12 + 9, 10, 12 + 11} == set(base_labels)
        for k in range(-5, 7):
            shifted, labels = read_feature_cache(out / f"{first}.shift{k:+d}.cbf")
            # The cache stores float32, the vacated bins' LOG_FLOOR included.
            want = pitch_shift_cqt(base, k).values.astype(np.float32)
            assert np.array_equal(shifted.values, want), k
            expected = [transpose_majmin(int(c), k) for c in base_labels]
            assert np.array_equal(labels, expected), k

    @pytest.mark.parametrize("aug", ["abc", "-9..0"])
    def test_extract_rejects_bad_aug_before_extraction(self, tiny_dataset,
                                                       tmp_path, aug):
        data_dir, _ = tiny_dataset
        out = tmp_path / "cache"
        with pytest.raises(SystemExit, match=r"--aug: .* -5 <= LO <= HI <= 6"):
            run("extract", "--in", str(data_dir), "--labels", str(data_dir),
                f"--aug={aug}", "--out", str(out))
        assert not out.exists()

    def test_train_and_predict(self, pipeline_dirs, tmp_path):
        data_dir, cache = pipeline_dirs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model_dim": 16, "n_layers": 1, "n_heads": 2, "lr": 3e-3,
            "batch_size": 8, "max_epochs": 5, "patience": 5, "seed": 0}))
        ckpt = tmp_path / "model.ckpt"
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(ckpt)) == 0
        assert ckpt.exists()
        out = tmp_path / "pred"
        assert run("predict", "--model", str(ckpt), "--in", str(data_dir),
                   "--out", str(out)) == 0
        labs = sorted(out.glob("*.lab"))
        assert len(labs) == 6
        read_lab(labs[0])  # parses cleanly

    def test_predict_matches_harness_labeler(self, pipeline_dirs, tmp_path):
        """A model of the harness recipe, saved and run by ``predict``, writes
        the tracks the harness predictor returns."""
        data_dir, cache = pipeline_dirs
        corpus = load_corpus(os.path.dirname(data_dir),
                             {"tiny": os.path.basename(data_dir)})["tiny"]
        store = str(tmp_path / "features")
        config = ExperimentConfig(
            id=0, train_datasets=("tiny",), model="labeler",
            eval_datasets=("tiny",),
            model_params={"model_dim": 16, "n_heads": 2, "max_epochs": 10,
                          "patience": 10})
        train = [(harness._store(store, e.audio_path), e.label_path)
                 for e in corpus[:4]]
        recognize = harness.fit(config, train, 3)
        save_checkpoint(tmp_path / "model.ckpt", recognize.__self__)
        out = tmp_path / "pred"
        assert run("predict", "--model", str(tmp_path / "model.ckpt"),
                   "--in", str(cache), "--out", str(out)) == 0
        labels = set()
        for entry in corpus:
            stem = os.path.splitext(os.path.basename(entry.audio_path))[0]
            written = read_lab(out / f"{stem}.lab")
            stored = harness._store(store, entry.audio_path)
            expected = recognize(read_feature_cache(stored)[0], entry.song_id)
            assert [(s.start_s, s.end_s, s.label) for s in written] == [
                (float(f"{s.start_s:.6f}"), float(f"{s.end_s:.6f}"), s.label)
                for s in expected]
            labels.update(s.label for s in expected)
        assert len(labels) > 2  # the model tells chords apart

    def test_predict_rejects_another_feature_kind(self, tmp_path, capsys):
        config = LabelerConfig(input_dim=144, model_dim=8, n_layers=1,
                               n_heads=2, seed=0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, TrainedLabeler(
            config, init_params(config), NormStats(0.0, 1.0), "cqt_log"))
        cache = tmp_path / "cache"
        cache.mkdir()
        write_feature_cache(cache / "a.shift+0.cbf",
                            FeatureMatrix(np.zeros((200, 12)), "chroma12"))
        assert run("predict", "--model", str(ckpt), "--in", str(cache),
                   "--out", str(tmp_path / "pred")) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: model {ckpt} on {cache / 'a.shift+0.cbf'}: model takes "
            "cqt_log (144 bins) features, got chroma12 (12 bins)\n")

    def test_template_predict_names_an_overflowing_frame(self, tmp_path,
                                                         capsys):
        # Finite log-CQT values pass the cache reader, but exp(800) does
        # not fit a float64.
        values = np.zeros((200, N_BINS))
        values[12, 40] = 800.0
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "a.shift+0.cbf"
        write_feature_cache(path, FeatureMatrix(values, "cqt_log"))
        assert run("predict", "--model", "template", "--in", str(cache),
                   "--out", str(tmp_path / "pred")) == 1
        assert capsys.readouterr().err == (
            f"error: model template on {path}: frame 12: log-CQT values up "
            "to 800 are too large for exp\n")
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("val_fraction, monitored", [
        (0.0, "training"), (0.25, "validation")])
    def test_train_names_the_monitored_set(self, tmp_path, capsys,
                                           val_fraction, monitored):
        cache = tmp_path / "cache"
        cache.mkdir()
        rng = np.random.Generator(np.random.PCG64(2))
        write_feature_cache(cache / "a.shift+0.cbf",
                            FeatureMatrix(rng.standard_normal((300, 12)),
                                          "chroma12"),
                            rng.integers(0, 25, 300))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dim": 8, "n_layers": 1, "n_heads": 2,
                                   "max_epochs": 1,
                                   "val_fraction": val_fraction}))
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(tmp_path / "model.ckpt")) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(rf"trained 1 epochs, final loss \d+\.\d{{4}}, "
                            rf"{monitored} accuracy \d\.\d{{3}}", first)

    def test_train_writes_float32_tensors(self, pipeline_dirs, tmp_path):
        _, cache = pipeline_dirs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dim": 8, "n_layers": 1, "n_heads": 2,
                                   "max_epochs": 1}))
        ckpt = tmp_path / "model.ckpt"
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(ckpt)) == 0
        params = load_checkpoint(ckpt).params
        assert {k: v.dtype for k, v in params.items()
                if v.dtype != np.float32} == {}

    def test_train_names_a_config_that_is_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{bad")
        assert run("train", "--config", str(cfg), "--data", str(tmp_path),
                   "--out", str(tmp_path / "model.ckpt")) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: not JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1)\n")

    @pytest.mark.parametrize("rate, n_samples, reason", [
        (44100, 88200, "expected 22050 Hz audio, got 44100 Hz; resample "
                       "before analysis"),
        (22050, 1000, "audio too short for analysis: 1000 samples"),
    ], ids=["sample-rate", "too-short"])
    def test_predict_names_a_wav_it_cannot_analyse(self, tmp_path, capsys,
                                                   rate, n_samples, reason):
        indir = tmp_path / "in"
        indir.mkdir()
        wav = indir / "a.wav"
        wavfile.write(wav, rate, np.zeros(n_samples, dtype=np.int16))
        assert run("predict", "--model", "template", "--in", str(indir),
                   "--out", str(tmp_path / "pred")) == 1
        assert capsys.readouterr().err.startswith(f"error: {wav}: {reason}")

    def test_predict_keeps_shift_in_wav_names(self, tiny_dataset, tmp_path):
        data_dir, entries = tiny_dataset
        indir = tmp_path / "in"
        indir.mkdir()
        wav = data_dir / f"{entries[0]['id']}.wav"
        for name in ("take.shift1.wav", "take.shift2.wav"):
            os.symlink(wav, indir / name)
        out = tmp_path / "pred"
        assert run("predict", "--model", "template", "--in", str(indir),
                   "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "take.shift1.lab", "take.shift2.lab"]

    def test_train_rejects_unknown_config_key(self, pipeline_dirs, tmp_path,
                                              capsys):
        _, cache = pipeline_dirs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dim": 8, "n_layers": 1, "n_heads": 2,
                                   "max_epoch": 1}))
        ckpt = tmp_path / "model.ckpt"
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(ckpt)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: unknown key 'max_epoch'\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("config, message", [
        ({"val_fraction": "0.1"}, "key 'val_fraction' must be a number, got '0.1'"),
        ({"max_epochs": "1"}, "key 'max_epochs' must be an integer, got '1'"),
        ({"lr": True}, "key 'lr' must be a number, got True"),
        ({"batch_size": True}, "key 'batch_size' must be an integer, got True"),
        ({"n_layers": 1.0}, "key 'n_layers' must be an integer, got 1.0"),
        ([], "expected a JSON object of keys, got []"),
        ({"max_epochs": 0}, "key 'max_epochs' must be at least 1, got 0"),
        ({"batch_size": 0}, "key 'batch_size' must be at least 1, got 0"),
        ({"lr": -1.0}, "key 'lr' must be above 0, got -1.0"),
        ({"patience": -1}, "key 'patience' must be at least 0, got -1"),
        ({"seed": -1}, "key 'seed' must be at least 0, got -1"),
        ({"val_fraction": 1.0},
         "key 'val_fraction' must be at least 0 and below 1, got 1.0"),
        ({"model_dim": 8, "n_heads": 3},
         "model_dim 8 is not divisible by n_heads 3"),
    ], ids=["val_fraction-str", "max_epochs-str", "lr-bool", "batch_size-bool",
            "n_layers-float", "list", "max_epochs-0", "batch_size-0",
            "lr-negative", "patience-negative", "seed-negative",
            "val_fraction-1", "model_dim-n_heads"])
    def test_train_rejects_config_value_of_wrong_type(
            self, pipeline_dirs, tmp_path, capsys, config, message):
        _, cache = pipeline_dirs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        ckpt = tmp_path / "model.ckpt"
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(ckpt)) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize("tensor, shape", [("classifier.b", None),
                                               ("classifier.w", (8, 24))])
    def test_predict_rejects_checkpoint_with_wrong_tensors(
            self, pipeline_dirs, tmp_path, capsys, tensor, shape):
        """A checkpoint whose last tensors were written without
        ``classifier.b``, or with ``classifier.w`` of another shape."""
        _, cache = pipeline_dirs
        config = LabelerConfig(input_dim=144, model_dim=8, n_layers=1,
                               n_heads=2, seed=0)
        params = init_params(config)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, TrainedLabeler(config, params, NormStats(0.0, 1.0),
                                             "cqt_log"))
        w, b = params["classifier.w"].tobytes(), params["classifier.b"].tobytes()
        wrong = w if shape is None else np.zeros(shape, "<f4").tobytes() + b
        data = ckpt.read_bytes()
        assert data.endswith(w + b)  # the last two tensors written
        ckpt.write_bytes(data[:-len(w + b)] + wrong)
        need = 4 * sum(v.size for v in params.values())
        have = need - len(w + b) + len(wrong)
        assert run("predict", "--model", str(ckpt), "--in", str(cache),
                   "--out", str(tmp_path / "pred")) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: tensor block holds {have} bytes, config needs "
            f"{need}\n")

    def test_predict_rejects_checkpoint_with_zero_std(self, pipeline_dirs,
                                                      tmp_path, capsys):
        _, cache = pipeline_dirs
        config = LabelerConfig(input_dim=144, model_dim=8, n_layers=1,
                               n_heads=2, seed=0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, TrainedLabeler(config, init_params(config),
                                             NormStats(0.0, 1.0), "cqt_log"))
        data = ckpt.read_bytes()
        assert data.count(b'"std": 1.0') == 1
        ckpt.write_bytes(data.replace(b'"std": 1.0', b'"std": 0.0'))
        assert run("predict", "--model", str(ckpt), "--in", str(cache),
                   "--out", str(tmp_path / "pred")) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: extra: std is not above 0: 0.0; z-scoring needs "
            "a non-zero variance\n")
        assert list((tmp_path / "pred").glob("*.lab")) == []

    def test_predict_names_model_and_file_of_non_finite_scores(
            self, pipeline_dirs, tmp_path, capsys):
        # A weight one float32 exponent-bit flip from an ordinary one loads,
        # but its scores overflow: they fail, rather than decode as chords.
        _, cache = pipeline_dirs
        config = LabelerConfig(input_dim=144, model_dim=8, n_layers=1,
                               n_heads=2, seed=0)
        params = init_params(config)
        params["in_proj.w"][0, 0] = 2.4e38
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, TrainedLabeler(config, params,
                                             NormStats(0.0, 1.0), "cqt_log"))
        first = sorted(cache.glob("*.shift+0.cbf"))[0]
        assert run("predict", "--model", str(ckpt), "--in", str(cache),
                   "--out", str(tmp_path / "pred")) == 1
        assert capsys.readouterr().err == (
            f"error: model {ckpt} on {first}: scores of frame 0 are not "
            "finite\n")
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("failure", ["checkpoint", "no-inputs",
                                         "feature-kind"])
    def test_failed_predict_leaves_no_output_directory(
            self, pipeline_dirs, tmp_path, capsys, failure):
        _, cache = pipeline_dirs
        config = LabelerConfig(input_dim=144, model_dim=8, n_layers=1,
                               n_heads=2, seed=0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, TrainedLabeler(
            config, init_params(config), NormStats(0.0, 1.0),
            "chroma12" if failure == "feature-kind" else "cqt_log"))
        if failure == "checkpoint":
            ckpt.write_bytes(ckpt.read_bytes()[:-1])
        if failure == "no-inputs":
            cache = tmp_path / "empty"
            cache.mkdir()
        out = tmp_path / "pred"
        if failure == "no-inputs":
            with pytest.raises(SystemExit, match="no .wav or .shift"):
                run("predict", "--model", str(ckpt), "--in", str(cache),
                    "--out", str(out))
        else:
            assert run("predict", "--model", str(ckpt), "--in", str(cache),
                       "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(ckpt) in err
        assert not out.exists()

    def test_train_names_a_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"model_dim": 8,\n "seed": "\xc8"}')
        ckpt = tmp_path / "model.ckpt"
        assert run("train", "--config", str(cfg), "--data", str(tmp_path),
                   "--out", str(ckpt)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: not UTF-8 text: invalid continuation byte "
            "(byte 0xc8)\n")
        assert not ckpt.exists()

    def test_train_rejects_out_of_range_cache_label(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        values = np.random.Generator(np.random.PCG64(1)).standard_normal((300, 12))
        path = cache / "a.shift+0.cbf"
        write_feature_cache(path, FeatureMatrix(values, "chroma12"),
                            np.zeros(300, dtype=np.int64))
        data = bytearray(path.read_bytes())
        data[-300 + 170] = 200  # frame 170 of the label block
        path.write_bytes(bytes(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dim": 8, "n_layers": 1, "n_heads": 2,
                                   "max_epochs": 1}))
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(tmp_path / "model.ckpt")) == 1
        err = capsys.readouterr().err
        assert "a.shift+0.cbf: frame 170: label 200 is not a class index" in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_train_rejects_truncated_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "a.shift+0.cbf"
        write_feature_cache(path, FeatureMatrix(np.zeros((300, 12)), "chroma12"),
                            np.zeros(300, dtype=np.int64))
        path.write_bytes(path.read_bytes()[:10])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dim": 8, "n_layers": 1, "n_heads": 2,
                                   "max_epochs": 1}))
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(tmp_path / "model.ckpt")) == 1
        assert "a.shift+0.cbf: truncated header" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    # A cache with no values names its file, as every other malformed cache
    # does, rather than scoring or training on nothing.
    @staticmethod
    def _write_empty_cache(path, kind_code, shape, labelled):
        """Write the cache of ``shape`` zeros, labelled with zeros or not,
        that ``write_feature_cache`` would write if ``FeatureMatrix`` took 0
        frames or 0 bins (docs/cache.md)."""
        n_frames, n_bins = shape
        path.write_bytes(CACHE_MAGIC + struct.pack(
            "<BBIIII", kind_code, labelled, HOP, SAMPLE_RATE, n_frames, n_bins)
            + bytes(n_frames if labelled else 0))

    @pytest.mark.parametrize("shape", [(0, N_BINS), (200, 0)],
                             ids=["0-frames", "0-bins"])
    def test_predict_rejects_a_cache_without_values(self, tmp_path, capsys,
                                                    shape):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "a.shift+0.cbf"
        self._write_empty_cache(path, 1, shape, labelled=False)  # cqt_log
        assert run("predict", "--model", "template", "--in", str(cache),
                   "--out", str(tmp_path / "pred")) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {shape[0]} frames of {shape[1]} bins; a feature "
            "cache holds at least 1 of each\n")
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("shape", [(0, 12), (300, 0)],
                             ids=["0-frames", "0-bins"])
    def test_train_rejects_a_cache_without_values(self, tmp_path, capsys,
                                                  shape):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "a.shift+0.cbf"
        self._write_empty_cache(path, 3, shape, labelled=True)  # chroma12
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dim": 8, "n_layers": 1, "n_heads": 2,
                                   "max_epochs": 1}))
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(tmp_path / "model.ckpt")) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {shape[0]} frames of {shape[1]} bins; a feature "
            "cache holds at least 1 of each\n")
        assert not (tmp_path / "model.ckpt").exists()

    def test_train_names_a_cache_of_another_kind(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        rng = np.random.Generator(np.random.PCG64(3))
        for stem, n_bins, kind in [("a", N_BINS, "cqt_log"),
                                   ("b", 12, "chroma12")]:
            values = rng.standard_normal((300, n_bins))
            write_feature_cache(cache / f"{stem}.shift+0.cbf",
                                FeatureMatrix(values, kind),
                                rng.integers(0, 25, 300))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dim": 8, "n_layers": 1, "n_heads": 2,
                                   "max_epochs": 1}))
        assert run("train", "--config", str(cfg), "--data", str(cache),
                   "--out", str(tmp_path / "model.ckpt")) == 1
        assert capsys.readouterr().err == (
            f"error: {cache / 'b.shift+0.cbf'}: model takes cqt_log (144 "
            "bins) features, got chroma12 (12 bins)\n")
        assert not (tmp_path / "model.ckpt").exists()

    def test_template_predict_quality(self, tiny_dataset, tmp_path):
        data_dir, entries = tiny_dataset
        out = tmp_path / "pred"
        assert run("predict", "--model", "template", "--in", str(data_dir),
                   "--out", str(out)) == 0
        scores = []
        for entry in entries:
            ref = read_lab(data_dir / f"{entry['id']}.lab")
            pred = read_lab(out / f"{entry['id']}.lab")
            scores.append(evaluate_pair(ref, pred, ["majmin"])["majmin"].value)
        assert np.mean(scores) > 0.9

    def test_template_predict_matches_harness_runner(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        out = tmp_path / "pred"
        assert run("predict", "--model", "template", "--in", str(data_dir),
                   "--out", str(out)) == 0
        corpus = load_corpus(os.path.dirname(data_dir),
                             {"tiny": os.path.basename(data_dir)})
        store = str(tmp_path / "features")
        config = ExperimentConfig(id=0, train_datasets=(), model="template",
                                  eval_datasets=("tiny",))
        recognize = harness.fit(config, [], 0)
        for entry in corpus["tiny"]:
            stem = os.path.splitext(os.path.basename(entry.audio_path))[0]
            written = read_lab(out / f"{stem}.lab")
            stored = harness._store(store, entry.audio_path)
            expected = recognize(read_feature_cache(stored)[0], entry.song_id)
            assert [(s.start_s, s.end_s, s.label) for s in written] == [
                (float(f"{s.start_s:.6f}"), float(f"{s.end_s:.6f}"), s.label)
                for s in expected]


def _file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestWavWorkers:
    """``extract``, and ``predict`` on WAV files, compute each file's
    log-CQT in up to one forked worker per usable CPU."""

    def n_started(self, n_cpus):
        return 0 if n_cpus < 2 or workers._WORKER_CONTEXT is None else n_cpus

    def test_extract_writes_the_same_bytes_on_one_and_two_cpus(
            self, tiny_dataset, tmp_path, monkeypatch, capsys, started):
        data_dir, _ = tiny_dataset
        written = []
        for n_cpus in (1, 2):
            use_cpus(monkeypatch, n_cpus)
            out = tmp_path / str(n_cpus)
            assert run("extract", "--in", str(data_dir), "--labels",
                       str(data_dir), "--aug=-1..1", "--out", str(out)) == 0
            assert len(started) == self.n_started(n_cpus)
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            written.append((_file_bytes(out), stdout))
        assert len(written[0][0]) == 18
        assert written[0] == written[1]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("failure", ["missing-lab", "too-short-wav"])
    def test_extract_failure_names_its_file(self, tiny_dataset, tmp_path,
                                            monkeypatch, capsys, started,
                                            failure, n_cpus):
        # With two CPUs, b fails in worker 1 while worker 0 computes a and
        # then c; a's cache is written, and nothing after b.
        data_dir, entries = tiny_dataset
        indir = tmp_path / "in"
        indir.mkdir()
        for name, entry in zip("abc", entries):
            os.symlink(data_dir / f"{entry['id']}.wav", indir / f"{name}.wav")
            shutil.copy(data_dir / f"{entry['id']}.lab", indir / f"{name}.lab")
        if failure == "missing-lab":
            (indir / "b.lab").unlink()
            message = ("[Errno 2] No such file or directory: "
                       f"'{indir / 'b.lab'}'")
        else:
            (indir / "b.wav").unlink()
            wavfile.write(indir / "b.wav", 22050, np.zeros(1000, np.int16))
            message = (f"{indir / 'b.wav'}: audio too short for analysis: "
                       "1000 samples")
        use_cpus(monkeypatch, n_cpus)
        out = tmp_path / "cache"
        assert run("extract", "--in", str(indir), "--labels", str(indir),
                   "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "a: 1 shift(s)\n"
        assert captured.err.startswith(f"error: {message}")
        assert sorted(p.name for p in out.iterdir()) == ["a.shift+0.cbf"]
        assert len(started) == self.n_started(n_cpus)
        assert no_child_left()

    def test_predict_from_wavs_writes_the_same_labs_on_one_and_two_cpus(
            self, pipeline_dirs, tmp_path, monkeypatch, started):
        data_dir, _ = pipeline_dirs
        config = LabelerConfig(input_dim=N_BINS, model_dim=8, n_layers=1,
                               n_heads=2, seed=0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, TrainedLabeler(config, init_params(config),
                                             NormStats(-5.0, 3.0), "cqt_log"))
        written = {}
        for model in ("template", str(ckpt)):
            for n_cpus in (1, 2):
                use_cpus(monkeypatch, n_cpus)
                out = tmp_path / f"{len(written)}"
                started.clear()
                assert run("predict", "--model", model, "--in", str(data_dir),
                           "--out", str(out)) == 0
                assert len(started) == self.n_started(n_cpus)
                written[model, n_cpus] = _file_bytes(out)
            assert len(written[model, 1]) == 6
            assert written[model, 1] == written[model, 2]


def _tree_bytes(directory):
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_without_fork_every_map_runs_in_process(tiny_dataset, tmp_path,
                                                monkeypatch, started):
    # Where the platform does not fork, as on macOS and Windows, each caller
    # of workers.ordered_map computes its items in this process, on any
    # number of CPUs, and writes the bytes it writes on one CPU.
    data_dir, _ = tiny_dataset
    corpus = load_corpus(data_dir.parent, {"tiny": data_dir.name})
    plan = harness.make_folds(corpus["tiny"], seed=0)
    config = ExperimentConfig(
        id=1, train_datasets=("tiny",), model="labeler",
        eval_datasets=("tiny",), seed=1, model_params={
            "model_dim": 8, "n_layers": 1, "n_heads": 2, "max_epochs": 1,
            "patience": 1})
    written = []
    for n_cpus in (1, 2):
        if n_cpus == 2:
            monkeypatch.setattr(workers, "_WORKER_CONTEXT", None)
        use_cpus(monkeypatch, n_cpus)
        out = tmp_path / str(n_cpus)
        emit_dataset(SynthSpec(2, 10.0, octaves=(4,), seed=12),
                     default_pop_model(), out / "synth")
        assert run("extract", "--in", str(out / "synth"), "--labels",
                   str(out / "synth"), "--out", str(out / "cache")) == 0
        assert run("predict", "--model", "template", "--in",
                   str(out / "synth"), "--out", str(out / "labs")) == 0
        run_experiment(config, plan, corpus, out / "xval")
        written.append(_tree_bytes(out))
    assert started == []
    assert len(written[0]) == 5 + 2 + 2 + len(corpus["tiny"]) + plan.k
    assert written[0] == written[1]


class TestXval:
    def test_template_only_matrix(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        experiments = {
            "datasets": {"tiny": os.path.basename(data_dir)},
            "experiments": [
                {"id": 0, "model": "template", "train_datasets": [],
                 "eval_datasets": ["tiny"], "seed": 1},
            ],
        }
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps(experiments))
        out = tmp_path / "results"
        assert run("xval", "--experiments", str(cfg),
                   "--data-root", str(os.path.dirname(data_dir)),
                   "--out", str(out)) == 0
        assert (out / "summary.csv").exists()
        assert (out / "summary.txt").exists()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(int(r["folds"]) == 6 for r in rows)
        assert all(float(r["mean"]) > 85.0 for r in rows)

    def test_dataset_with_no_recordings_is_an_error(self, tiny_dataset,
                                                    tmp_path, capsys):
        # Scoring an empty eval set would write "nan" into the summary.
        data_dir, _ = tiny_dataset
        (tmp_path / "empty").mkdir()
        manifest = tmp_path / "empty" / "manifest.jsonl"
        manifest.write_text("")
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps({
            "datasets": {"tiny": str(data_dir), "empty": "empty"},
            "experiments": [{"id": 0, "model": "template",
                             "eval_datasets": ["empty"]}]}))
        out = tmp_path / "results"
        assert run("xval", "--experiments", str(cfg), "--data-root",
                   str(tmp_path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {manifest}: no recordings\n"
        assert not out.exists()

    def test_unknown_model_params_key_is_an_error(self, tiny_dataset, tmp_path,
                                                   capsys):
        data_dir, _ = tiny_dataset
        experiments = {
            "datasets": {"tiny": os.path.basename(data_dir)},
            "experiments": [
                {"id": 2, "model": "labeler", "train_datasets": ["tiny"],
                 "eval_datasets": ["tiny"], "model_params": {"dropout": 0.1}},
            ],
        }
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps(experiments))
        out = tmp_path / "results"
        assert run("xval", "--experiments", str(cfg),
                   "--data-root", str(os.path.dirname(data_dir)),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: experiments[0]: experiment 2: unknown "
            "model_params key 'dropout'\n")
        assert not out.exists()

    def test_model_params_type_error_stops_before_any_experiment(
            self, tiny_dataset, tmp_path, capsys):
        data_dir, _ = tiny_dataset
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps({
            "datasets": {"tiny": os.path.basename(data_dir)},
            "experiments": [
                {"id": 0, "model": "template", "eval_datasets": ["tiny"]},
                {"id": 1, "model": "labeler", "train_datasets": ["tiny"],
                 "eval_datasets": ["tiny"],
                 "model_params": {"max_epochs": "1"}}]}))
        out = tmp_path / "results"
        assert run("xval", "--experiments", str(cfg),
                   "--data-root", str(os.path.dirname(data_dir)),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: experiments[1]: experiment 1: model_params key "
            "'max_epochs' must be an integer, got '1'\n")
        assert not out.exists()

    def test_dataset_name_string_stops_before_any_experiment(
            self, tiny_dataset, tmp_path, capsys):
        data_dir, _ = tiny_dataset
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps({
            "datasets": {"tiny": os.path.basename(data_dir)},
            "experiments": [
                {"id": 0, "model": "template", "eval_datasets": ["tiny"]},
                {"id": 1, "model": "template", "eval_datasets": "tiny"}]}))
        out = tmp_path / "results"
        assert run("xval", "--experiments", str(cfg),
                   "--data-root", str(os.path.dirname(data_dir)),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: experiments[1]: experiment 1: eval_datasets must "
            "be a list of dataset names, got 'tiny'\n")
        assert not out.exists()

    @pytest.mark.parametrize("change, reason", [
        ({"seed": 7.9}, "seed must be a non-negative integer, got 7.9"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"model_params": {"max_epochs": 0}},
         "model_params key 'max_epochs' must be at least 1, got 0"),
        ({"model_params": {"model_dim": 8, "n_heads": 3}},
         "model_dim 8 is not divisible by n_heads 3"),
    ], ids=["seed-float", "seed-negative", "max_epochs-0", "model_dim-n_heads"])
    def test_bad_experiment_stops_before_any_experiment(
            self, tiny_dataset, tmp_path, capsys, change, reason):
        data_dir, _ = tiny_dataset
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps({
            "datasets": {"tiny": os.path.basename(data_dir)},
            "experiments": [
                {"id": 0, "model": "template", "eval_datasets": ["tiny"]},
                {"id": 1, "model": "labeler", "train_datasets": ["tiny"],
                 "eval_datasets": ["tiny"], **change}]}))
        out = tmp_path / "results"
        assert run("xval", "--experiments", str(cfg),
                   "--data-root", str(os.path.dirname(data_dir)),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: experiments[1]: experiment 1: {reason}\n")
        assert not out.exists()

    def test_experiment_without_eval_datasets_names_file_and_index(
            self, tiny_dataset, tmp_path, capsys):
        data_dir, _ = tiny_dataset
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps({
            "datasets": {"tiny": os.path.basename(data_dir)},
            "experiments": [
                {"id": 0, "model": "template", "eval_datasets": ["tiny"]},
                {"id": 1, "model": "template"},
            ]}))
        out = tmp_path / "results"
        assert run("xval", "--experiments", str(cfg),
                   "--data-root", str(os.path.dirname(data_dir)),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: experiments[1]: missing key 'eval_datasets'\n")
        assert not out.exists()

    def test_manifest_line_without_path_names_file_and_line(
            self, tiny_dataset, tmp_path, capsys):
        data_dir, _ = tiny_dataset
        root = tmp_path / "data"
        root.mkdir()
        manifest = root / "tiny" / "manifest.jsonl"
        manifest.parent.mkdir()
        lines = (data_dir / "manifest.jsonl").read_text().splitlines()
        entry = json.loads(lines[1])
        del entry["path"]
        lines[1] = json.dumps(entry)
        manifest.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps({
            "datasets": {"tiny": "tiny"},
            "experiments": [
                {"id": 0, "model": "template", "eval_datasets": ["tiny"]}]}))
        assert run("xval", "--experiments", str(cfg), "--data-root", str(root),
                   "--out", str(tmp_path / "results")) == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}:2: missing key 'path'\n")

    def test_fold_error_is_one_line_without_traceback(self, tiny_dataset,
                                                       tmp_path):
        data_dir, _ = tiny_dataset
        root = tmp_path / "data"
        shutil.copytree(data_dir, root / "tiny")
        corpus = load_corpus(str(root), {"tiny": "tiny"})
        entry = corpus["tiny"][1]
        with open(entry.label_path) as fh:
            rows = fh.read().splitlines()
        rows.insert(2, "oops not a row")
        with open(entry.label_path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        fold = harness.make_folds(corpus["tiny"], seed=0).fold_of(entry)
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps({
            "datasets": {"tiny": "tiny"},
            "experiments": [
                {"id": 0, "model": "template", "eval_datasets": ["tiny"]}]}))
        src_dir = os.path.dirname(os.path.dirname(chordbench.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "chordbench.cli", "xval",
             "--experiments", str(cfg), "--data-root", str(root),
             "--out", str(tmp_path / "results")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src_dir})
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            f"error: experiment 0, fold {fold}: {entry.label_path}:3: "
            "bad time field in 'oops not a row'\n")

    @needs_workers
    def test_worker_fold_error_is_one_line_without_traceback(
            self, tiny_dataset, tmp_path, monkeypatch, capfd, started):
        data_dir, _ = tiny_dataset
        root = tmp_path / "data"
        for name in ("train", "eval"):
            shutil.copytree(data_dir, root / name)
        datasets = {"train": "train", "eval": "eval"}
        corpus = load_corpus(str(root), datasets)
        plan = harness.make_folds([e for v in corpus.values() for e in v],
                                  seed=0)
        # Fold 0 does not train on its own songs, so a malformed label in
        # fold 0 of the training set first fails fold 1, in the second worker.
        entry = next(e for e in corpus["train"] if plan.fold_of(e) == 0)
        with open(entry.label_path) as fh:
            rows = fh.read().splitlines()
        rows.insert(2, "oops not a row")
        with open(entry.label_path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        cfg = tmp_path / "experiments.json"
        cfg.write_text(json.dumps({
            "datasets": datasets,
            "experiments": [
                {"id": 1, "model": "labeler", "train_datasets": ["train"],
                 "eval_datasets": ["eval"], "seed": 1,
                 "model_params": {"model_dim": 8, "n_heads": 2,
                                  "max_epochs": 1, "patience": 1}}]}))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "results"
        assert run("xval", "--experiments", str(cfg), "--data-root", str(root),
                   "--out", str(out)) == 1
        assert len(started) == 2
        # Captured at the file descriptors, so the workers' stderr is in it.
        _, err = capfd.readouterr()
        assert "Traceback" not in err
        assert err == (f"error: experiment 1, fold 1: {entry.label_path}:3: "
                       "bad time field in 'oops not a row'\n")
        written = [(out / "exp_1" / f"fold_{fold}" / "scores.csv").exists()
                   for fold in range(6)]
        assert written == [True] + [False] * 5
