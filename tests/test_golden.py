"""Golden scores: a small fixed pipeline must reproduce its checked-in scores.

The pipeline covers both recognizers on both front ends: two synthetic
3-track sets, a 3-fold ``run_experiment`` of the template and of a d=8
labeler, then ``extract`` → ``train`` → ``predict`` (template and
checkpoint) → ``eval``.  Every per-recording score must equal the one in
``golden_scores.json`` within 1e-9.  A change meant to keep the outputs
identical keeps this test green; a change meant to move them rewrites the
file with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import csv
import json
import math
import os
import sys
import tempfile

from chordbench.cli import main
from chordbench.harness import (ExperimentConfig, load_corpus, make_folds,
                                run_experiment)
from chordbench.synth import (SynthSpec, default_pop_model, emit_dataset,
                              uniform_model)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_scores.json")
TOLERANCE = 1e-9
LABELER = {"model_dim": 8, "n_layers": 1, "n_heads": 2, "max_epochs": 3,
           "patience": 3}


def _cli(*argv):
    if main([str(a) for a in argv]) != 0:
        raise RuntimeError(f"chordbench {' '.join(map(str, argv))} failed")


def pipeline_scores(root) -> dict:
    """``{"<stage>/<recording>/<metric>": score}`` of the whole pipeline."""
    spec = SynthSpec(n_tracks=3, track_length_s=10.0, seed=13)
    emit_dataset(spec, default_pop_model(), os.path.join(root, "A"))
    emit_dataset(spec, uniform_model(), os.path.join(root, "B"))
    scores = {}

    corpus = load_corpus(root, {"A": "A", "B": "B"})
    plan = make_folds([e for v in corpus.values() for e in v], seed=0, k=3)
    out = os.path.join(root, "xval")
    for config in (
            ExperimentConfig(id=0, train_datasets=(), model="template",
                             eval_datasets=("A", "B"), seed=7),
            ExperimentConfig(id=1, train_datasets=("A",), model="labeler",
                             eval_datasets=("A", "B"), seed=7,
                             model_params=LABELER)):
        run_experiment(config, plan, corpus, out)
        for fold in range(plan.k):
            path = os.path.join(out, f"exp_{config.id}", f"fold_{fold}",
                                "scores.csv")
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    key = f"xval/exp_{config.id}/{row['song_id']}/{row['metric']}"
                    scores[key] = float(row["score"])

    for name in ("A", "B"):
        _cli("extract", "--in", os.path.join(root, name), "--labels",
             os.path.join(root, name), "--out", os.path.join(root, f"cache{name}"))
    config = os.path.join(root, "train.json")
    with open(config, "w") as fh:
        json.dump({**LABELER, "seed": 5, "val_fraction": 0.0}, fh)
    ckpt = os.path.join(root, "model.ckpt")
    _cli("train", "--config", config, "--data", os.path.join(root, "cacheA"),
         "--out", ckpt)
    for model, stage in ((ckpt, "labeler"), ("template", "template")):
        pred = os.path.join(root, f"pred_{stage}")
        table = os.path.join(root, f"{stage}.csv")
        _cli("predict", "--model", model, "--in", os.path.join(root, "cacheB"),
             "--out", pred)
        _cli("eval", "--ref", os.path.join(root, "B"), "--pred", pred,
             "--out", table)
        with open(table, newline="") as fh:
            for row in csv.DictReader(fh):
                key = f"predict/{stage}/{row['song_id']}/{row['metric']}"
                scores[key] = float(row["score"])
    return scores


def test_scores_match_golden(tmp_path, capsys):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = pipeline_scores(str(tmp_path))
    capsys.readouterr()  # the CLI's progress lines
    assert sorted(got) == sorted(want)
    off = {key: (got[key], want[key]) for key in want
           if not math.isclose(got[key], want[key], rel_tol=0.0,
                               abs_tol=TOLERANCE)}
    assert not off, f"scores differ from {GOLDEN}: {off}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = pipeline_scores(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} scores to {GOLDEN}", file=sys.stderr)
