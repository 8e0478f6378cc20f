"""Six-fold cross-validation over two synthetic datasets.

Generates a pop-flavored dataset and a uniform-transition dataset, then
runs a small experiment matrix: the template baseline plus the labeler
trained on each dataset, everything evaluated on both. Takes a couple of
minutes on a laptop CPU.
"""

import tempfile
from pathlib import Path

from chordbench.harness import (ExperimentConfig, emit_report, load_corpus,
                                make_folds, run_experiment)
from chordbench.synth import (SynthSpec, default_pop_model, emit_dataset,
                              uniform_model)

with tempfile.TemporaryDirectory(prefix="chordbench_xval_") as tmp:
    root = Path(tmp)
    spec = SynthSpec(n_tracks=6, track_length_s=20.0, octaves=(3, 4), seed=29)
    emit_dataset(spec, default_pop_model(), root / "synthA")
    emit_dataset(spec, uniform_model(), root / "synthB")
    print(f"generated 2 x {spec.n_tracks} tracks under {root}")

    corpus = load_corpus(root, {"synthA": "synthA", "synthB": "synthB"})
    plan = make_folds([e for v in corpus.values() for e in v], seed=0)

    labeler_params = {"model_dim": 32, "n_layers": 1, "n_heads": 4,
                      "max_epochs": 25, "patience": 25}
    experiments = [
        ExperimentConfig(id=0, train_datasets=(), model="template",
                         eval_datasets=("synthA", "synthB"), seed=7),
        ExperimentConfig(id=1, train_datasets=("synthA",), model="labeler",
                         eval_datasets=("synthA", "synthB"), seed=7,
                         model_params=labeler_params),
        ExperimentConfig(id=2, train_datasets=("synthB",), model="labeler",
                         eval_datasets=("synthA", "synthB"), seed=7,
                         model_params=labeler_params),
    ]

    out = root / "results"
    summary = []
    for config in experiments:
        rows = run_experiment(config, plan, corpus, out)
        summary.extend(rows)
        print(f"experiment {config.id} ({config.model}, "
              f"train={list(config.train_datasets) or 'none'}) done")

    emit_report(summary, out / "summary.csv", out / "summary.txt")
    print(f"\n{(out / 'summary.txt').read_text()}")
    print("per-fold scores were under exp_*/fold_*/scores.csv in the results "
          "directory, removed with it at exit")
