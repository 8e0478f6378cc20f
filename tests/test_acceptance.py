"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions; the directional-sanity check is a soft criterion and only logs
its outcome.
"""

import time

import numpy as np
import pytest

from chordbench.annotations import SegmentTrack, TimedSegment, normalize
from chordbench.features import (HOP, SAMPLE_RATE, align_labels, cqt,
                                 log_amplitude, min_cqt_samples,
                                 pitch_shift_cqt, zscore_apply, zscore_fit)
from chordbench.harness import SongEntry, balance_datasets, make_folds
from chordbench.labeler import (LabelerConfig, SequenceExample, count_params,
                                fit, flatten_params, init_params,
                                loss_and_grad, loss_value, train,
                                unflatten_params)
from chordbench.labels import (NOCHORD_CLASS, majmin_label, parse_harte,
                               pitch_class_set, transpose)
from chordbench.metrics import (METRICS, aggregate_fold, ccm,
                                evaluate_pair, weighted_score)
from chordbench.stats import chord_occurrences, chord_transitions
from chordbench.synth import (SynthSpec, default_pop_model, quantize_track,
                              render_audio, sample_progression, uniform_model)
from chordbench.templates import fold_to_chroma, template_predict
from chordbench.features import AudioBuffer, frames_to_track

ALL_CLASSES = [majmin_label(c) for c in range(25)]


def report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def synth_corpus():
    """48 rendered tracks (20 s) with annotations and log-CQT features."""
    model = default_pop_model()
    spec = SynthSpec(n_tracks=48, track_length_s=20.0, octaves=(3, 4),
                     seed=2024)
    corpus = []
    for i in range(48):
        track = normalize(quantize_track(
            sample_progression(model, spec.track_length_s, 5000 + i),
            SAMPLE_RATE))
        audio = render_audio(track, spec)
        feats = log_amplitude(cqt(audio))
        corpus.append((track, feats))
    return corpus


def test_ccm_conformance():
    start = time.time()
    assert ccm(parse_harte("C:maj"), parse_harte("C:maj")) == 1.0
    assert ccm(parse_harte("C:maj"), parse_harte("C:min")) == pytest.approx(
        0.6667, abs=5e-5)
    assert ccm(parse_harte("C:maj"), parse_harte("G:maj")) == pytest.approx(
        0.3333, abs=5e-5)
    assert ccm(parse_harte("C:maj"), parse_harte("N")) == 0.5

    def oracle(ref, pred):
        y = set(pitch_class_set(ref))
        y_hat = set(pitch_class_set(pred))
        if not y:
            return 1.0 if not y_hat else 0.0
        c = len(y & y_hat)
        extra = len(y_hat - y)
        return min(1.0, max(0.0, (c - extra + len(y)) / (2.0 * len(y))))

    for a in ALL_CLASSES:
        for b in ALL_CLASSES:
            assert ccm(a, b) == oracle(a, b)  # bit-exact
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("ccm-conformance", f"(625 pairs, {elapsed:.2f} s)")


def _random_ms_track(rng, length_ms, source_id):
    n_cuts = int(rng.integers(3, 14))
    cuts = np.sort(rng.choice(np.arange(1, length_ms), n_cuts, replace=False))
    bounds = np.concatenate([[0], cuts, [length_ms]]) / 1000.0
    segs = [TimedSegment(s, e, majmin_label(int(rng.integers(0, 25))))
            for s, e in zip(bounds[:-1], bounds[1:])]
    return normalize(SegmentTrack(tuple(segs), source_id))


def _grid_oracle(ref, pred, metric, cell_s=0.001):
    """Score every 1 ms cell independently; no boundary sweep."""
    n_cells = int(round(ref.end_s / cell_s))
    mids = (np.arange(n_cells) + 0.5) * cell_s
    ref_starts = np.array([s.start_s for s in ref.segments])
    pred_starts = np.array([s.start_s for s in pred.segments])
    ref_idx = np.searchsorted(ref_starts, mids, side="right") - 1
    pred_idx = np.searchsorted(pred_starts, mids, side="right") - 1
    table = np.array([[metric(r.label, p.label) for p in pred.segments]
                      for r in ref.segments])
    return float(table[ref_idx, pred_idx].mean())


def test_weighted_score_matches_grid_oracle():
    start = time.time()
    rng = np.random.Generator(np.random.PCG64(777))
    worst = 0.0
    for _ in range(200):
        length_ms = int(rng.integers(5000, 20001))
        ref = _random_ms_track(rng, length_ms, "ref")
        pred = _random_ms_track(rng, length_ms, "pred")
        for metric in METRICS.values():
            sweep = weighted_score(ref, pred, metric).value
            grid = _grid_oracle(ref, pred, metric)
            rel = abs(sweep - grid) / max(1.0, abs(grid))
            worst = max(worst, rel)
            assert rel <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("weighted-score-oracle",
           f"(200 pairs x 4 metrics, worst rel {worst:.2e}, {elapsed:.1f} s)")


def test_metric_transposition_equivariance():
    start = time.time()
    for name, metric in METRICS.items():
        for a in ALL_CLASSES:
            for b in ALL_CLASSES:
                base = metric(a, b)
                for k in range(12):
                    assert metric(transpose(a, k), transpose(b, k)) == base, \
                        (name, str(a), str(b), k)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report("metric-transposition-equivariance",
           f"(4 metrics x 12 shifts x 625 pairs, {elapsed:.1f} s)")


def _interior(n_samples, n_frames):
    half = min_cqt_samples() // 2
    lo = int(np.ceil(half / HOP))
    hi = min(n_frames - 1, (n_samples - half) // HOP)
    return lo, hi


def test_cqt_correctness():
    start = time.time()
    t = np.arange(2 * SAMPLE_RATE) / SAMPLE_RATE
    for freq, expected in ((440.0, 90), (32.7032, 0),
                           (440.0 * 2 ** (1 / 12), 92)):
        fm = cqt(AudioBuffer(np.sin(2 * np.pi * freq * t)))
        lo, hi = _interior(len(t), fm.n_frames)
        bins = fm.values[lo:hi + 1].argmax(axis=1)
        assert np.all(bins == expected), (freq, np.unique(bins))
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("cqt-correctness", f"(bins 90/0/92 exact, {elapsed:.1f} s)")


def test_augmentation_label_commutativity(synth_corpus):
    start = time.time()
    agreements = {}
    for k in range(-5, 7):
        matched = total = 0
        for track, feats in synth_corpus[:10]:
            shifted = pitch_shift_cqt(feats, k)
            predicted = template_predict(fold_to_chroma(shifted))
            reference_track = SegmentTrack(
                tuple(TimedSegment(s.start_s, s.end_s, transpose(s.label, k))
                      for s in track), track.source_id)
            reference = align_labels(reference_track, shifted)
            non_n = reference != NOCHORD_CLASS
            matched += int((predicted[non_n] == reference[non_n]).sum())
            total += int(non_n.sum())
        agreements[k] = matched / total
        assert agreements[k] >= 0.95, (k, agreements[k])
    elapsed = time.time() - start
    assert elapsed < 120.0
    report("augmentation-label-commutativity",
           f"(min agreement {min(agreements.values()):.3f} over k=-5..6, "
           f"{elapsed:.1f} s)")


def test_end_to_end_template_baseline(synth_corpus):
    start = time.time()
    majmin_scores, ccm_scores = [], []
    for track, feats in synth_corpus:
        chroma = fold_to_chroma(feats)
        classes = template_predict(chroma)
        predicted = frames_to_track(classes, chroma.hop_samples,
                                    chroma.sample_rate_hz, track.source_id)
        scores = evaluate_pair(track, predicted, ("majmin", "ccm"))
        majmin_scores.append(scores["majmin"])
        ccm_scores.append(scores["ccm"])
    majmin_total = aggregate_fold(majmin_scores)
    ccm_total = aggregate_fold(ccm_scores)
    assert majmin_total >= 0.90
    assert ccm_total >= 0.93
    elapsed = time.time() - start
    assert elapsed < 300.0
    report("end-to-end-template-baseline",
           f"(48 tracks: majmin {majmin_total:.4f} >= 0.90, "
           f"ccm {ccm_total:.4f} >= 0.93, {elapsed:.1f} s)")


def test_labeler_gradient_check():
    start = time.time()
    config = LabelerConfig(input_dim=6, model_dim=8, n_layers=1, n_heads=2, seed=3)
    params = init_params(config, dtype=np.float64)
    n = count_params(params)
    assert n <= 2000
    rng = np.random.Generator(np.random.PCG64(11))
    batch = []
    for _ in range(2):
        x = rng.standard_normal((8, 6))
        y = rng.integers(0, 25, 8)
        mask = np.ones(8, dtype=bool)
        mask[-1] = False
        batch.append(SequenceExample(x, y, mask))
    _, grads, _ = loss_and_grad(params, config, batch)
    flat = flatten_params(params)
    analytic = flatten_params(grads)
    h = 1e-3
    numeric = np.zeros_like(flat)
    for i in range(len(flat)):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        numeric[i] = (loss_value(unflatten_params(params, up), config, batch)
                      - loss_value(unflatten_params(params, dn), config, batch)
                      ) / (2 * h)
    rel = np.abs(analytic - numeric) / np.maximum(
        np.abs(analytic) + np.abs(numeric), 1e-8)
    assert rel.max() <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("labeler-gradient-check",
           f"({n} params, max rel err {rel.max():.2e}, {elapsed:.1f} s)")


def _excerpts(corpus, n_items=10, frames=54):
    n_tracks = 3
    feats_list = [fold_to_chroma(f) for _, f in corpus[:n_tracks]]
    stats = zscore_fit(feats_list)
    items = []
    for (track, _), chroma in zip(corpus[:n_tracks], feats_list):
        labels = align_labels(track, chroma)
        normed = zscore_apply(chroma, stats)
        for s in range(0, normed.n_frames - frames + 1, frames):
            items.append(SequenceExample(normed.values[s:s + frames],
                                         labels[s:s + frames]))
            if len(items) == n_items:
                return items
    return items


def test_labeler_capacity(synth_corpus):
    start = time.time()
    items = _excerpts(synth_corpus)
    assert len(items) == 10
    config = LabelerConfig(input_dim=12, model_dim=32, n_layers=1, n_heads=4, seed=1)
    params, rep = train(config, items, lr=3e-3, batch_size=10,
                        max_epochs=200, patience=200)
    best = max(rep.accuracies)
    first99 = next((i + 1 for i, a in enumerate(rep.accuracies) if a >= 0.99),
                   None)
    assert best >= 0.99
    assert first99 is not None and first99 <= 200
    # determinism: an identical run reproduces the whole report
    params2, rep2 = train(config, items, lr=3e-3, batch_size=10,
                          max_epochs=200, patience=200)
    assert rep.losses == rep2.losses
    assert rep.accuracies == rep2.accuracies
    assert all(np.array_equal(params[k], params2[k]) for k in params)
    elapsed = time.time() - start
    assert elapsed < 600.0
    report("labeler-capacity",
           f"(acc {best:.3f} by epoch {first99}, deterministic, {elapsed:.1f} s)")


def test_harness_protocol():
    start = time.time()
    entries = [SongEntry(song_id=f"song{i:02d}", audio_path=f"take{j}.wav")
               for i in range(24) for j in range(2)]
    plan = make_folds(entries, seed=3)
    folds_by_song = {}
    for e in entries:
        folds_by_song.setdefault(e.song_id, set()).add(plan.fold_of(e))
    assert all(len(f) == 1 for f in folds_by_song.values())
    sizes = np.bincount(list(plan.fold_of_song.values()), minlength=6)
    assert np.all(sizes == 4)

    def entries_named(n, tag):
        return [SongEntry(song_id=f"{tag}{i:05d}") for i in range(n)]

    balanced = balance_datasets({"large": entries_named(3000, "l"),
                                 "medium": entries_named(739, "m"),
                                 "small": entries_named(48, "s")},
                                seed=1, quota=192)
    assert all(len(v) == 192 for v in balanced.values())
    counts = {}
    for e in balanced["small"]:
        counts[e.song_id] = counts.get(e.song_id, 0) + 1
    assert sorted(counts.values()) == [4] * 48
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("harness-protocol",
           f"(pairing + 4/fold, 192/192/48x4 balance, {elapsed:.2f} s)")


def _train_and_score(train_corpus, eval_sets, seed):
    """Train the labeler on folded chroma and score each evaluation set."""
    pairs = []
    for track, feats in train_corpus:
        chroma = fold_to_chroma(feats)
        pairs.append((chroma, align_labels(track, chroma)))
    model, _ = fit(pairs, seed, model_dim=32, n_layers=1, n_heads=4, lr=3e-3,
                   batch_size=8, max_epochs=30, patience=30)
    results = {}
    for name, eval_corpus in eval_sets.items():
        scores = []
        for track, feats in eval_corpus:
            predicted = model.recognize(feats, track.source_id)
            scores.append(evaluate_pair(track, predicted, ("majmin",))["majmin"])
        results[name] = 100.0 * aggregate_fold(scores)
    return results


def test_directional_sanity(synth_corpus):
    """Soft criterion: logged, not asserted."""
    start = time.time()
    spec = SynthSpec(n_tracks=1, track_length_s=20.0, octaves=(3, 4), seed=0)
    model_b = uniform_model()
    corpus_b = []
    for i in range(28):
        track = normalize(quantize_track(
            sample_progression(model_b, 20.0, 9000 + i), SAMPLE_RATE))
        audio = render_audio(track, spec)
        corpus_b.append((track, log_amplitude(cqt(audio))))

    train_a, held_a = synth_corpus[:10], synth_corpus[24:48]
    train_b, held_b = corpus_b[:4], corpus_b[4:28]

    margins = []
    for seed in (5, 6, 7):
        on_a = _train_and_score(train_a, {"A": held_a, "B": held_b}, seed=seed)
        margins.append(on_a["A"] - on_a["B"])
    mean_margin = float(np.mean(margins))
    a_higher_on_a = mean_margin >= 0.0

    b_alone = _train_and_score(train_b, {"B": held_b}, seed=5)
    b_plus_a = _train_and_score(train_b + train_a, {"B": held_b}, seed=5)
    drop = b_alone["B"] - b_plus_a["B"]
    enrichment_ok = drop <= 2.0

    elapsed = time.time() - start
    outcome = "PASS" if (a_higher_on_a and enrichment_ok) else "SOFT-FAIL"
    print(f"ACCEPTANCE directional-sanity: {outcome} "
          f"(in-domain margin {mean_margin:+.2f} pts over 3 seeds; "
          f"B-only {b_alone['B']:.2f} vs B+A {b_plus_a['B']:.2f}, "
          f"drop {drop:+.2f} pts; {elapsed:.0f} s)")
    assert elapsed < 1800.0


def test_stats_counting_rules():
    start = time.time()
    rng = np.random.Generator(np.random.PCG64(1234))
    tracks = []
    for i in range(1000):
        n = int(rng.integers(1, 15))
        classes = rng.integers(0, 25, n)
        segs = [TimedSegment(float(j), float(j + 1), majmin_label(int(c)))
                for j, c in enumerate(classes)]
        tracks.append(SegmentTrack(tuple(segs), f"t{i}"))

    occ_oracle = np.zeros(25, dtype=int)
    trans_oracle = np.zeros((25, 25), dtype=int)
    for t in tracks:
        previous = None
        dedup = []
        for seg in t:
            c = int(np.argmax([seg.label == majmin_label(k) for k in range(25)]))
            if c != previous:
                occ_oracle[c] += 1
                dedup.append(c)
            previous = c
        for a, b in zip(dedup[:-1], dedup[1:]):
            trans_oracle[a, b] += 1

    assert np.array_equal(chord_occurrences(tracks), occ_oracle)
    assert np.array_equal(chord_transitions(tracks), trans_oracle)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report("stats-counting-rules", f"(1000 tracks exact, {elapsed:.1f} s)")
