import os

import pytest

from chordbench import harness
from chordbench.synth import SynthSpec, default_pop_model, emit_dataset


def use_cpus(monkeypatch, n):
    """Make this process's CPU affinity report ``n`` CPUs: the harness starts
    up to ``n`` fold workers, and from two on the labeler computes each
    gradient step of two or more items as two halves."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Six short synthetic tracks with manifest, shared across tests."""
    out = tmp_path_factory.mktemp("tinyset")
    spec = SynthSpec(n_tracks=6, track_length_s=12.0, octaves=(3, 4), seed=71)
    entries = emit_dataset(spec, default_pop_model(), out)
    return out, entries


@pytest.fixture()
def started(monkeypatch):
    """The ``(process, results)`` pair of every fold worker
    ``harness._start_worker`` starts, forked or spawned."""
    workers = []
    start_worker = harness._start_worker

    def spy(stack, job):
        workers.append(start_worker(stack, job))
        return workers[-1]

    monkeypatch.setattr(harness, "_start_worker", spy)
    return workers
