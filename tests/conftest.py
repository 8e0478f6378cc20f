import contextlib
import os
import signal
import struct

import pytest

from chordbench import workers
from chordbench.synth import SynthSpec, default_pop_model, emit_dataset


needs_workers = pytest.mark.skipif(
    workers._WORKER_CONTEXT is None,
    reason="workers start only where the platform forks")


def use_cpus(monkeypatch, n):
    """Make this process's CPU affinity report ``n`` CPUs: the harness and
    ``emit_dataset`` start up to ``n`` workers, and from two on the labeler
    computes each gradient step of two or more items as two halves."""
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
    """The ``(process, results)`` pair of every worker
    ``workers._start_worker`` starts."""
    pairs = []
    start_worker = workers._start_worker

    def spy(stack, job):
        pairs.append(start_worker(stack, job))
        return pairs[-1]

    monkeypatch.setattr(workers, "_start_worker", spy)
    return pairs


def no_child_left():
    """Whether this process has no child process, running or unreaped."""
    me = str(os.getpid())
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                parent = fh.read().rsplit(")", 1)[1].split()[1]
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited while listed
        if parent == me:
            return False
    return True


@contextlib.contextmanager
def time_limit(seconds):
    """Raise :class:`TimeoutError` in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def mutate(content, mutation):
    """``content`` with one bit flipped, one header word replaced, the tail
    from a position cut, or one byte inserted."""
    kind, at, value = mutation
    out = bytearray(content)
    if kind == "flip":
        out[at] ^= 1 << value
    elif kind == "word":
        out[at:at + 4] = struct.pack("<I", value)
    elif kind == "truncate":
        del out[at:]
    else:
        out.insert(at, value)
    return bytes(out)
