"""The contract of :mod:`chordbench.workers`, checked on trivial items.

Its callers (the harness's folds, ``emit_dataset``'s tracks, ``extract``'s
and ``predict``'s WAV files, and the labeler's gradient steps) test only
what they do with it.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from chordbench import workers
from conftest import needs_workers, no_child_left, time_limit, use_cpus


def ended(pid):
    """Whether process ``pid`` has exited: gone, or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def item_and_pid(item):
    return item, os.getpid()


@needs_workers
class TestOrderedMap:
    def test_results_come_back_in_item_order(self, started):
        with workers.ordered_map(item_and_pid, list(range(5)), 2,
                                 "item") as results:
            got = list(results)
            pids = [proc.pid for proc, _ in started]
        assert [item for item, _ in got] == list(range(5))
        assert [pid for _, pid in got] == [pids[i % 2] for i in range(5)]
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert no_child_left()

    def test_first_error_is_raised_and_its_worker_stops(self, tmp_path):
        def fn(item):
            if item == 1:
                raise ValueError("item 1 fails")
            (tmp_path / str(item)).touch()
            return item

        with workers.ordered_map(fn, list(range(5)), 2, "item") as results:
            assert next(results) == 0
            with pytest.raises(ValueError, match="^item 1 fails$"):
                next(results)
        # Item 3 is worker 1's next item, after the failed one.
        assert not (tmp_path / "3").exists()
        assert no_child_left()

    def test_workers_that_finish_early_exit_cleanly(self, capfd, started):
        # Both workers are done and shut down while this process is still
        # inside the map.
        with workers.ordered_map(item_and_pid, [0, 1], 2, "item") as results:
            assert [item for item, _ in results] == [0, 1]
            with time_limit(10):
                while not all(ended(proc.pid) for proc, _ in started):
                    time.sleep(0.01)
        assert len(started) == 2
        assert "Fatal Python error" not in capfd.readouterr().err
        assert no_child_left()

    def test_worker_that_dies_while_its_sibling_works(self, tmp_path):
        def fn(item):
            if item == 0:
                deadline = time.monotonic() + 10
                while (not (tmp_path / "sibling at work").exists()
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                os._exit(3)
            try:
                (tmp_path / "sibling at work").touch()
                time.sleep(60)
            finally:
                (tmp_path / "sibling stopped").touch()

        # Worker 0 dies once worker 1 is at work, but its result pipe ends
        # only if worker 1 does not hold it open too.
        with time_limit(20), pytest.raises(RuntimeError, match=(
                "^worker process exited with code 3 before returning the "
                "item$")):
            with workers.ordered_map(fn, [0, 1], 2, "item") as results:
                list(results)
        # Stopped with SIGTERM, the sibling ran its finally block.
        assert (tmp_path / "sibling stopped").exists()
        assert no_child_left()

    def test_buffered_parent_output_is_written_once(self, capfd,
                                                    monkeypatch):
        def fn(item):
            print(f"item {item}")

        # A buffered stdout on the captured descriptor, as outside pytest.
        with open(os.dup(1), "w") as out, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            print("no newline yet", end="")
            with workers.ordered_map(fn, [0, 1], 2, "item") as results:
                list(results)
        captured = capfd.readouterr()
        assert captured.out == "no newline yet"
        # What a worker prints goes to stderr.
        assert sorted(captured.err.splitlines()) == ["item 0", "item 1"]

    # Maps two items that each append their worker's PID to <out> and then
    # sleep far longer than the test waits.
    DRIVER = """
import os, sys, time
from chordbench import workers
def announce(item):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(600)
with workers.ordered_map(announce, [0, 1], 2, "nap") as results:
    list(results)
"""

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads process states from /proc")
    def test_workers_end_when_the_parent_is_killed(self, tmp_path):
        src_dir = os.path.dirname(os.path.dirname(workers.__file__))
        pids_path = tmp_path / "pids"
        with open(tmp_path / "driver.err", "wb") as err:
            driver = subprocess.Popen(
                [sys.executable, "-c", self.DRIVER, str(pids_path)],
                stderr=err, env={**os.environ, "PYTHONPATH": src_dir})
        pids = []
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and driver.poll() is None:
                assert time.monotonic() < deadline, "no two workers started"
                time.sleep(0.05)
                if pids_path.exists():
                    pids = [int(p) for p in pids_path.read_text().split()]
            assert len(pids) == 2, (tmp_path / "driver.err").read_text()
            driver.kill()
            driver.wait()
            deadline = time.monotonic() + 5
            while not all(map(ended, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if not ended(pid)] == []
        finally:
            driver.kill()
            driver.wait()
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_each_worker_runs_on_its_own_cpu_share(self, started):
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            pytest.skip(f"needs two usable CPUs, this machine has {len(cpus)}")
        n_workers = min(len(cpus), 4)

        def share(item):
            return sorted(os.sched_getaffinity(0)), workers.usable_cpus()

        with workers.ordered_map(share, list(range(n_workers)), n_workers,
                                 "share") as results:
            shares = list(results)
        assert len(started) == n_workers
        assert [n for _, n in shares] == [len(s) for s, _ in shares]
        assert sum(n for _, n in shares) == len(cpus)  # disjoint ...
        assert set().union(*(s for s, _ in shares)) == cpus  # ... and covering
        assert os.sched_getaffinity(0) == cpus
        assert no_child_left()

    @pytest.mark.skipif(workers._openblas() is None,
                        reason="no OpenBLAS is loaded")
    @pytest.mark.skipif(workers.usable_cpus() < 2,
                        reason="a share of one CPU is all of them")
    def test_worker_runs_openblas_on_its_cpu_share(self):
        # A forked worker starts at the count this process runs while the
        # workers do, and keeps it where that is its share.
        get, set_ = workers._openblas()

        def share_and_blas_threads(item):
            return len(os.sched_getaffinity(0)), get()

        before = get()
        set_(workers.usable_cpus())  # OpenBLAS's default: one per CPU
        try:
            with workers.ordered_map(share_and_blas_threads, [0, 1], 2,
                                     "thread counts") as results:
                counts = list(results)
                during = get()
            after = get()
        finally:
            set_(before)
        assert sum(share for share, _ in counts) == workers.usable_cpus()
        assert [threads for _, threads in counts] == [s for s, _ in counts]
        assert during == min(share for share, _ in counts)
        assert after == workers.usable_cpus()


def test_refused_cpu_share_keeps_the_affinity(monkeypatch):
    # A worker whose share is refused, or whose platform has no affinity
    # call, runs on the affinity it was started with.
    before = os.sched_getaffinity(0)

    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    workers._take_cpu_share(1, 2)
    assert os.sched_getaffinity(0) == before
    monkeypatch.delattr(os, "sched_setaffinity")
    workers._take_cpu_share(0, 2)
    assert os.sched_getaffinity(0) == before
    assert workers.usable_cpus() == len(before)


class TestHalves:
    """A gradient step's stack splits in two where the CPU affinity holds
    two CPUs or more, and the two halves run at the same time."""

    def test_halves(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        assert workers._halves(5) == [slice(0, 3), slice(3, 5)]
        assert workers._halves(8) == [slice(0, 4), slice(4, 8)]
        assert workers._halves(1) == [slice(0, 1)]
        use_cpus(monkeypatch, 1)
        assert workers._halves(8) == [slice(0, 8)]
        # os.cpu_count() alone, without the affinity call, never splits.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert workers.usable_cpus() == 4
        assert workers._halves(8) == [slice(0, 8)]

    def test_parts_run_at_the_same_time_in_two_threads(self):
        caller = threading.current_thread()
        both_started = threading.Barrier(2, timeout=10)
        before = threading.active_count()

        def work(part):
            both_started.wait()  # breaks unless the other part runs too
            return part, threading.current_thread() is caller

        assert workers._on_halves(work, ["a", "b"]) == [("a", True),
                                                        ("b", False)]
        assert threading.active_count() == before
        # One part runs in the calling thread alone.
        assert workers._on_halves(
            lambda part: (part, threading.current_thread() is caller),
            ["a"]) == [("a", True)]

    @pytest.mark.parametrize("error", [ValueError("in the second half"),
                                       KeyboardInterrupt()])
    def test_helper_error_reaches_the_caller_as_itself(self, monkeypatch,
                                                       error):
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        caller = threading.current_thread()

        def work(part):
            if threading.current_thread() is not caller:
                raise error
            return part

        before = threading.active_count()
        with pytest.raises(type(error)) as caught:
            workers._on_halves(work, ["a", "b"])
        assert caught.value is error
        assert unhandled == []
        assert threading.active_count() == before

    def test_first_half_error_wins(self):
        caller = threading.current_thread()
        helper_failing = threading.Event()
        before = threading.active_count()

        def work(part):
            if threading.current_thread() is caller:
                # Raised only once the helper is about to raise its own.
                assert helper_failing.wait(10)
                raise ValueError("first part")
            helper_failing.set()
            raise RuntimeError("second part")

        with pytest.raises(ValueError, match="^first part$"):
            workers._on_halves(work, ["a", "b"])
        assert threading.active_count() == before

    @pytest.mark.skipif(workers._openblas() is None,
                        reason="no OpenBLAS is loaded")
    def test_split_step_runs_openblas_on_one_thread(self):
        # Two parts, each on two BLAS threads, would spin four threads on
        # two CPUs; the count is restored afterwards, even after a failure.
        get, set_ = workers._openblas()
        before = get()
        seen, fail = [], []

        def work(part):
            seen.append(get())
            if fail:
                raise ValueError("failed part")
            return part

        set_(2)
        try:
            workers._on_halves(work, ["a", "b"])
            after_parts = get()
            fail.append(True)
            with pytest.raises(ValueError, match="failed part"):
                workers._on_halves(work, ["a", "b"])
            after_failure = get()
        finally:
            set_(before)
        assert seen == [1] * 4
        assert after_parts == after_failure == 2
