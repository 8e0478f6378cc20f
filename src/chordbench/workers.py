"""Parallel work: an ordered map over worker processes, and split steps.

:func:`ordered_map` runs ``fn(item)`` for each item in up to one worker
process per item and hands the results back in item order, so a caller
that writes each result as it arrives writes the bytes one process would.
``harness.run_experiment`` runs its fold jobs through it,
``synth.emit_dataset`` its tracks, and ``chordbench extract`` and
``chordbench predict`` the log-CQT features of their WAV files.

Workers are forked on Linux, so they start from this process's memory.
Elsewhere the map runs in this process: macOS system libraries are not
fork-safe, and Windows has no fork.  The fork start is chosen explicitly,
so that a new default (the forkserver of Python 3.14) does not change it.

The labeler computes a gradient step's two halves (:func:`_halves`) at the
same time, on two threads (:func:`_on_halves`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import signal
import sys
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor

_WORKER_CONTEXT = (multiprocessing.get_context("fork")
                   if sys.platform == "linux" else None)

# glibc's mallopt parameters, and the values a worker sets (_fix_malloc).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's own dynamic maximum on 64 bits
_TRIM_THRESHOLD = 64 * 1024 * 1024

# The thread-count calls of OpenBLAS, as ``(get, set)`` symbol pairs: the
# scipy-openblas build in numpy's wheels prefixes them, and a 64-bit-integer
# build suffixes them with "64_".
_OPENBLAS_CALLS = [(f"{prefix}_get_num_threads{suffix}",
                    f"{prefix}_set_num_threads{suffix}")
                   for prefix in ("scipy_openblas", "openblas")
                   for suffix in ("64_", "")]

# How long a stopped worker may take to run its cleanups before it is killed.
_STOP_TIMEOUT_S = 5.0


def usable_cpus() -> int:
    """The CPUs this process may run on: those of its affinity, else all of
    the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def replacing(path):
    """A unique temporary name beside ``path``, renamed to ``path`` once the
    block has written it; if the block fails, the temporary file is removed
    and ``path`` is left as it was."""
    tmp_path = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        yield tmp_path
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


@contextlib.contextmanager
def ordered_map(fn, items, n_workers, what):
    """An iterator over ``fn(item)`` for each of ``items``, in item order.

    With two or more workers, where workers fork, ``min(n_workers,
    len(items))`` of them start at once and item ``i`` runs in worker
    ``i % n``; otherwise each result is computed in this process when the
    iterator reaches it.  A worker stops after its first failed item.  The
    iterator raises the first error as itself; a worker that dies without
    a result raises ``worker process exited with code <code> before
    returning the <what>``.  When the block ends, every worker has exited:
    a worker still running is sent SIGTERM, which raises
    :class:`SystemExit` in it, so its ``finally`` blocks
    (:func:`replacing`'s removal, say) run, and is killed if it has not
    exited within :data:`_STOP_TIMEOUT_S`.

    Until then this process runs OpenBLAS on at most as many threads as
    the smallest worker's CPU share holds, so that the workers start at
    that count (:func:`blas_threads_at_most`).
    """
    n_workers = min(n_workers, len(items))
    if n_workers < 2 or _WORKER_CONTEXT is None:
        yield map(fn, items)
        return
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            blas_threads_at_most(max(1, usable_cpus() // n_workers)))
        workers = [_start_worker(stack, (fn, items[w::n_workers], w, n_workers))
                   for w in range(n_workers)]
        yield (_result(*workers[i % n_workers], what) for i in range(len(items)))


def _start_worker(stack, job):
    """A worker process running :func:`_worker` on ``job``, and the
    connection its results arrive on.

    ``job`` is ``(fn, items, worker, n_workers)``: the worker's items and its
    index among the ``n_workers`` that share the CPUs (:func:`_take_cpu_share`).
    The worker is forked, so it starts with numpy, the package and its
    patches, the warning filters and the job already in memory: it sees
    this process's patches and the benchmark tracer's wrappers, though
    whatever it records stays in the worker.  When ``stack`` closes, the
    worker is stopped (:func:`_stop_worker`) and the connection closed; the
    worker also exits when this process dies.
    """
    results, send_end = _WORKER_CONTEXT.Pipe(duplex=False)
    stack.callback(results.close)
    proc = _WORKER_CONTEXT.Process(target=_worker, args=(job, send_end),
                                   daemon=True)
    try:
        proc.start()
    finally:
        # Closed before the next worker starts, so that no later worker holds
        # this one's results open after it dies.
        send_end.close()
    stack.callback(_stop_worker, proc)
    return proc, results


def _stop_worker(proc):
    proc.terminate()
    proc.join(_STOP_TIMEOUT_S)
    proc.kill()  # a no-op once the worker has exited
    proc.join()
    proc.close()


def _result(proc, results, what):
    """The result of the next item of the worker ``proc``; its error is raised."""
    try:
        value, error = results.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"worker process exited with code {proc.exitcode} "
                           f"before returning the {what}") from None
    if error is not None:
        raise error
    return value


@contextlib.contextmanager
def blas_threads_at_most(n):
    """Run the OpenBLAS this process has loaded on at most ``n`` threads in
    the block, and on as many as before once it ends.

    OpenBLAS otherwise runs one thread per CPU whatever the caller's CPU
    share, and its threads spin while they wait for work, so two of them
    on one CPU take turns at spinning.  Where OpenBLAS already runs on at
    most ``n`` threads, it is not called: after a fork, its first call
    restarts its thread pool, whose new threads spin for about 0.1 s even
    with no work to wait for.  Where no OpenBLAS is loaded (numpy built on
    another BLAS, or no ``/proc/self/maps`` to find it in), the block runs
    as it would have.
    """
    calls = _openblas()
    before = calls[0]() if calls else 0
    if before <= n:
        yield
        return
    _, set_ = calls
    set_(n)
    try:
        yield
    finally:
        set_(before)


def _halves(n_items):
    """The item slices a gradient step's stack of ``n_items`` is computed in.

    Items ``[0, ceil(n / 2))`` and the rest when there are two or more
    items and this process's CPU affinity (``os.sched_getaffinity``) holds
    two or more CPUs; otherwise one slice of the whole stack.  A worker's
    affinity is its CPU share (:func:`_take_cpu_share`), so on two CPUs it
    trains unsplit.
    """
    if (n_items < 2 or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return [slice(0, n_items)]
    mid = (n_items + 1) // 2
    return [slice(0, mid), slice(mid, n_items)]


def _on_halves(work, parts):
    """``[work(p) for p in parts]`` for one or two parts, two at the same time.

    The first part runs in the calling thread and the second in a helper
    thread, which has ended before this returns or raises, so no thread
    outlives the call.  Meanwhile OpenBLAS runs on one thread
    (:func:`blas_threads_at_most`): the two parts already keep two CPUs
    busy, and more BLAS threads would only spin.  An exception raised in
    the helper is raised here as itself, unless the first part raised one,
    which wins as it would in a serial loop.
    """
    if len(parts) == 1:
        return [work(parts[0])]
    first_part, second_part = parts
    with blas_threads_at_most(1), ThreadPoolExecutor(1) as helper:
        second = helper.submit(work, second_part)
        first = work(first_part)
    return [first, second.result()]


@functools.cache
def _openblas():
    """The ``(get, set)`` thread-count calls of the OpenBLAS mapped into
    this process, found by its path in ``/proc/self/maps``; None if none is."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _OPENBLAS_CALLS:
            get, set_ = (getattr(lib, name, None) for name in names)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = (ctypes.c_int,)
                set_.restype = None
                return get, set_
    return None


def _take_cpu_share(worker, n_workers):
    """Narrow this process's CPU affinity to its share, and return how many
    CPUs the share holds: every ``n_workers``-th of its CPUs, starting at
    the ``worker``-th, so that workers do not compete for a CPU.  Gradient
    steps split by that affinity (:func:`_halves`), so on two CPUs each
    worker trains unsplit.  Where the platform has no affinity call, or
    refuses the share, the affinity stays as it was."""
    try:
        share = sorted(os.sched_getaffinity(0))[worker::n_workers]
        os.sched_setaffinity(0, share)
    except (AttributeError, OSError):
        return usable_cpus()
    return len(share)


def _fix_malloc():
    """Fix glibc's mmap and trim thresholds, where libc has ``mallopt``.

    A forked worker inherits the parent's dynamic mmap threshold, which
    rises only when a large buffer is freed.  A parent that has freed none
    (one that read its features from a filled store, say) would leave each
    training step's large temporaries to be mapped and unmapped anew, at
    the cost of a page fault per touched page.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the symbols already loaded
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


def _worker(job, results):
    """Send one ``(result, exception)`` per item of ``job`` on ``results``,
    in the job's order, stopping after the first failed item.

    The worker ignores SIGINT, as the parent stops it when interrupted,
    exits through :class:`SystemExit` on SIGTERM, sends anything printed
    to stderr, exits once the parent is gone, and runs on its own share of
    the CPUs (:func:`_take_cpu_share`), with OpenBLAS on at most one thread
    per CPU of that share (:func:`blas_threads_at_most`) and with fixed
    malloc thresholds (:func:`_fix_malloc`).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    parent = multiprocessing.parent_process()

    def exit_with_parent():
        # A forked worker also holds open the pipes its earlier siblings
        # watch, so when the parent dies the last worker exits first, then
        # the one before it, and so on.
        parent.join()
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    fn, items, worker, n_workers = job
    share = _take_cpu_share(worker, n_workers)
    _fix_malloc()
    try:
        with blas_threads_at_most(share):
            for item in items:
                try:
                    value, error = fn(item), None
                except Exception as exc:
                    value, error = None, exc
                results.send((value, error))
                if error is not None:
                    break
    finally:
        # Past its items, a stopped worker may simply end: a SystemExit
        # raised while multiprocessing shuts the worker down would escape it.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
