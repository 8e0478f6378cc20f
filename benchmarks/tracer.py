"""Span tracing for the benchmark, applied to chordbench from outside.

:class:`Tracer` wraps the public functions of every ``chordbench`` module
(and the public methods of its plain classes) by replacing the name in the
defining module and in every ``chordbench`` module that imported it.  Each
call records a span: name, start, end, parent span and run id.  Spans stay
in memory; :meth:`Tracer.write_jsonl` writes them out when the run ends.

A span's name is ``<module>.<function>``; methods drop the class name, so
``TemplateRunner.fit`` and ``LabelerRunner.fit`` both record ``harness.fit``.
Self time is a span's duration minus the part of its interval that its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    run_id: str


def self_times(spans) -> list:
    """Self time of every span: its duration minus its children's coverage.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def _targets(package):
    """``(span name, owner, attribute)`` for every function worth wrapping.

    ``owner`` is a module or a class defined in one; a module also appears as
    an owner for public functions it imported from another package module.
    """
    modules = [importlib.import_module(f"{package.__name__}.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)]
    out = []
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if attr.startswith("_"):
                continue
            if (inspect.isfunction(value)
                    and value.__module__.startswith(package.__name__ + ".")
                    and not inspect.isgeneratorfunction(value)):
                defining = value.__module__.rsplit(".", 1)[1]
                out.append((f"{defining}.{attr}", module, attr))
            elif (inspect.isclass(value) and value.__module__ == module.__name__
                  and not dataclasses.is_dataclass(value)):
                for method, fn in vars(value).items():
                    if not method.startswith("_") and inspect.isfunction(fn):
                        out.append((f"{short}.{method}", value, method))
    return out


class Tracer:
    """Records a span for every wrapped ``chordbench`` call.

    ``hooks`` maps a span name to ``hook(args, kwargs, result)``, called
    after the wrapped call returns, outside its span and inside a
    ``bench.hook`` span of its own, so that no ``chordbench`` span counts
    the hook's time as self time.  Hooks derive counts from the arguments
    and results of the calls they see.
    """

    def __init__(self, package, hooks=None):
        self.package = package
        self.hooks = dict(hooks or {})
        self.spans = []
        self.run_id = ""
        self._stack = []
        self._saved = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run_id))
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                index = self._open("bench.hook")
                try:
                    hook(args, kwargs, result)
                finally:
                    self._close(index)
            return result

        return traced

    def install(self):
        """Patch every target; one wrapper per original function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr in _targets(self.package):
            fn = vars(owner)[attr]
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self, name, run_id):
        """A root span opened by the benchmark itself; its calls share ``run_id``."""
        self.run_id = run_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.run_id = ""

    def summary(self) -> dict:
        """Per span name: ``calls``, ``total_s`` (inclusive) and ``self_s``."""
        out = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out.setdefault(span.name,
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += own
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **vars(span)})
                         + "\n")

