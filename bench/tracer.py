"""In-memory span tracer that wraps qbclink's public functions from outside.

A wrapper replaces a function at every import site: the module that defines
it and every other ``qbclink`` module that imported the name (for example
``qbclink.channel.decompose_channel`` and ``qbclink.montecarlo``'s own
``decompose_channel``).  Each call while the tracer is active records a span
``[name, start, end, parent]``; a span's self time is its duration minus the
time its child spans cover.  Nothing under ``src/`` is modified, and
:meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._undo = []
        self.active = False

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, label):
        """Wrap ``fn``; ``label`` is a span name or a callable of the call's
        arguments that returns one."""

        # begin/end inline rather than through span(): this runs once per
        # traced call, and its cost is the tracing overhead
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = label if isinstance(label, str) else label(*args, **kwargs)
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, label)`` at every qbclink import site,
        and time the process pool that ``qbclink.montecarlo`` constructs."""
        for module_name, attr, label in targets:
            original = getattr(importlib.import_module(module_name), attr)
            self._replace(original, self.wrap(original, label))
        self._replace(ProcessPoolExecutor, _traced_pool_class(self))

    def _replace(self, original, replacement) -> None:
        sites = [
            (module, key)
            for name, module in list(sys.modules.items())
            if name == "qbclink" or name.startswith("qbclink.")
            for key, value in vars(module).items()
            if value is original
        ]
        if not sites:
            raise RuntimeError(f"{original!r} has no import site in qbclink")
        for module, key in sites:
            setattr(module, key, replacement)
            self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def take(self):
        """Fold the recorded spans into per-name self seconds and call counts,
        and clear them.  Calls are also counted per ``"parent>child"`` pair."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for (name, start, end, parent), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
            if parent >= 0:
                calls[f"{self.spans[parent][0]}>{name}"] += 1
        self.spans.clear()
        return self_s, calls


def _traced_pool_class(tracer: Tracer):
    """A ProcessPoolExecutor whose construction and first submit (which forks
    every worker under the fork start method), map and shutdown are spans."""

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._forked = False
            with tracer.span("montecarlo.pool_startup"):
                super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            if self._forked:
                return super().submit(*args, **kwargs)
            self._forked = True
            with tracer.span("montecarlo.pool_startup"):
                return super().submit(*args, **kwargs)

        def map(self, *args, **kwargs):
            # consumed here so the span covers waiting for every result
            with tracer.span("montecarlo.pool_map"):
                return iter(list(super().map(*args, **kwargs)))

        def shutdown(self, *args, **kwargs):
            with tracer.span("montecarlo.pool_shutdown"):
                return super().shutdown(*args, **kwargs)

    return TracedPool
