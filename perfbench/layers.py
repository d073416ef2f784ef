"""Per-layer tracing, installed from outside the library.

While installed, the tracer replaces the library's public functions with
wrappers in every ``ndfronts`` namespace that binds them, because modules
import each other's functions by name (``dbst`` calls ``dom_set``,
``dom_nature`` and ``insert_linear`` through its own globals).

- The dominance kernel (``dom_nature``, ``check_dom``) is only counted, not
  timed: it runs millions of times at about a microsecond each, and a clock
  read per call would distort it. Its time stays in the caller's self time.
- Every other wrapped function is a span. A span records its call count,
  each call's duration, and its self time: its duration minus the time of
  the spans it called.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter_ns

KERNEL = ("dom_nature", "check_dom")
SPANS = (
    "insert_linear",
    "delete",
    "locate_sequential",
    "dom_set",
    "update_insert",
    "update_delete",
    "navigate",
    "insert_tree",
    "lookup_tree",
)


class SpanStats:
    __slots__ = ("calls", "self_ns", "durations", "result_items")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.durations: list[int] = []
        self.result_items = 0  # summed length of list results (navigate's trace)


class Tracer:
    def __init__(self) -> None:
        self.kernel_calls = 0
        self.spans = {name: SpanStats() for name in SPANS}
        self._child_ns: list[int] = []  # one accumulator per open span

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.kernel_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn):
        stats = self.spans[name]
        stack = self._child_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls += 1
                stats.self_ns += duration - children
                stats.durations.append(duration)
            if isinstance(result, list):
                stats.result_items += len(result)
            return result

        return span

    @contextmanager
    def installed(self):
        """Wrap the library's functions for the duration of the block."""
        modules = [mod for name, mod in list(sys.modules.items()) if name == "ndfronts" or name.startswith("ndfronts.")]
        package = sys.modules["ndfronts"]
        replaced = []
        for name in KERNEL + SPANS:
            original = getattr(package, name)
            wrapper = self._counted(original) if name in KERNEL else self._span(name, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    replaced.append((mod, name, original))
        try:
            yield self
        finally:
            for mod, name, original in replaced:
                setattr(mod, name, original)
