"""Span tracing from outside the package.

A :class:`Tracer` replaces public callables with wrappers that time each
call, at the name the caller looks the callable up by, and restores the
originals afterwards.  Spans are folded into per-name totals (call count and
self time) as they end instead of being kept one by one: the rollout kernel
alone runs about 10^5 times per traced pass.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)  # events counted by callers
        self.wrapped: set[str] = set()
        # time covered by the direct children of each open span, innermost last
        self._child_s: list[float] = []

    def wrap(self, name, fn, on_result=None):
        """A wrapper that records a span ``name`` around ``fn`` and returns
        its result untouched; ``on_result`` sees the result after the span
        has ended."""
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap every ``(owner, attribute, span name, on_result)`` target for
        the duration of the block.  A target whose owner or attribute no
        longer exists is skipped, so its metrics are absent."""
        undo = []
        try:
            for owner, attr, name, on_result in targets:
                if owner is None or attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original, on_result))
                undo.append((owner, attr, original))
                self.wrapped.add(name)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
