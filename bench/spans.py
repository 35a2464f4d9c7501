"""Spans around calls into hyperfocus, recorded from the benchmark's side.

A Tracer replaces a module attribute with a wrapper, so every caller that
looks the name up in that module (process_shard looking up stream_shard in
hyperfocus.search, arc_digest looking up canonical_form in hyperfocus.canon,
cli.main looking up cmd_verify) goes through it.  Spans are kept in memory
as (name, start, end, parent) and written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Route module.attr through a span named `name`.

        Raises AttributeError when the module has no such attribute, so a
        renamed function fails the traced run instead of reading as 0.
        """
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def self_times(self) -> Dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), kids in zip(self.spans, covered):
            out[name] += end - start - kids
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                fh,
            )


def span_cost(calls: int = 100_000) -> float:
    """Seconds one span adds to a call, from a traced and a plain no-op."""
    probe = types.SimpleNamespace(f=lambda: None)

    def timed() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            probe.f()
        return time.perf_counter() - t0

    plain = min(timed() for _ in range(3))
    Tracer().wrap(probe, "f", "probe")
    traced = min(timed() for _ in range(3))
    return max(traced - plain, 0.0) / calls
