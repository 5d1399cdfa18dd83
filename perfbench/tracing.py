"""Spans recorded around the program's public functions, from outside.

Each traced function is replaced, under the module attribute its callers
look up at call time (`linebroadcast.algorithms.to_level`, which `alg2`
and `alg3` call through their module globals, and so on), by a wrapper
that records a span: name, start, end, parent span and the benchmark
operation it belongs to. Outside an operation (while the benchmark checks
results) the wrappers record nothing.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, operation id, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, name, original, wrapper)
        self.op: int | None = None

    def wrap(self, module, name: str, info=None) -> None:
        """Trace module.<name>; info(args, result) annotates the span."""
        fn = getattr(module, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        self._patches.append((module, name, fn, traced))
        setattr(module, name, traced)

    def attach(self, on: bool) -> None:
        """Put the wrappers in place, or the original functions back."""
        for module, name, original, traced in self._patches:
            setattr(module, name, traced if on else original)

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Per name, over spans lo..hi-1: summed duration minus the time
        child spans cover.

        One thread runs everything, so a span's children never overlap and
        the time they cover is the sum of their durations.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans[lo:hi]:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans[lo:hi], lo):
            out[s[0]] += (s[2] - s[1]) - child_time[i]
        return dict(out)

    def write(self, path, origin: float) -> None:
        """Write every span as one JSON line, times relative to origin."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op, "info": info,
                }) + "\n")
