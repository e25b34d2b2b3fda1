"""Span tracing of geotri's layers from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
every module namespace that binds it (``from .x import f`` copies the
function into the importing module, so patching the defining module alone
would miss those callers) and patches methods on their class. Wrappers
keep spans in memory: name, start, end, parent span and the id of the
benchmark request that caused them. Self time is a span's duration minus
the time of its child spans, computed as spans close.

Functions called in tight loops are counted but not timed (``timed=False``);
their time stays in the caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

_perf_ns = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.layer_busy_ns: dict[str, int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(int)
        # Open spans: [span id, layer, child ns].
        self._stack: list[list] = [[0, None, 0]]
        self._next_id = 1
        self._request = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, layer: str) -> list:
        frame = [self._next_id, layer, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: int, end: int) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[2] += duration
        layer = frame[1]
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - frame[2]
        self.layer_self_ns[layer] += duration - frame[2]
        if parent[1] != layer:
            self.layer_busy_ns[layer] += duration
        self.spans.append((frame[0], parent[0], self._request, name, start, end))

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span for one benchmark operation; its spans share an id."""
        self._request += 1
        frame = self._open("bench")
        start = _perf_ns()
        try:
            yield
        finally:
            self._close(frame, name, start, _perf_ns())

    def wrap(self, func, name: str, layer: str, timed: bool = True, count=None):
        tracer = self
        if not timed:

            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return func(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            frame = tracer._open(layer)
            start = _perf_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(frame, name, start, _perf_ns())
            if count is not None:
                count(tracer.counters, result, *args, **kwargs)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, package: str, functions, methods) -> None:
        """Patch ``functions`` (module, name, layer, timed, count) in every
        ``package`` module that binds them, and ``methods`` (class, name,
        layer, count) on their class."""
        for module_name, *_ in functions:
            importlib.import_module(module_name)
        modules = [m for key, m in sorted(sys.modules.items()) if key == package or key.startswith(package + ".")]
        for module_name, attr, layer, timed, count in functions:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, f"{layer}.{attr}", layer, timed, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for cls, attr, layer, count in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, f"{layer}.{attr}", layer, True, count))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(
                    json.dumps({"id": span_id, "parent": parent, "request": request, "name": name,
                                "start_ns": start, "end_ns": end}) + "\n"
                )

    def ms(self, table: dict, key: str) -> float:
        return table.get(key, 0) / 1e6
