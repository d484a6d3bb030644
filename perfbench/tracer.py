"""In-memory spans and counters around the program's public functions.

The tracer replaces a function object by a wrapper in every loaded
``chiral_vacuum`` module namespace that holds it (so ``cli``, which
imports ``cavity_shift_report`` by name, calls the wrapper too) and puts
the originals back on ``uninstall``.  Nothing inside the program is
changed.

Three kinds of wrapper, by how hot the function is:

- ``span``: recorded as a span (name, start, end, parent) and timed;
- ``timed``: timed and counted, but no span is kept (called per row or
  per mode);
- ``count``: counted only, no clock read (called per quadrature node).

A function's busy time sums its outermost calls; a layer's busy time is
the union of its functions' calls; a span's self time is its duration
minus that of the wrapped calls directly below it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class _Frame:
    name: str
    layer: str
    start: float
    span_id: Optional[int]
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # (id, name, start, end, parent id)
    counters: dict = field(default_factory=dict)
    busy_s: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _open: dict = field(default_factory=dict)  # name or layer -> open call depth
    _installed: list = field(default_factory=list)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _enter(self, name: str, layer: str, keep_span: bool) -> _Frame:
        span_id = None
        if keep_span:
            span_id = len(self.spans)
            parent = next((f.span_id for f in reversed(self._stack) if f.span_id is not None), None)
            self.spans.append([span_id, name, 0.0, 0.0, parent])
        for key in (name, layer):
            self._open[key] = self._open.get(key, 0) + 1
        frame = _Frame(name, layer, time.perf_counter(), span_id)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        if frame.span_id is not None:
            self.spans[frame.span_id][2:4] = [frame.start, end]
        for key in (frame.name, frame.layer):
            self._open[key] -= 1
            if self._open[key] == 0:
                self.busy_s[key] = self.busy_s.get(key, 0.0) + duration
        self.self_s[frame.name] = self.self_s.get(frame.name, 0.0) + duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, such as one operation."""
        frame = self._enter(name, layer, True)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, func: Callable, name: str, layer: str, kind: str,
             work: Optional[Callable] = None) -> Callable:
        """Wrapper for ``func``.

        ``work(tracer, args, result)`` adds work counters after a call that
        no other call of the same layer encloses, so nested calls are not
        counted twice.
        """
        if kind == "count":
            @functools.wraps(func)
            def counted(*args, **kwargs):
                self.count(name + ".calls")
                result = func(*args, **kwargs)
                if work is not None:
                    work(self, args, result)
                return result
            return counted

        keep_span = kind == "span"

        @functools.wraps(func)
        def timed(*args, **kwargs):
            self.count(name + ".calls")
            outermost = self._open.get(layer, 0) == 0
            frame = self._enter(name, layer, keep_span)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(frame)
            if work is not None and outermost:
                work(self, args, result)
            return result
        return timed

    def install(self, module_name: str, attr: str, layer: str, kind: str,
                work: Optional[Callable] = None, name: Optional[str] = None) -> None:
        """Replace ``module.attr`` wherever a chiral_vacuum namespace holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(original, name or f"{layer}.{attr}", layer, kind, work)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "chiral_vacuum" and not mod_name.startswith("chiral_vacuum."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def record(self) -> dict:
        return {
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                      for s in self.spans],
            "counters": dict(sorted(self.counters.items())),
            "busy_s": dict(sorted(self.busy_s.items())),
            "self_s": dict(sorted(self.self_s.items())),
        }
