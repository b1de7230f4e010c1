"""Span tracer that times calls into lorenzel from outside the package.

``Tracer.install`` wraps a public function in every loaded ``lorenzel``
module whose namespace holds that function object, so a call is seen
wherever its caller looks the name up (``lorenzel.simulation.invert``,
``lorenzel.cli.invert``, ``lorenzel.invert``, ...).  Nothing under
``src/`` is edited; ``uninstall`` puts the originals back.

Spans are aggregated as they close.  Each open span sits on a stack, so
its parent is the span below it; a closing span adds its duration to its
parent's child time, and its self time is its duration minus that child
time.  Per span name the tracer keeps calls, total seconds and self
seconds, and per (parent, child) pair the number of calls.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span aggregator; one per traced phase."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, on_return=None, on_error=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, parent, perf_counter() - start)
                if on_error is not None and isinstance(exc, Exception):
                    on_error(self, args, exc)
                raise
            self._close(frame, parent, perf_counter() - start)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def _close(self, frame, parent, dur: float) -> None:
        self._stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
            self.edges[(parent[0], name)] += 1
        else:
            self.edges[(None, name)] += 1

    def install(self, module_name: str, func_name: str,
                on_return=None, on_error=None) -> bool:
        """Wrap ``module_name.func_name`` wherever lorenzel holds it.

        Returns False, and wraps nothing, when the function no longer
        exists; its metrics then read zero calls.
        """
        module = sys.modules.get(module_name)
        original = getattr(module, func_name, None) if module is not None else None
        if original is None:
            return False
        span_name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
        wrapper = self._wrap(span_name, original, on_return, on_error)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lorenzel" or mod_name.startswith("lorenzel.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
        return True

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def per_call(self, name: str, scale: float, self_time: bool = False) -> float:
        """Mean seconds per call times ``scale``; 0 when never called."""
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        total = (self.self_s if self_time else self.total_s)[name]
        return total / calls * scale

    def edge_report(self) -> list[str]:
        """One line per (parent, child) pair, most frequent first."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1])
        return [f"{parent or '<benchmark>'} -> {child}: {count}"
                for (parent, child), count in rows]
