"""In-memory spans around calls into leaklab's public functions.

``Tracer.install`` replaces every public function of the traced modules
(the names in their ``__all__``) with a wrapper that records a span,
wherever a leaklab module holds a reference to it, so calls made inside
the library are seen as well as calls made by the benchmark.  On public
classes it wraps the layer-boundary methods in ``METHODS``: a workload's
``__call__``, dataset and entry ``load`` and a model's ``accuracy``.
``uninstall`` restores the originals.

A span is (name, phase, parent, start, end, done, info).  ``end`` closes
the timed call; an observer registered for the span's name may then
compute counts from the call's arguments and result into ``info``, and
``done`` marks when that finished, so the observer's cost is charged to
no layer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("workloads", "machine", "trace", "games", "features", "analysis")
METHODS = ("__call__", "load", "accuracy")
# Called once per ciphertext block diff from inside ``collect``: a span
# there would cost more than the call it times.
UNTRACED = frozenset({"machine.ciphertext_of"})


@dataclass
class Span:
    name: str
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    done: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, observers: dict | None = None):
        self.spans: list[Span] = []
        self.phase = ""
        self._observers = observers or {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, self.phase, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                span.end = clock()
                if observe is not None:
                    observe(span.info, args, kwargs, result)
                return result
            finally:
                if not span.end:
                    span.end = clock()
                span.done = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.span_name = name
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        loaded = [m for k, m in list(sys.modules.items())
                  if k == "leaklab" or k.startswith("leaklab.")]
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"leaklab.{short}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if hasattr(obj, "span_name") or f"{short}.{attr}" in UNTRACED:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    for holder in loaded:
                        for key, val in list(vars(holder).items()):
                            if val is obj:
                                self._set(holder, key, wrapper)
                elif inspect.isclass(obj):
                    for meth in METHODS:
                        raw = obj.__dict__.get(meth)
                        name = f"{short}.{attr}.{meth}"
                        if isinstance(raw, classmethod):
                            self._set(obj, meth,
                                      classmethod(self._wrap(name, raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._set(obj, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- queries ---------------------------------------------------------

    def select(self, prefix: str, phase: str | None = None) -> list[int]:
        """Indices of the spans whose name starts with ``prefix``."""
        return [i for i, s in enumerate(self.spans) if s.name.startswith(prefix)
                and (phase is None or s.phase == phase)]

    def inside(self, idx: int, prefixes: tuple[str, ...]) -> float:
        """Seconds of span ``idx`` covered by its outermost descendants
        whose names start with one of ``prefixes``, observer time included."""
        span = self.spans[idx]
        total = 0.0
        for i in range(idx + 1, len(self.spans)):
            s = self.spans[i]
            if s.start >= span.end:
                break
            if not s.name.startswith(prefixes):
                continue
            p = s.parent
            while p is not None and p != idx and not self.spans[p].name.startswith(prefixes):
                p = self.spans[p].parent
            if p == idx:
                total += s.done - s.start
        return total

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": s.parent, "name": s.name,
                    "phase": s.phase, "start": s.start, "end": s.end,
                    "done": s.done,
                    "info": {k: v for k, v in s.info.items()
                             if isinstance(v, (int, float, str, list))},
                }) + "\n")
