"""In-memory span tracer that wraps orderfusion's public functions from outside.

``Tracer.install`` wraps every public function at its defining module and
rebinds every module attribute that refers to it, so by-name imports such as
``from .market import parse_trades`` in ``cli`` are traced too. The ``Tensor``
``+ - * neg`` dunders are traced as ``tensor.elementwise``. ``uninstall``
restores every binding. Spans are kept in memory as
``(name, start, end, parent_index)`` and written out by ``dump``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("synth", "market", "masking", "model", "tensor", "training",
          "evaluation", "baselines", "cli")

# Called once per CSV row: tracing them would multiply the span count by the
# row count and distort parse/write times. Their time stays in the caller.
PER_ROW = frozenset({"market.parse_timestamp", "market.format_timestamp"})

ELEMENTWISE_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__neg__")


def load_modules(layers=LAYERS):
    return [importlib.import_module(f"orderfusion.{layer}") for layer in layers]


class Tracer:
    def __init__(self, on_result=None):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.on_result = on_result   # callback(name, result) after each traced call

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1)

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start)
            if tracer.on_result is not None:
                tracer.on_result(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name not in PER_ROW:
                    wrappers[id(obj)] = self.wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj))
            if mod.__name__ == "orderfusion.tensor":
                for dunder in ELEMENTWISE_DUNDERS:
                    original = mod.Tensor.__dict__[dunder]
                    setattr(mod.Tensor, dunder, self.wrap("tensor.elementwise", original))
                    self._patches.append((mod.Tensor, dunder, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def summarize(spans) -> tuple[dict, dict, dict]:
    """Per-name call counts and inclusive seconds, plus per-layer self seconds.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        layer = name.split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += end - start - child_time[i]
    return calls, total, self_time

