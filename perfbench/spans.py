"""In-memory spans around calls into the program's layers.

``Tracer.instrument`` wraps every public function (the names in a module's
``__all__``) of each bandmoments module, in every module namespace that
binds it, so calls between layers are recorded too.  A span holds its name,
start, end and the span that caused it; spans stay in memory until ``dump``.
Only the instrumented process records spans: pool workers forked from it run
the wrappers but their spans are lost with them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("lattice", "ensemble", "spectral", "kernels", "moments", "transfer",
          "group_integrals", "chain", "cli")


class Tracer:
    """Records spans (name, start, end, parent) with a call stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def instrument(self) -> None:
        """Wrap the public functions of every layer in every namespace that binds them."""
        modules = [importlib.import_module(f"bandmoments.{layer}") for layer in LAYERS]
        namespaces = [importlib.import_module("bandmoments"), *modules]
        for layer, module in zip(LAYERS, modules):
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, traced)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span time not covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child_time[s["id"]]
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "self_time_s": self.self_times()}) + "\n")
