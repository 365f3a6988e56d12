"""Span tracer that wraps the public functions of qr2m from outside the package.

Every binding of a wrapped function is replaced, in every loaded qr2m module:
``verify`` does ``from .lincode import dual``, so patching ``qr2m.lincode``
alone would miss those calls.  A span is recorded per call (name, start, end,
parent span, point); self time is a span's duration minus its child spans.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("modring", "padic", "polyring", "lincode", "qr", "verify", "cli")
# lru-cached functions whose cache_info() gives a hit ratio.
CACHED = ("modring.quad_partition", "polyring.binary_qr_factors",
          "qr.span_idempotents", "qr.lifted_residue_code")


def _nnz(poly) -> int:
    return sum(1 for c in poly.coeffs if c)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns, raised]
        self.counters: dict[str, int] = {}
        self.point = None
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, [0, 0, 0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name_id, t0, t1, parent, self.point)

        return traced

    def _counted(self, name: str, fn):
        """Add the work counters that the bare call cannot report."""
        counters = self.counters
        if name == "lincode.canonical_form":
            counters.update({f"{name}.rows_in": 0, f"{name}.rows_out": 0})

            def canonical_form(rows, *args, **kwargs):
                rows = list(rows)
                counters[f"{name}.rows_in"] += len(rows)
                code = fn(rows, *args, **kwargs)
                counters[f"{name}.rows_out"] += len(code.gen)
                return code

            return canonical_form
        if name == "polyring.ring_mul":
            counters[f"{name}.terms"] = 0

            def ring_mul(a, b):
                counters[f"{name}.terms"] += _nnz(a) * _nnz(b)
                return fn(a, b)

            return ring_mul
        return fn

    def install(self) -> None:
        """Wrap every public function of the layers and LinearCode.contains_code."""
        modules = {layer: importlib.import_module(f"qr2m.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_")
                is_fn = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
                if public and is_fn and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if name in CACHED:
                        self._cached[name] = obj
                    wrapped[id(obj)] = self._wrap(name, self._counted(name, obj))
        loaded = [m for n, m in sys.modules.items() if n == "qr2m" or n.startswith("qr2m.")]
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        code_cls = modules["lincode"].LinearCode
        method = code_cls.contains_code
        self._patches.append((code_cls, "contains_code", method))
        code_cls.contains_code = self._wrap("lincode.contains_code", method)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def summary(self) -> dict[str, float]:
        """Per-function and per-layer self time and calls, counters, hit ratios."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for name, (calls, self_ns, raised) in self.stats.items():
            layer = name.split(".")[0]
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.calls"] = calls
            out[f"{name}.raised"] = raised
            out[f"{layer}.self_s"] += self_ns / 1e9
            out[f"{layer}.calls"] += calls
        out.update(self.counters)
        for name, fn in self._cached.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["trace.total_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """Spans as [name, start_ns, end_ns, parent_index, point]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))
