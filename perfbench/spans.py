"""Spans around the calls into each vecperm layer, recorded from outside.

``Tracer.install`` replaces module-level public names with timing
wrappers: the names ``build_program`` resolves in ``vecperm.ir``, the
``BlockPlan.phases`` method it reaches through the plan, and the entry
points the benchmark itself calls.  A name that no longer exists makes
installation fail, so a refactor cannot silently turn a layer's time to
zero.  Spans are kept in memory; self time is a span's duration minus the
durations of its direct children (calls are nested and single-threaded,
so the children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (module, name, layer): the module is where the caller resolves the name
WRAPPED = (
    ("vecperm.ir", "build_program", "ir"),
    ("vecperm.ir", "merge_dimensions", "planner"),
    ("vecperm.ir", "select_block", "planner"),
    ("vecperm.planner", "BlockPlan.phases", "planner"),
    ("vecperm.ir", "build_ir", "ir"),
    ("vecperm.ir", "build_block_ops", "shuffle"),
    ("vecperm.ir", "optimize", "ir"),
    ("vecperm.emit", "emit_source", "emit"),
    ("vecperm.vm", "execute", "vm"),
    ("vecperm.core", "naive_permute", "core"),
)


def _owner(module: str, dotted: str):
    obj = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        obj = getattr(obj, part, None)
    if obj is None or not hasattr(obj, attr):
        raise RuntimeError(f"traced name {module}.{dotted} no longer exists")
    return obj, attr


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._null


class Tracer:
    enabled = True

    def __init__(self):
        # [name, layer, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield rec
        except Exception as e:
            if not hasattr(e, "bench_layer"):  # innermost span owns the error
                e.bench_layer = layer
            raise
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, dotted, layer in WRAPPED:
            owner, attr = _owner(module, dotted)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, attr, layer))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> list[tuple[str, str, str, float]]:
        """(root name, span name, layer, self seconds) per span."""
        child = [0.0] * len(self.spans)
        root = [""] * len(self.spans)
        for i, (name, _, t0, t1, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = name
        return [(root[i], s[0], s[1], s[3] - s[2] - child[i]) for i, s in enumerate(self.spans)]
