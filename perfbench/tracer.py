"""Outside-in span tracing of the simulator's layers.

The tracer wraps the public functions and methods of the modules that
make up each layer (see :data:`LAYERS`) with a timing wrapper. Nothing
under ``src/`` changes: the wrappers are installed by rebinding class
attributes and module globals, and :meth:`Tracer.uninstall` restores the
originals. Install before the workload builds its machines, because
several constructors cache bound methods.

Each wrapper call is a span. The tracer keeps a stack of open spans; a
span's *self time* is its duration minus the time covered by its child
spans, and a layer's self time is the sum over the spans of its
functions. Counts are kept per function; spans that cross a layer
boundary are also stored (up to a cap) and written out at the end of the
run. See ``perfbench/README.md`` for what each layer's self time absorbs.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: layer -> modules whose public functions and methods belong to it.
#: Tiny helpers (``mem.address``, ``mem.line``, the cache directories,
#: the L2/L3/L4 caches, store-cache and store-queue entries) and the
#: scheduler's event-queue classes are not wrapped: only their own layer
#: calls them, and a span per call would cost more than the work it
#: measures, so their time lands in the caller's self time.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "scheduler": ("repro.sim.scheduler",),
    "interpreter": ("repro.cpu.interpreter",),
    "engine": ("repro.core.engine",),
    "fabric": ("repro.mem.fabric", "repro.mem.xi", "repro.mem.l1"),
    "storecache": ("repro.mem.storecache",),
    "storequeue": ("repro.mem.storequeue",),
    "memory": ("repro.mem.memory", "repro.mem.paging"),
    "stm": ("repro.stm",),
    "htm": ("repro.htm.api", "repro.htm.datastructures"),
    "verify.lower": ("repro.verify.lowering",),
    "verify.oracle": ("repro.verify.oracle", "repro.verify.reference",
                      "repro.verify.dsl"),
    "metrics": ("repro.sim.metrics",),
    "machine": ("repro.sim.machine",),
}

#: Classes left unwrapped inside a wrapped module (see :data:`LAYERS`).
SKIP_CLASSES = {
    "HeapEventQueue", "CalendarEventQueue", "AdaptiveEventQueue",
    "SetAssociativeDirectory", "StoreCacheEntry", "StoreQueueEntry",
    "SharedCache", "L2Cache", "L3Cache", "L4Cache",
}

#: Functions whose spans make up ``machine.build_s``.
BUILD_FUNCTIONS = ("Machine.__init__", "Machine.add_program",
                   "Machine.add_driver")

#: Cap on stored boundary spans; aggregates cover every call regardless.
SPAN_CAP = 100_000


def self_times(spans: List[Tuple[int, int, int, int]]) -> Dict[int, int]:
    """Self time per span id from ``(id, parent_id, start, end)`` spans.

    A root span has parent ``-1``. Self time is the span's duration
    minus the durations of its direct children (children nest inside
    their parent, so their time is counted once). This is the reference
    definition the tracer's streaming arithmetic must agree with.
    """
    result = {sid: end - start for sid, _parent, start, end in spans}
    for sid, parent, start, end in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


class Tracer:
    """Wraps layer functions and accumulates spans while installed."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 span_cap: int = SPAN_CAP) -> None:
        self.clock = clock
        self.span_cap = span_cap
        #: function key ("Class.method" or "function") per function id.
        self.names: List[str] = []
        #: layer per function id.
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        #: Outermost-per-function inclusive time (recursion not doubled).
        self.incl_ns: List[int] = []
        #: Open spans: [function id, child ns, span index or -1].
        self.stack: List[List[int]] = []
        #: Stored spans: (function id, parent span index, start, end).
        self.spans: List[Tuple[int, int, int, int]] = []
        self.dropped_spans = 0
        #: function key -> callback(args, result) run after each call;
        #: register before :meth:`install`.
        self.observers: Dict[str, Callable[[tuple, Any], None]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._depth: List[int] = []

    # -- the span arithmetic ------------------------------------------------

    def _register(self, key: str, layer: str) -> int:
        self.names.append(key)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.incl_ns.append(0)
        self._depth.append(0)
        return len(self.names) - 1

    def wrap(self, fn: Callable, key: str, layer: str) -> Callable:
        """A traced stand-in for ``fn`` (exported for the tests)."""
        fid = self._register(key, layer)
        clock = self.clock
        stack = self.stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        incl_ns = self.incl_ns
        depth = self._depth
        layers = self.layers
        observer = self.observers.get(key)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if parent is None or layers[parent[0]] != layer:
                # A layer boundary: keep the span itself (capped).
                if len(spans) < tracer.span_cap:
                    index = len(spans)
                    spans.append(None)
                else:
                    tracer.dropped_spans += 1
            frame = [fid, 0, index]
            stack.append(frame)
            depth[fid] += 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[fid] -= 1
                duration = end - start
                calls[fid] += 1
                self_ns[fid] += duration - frame[1]
                if not depth[fid]:
                    incl_ns[fid] += duration
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (fid, _span_parent(stack), start, end)
                if observer is not None:
                    observer(args, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        import importlib

        originals: Dict[int, Callable] = {}
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for name, obj in list(vars(module).items()):
                    if inspect.isclass(obj) and obj.__module__ == module_name:
                        if obj.__name__ in SKIP_CLASSES:
                            continue
                        self._wrap_class(obj, layer)
                    elif (inspect.isfunction(obj)
                          and obj.__module__ == module_name
                          and not name.startswith("_")
                          and not inspect.isgeneratorfunction(obj)):
                        traced = self.wrap(obj, name, layer)
                        originals[id(obj)] = traced
                        self._patch(module, name, traced)
        # Rebind every other module's imported reference to a wrapped
        # module-level function (``from .lowering import lower_program``).
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for name, obj in list(vars(module).items()):
                traced = originals.get(id(obj)) if inspect.isfunction(
                    obj) else None
                if traced is not None and getattr(module, name) is not traced:
                    self._patch(module, name, traced)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            key = f"{cls.__name__}.{name}"
            if name.startswith("_") and key not in BUILD_FUNCTIONS:
                continue
            if inspect.isgeneratorfunction(obj):
                continue
            self._patch(cls, name, self.wrap(obj, key, layer))

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- read-outs ------------------------------------------------------------

    def fid(self, key: str) -> List[int]:
        return [i for i, name in enumerate(self.names) if name == key]

    def calls_of(self, key: str) -> int:
        return sum(self.calls[i] for i in self.fid(key))

    def incl_s_of(self, keys) -> float:
        return sum(self.incl_ns[i] for key in keys for i in self.fid(key)) / 1e9

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for i, layer in enumerate(self.layers):
            out[layer] += self.self_ns[i] / 1e9
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for i, layer in enumerate(self.layers):
            out[layer] += self.calls[i]
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Aggregates per function and the stored boundary spans."""
        functions = [
            {"name": self.names[i], "layer": self.layers[i],
             "calls": self.calls[i], "self_ns": self.self_ns[i],
             "incl_ns": self.incl_ns[i]}
            for i in range(len(self.names)) if self.calls[i]
        ]
        return {
            "functions": functions,
            "span_fields": ["function", "parent_span", "start_ns", "end_ns"],
            "span_functions": self.names,
            "spans": [list(span) for span in self.spans if span is not None],
            "dropped_spans": self.dropped_spans,
        }


def _span_parent(stack: List[List[int]]) -> int:
    """Index of the innermost enclosing stored span, or -1."""
    for frame in reversed(stack):
        if frame[2] >= 0:
            return frame[2]
    return -1
