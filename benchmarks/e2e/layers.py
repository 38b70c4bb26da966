"""Outside-in layer tracer for the end-to-end benchmark.

Host time is split across the ``src/repro`` layers without touching the
simulator's source. Three public seams are used:

* the kernel's ``Simulator.profiler`` hook (``record(callback, wall_ns)``)
  times every event callback, which is attributed to the layer of the
  module that defines it; the tracer installs it by substituting a
  ``Simulator`` subclass for the runner's module global;
* a fixed list of public methods (tag store, DRAM channel, backing
  store, energy meter, stat counters, probe engine, flush buffer, every
  design's ``can_accept`` / ``submit``) is wrapped to record nested
  spans;
* the runner's ``demand_stream`` global is substituted so that every
  ``next()`` on a per-core demand stream is a ``workloads`` span.

A span's self time is its duration minus the spans nested inside it.
Kernel dispatch (``sim``) is ``Simulator.run`` time minus its callbacks,
and ``experiments`` gets whatever the cell took outside every span. The
self times of all layers therefore sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: The simulator's layers, outermost first. ``sim`` includes kernel
#: dispatch; ``experiments`` is set-up and harvest around the kernel.
LAYERS = ("sim", "workloads", "frontend", "cache", "tagstore", "core",
          "dram", "memory", "energy", "stats", "experiments")

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.cache.tagstore", "tagstore"),
    ("repro.cache.organization", "tagstore"),
    ("repro.cache.reference_tagstore", "tagstore"),
    ("repro.cache.metrics", "stats"),
    ("repro.cache", "cache"),
    ("repro.ras", "cache"),
    ("repro.sim", "sim"),
    ("repro.workloads", "workloads"),
    ("repro.frontend", "frontend"),
    ("repro.core", "core"),
    ("repro.dram", "dram"),
    ("repro.memory", "memory"),
    ("repro.energy", "energy"),
    ("repro.stats", "stats"),
    ("repro.obs", "stats"),
    ("repro.experiments", "experiments"),
)

#: Public methods wrapped as spans: (module, class, methods).
_WRAPPED = (
    ("repro.cache.tagstore", "TagStore",
     ("probe", "fill", "install", "contains", "bulk_install", "invalidate")),
    ("repro.dram.device", "DramChannel",
     ("earliest_issue", "earliest_issue_open", "is_row_hit", "issue_access",
      "issue_access_open", "can_probe", "issue_probe", "transfer_raw")),
    ("repro.memory.main_memory", "MainMemory", ("read", "write")),
    ("repro.energy.power_model", "EnergyMeter", ("record", "add_dq_bytes")),
    ("repro.stats.counters", "CounterSet", ("add",)),
    ("repro.stats.counters", "LatencyStat", ("record",)),
    ("repro.cache.metrics", "CacheMetrics", ("record_outcome",)),
    ("repro.core.probe", "ProbeEngine", ("select",)),
    ("repro.core.flush_buffer", "FlushBuffer",
     ("add", "pop", "contains", "remove")),
)

#: Raw spans kept for ``--spans``; a cell has millions, so cap the dump.
RAW_SPAN_CAP = 200_000


def layer_of(module: Optional[str]) -> str:
    """The layer a module belongs to; code outside ``repro`` (builtins
    scheduled directly as callbacks) counts as kernel dispatch."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "sim"


class Tracer:
    """Aggregates per-layer self time, span counts and per-method calls.

    Use as a context manager around the traced round: entering patches
    the seams listed in the module docstring, leaving restores them.
    Wrap each cell in :meth:`cell` so the time outside every span is
    charged to ``experiments``.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.spans: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: "layer.method" -> outermost calls; "layer.method.false" ->
        #: calls that returned False (rejected/not-ready outcomes)
        self.calls: Dict[str, int] = {}
        #: frames of open spans: [key, nanoseconds of nested spans]
        self._stack: List[list] = [["root", 0]]
        self._callback_ns = 0
        self._callback_layers: Dict[object, str] = {}
        self._patched: List[Tuple[object, str, object]] = []
        #: raw spans (name, layer, start_ns, dur_ns) while recording
        self.raw: Optional[List[tuple]] = None

    # -- installation ------------------------------------------------
    def __enter__(self) -> "Tracer":
        from repro.cache import DESIGNS
        from repro.experiments import runner

        for module, cls_name, methods in _WRAPPED:
            owner = getattr(importlib.import_module(module), cls_name)
            for name in methods:
                self._wrap(owner, name)
        for cls in DESIGNS.values():
            for name in ("can_accept", "submit"):
                owner = next(k for k in cls.__mro__ if name in k.__dict__)
                self._wrap(owner, name)
        self._patch(runner, "Simulator", self._simulator_class(runner.Simulator))
        self._patch(runner, "demand_stream",
                    self._stream_factory(runner.demand_stream))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap(self, owner, name: str) -> None:
        if any(o is owner and n == name for o, n, _ in self._patched):
            return  # inherited by two designs: wrap the definition once
        fn = owner.__dict__[name]
        layer = layer_of(owner.__module__)
        key = f"{layer}.{name}"
        false_key = key + ".false"
        self.calls.setdefault(key, 0)
        self.calls.setdefault(false_key, 0)
        stack, self_ns, spans, calls = (self._stack, self.self_ns,
                                        self.spans, self.calls)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack[-1][0] == key:
                # An override calling super(): one call, one span.
                return fn(*args, **kwargs)
            frame = [key, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                stack[-1][1] += dur
                self_ns[layer] += dur - frame[1]
                spans[layer] += 1
                calls[key] += 1
                raw = tracer.raw
                if raw is not None and len(raw) < RAW_SPAN_CAP:
                    raw.append((key, layer, start, dur))
            if result is False:
                calls[false_key] += 1
            return result

        self._patch(owner, name, span)

    def _stream_factory(self, demand_stream):
        tracer = self

        class TracedStream:
            """A per-core demand stream whose ``next()`` is a span."""

            def __init__(self, inner) -> None:
                self._next = inner.__next__

            def __iter__(self):
                return self

            def __next__(self):
                stack = tracer._stack
                frame = ["workloads.next", 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    return self._next()
                finally:
                    dur = perf_counter_ns() - start
                    stack.pop()
                    stack[-1][1] += dur
                    tracer.self_ns["workloads"] += dur - frame[1]
                    tracer.spans["workloads"] += 1

        @functools.wraps(demand_stream)
        def traced_demand_stream(*args, **kwargs):
            return TracedStream(demand_stream(*args, **kwargs))

        return traced_demand_stream

    def _simulator_class(self, base):
        tracer = self

        class TracedSimulator(base):
            """Kernel with the tracer as its profiler; ``run`` is the
            dispatch span its callbacks nest in."""

            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                self.profiler = tracer

            def run(self, until=None, max_events=None):
                stack = tracer._stack
                frame = ["sim.run", 0]
                stack.append(frame)
                callbacks_before = tracer._callback_ns
                start = perf_counter_ns()
                try:
                    return super().run(until=until, max_events=max_events)
                finally:
                    dur = perf_counter_ns() - start
                    stack.pop()
                    stack[-1][1] += dur
                    callbacks = tracer._callback_ns - callbacks_before
                    tracer.self_ns["sim"] += dur - callbacks - frame[1]
                    tracer.spans["sim"] += 1
                    if tracer.raw is not None:
                        tracer.raw.append(("sim.run", "sim", start, dur))

        return TracedSimulator

    # -- the kernel's profiler hook ----------------------------------
    def record(self, callback, wall_ns: int) -> None:
        """``Simulator.profiler`` hook: charge one event callback."""
        frame = self._stack[-1]
        nested = frame[1]
        frame[1] = 0
        layer = self._callback_layer(callback)
        self.self_ns[layer] += wall_ns - nested
        self.spans[layer] += 1
        self._callback_ns += wall_ns
        raw = self.raw
        if raw is not None and len(raw) < RAW_SPAN_CAP:
            name = getattr(callback, "__qualname__", type(callback).__name__)
            raw.append((name, layer, perf_counter_ns() - wall_ns, wall_ns))

    def _callback_layer(self, callback) -> str:
        fn = getattr(callback, "__func__", callback)
        layer = self._callback_layers.get(fn)
        if layer is None:
            target = fn
            while isinstance(target, functools.partial):
                target = target.func
            target = getattr(target, "__func__", target)
            layer = layer_of(getattr(target, "__module__", None))
            if not isinstance(fn, functools.partial):
                self._callback_layers[fn] = layer
        return layer

    # -- cells -------------------------------------------------------
    def cell(self, label: str, run):
        """Run ``run()`` as one cell; time outside every span is
        ``experiments`` self time. Returns ``run()``'s value."""
        root = self._stack[0]
        root[1] = 0
        start = perf_counter_ns()
        try:
            return run()
        finally:
            dur = perf_counter_ns() - start
            self.self_ns["experiments"] += dur - root[1]
            self.spans["experiments"] += 1
            if self.raw is not None:
                self.raw.append((label, "experiments", start, dur))


def write_chrome_trace(path: str, raw: List[tuple], cell: str) -> None:
    """Dump raw spans as Chrome ``trace_event`` JSON (complete events,
    microseconds), loadable in Perfetto or ``chrome://tracing``."""
    origin = min((start for _, _, start, _ in raw), default=0)
    events = [
        {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
         "ts": (start - origin) / 1000.0, "dur": dur / 1000.0}
        for name, layer, start, dur in raw
    ]
    payload = {"traceEvents": events, "displayTimeUnit": "ns",
               "otherData": {"cell": cell,
                             "truncated": len(raw) >= RAW_SPAN_CAP}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
