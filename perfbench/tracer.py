"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of each
smart_tgpn layer module and the public methods of ``SignalState`` and
``Trace``; the program under test is not edited. Every call of a wrapped
function is a span: name, start, end, parent span, and the id of the
benchmark operation it ran in (spans of one operation share that id).
A span's self time is its duration minus the time its child spans cover,
accumulated as the calls return.

Calls of the FOLDED functions are counted and timed like any other span,
and charged to their parent as child time, but no record of each call is
kept: the kernel's enabling test and the guard and signal lookups under
it run millions of times per exploration, and one record per call would
not fit in memory. A span below a folded call names the nearest kept
ancestor as its parent. Generator functions are not wrapped: their body
runs while the caller iterates, so its time counts as the caller's.

Spans stay in memory and are written out by ``write`` at the end.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("analysis", "kernel", "guards", "signals", "monitor", "trace", "scenario", "builder", "cli")
METHOD_CLASSES = {"signals": ("SignalState",), "trace": ("Trace",)}
FOLDED = frozenset({
    "kernel.struct_enabled",
    "kernel.enabled",
    "guards.eval_guard",
    "guards.eval_with_assignment",
    "signals.SignalState.value_at",
})


class Tracer:
    def __init__(self):
        self.op = 0
        self.off = False  # set while the benchmark runs its own checks
        self.spans: list[tuple[int, int, int, str, int, int]] = []  # op, id, parent, name, start, end
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self ns]
        self._stack: list[list[int]] = [[0, 0]]  # frames: [child ns, span id children report]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        keep = name not in FOLDED
        tracer = self

        def traced(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if keep:
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
            else:
                span_id = parent[1]
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stats[0] += 1
                stats[1] += duration - frame[0]
                if keep:
                    spans.append((tracer.op, span_id, parent[1], name, start, end))

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, modules: dict) -> None:
        """Wrap the layer modules of ``package`` and rebind every module
        attribute that refers to a wrapped function, so calls made through
        ``from .x import f`` bindings are traced too."""
        wrappers = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, value in list(vars(module).items()):
                if _traceable(attr, value) and value.__module__ == module.__name__:
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
            for class_name in METHOD_CLASSES.get(layer, ()):
                cls = getattr(module, class_name)
                for attr, value in list(vars(cls).items()):
                    if _traceable(attr, value):
                        self._patch(cls, attr, self._wrap(f"{layer}.{class_name}.{attr}", value))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0))[1] / 1e9

    def write(self, path: str) -> None:
        """One CSV line per kept span: op,id,parent,name,start_ns,end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d\n" % span)


def _traceable(attr: str, value) -> bool:
    return (not attr.startswith("_") and inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value))
