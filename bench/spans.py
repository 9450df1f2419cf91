"""In-memory span recorder around the public functions of the qutrit_ks modules.

A span is (name, start, end, parent span, operation id). Spans are recorded
from outside the package: each public function is replaced by a wrapper at
every module attribute that holds it, because callers look functions up in
their own namespace (`simulate` does `from .pulses import compile_setting`,
so patching only `pulses.compile_setting` would miss its calls). `uninstall`
puts every original back, and `installed_wrappers` lets callers check that
none is left behind.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
from contextlib import contextmanager

PACKAGE = "qutrit_ks"
MODULES = ("linalg", "model", "hv", "pulses", "simulate", "analysis",
           "tomography", "cli")

# Public functions deliberately left unwrapped.
SKIP = {
    # Called once per assignment (8192 per enumeration); a span each would
    # dominate the traced run. Its count is read from the returned report.
    "hv.evaluate_assignment",
    # Result formatting belongs to the command's own time (cmd_simulate self).
    "cli.results_csv",
    "cli.results_text",
    "cli.plot_data",
}

_MARK = "__bench_span_wrapper__"


class Tracer:
    """Records spans in flat arrays; one instance per traced run."""

    def __init__(self, observers=None, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._observers = observers or {}
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        observer = self._observers.get(qualname)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                qualname = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and qualname not in SKIP):
                    wrappers[obj] = self._wrap(qualname, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def rows(self):
        """(op, span, parent, name, start, end) for every recorded span."""
        for i in range(len(self.start)):
            yield (self.op[i], i, self.parent[i], self.names[self.name[i]],
                   self.start[i], self.end[i])

    def write_csv(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for op, i, parent, name, start, end in self.rows():
                fh.write(f"{op},{i},{parent},{name},{start - t0:.9f},"
                         f"{end - t0:.9f}\n")


def installed_wrappers() -> list[str]:
    """Module attributes of the package that still hold a span wrapper."""
    left = []
    for mod_name in (PACKAGE, *(f"{PACKAGE}.{m}" for m in MODULES)):
        mod = importlib.import_module(mod_name)
        left += [f"{mod_name}.{attr}" for attr, obj in vars(mod).items()
                 if getattr(obj, _MARK, False)]
    return left


def covered(interval: tuple[float, float],
            children: list[tuple[float, float]]) -> float:
    """Length of `interval` covered by the union of the child intervals."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted(children):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class SpanSummary:
    """Per-name call counts, busy time, self time and durations."""

    def __init__(self, names, name, start, end, parent):
        n = len(start)
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]].append(i)
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.module_busy: dict[str, float] = {}
        self.module_self: dict[str, float] = {}
        self.module_calls: dict[str, int] = {}
        self.top_level = 0.0
        for i in range(n):
            qual = names[name[i]]
            module = qual.split(".", 1)[0]
            dur = end[i] - start[i]
            own = dur - covered((start[i], end[i]),
                                [(start[c], end[c]) for c in children[i]])
            self.calls[qual] = self.calls.get(qual, 0) + 1
            self.durations.setdefault(qual, []).append(dur)
            self.self_time[qual] = self.self_time.get(qual, 0.0) + own
            self.module_calls[module] = self.module_calls.get(module, 0) + 1
            self.module_self[module] = self.module_self.get(module, 0.0) + own
            # Busy time counts a span only when no ancestor has the same name
            # (or, per module, the same module), so nesting is not counted twice.
            same_name = same_module = False
            p = parent[i]
            while p >= 0 and not (same_name and same_module):
                other = names[name[p]]
                same_name = same_name or other == qual
                same_module = same_module or other.split(".", 1)[0] == module
                p = parent[p]
            if not same_name:
                self.busy[qual] = self.busy.get(qual, 0.0) + dur
            if not same_module:
                self.module_busy[module] = self.module_busy.get(module, 0.0) + dur
            if parent[i] < 0:
                self.top_level += dur

    @classmethod
    def of(cls, tracer: Tracer) -> "SpanSummary":
        return cls(tracer.names, tracer.name, tracer.start, tracer.end,
                   tracer.parent)
