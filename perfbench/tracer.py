"""Outside-in span tracing of the dtg modules.

``Tracer.install`` replaces every module-level function of the given modules
with a timing wrapper, both in the defining module's namespace and in every
other given namespace that imported the same function object, so calls made
through ``from .x import f`` are seen too.  Methods are not wrapped: their
time counts as self time of the function that called them.  ``uninstall``
puts the original objects back.

Each call records one span ``(id, name, start, end, parent, run)`` where
``name`` is ``<module>.<function>`` with the ``dtg.`` prefix dropped,
``parent`` is the id of the enclosing span (-1 for a root) and ``run`` is the
label of the region the call happened in.  The benchmark opens a root span
per traced region with ``region``; its module is ``bench``.  Spans stay in
memory until ``write`` dumps them as JSON lines.

The tracer assumes a single Python thread: it keeps one stack of open spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = "bench"


def short_module(name: str) -> str:
    return name[len("dtg."):] if name.startswith("dtg.") else name


class Tracer:
    def __init__(self, modules, counters=None):
        """``modules``: module objects whose functions are wrapped and whose
        namespaces are patched.  ``counters``: span name -> function
        ``(args, kwargs, result) -> {counter: amount}``, evaluated after the
        span has closed."""
        self.modules = tuple(modules)
        self.counters = dict(counters or {})
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.run = ""
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[dict, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short_module(mod.__name__)}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in self.modules:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((namespace, attr, obj))
                    namespace[attr] = hit[1]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.run))
            if counter is not None:
                self._count(counter(args, kwargs, result))
            return result

        return traced

    def _count(self, amounts: dict) -> None:
        for key, value in amounts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    # -- regions -------------------------------------------------------------

    @contextmanager
    def region(self, run: str):
        """Trace everything called inside the block as children of one root
        span ``bench.<run>``, with the functions wrapped only meanwhile."""
        if self._stack:
            raise RuntimeError("regions do not nest")
        self.install()
        self.run = run
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, f"{BENCH}.{run}", start, end, -1, run))
            self.uninstall()

    def write(self, path, header: dict) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["id", "name", "start", "end",
                                                      "parent", "run"]}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def module_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.  Spans
    of one thread never overlap their siblings, so the children's durations
    can simply be summed."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans) -> dict:
    """Per-module self time and entry calls, per-function inclusive time and
    call count.  An entry call is a call into a module from outside it, so a
    module's internal helper calls do not inflate its count."""
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    module_self: dict[str, float] = {}
    module_calls: dict[str, int] = {}
    func_time: dict[str, float] = {}
    func_calls: dict[str, int] = {}
    for sid, name, start, end, parent, _ in spans:
        mod = module_of(name)
        module_self[mod] = module_self.get(mod, 0.0) + own[sid]
        func_time[name] = func_time.get(name, 0.0) + (end - start)
        func_calls[name] = func_calls.get(name, 0) + 1
        if parent < 0 or module_of(by_id[parent][1]) != mod:
            module_calls[mod] = module_calls.get(mod, 0) + 1
    return {"module_self": module_self, "module_calls": module_calls,
            "func_time": func_time, "func_calls": func_calls}
