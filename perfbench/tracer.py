"""Span recorder for the traced run.

`Tracer.install` replaces the public functions of every `opmeans` module
(the names in each module's `__all__`) and a few public methods with
wrappers that record one span per call: name, start, end, parent span and
the benchmark operation it ran under. Every module binding of a function is
replaced, since the modules import each other's functions by name.
`uninstall` puts the originals back. Spans are kept in flat arrays until
`layer_totals` folds them into per-layer calls, inclusive time and self time
(a span's duration minus the durations of its direct children).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

METHODS = (
    ("means", "HpdPair", "validated", "means.HpdPair.validated"),
    ("verify", "GapObjective", "evaluate", "verify.GapObjective.evaluate"),
    ("verify", "GapObjective", "gradient_forward", "verify.gradient_forward"),
)
MODULES = ("linalg", "means", "verify", "randgen", "sweep", "matio", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, clock = self.stack, time.perf_counter
        name_of, start, end, parent, op = self.name_of, self.start, self.end, self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap `package`'s public functions wherever a module binds them."""
        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
        for mod in (package, *mods.values()):
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrappers[id(value)][1])
        for short, cls_name, meth, span in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            self._restore.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(span, raw))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def layer_totals(self, ops: set[int]) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds, counting
        only spans recorded under the given operation indices."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for i in range(len(self.start)):
            if self.op[i] not in ops:
                continue
            t = totals[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            t["calls"] += 1
            t["total"] += dur
            t["self"] += dur - child[i]
        return totals
