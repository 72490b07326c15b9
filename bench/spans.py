"""Span recorder for the traced run.

Each span holds a name, a start, an end, its parent span and the id of
the op it belongs to.  Spans live in flat arrays while the run goes and
are written out when it ends.  A span's self time is its duration minus
the part its direct child spans cover.

The recorder patches fanocalc from the outside: methods are wrapped on
their class, and functions in every module that binds them by name, so
that `from ... import` bindings do not escape their spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._patches = []
        self._targets = []
        self.counters = defaultdict(int)

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._nid(name)
        names, parents, ops = self.name, self.parent, self.op_ids
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self._op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return traced

    def op(self, name: str, fn):
        """Wrap a benchmark op: each call opens a new op id and a root
        span that the program's spans nest under."""
        inner = self._wrap(name, fn)

        def run(*args, **kwargs):
            self._op_id += 1
            return inner(*args, **kwargs)

        return run

    def method(self, cls, attr: str, name: str, on_result=None) -> None:
        self._targets.append(("method", cls, attr, name, on_result))

    def function(self, fn, name: str, on_result=None) -> None:
        self._targets.append(("function", fn, None, name, on_result))

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fanocalc"
                                         or key.startswith("fanocalc."))]
        for kind, owner, attr, name, on_result in self._targets:
            if kind == "method":
                orig = owner.__dict__[attr]
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, on_result))
                continue
            wrapper = self._wrap(name, owner, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is owner:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def aggregate(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def count_within(self, name: str, ancestor_prefixes) -> int:
        """Spans named `name` that have an ancestor whose name starts with
        one of `ancestor_prefixes`."""
        flags = array("b", bytes(len(self.start)))
        hits = 0
        want = self._ids.get(name)
        marks = {i for i, nm in enumerate(self.names)
                 if nm.startswith(tuple(ancestor_prefixes))}
        for i in range(len(self.start)):
            p = self.parent[i]
            inside = p >= 0 and (flags[p] or self.name[p] in marks)
            flags[i] = inside
            if inside and self.name[i] == want:
                hits += 1
        return hits

    def write(self, path) -> None:
        """Spans as tab-separated name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.op_ids[i]}\n")
