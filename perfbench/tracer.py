"""Span tracer that wraps package functions at the namespace they are called from.

A traced call records one span: name, start, end and the index of the
enclosing span. Self time is a span's duration minus the durations of its
direct children, which in this single-threaded program is exactly the part
of the interval that child spans do not cover. Spans stay in compact arrays
while the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner_path: str, attr: str, name: str, count=None) -> None:
        """Replace `owner.attr` with a spanning wrapper until `unwrap_all`.

        `owner_path` is a module, or a module and a class joined by ':'.
        `count(counters, result, arguments)` runs after each call with the
        call's arguments bound by parameter name.
        """
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        orig = getattr(owner, attr)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        sig = inspect.signature(orig) if count is not None else None

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, out, sig.bind(*args, **kwargs).arguments)
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
