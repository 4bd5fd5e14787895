"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark side only: :func:`instrument` replaces
public functions of the ``toolwear`` modules with wrappers that open a span
around each call, and :func:`restore` puts the originals back. Nothing in the
package itself is changed. A span holds its name, start, end, parent span and
the operation (one CLI command) it belongs to; spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


class SpanRecorder:
    """Nested spans on one thread, kept as parallel lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self.op = 0

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, keep_result=None):
        """``fn`` with a span around every call.

        ``keep_result(out, args, kwargs)`` maps a call to a small summary
        stored under ``name`` in :attr:`results`, so counts are taken where
        the work is done.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if keep_result is not None:
                self.results[name].append(keep_result(out, args, kwargs))
            return out

        return traced

    # -- analysis -----------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part of it its children cover.

        Children are clipped to the parent's interval and overlapping
        children are counted once (spans are appended in start order, so a
        running cover end per parent gives the union).
        """
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        covered = np.zeros(len(starts))
        cover_end = starts.copy()
        for i, p in enumerate(self.parents):
            if p < 0:
                continue
            lo = max(starts[i], cover_end[p])
            hi = min(ends[i], ends[p])
            if hi > lo:
                covered[p] += hi - lo
                cover_end[p] = hi
        return (ends - starts) - covered


def instrument(recorder: SpanRecorder, targets) -> list:
    """Wrap each target and return what :func:`restore` needs to undo it.

    ``targets`` holds ``(module, attribute, span_name, keep_result)``; the
    attribute is a function or ``"Class.method"``. A function is replaced in
    every loaded ``toolwear`` module that imported it by name, so calls made
    through ``from .x import f`` are traced as well.
    """
    patched = []
    for module, attr, name, keep in targets:
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[leaf]
            setattr(owner, leaf, recorder.wrap(original, name, keep))
            patched.append((owner, leaf, original))
            continue
        original = getattr(module, leaf)
        wrapper = recorder.wrap(original, name, keep)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "toolwear" and mod.__dict__.get(leaf) is original:
                setattr(mod, leaf, wrapper)
                patched.append((mod, leaf, original))
    return patched


def restore(patched: list) -> None:
    for owner, leaf, original in reversed(patched):
        setattr(owner, leaf, original)
