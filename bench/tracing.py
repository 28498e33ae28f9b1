"""Span tracer that times qssgeo's public functions from outside the library.

A function is wrapped at every module attribute that holds it, because
callers inside qssgeo look names up in their own module's globals (``sld``
in ``qssgeo.geometry`` is a different binding from ``sld`` in
``qssgeo.qss``).  A class is timed through its ``__post_init__`` validation
method instead of by rebinding its name, so ``isinstance`` checks against
the class keep working.

Each span records its label, start, end and parent; spans stay in compact
in-memory arrays until :meth:`Tracer.save` writes them.  Self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Wraps ``targets`` and records one span per call while installed.

    ``targets`` is a list of ``(label, owner, attribute)``: ``owner`` is a
    module (the function is rebound wherever ``modules`` hold it) or a class
    (its ``attribute`` method is replaced).  ``counters`` maps a label to
    ``(counter name, function of the call's result)``; the returned numbers
    are summed per counter.
    """

    def __init__(self, targets, modules, counters=None, run_id: str = ""):
        self.run_id = run_id
        self.labels = [label for label, _, _ in targets] + ["op"]
        self.op_label = len(self.labels) - 1
        self.errors = [0] * len(self.labels)
        self.counts: dict[str, float] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._bindings = []
        counters = counters or {}
        for label_id, (label, owner, attr) in enumerate(targets):
            original = getattr(owner, attr)
            wrapped = self._wrap(label_id, original, counters.get(label))
            if isinstance(owner, type):
                self._bindings.append((owner, attr, original, wrapped))
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, key, original, wrapped))

    def _wrap(self, label_id, fn, counter):
        name, parent, start, end = self._name, self._parent, self._start, self._end
        stack, errors, counts = self._stack, self.errors, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(label_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[label_id] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                key, measure = counter
                counts[key] = counts.get(key, 0) + measure(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    @contextmanager
    def op(self):
        """Install the wrappers and record one root span around the block."""
        idx = len(self._name)
        self._name.append(self.op_label)
        self._parent.append(-1)
        self._end.append(0.0)
        self._stack.append(idx)
        self.install()
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            self.uninstall()
            self._stack.pop()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "start": np.array(self._start, dtype=float),
            "end": np.array(self._end, dtype=float),
        }

    def summary(self) -> dict[str, dict]:
        """Per label: call count, total self time and the list of span durations, in seconds."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=dur[child], minlength=len(dur))
        self_time = np.bincount(s["name"], weights=dur - covered, minlength=len(self.labels))
        calls = np.bincount(s["name"], minlength=len(self.labels))
        return {
            label: {
                "calls": int(calls[i]),
                "self_s": float(self_time[i]),
                "durations": dur[s["name"] == i],
                "errors": self.errors[i],
            }
            for i, label in enumerate(self.labels)
        }

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), run_id=self.run_id, **self.spans())
