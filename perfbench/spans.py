"""In-memory spans around calls into corpusforge's public functions.

The benchmark does not edit the program. A traced job replaces module
attributes with wrappers before it runs, so calls that the job makes, and
calls that one corpusforge function makes to another through its module's
globals, are recorded. There are two kinds of wrapper:

* a kept span stores name, start, end, parent span and job id for every
  call;
* a counted call, for kernels called tens of thousands of times, is timed
  the same way but only adds to a per-name call count, total time and self
  time.

Both kinds charge their duration to the enclosing frame, so a frame's self
time is its duration minus the time of the calls made inside it. Spans are
kept in memory and written out when the job ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Field positions in a frame record; counted frames have ID -1.
ID, NAME, START, END, PARENT, COVERED = range(6)


class Tracer:
    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.call_s: dict[str, float] = defaultdict(float)
        self.call_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    # -- recording -------------------------------------------------------

    def _open(self, name: str, keep: bool) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [len(self.spans) if keep else -1, name, 0.0, 0.0, parent, 0.0]
        if keep:
            self.spans.append(rec)
        self.stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()
        duration = rec[END] - rec[START]
        if rec[PARENT] is not None:
            rec[PARENT][COVERED] += duration
        if rec[ID] < 0:
            name = rec[NAME]
            self.calls[name] += 1
            self.call_s[name] += duration
            self.call_self_s[name] += duration - rec[COVERED]

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, keep: bool = True, on_result=None) -> None:
        """Trace every call of ``owner.attr`` as a kept span or a counted call.

        ``on_result(tracer, args, kwargs, result)`` may add counters.
        """
        original = owner.__dict__[attr]
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(lambda cls, *a, **k: wrapper(*a, **k)))
        else:
            setattr(owner, attr, wrapper)

    # -- reading ---------------------------------------------------------

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of kept spans called ``name``, optionally only those
        directly inside a span called ``parent``."""
        return [
            rec[END] - rec[START]
            for rec in self.spans
            if rec[NAME] == name
            and (parent is None or (rec[PARENT] is not None and rec[PARENT][NAME] == parent))
        ]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.durations(name, parent))

    def self_times(self) -> dict[str, float]:
        """Self time per span or counted-call name."""
        result: dict[str, float] = defaultdict(float, self.call_self_s)
        for rec in self.spans:
            result[rec[NAME]] += rec[END] - rec[START] - rec[COVERED]
        return dict(result)

    def dump(self, path) -> None:
        """Append every kept span and every counted-call total as JSON lines."""

        def kept_parent(rec):
            parent = rec[PARENT]
            while parent is not None and parent[ID] < 0:
                parent = parent[PARENT]
            return None if parent is None else parent[ID]

        with open(path, "a", encoding="utf-8") as handle:
            for rec in self.spans:
                row = {
                    "job": self.job,
                    "id": rec[ID],
                    "name": rec[NAME],
                    "start": rec[START],
                    "end": rec[END],
                    "parent": kept_parent(rec),
                    "self_s": rec[END] - rec[START] - rec[COVERED],
                }
                handle.write(json.dumps(row) + "\n")
            for name in sorted(self.calls):
                row = {
                    "job": self.job,
                    "counted": name,
                    "calls": self.calls[name],
                    "total_s": self.call_s[name],
                    "self_s": self.call_self_s[name],
                }
                handle.write(json.dumps(row) + "\n")
