"""Spans recorded by the benchmark around its calls into polarsc.

A span is one timed call: name, start, end, parent span and an optional
frame count. Every timed call goes through :meth:`Tracer.span`, so traced
and untraced passes run the same code; an untraced tracer keeps no spans.
"""

import contextlib
import json
import time


class Span:
    __slots__ = ("id", "name", "parent", "frames", "start", "end")

    def __init__(self, span_id, name, parent, frames):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.frames = frames
        self.start = self.end = 0.0

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self, recording):
        self.recording = recording
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, frames=0):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, frames)
        if self.recording:
            self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def layers(self):
        """Per span name: count, frames, busy seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        children of one span run one after another, so their durations add.
        """
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        out = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"count": 0, "frames": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["frames"] += s.frames
            agg["busy_s"] += s.seconds
            agg["self_s"] += s.seconds - child_time.get(s.id, 0.0)
        return out

    def write(self, path, workload, seed):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "frames": s.frames,
                    "workload": workload, "seed": seed,
                }) + "\n")
