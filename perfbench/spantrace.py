"""Span tracer for the projection-scan benchmark.

The tracer wraps the public functions the scan calls, on the module
attributes that callers look up at call time, so the program itself is
not edited.  Each wrapped call records one span: name, start, end, parent
span and the id of the op it belongs to.  Self time is a span's duration
minus the durations of its direct children.  Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of a run.

The untraced run never creates a tracer, so it pays nothing for it.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "raised")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.raised = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans and per-call observations for wrapped functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # name -> list of values observed on return (iterations, peaks, ...)
        self.observed: dict[str, list] = defaultdict(list)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, raised: BaseException | None = None) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        if raised is not None:
            span.raised = type(raised).__name__
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span stack out of order: {popped} != {sid}")
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    # -- wrappers ---------------------------------------------------------

    def _call_wrapper(self, fn, name, observe=None, track_memory=False):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            started_tracing = track_memory and not tracemalloc.is_tracing()
            if started_tracing:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, exc)
                raise
            finally:
                if started_tracing:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.observed[name + ":peak_bytes"].append(peak)
            tracer._close(sid)
            if observe is not None:
                tracer.observed[name].append(observe(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, fn, name):
        """Time each resumption of a generator as one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    sid = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(sid)
                        return
                    except BaseException as exc:
                        tracer._close(sid, exc)
                        raise
                    tracer._close(sid)
                    yield item
            finally:
                inner.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr, name, *, generator=False, observe=None,
             track_memory=False) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        fn = getattr(owner, attr)
        if generator:
            wrapped = self._generator_wrapper(fn, name)
        else:
            wrapped = self._call_wrapper(fn, name, observe, track_memory)
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total self time and raised count."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "raised": 0})
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += span.self_s
            row["raised"] += span.raised is not None
        return dict(out)

    def write(self, path: str) -> None:
        """Dump spans as JSON lines: id, parent, op, name, start, end, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, span.parent, span.op, span.name,
                                     span.start, span.end, span.raised]))
                fh.write("\n")
