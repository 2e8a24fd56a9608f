"""In-memory spans around the benchmark's calls into each efrac layer.

A span records its id, its parent's id (-1 at the root), the operation id
it belongs to, a layer name, and start and end times in nanoseconds. Spans
are kept in a list while the round runs and written out once at the end,
so recording costs two clock reads and a list append.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Iterable


class NullTracer:
    """The untraced path: same call shape, nothing recorded."""

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)

    def new_op(self) -> None:
        pass


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        # [span_id, parent_id, op_id, name, start_ns, end_ns]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> None:
        self._op += 1

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self._op, name, self.clock(), 0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = self.clock()
        self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        sid = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(sid)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["span_id","parent_id","op_id","name","start_ns","end_ns"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[list[Any]]) -> dict[str, tuple[int, int]]:
    """Per layer name: (span count, total self time in ns).

    Child intervals are clipped to their parent's interval before the
    union is taken, so a child that overruns its parent cannot make the
    parent's self time negative.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, parent, _op, _name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[int, int]] = {}
    for sid, _parent, _op, name, start, end in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if min(e, end) > max(s, start)
        ]
        own = (end - start) - _covered(clipped)
        count, total = out.get(name, (0, 0))
        out[name] = (count + 1, total + own)
    return out
