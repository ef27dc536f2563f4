"""Spans around the calls the benchmark makes into ``pga_mech``.

The benchmark passes a tracer to every operation and makes each library
call through ``tracer.call``.  ``NULL`` only makes the call; ``Tracer``
also records a span (name, start, end, parent, op id, work count) in
memory.  Nothing inside ``pga_mech`` is patched.
"""

from __future__ import annotations

import json
import time


class NullTracer:
    op_id = None

    def call(self, name, fn, *args, work=None):
        return fn(*args)


NULL = NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op_id, work]
        self._open: list[int] = []
        self.op_id = None

    def call(self, name, fn, *args, work=None):
        parent = self._open[-1] if self._open else None
        span = [name, 0.0, 0.0, parent, self.op_id, None]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if work is not None:
            span[5] = work(result) if callable(work) else work
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op_id, work in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op_id, "work": work}) + "\n")


def layer_totals(spans: list, first: int) -> dict:
    """Per span name: [busy seconds, span count, work] over ``spans[first:]``."""
    totals: dict = {}
    for name, start, end, _, _, work in spans[first:]:
        entry = totals.setdefault(name, [0.0, 0, 0])
        entry[0] += end - start
        entry[1] += 1
        entry[2] += work or 0
    return totals
