"""In-memory spans around calls into the program, for the traced run."""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans with name, start, end, parent span and operation id.

    Spans nest by the order they are opened, and ``counts`` carries work
    counts recorded at the same boundary.  Nothing is written until
    :meth:`dump`.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._open[-1] if self._open else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "op": op if op is not None else (parent["op"] if parent else None),
               "start": perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def median_self_ms(self, name: str) -> float:
        """Over the calls that returned; a call that raised is not timed."""
        own = self.self_times()
        return 1000 * statistics.median(own[s["id"]] for s in self.named(name)
                                        if not s["counts"].get("failed"))

    def dump(self, path, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(s, workload=workload)) + "\n")
