"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start and end on the ``time.perf_counter`` clock, the
index of the span open around it (its parent) and the id of the op it
belongs to. Spans stay in memory until ``dump`` writes them at the end of a
run, so writing them costs nothing inside the timed region.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, op_id: int):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "op": op_id}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(self.durations(name))

    def per_op(self) -> dict:
        """Summed duration per span name, for each op id."""
        out = {}
        for s in self.spans:
            out.setdefault(s["op"], Counter())[s["name"]] += s["end"] - s["start"]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter", "spans": self.spans}, fh)
            fh.write("\n")
