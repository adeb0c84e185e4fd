"""Timing spans for the traced pass, kept in memory and written at the end.

A span records a name, its start and end (``time.perf_counter`` seconds), the
id of the span open when it started, and the workload it belongs to.  Spans
are opened around calls into the package from the benchmark's own code; the
package itself is not instrumented.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of all spans with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def children(self, parent_prefix: str) -> list[dict]:
        """Spans whose parent's name starts with ``parent_prefix``."""
        names = {s["id"]: s["name"] for s in self.spans}
        return [s for s in self.spans
                if s["parent"] is not None
                and names[s["parent"]].startswith(parent_prefix)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "spans": self.spans}, fh,
                      indent=1)
            fh.write("\n")


def span_problems(spans: list[dict]) -> list[str]:
    """Ways in which ``spans`` fail to form a tree of nested intervals."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} is not closed")
            continue
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} has unknown parent {s['parent']}")
        elif parent["workload"] != s["workload"]:
            problems.append(f"span {s['id']} crosses workloads")
        elif not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['id']} {s['name']} lies outside "
                            f"its parent {parent['name']}")
    return problems
