"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its own calls into the
system's public functions (nothing inside ``src/`` is instrumented).
They stay in memory and are written once, at the end, as Chrome
trace-event JSON (open it in chrome://tracing or Perfetto) together with
a per-layer self-time table.

A job is one root span; every layer span of that job is a direct child,
so a layer's self time is its span's duration, and the job's self time
(the part of the job no layer span covers) is the unaccounted time.
Derived spans (``derived=True``) time the parts of a bundled public call
by calling their own entry points again, outside the job; they are
reported but never counted towards the job's coverage.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Spans of one traced run, grouped by job."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.jobs: list[dict] = []
        self._job: dict | None = None

    @contextmanager
    def job(self, name: str):
        start = time.perf_counter_ns()
        self._job = {"id": len(self.jobs), "name": name, "start": start}
        try:
            yield self._job
        finally:
            self._job["end"] = time.perf_counter_ns()
            self.jobs.append(self._job)
            self._job = None

    def add_job(self, name: str, start_ns: int, end_ns: int) -> int:
        """Record a job timed elsewhere; returns its id for ``add``."""
        self.jobs.append({"id": len(self.jobs), "name": name,
                          "start": start_ns, "end": end_ns})
        return self.jobs[-1]["id"]

    @contextmanager
    def span(self, layer: str):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add(layer, start, time.perf_counter_ns())

    def add(self, layer: str, start_ns: int, end_ns: int, *,
            derived: bool = False, job: int | None = None) -> None:
        """Record a span that was timed elsewhere (e.g. a span measured
        by a client thread, or a derived split)."""
        if job is None:
            job = self._job["id"] if self._job is not None else len(self.jobs) - 1
        self.spans.append({"layer": layer, "start": start_ns, "end": end_ns,
                           "job": job, "derived": derived})

    # -- summaries -----------------------------------------------------------

    def layer_ms(self, *, derived: bool | None = None) -> dict[str, float]:
        """Total milliseconds per layer across all jobs."""
        out: dict[str, float] = {}
        for s in self.spans:
            if derived is not None and s["derived"] != derived:
                continue
            out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"]) / 1e6
        return out

    def job_ms(self) -> float:
        return sum(j["end"] - j["start"] for j in self.jobs) / 1e6

    def unaccounted_ratio(self) -> float:
        """Share of job wall time that no (measured) layer span covers."""
        total = self.job_ms()
        if total <= 0:
            return 0.0
        covered = sum(self.layer_ms(derived=False).values())
        return max(0.0, total - covered) / total

    def table(self) -> list[dict]:
        """Per-layer self time: total and per-job mean, share of job wall."""
        n = max(1, len(self.jobs))
        total = self.job_ms()
        rows = []
        for derived in (False, True):
            for layer, ms in sorted(self.layer_ms(derived=derived).items(),
                                    key=lambda kv: -kv[1]):
                rows.append({"layer": layer, "derived": derived,
                             "total_ms": ms, "per_job_ms": ms / n,
                             "share": ms / total if total else 0.0})
        rows.append({"layer": "(unaccounted)", "derived": False,
                     "total_ms": total * self.unaccounted_ratio(),
                     "per_job_ms": total * self.unaccounted_ratio() / n,
                     "share": self.unaccounted_ratio()})
        return rows

    def write(self, path, meta: dict) -> None:
        """Chrome trace-event JSON plus the self-time table."""
        t0 = min([j["start"] for j in self.jobs] or [0])
        events = []
        for j in self.jobs:
            events.append({"name": j["name"], "cat": "job", "ph": "X",
                           "ts": (j["start"] - t0) / 1e3,
                           "dur": (j["end"] - j["start"]) / 1e3,
                           "pid": 1, "tid": 1, "args": {"job": j["id"]}})
        for s in self.spans:
            events.append({"name": s["layer"],
                           "cat": "derived" if s["derived"] else "layer",
                           "ph": "X", "ts": (s["start"] - t0) / 1e3,
                           "dur": (s["end"] - s["start"]) / 1e3,
                           "pid": 1, "tid": 2 if s["derived"] else 1,
                           "args": {"job": s["job"], "derived": s["derived"]}})
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {**meta, "self_time": self.table()}}, f)
