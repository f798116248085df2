"""In-memory spans around the benchmark's own calls into scarforge.

A span records its name, start and end (seconds from the tracer's creation),
the CPU time of the process over the same interval, the peak resident set
size at its end, the index of the span that was open when it started, the
run id, and any counts the caller attaches.  Spans are kept in a list and
serialised once, when the run ends.  A disabled tracer calls straight
through, so the untraced run pays nothing but one attribute test per call.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._last: dict[str, dict] = {}
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._t0,
            "counts": {},
        }
        cpu0 = time.process_time()
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter() - self._t0
            record["cpu"] = time.process_time() - cpu0
            record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self._open.pop()
            self._last[name] = record

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def note(self, name: str, **counts) -> None:
        """Attach counts to the most recent span called `name`."""
        if self.enabled:
            self._last[name]["counts"].update(counts)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children never overlap and the covered
    time is the sum of their durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
