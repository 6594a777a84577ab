"""Serving telemetry: counters, sliding-window qps, latency percentiles.

The server mutates these from the event-loop thread and from executor
callbacks, so every structure takes a lock; reads produce a plain dict
snapshot for the ``stats`` RPC.  Windows are bounded ring buffers — the
telemetry cost per query is O(1) and the memory footprint is fixed no
matter how long the server runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs.spans import SPAN_ADMISSION_WAIT


class LatencyWindow:
    """Percentiles over the last ``size`` observations (seconds)."""

    def __init__(self, size: int = 1024) -> None:
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self._samples: deque[float] = deque(maxlen=size)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    def percentiles(self, points: tuple[float, ...] = (0.5, 0.9, 0.99)) -> dict:
        """``{"p50": ..., "p90": ..., "p99": ..., "max": ...}`` or zeros."""
        with self._lock:
            samples = sorted(self._samples)
        out: dict[str, float] = {}
        for point in points:
            label = f"p{int(point * 100)}"
            if not samples:
                out[label] = 0.0
                continue
            # Nearest-rank percentile over the window.
            rank = min(len(samples) - 1, int(point * len(samples)))
            out[label] = samples[rank]
        out["max"] = samples[-1] if samples else 0.0
        return out


class RateWindow:
    """Events-per-second over the completions in the last ``horizon`` seconds."""

    def __init__(self, size: int = 4096, horizon: float = 60.0) -> None:
        self._stamps: deque[float] = deque(maxlen=size)
        self._horizon = horizon
        self._started = time.monotonic()
        self._lock = threading.Lock()

    def _prune(self, now: float) -> None:
        # The deque's maxlen bounds count, not age; drop stamps older than
        # the horizon so an idle stretch cannot leave stale history behind.
        floor = now - self._horizon
        while self._stamps and self._stamps[0] < floor:
            self._stamps.popleft()

    def mark(self, count: int = 1) -> None:
        now = time.monotonic()
        with self._lock:
            self._prune(now)
            for _ in range(count):
                self._stamps.append(now)

    def per_second(self) -> float:
        now = time.monotonic()
        with self._lock:
            self._prune(now)
            if not self._stamps:
                return 0.0
            # The denominator is the observation window, clamped to the
            # horizon — NOT the spread of surviving stamps.  Two events
            # arriving just after an idle stretch span microseconds; the
            # old stamp-spread denominator reported them as a huge qps.
            span = min(self._horizon, now - self._started)
            if len(self._stamps) == self._stamps.maxlen:
                # The ring evicted in-horizon stamps; only the retained
                # tail is countable, so measure over its own extent.
                span = min(span, now - self._stamps[0])
            if span <= 0:
                return 0.0
            return len(self._stamps) / span


class ServerStats:
    """All counters the ``stats`` RPC reports, with a snapshot method."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests_total = 0
        self.queries_total = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.overloaded_total = 0
        self.protocol_errors = 0
        self.batches_total = 0
        self.batched_queries_total = 0
        self.reloads_total = 0
        self.reload_failures = 0
        self.latency = LatencyWindow()
        self.qps = RateWindow()
        self.span_seconds: dict[str, float] = {}
        self.span_counts: dict[str, int] = {}

    def count(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def record_batch(self, waits: list[float]) -> None:
        """Fold one dispatched batch, failed or not: its size, and each
        member's admission wait as one ``admission_wait`` sample."""
        with self._lock:
            self.batches_total += 1
            self.batched_queries_total += len(waits)
            self._fold_span(SPAN_ADMISSION_WAIT, sum(waits), len(waits))

    def record_spans(self, spans: dict) -> None:
        """Fold one query's span breakdown into the totals."""
        with self._lock:
            for name, seconds in spans.items():
                self._fold_span(name, seconds, 1)

    def _fold_span(self, name: str, seconds: float, count: int) -> None:
        # The caller holds ``_lock``.
        self.span_seconds[name] = self.span_seconds.get(name, 0.0) + seconds
        self.span_counts[name] = self.span_counts.get(name, 0) + count

    def snapshot(self, *, queue_depth: int, generation: int) -> dict:
        with self._lock:
            hits, misses = self.cache_hits, self.cache_misses
            batches, batched = self.batches_total, self.batched_queries_total
            body = {
                "uptime_seconds": time.monotonic() - self.started,
                "requests_total": self.requests_total,
                "queries_total": self.queries_total,
                "cache_hits": hits,
                "cache_misses": misses,
                "overloaded_total": self.overloaded_total,
                "protocol_errors": self.protocol_errors,
                "batches_total": batches,
                "reloads_total": self.reloads_total,
                "reload_failures": self.reload_failures,
                "spans_seconds": {
                    name: round(total, 6)
                    for name, total in sorted(self.span_seconds.items())
                },
                "spans_count": dict(sorted(self.span_counts.items())),
                "spans_mean_seconds": {
                    name: round(total / self.span_counts[name], 6)
                    for name, total in sorted(self.span_seconds.items())
                    if self.span_counts.get(name)
                },
            }
        lookups = hits + misses
        body["cache_hit_rate"] = hits / lookups if lookups else 0.0
        body["mean_batch_size"] = batched / batches if batches else 0.0
        body["queue_depth"] = queue_depth
        body["generation"] = generation
        body["recent_qps"] = self.qps.per_second()
        body["latency_seconds"] = self.latency.percentiles()
        return body
