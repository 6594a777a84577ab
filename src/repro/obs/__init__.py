"""Durable control plane: catalog, request log, trace spans, replay.

The serving stack's in-memory ``stats`` RPC dies with the process; this
package is the part that survives.  One SQLite file (WAL, versioned
schema) plays three roles:

* **catalog** — every built store/manifest registered with its
  fingerprint and CRCs, every benchmark result keyed to the store it ran
  against (``repro catalog ls/show/verify-all/record-bench``);
* **request log** — opt-in structured per-request telemetry appended by
  the server off the hot path (one deque enqueue per request);
* **replay source** — ``repro bench --replay`` reconstructs the logged
  traffic mix into a deterministic plan and replays it for a capacity
  report.

Trace spans (:mod:`repro.obs.spans`) are the in-memory half: named
wall-time buckets on ``SearchStats`` threaded service → shards → engine.

:mod:`repro.obs.metrics` is the *live* half: a process-wide registry of
Counter/Gauge/Histogram families every serving layer instruments at module
import, exported as Prometheus text (:mod:`repro.obs.exporter`), as the
``metrics`` wire op, and as the ``repro top`` dashboard
(:mod:`repro.obs.top`).
"""

from repro.obs.catalog import (
    CATALOG_ENV,
    SCHEMA_VERSION,
    Catalog,
    CatalogError,
    RequestMix,
    apply_migrations,
    connect,
    maybe_record_bench,
    maybe_register_build,
)
from repro.obs.exporter import MetricsExporter
from repro.obs.logcfg import JsonLineFormatter, configure_logging
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    EWMA,
    REGISTRY,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    default_registry,
    family,
    format_value,
    histogram_quantile,
    metrics_enabled,
    sample_value,
    set_enabled,
)
from repro.obs.replay import (
    CapacityReport,
    ReplayError,
    ReplayEvent,
    ReplayPlan,
    replay_plan,
    synthesize_queries,
)
from repro.obs.reqlog import REQUEST_COLUMNS, RequestLog, query_hash
from repro.obs.spans import (
    SPAN_ADMISSION_WAIT,
    SPAN_ENGINE,
    SPAN_LOCATE,
    SPAN_MERGE,
    add_span,
    format_spans,
    shard_seconds,
    shard_span,
    span,
    span_tree,
)
from repro.obs.top import TopSample, collect_sample, render_top, run_top

__all__ = [
    "CATALOG_ENV",
    "DEFAULT_LATENCY_BUCKETS",
    "EWMA",
    "REGISTRY",
    "SCHEMA_VERSION",
    "SIZE_BUCKETS",
    "Catalog",
    "CatalogError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsExporter",
    "MetricsRegistry",
    "RequestMix",
    "TopSample",
    "apply_migrations",
    "collect_sample",
    "connect",
    "default_registry",
    "family",
    "format_value",
    "histogram_quantile",
    "maybe_record_bench",
    "maybe_register_build",
    "metrics_enabled",
    "render_top",
    "run_top",
    "sample_value",
    "set_enabled",
    "JsonLineFormatter",
    "configure_logging",
    "CapacityReport",
    "ReplayError",
    "ReplayEvent",
    "ReplayPlan",
    "replay_plan",
    "synthesize_queries",
    "REQUEST_COLUMNS",
    "RequestLog",
    "query_hash",
    "SPAN_ADMISSION_WAIT",
    "SPAN_ENGINE",
    "SPAN_LOCATE",
    "SPAN_MERGE",
    "add_span",
    "format_spans",
    "shard_seconds",
    "shard_span",
    "span",
    "span_tree",
]
