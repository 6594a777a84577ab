"""Lightweight trace spans: named wall-time buckets, no tracing framework.

A span here is just an accumulated ``name -> seconds`` entry in a plain
dict (:attr:`repro.align.types.SearchStats.spans`), cheap enough to record
on every query: two ``perf_counter`` calls and a dict add per span.  The
canonical names thread one request's life through the stack:

==================  ============================================================
``admission_wait``  submit-to-dispatch wait in the server's micro-batch queue
``engine``          backend search time (the engine traversal)
``locate``          hit attribution: record lookup + boundary recheck
``merge``           sharded fan-in: global re-ordering and stat folding
``shard<i>``        engine+locate work attributable to shard ``i``
==================  ============================================================

``admission_wait`` is a batcher property, so it is accumulated server-side
(``stats`` RPC, one sample per query); the rest ride each result's
``SearchStats.spans`` and come back per query under ``repro query --trace``.
``SearchStats.merge`` sums span values, so a batch's spans aggregate the
same way every other counter does.
"""

from __future__ import annotations

from time import perf_counter

SPAN_ADMISSION_WAIT = "admission_wait"
SPAN_ENGINE = "engine"
SPAN_LOCATE = "locate"
SPAN_MERGE = "merge"

_SHARD_PREFIX = "shard"


def shard_span(index: int) -> str:
    """The span name attributing work to shard ``index``."""
    return f"{_SHARD_PREFIX}{index}"


def add_span(spans: dict, name: str, seconds: float) -> None:
    """Accumulate ``seconds`` under ``name`` (repeat calls sum)."""
    spans[name] = spans.get(name, 0.0) + seconds


class span:
    """Context manager accumulating its block's wall time into ``spans``.

    ::

        with span(stats.spans, SPAN_ENGINE):
            result = backend.search(...)
    """

    __slots__ = ("_spans", "_name", "_start")

    def __init__(self, spans: dict, name: str) -> None:
        self._spans = spans
        self._name = name

    def __enter__(self) -> "span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        add_span(self._spans, self._name, perf_counter() - self._start)


def shard_seconds(spans: dict) -> list[float]:
    """Per-shard seconds hidden in ``spans``, ordered by shard index.

    Returns ``[]`` for unsharded results (no ``shard<i>`` keys).
    """
    found: dict[int, float] = {}
    for name, value in spans.items():
        if name.startswith(_SHARD_PREFIX):
            suffix = name[len(_SHARD_PREFIX):]
            if suffix.isdigit():
                found[int(suffix)] = float(value)
    return [found[i] for i in sorted(found)]


def span_tree(spans: dict) -> dict:
    """Nest a flat span dict for canonical JSON (``--trace-out``).

    Shard attributions move under a ``"shards"`` key (indexed by shard
    number as a string, numerically ordered); everything else sits under
    ``"spans"``, sorted by name.  Values round to microseconds so the
    document is stable under re-serialization.
    """
    plain: dict[str, float] = {}
    shards: dict[str, float] = {}
    for name in sorted(spans):
        suffix = name[len(_SHARD_PREFIX):]
        if name.startswith(_SHARD_PREFIX) and suffix.isdigit():
            shards[suffix] = round(float(spans[name]), 6)
        else:
            plain[name] = round(float(spans[name]), 6)
    tree: dict = {"spans": plain}
    if shards:
        tree["shards"] = {key: shards[key] for key in sorted(shards, key=int)}
    return tree


def format_spans(spans: dict) -> str:
    """One-line rendering for ``--trace`` output (stable key order)."""
    return " ".join(
        f"{name}={spans[name] * 1000.0:.3f}ms" for name in sorted(spans)
    )
