"""The :class:`SearchBackend` protocol and thin adapters over the engines.

Every engine in the repo — the exact ALAE engine (the paper's
contribution), the exact BWT-SW baseline and the heuristic BLAST baseline —
answers the same question: *which accumulator cells clear the threshold?*
The protocol pins the one shape they share
(``search(query, threshold | e_value) -> SearchResult``) plus the labels
the serving stack files its accounting under: the engine's name and the
serving mode.

Adapters are deliberately thin: they own no search logic, only the labels
and the underlying engine instance (exposed as ``.engine`` so existing
callers — warm-up hooks, shadow-recovery, statistics — keep their access).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Protocol, runtime_checkable

from repro.align.types import SearchResult
from repro.core.alae import ALAE
from repro.obs.metrics import Counter, Histogram

# Engine-level accounting, recorded once per backend search from the stats
# the engines already compute (no extra work on the traversal itself).
_SEARCHES_TOTAL = Counter(
    "repro_engine_searches_total",
    "Backend searches by engine and mode", ("engine", "mode"),
)
_NODES_VISITED_TOTAL = Counter(
    "repro_engine_nodes_visited_total",
    "Suffix-trie nodes visited by engine traversals", ("mode",),
)
_ENTRIES_CALCULATED_TOTAL = Counter(
    "repro_engine_entries_calculated_total",
    "Accumulator entries calculated (x1 + x2 + x3)", ("mode",),
)
_ENTRIES_REUSED_TOTAL = Counter(
    "repro_engine_entries_reused_total",
    "Accumulator entries reused across trie branches", ("mode",),
)
_SEARCH_SECONDS = Histogram(
    "repro_engine_search_seconds", "Backend search wall time", ("mode",),
)


def record_backend_search(info: BackendInfo, result: SearchResult, seconds: float) -> None:
    """Fold one backend search into the engine metric families."""
    stats = result.stats
    _SEARCHES_TOTAL.labels(engine=info.name, mode=info.mode).inc()
    _SEARCH_SECONDS.labels(mode=info.mode).observe(seconds)
    if stats.nodes_visited:
        _NODES_VISITED_TOTAL.labels(mode=info.mode).inc(stats.nodes_visited)
    if stats.calculated:
        _ENTRIES_CALCULATED_TOTAL.labels(mode=info.mode).inc(stats.calculated)
    if stats.reused:
        _ENTRIES_REUSED_TOTAL.labels(mode=info.mode).inc(stats.reused)


@dataclass(frozen=True)
class BackendInfo:
    """The labels one backend's searches are accounted under."""

    name: str
    mode: str


@runtime_checkable
class SearchBackend(Protocol):
    """What every backend exposes to the service layer."""

    info: BackendInfo

    def search(
        self,
        query: str,
        threshold: int | None = None,
        e_value: float | None = None,
    ) -> SearchResult: ...


class _EngineBackend:
    """Shared adapter plumbing: hold the engine, delegate, record metrics."""

    info: BackendInfo

    def __init__(self, engine) -> None:
        self.engine = engine

    def search(
        self,
        query: str,
        threshold: int | None = None,
        e_value: float | None = None,
    ) -> SearchResult:
        started = perf_counter()
        result = self.engine.search(query, threshold, e_value)
        record_backend_search(self.info, result, perf_counter() - started)
        return result


class AlaeBackend(_EngineBackend):
    """The exact ALAE engine as a backend (mode ``exact``)."""

    info = BackendInfo(name="alae", mode="exact")

    def __init__(self, engine: ALAE) -> None:
        super().__init__(engine)


class BaselineBackend(_EngineBackend):
    """Any other engine (BWT-SW, BLAST, a custom class) as a backend.

    Its searches are accounted under the engine's own name and mode
    ``exact``, the only mode a service built on it serves.
    """

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.info = BackendInfo(name=type(engine).__name__.lower(), mode="exact")
