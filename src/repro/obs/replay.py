"""Workload replay: turn yesterday's request log into today's benchmark.

Synthetic benchmarks answer "how fast is the engine"; capacity planning
needs "how does *my traffic* behave on this index".  Replay reconstructs
the logged traffic's shape — query-length histogram, mode mix, search-param
mix, arrival pacing — into a :class:`ReplayPlan` that is **deterministic**:
the plan is derived from the catalog's aggregates plus a seed through a
fixed-seed generator, so the same catalog contents and seed produce a
byte-identical plan (``to_json`` is canonical), and a plan can be committed,
diffed, and re-run forever even after the log grows.

Running a plan (:func:`replay_plan`) drives a local service or a live
server with queries cut from the served database itself (seeded, so the
traffic is identical run to run) and folds the outcome into a
:class:`CapacityReport`: overall and per-shard latency percentiles, cache
hit rate, overload count — and the name of the hottest shard, which is the
number the scale-out roadmap item needs (where to split or replicate).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.obs.catalog import Catalog
from repro.obs.spans import shard_seconds


class ReplayError(ReproError):
    """The catalog holds no replayable traffic or the target is unusable."""


def _percentile(samples: list[float], point: float) -> float:
    """Nearest-rank percentile (the server's convention), 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(point * len(ordered)))
    return ordered[rank]


@dataclass(frozen=True)
class ReplayEvent:
    """One replayed request: when, how long a query, which mode/params."""

    offset: float
    length: int
    mode: str
    threshold: int | None
    e_value: float | None
    top_k: int | None


@dataclass
class ReplayPlan:
    """A deterministic reconstruction of a logged traffic mix."""

    seed: int
    events: list[ReplayEvent]
    source: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical serialization: same plan -> same bytes, always."""
        payload = {
            "seed": self.seed,
            "source": self.source,
            "events": [
                [
                    round(e.offset, 6), e.length, e.mode,
                    e.threshold, e.e_value, e.top_k,
                ]
                for e in self.events
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReplayPlan":
        payload = json.loads(text)
        return cls(
            seed=int(payload["seed"]),
            events=[
                ReplayEvent(
                    offset=float(raw[0]), length=int(raw[1]), mode=str(raw[2]),
                    threshold=raw[3], e_value=raw[4], top_k=raw[5],
                )
                for raw in payload["events"]
            ],
            source=payload.get("source", {}),
        )

    @classmethod
    def from_catalog(
        cls,
        catalog: "Catalog | str | Path",
        *,
        seed: int = 0,
        count: int | None = None,
        rate_scale: float = 1.0,
    ) -> "ReplayPlan":
        """Build a plan from a catalog's request log.

        ``count`` overrides the number of replayed requests (default: as
        many as were logged); ``rate_scale`` compresses or stretches the
        observed arrival pacing (2.0 = twice the logged qps).  Every draw
        comes from one ``default_rng(seed)`` stream over *sorted* aggregate
        rows, so the plan depends only on (log contents, seed, count,
        rate_scale) — never on SQL row order or wall-clock time.
        """
        owned = isinstance(catalog, (str, Path))
        cat = Catalog(catalog) if owned else catalog
        try:
            mix = cat.request_mix()
            params = cat._conn.execute(
                "SELECT threshold, e_value, top_k, COUNT(*) AS n "
                "FROM requests WHERE status='ok' "
                "GROUP BY threshold, e_value, top_k "
                "ORDER BY threshold, e_value, top_k"
            ).fetchall()
        finally:
            if owned:
                cat.close()
        if mix.total == 0:
            raise ReplayError(
                "the catalog's request log is empty; serve with "
                "--request-log first"
            )
        total = mix.total if count is None else count
        if total < 1:
            raise ReplayError(f"replay count must be >= 1, got {total}")
        if rate_scale <= 0:
            raise ReplayError(f"rate_scale must be > 0, got {rate_scale}")
        rng = np.random.default_rng(seed)
        lengths = np.array([l for l, _ in mix.length_counts], dtype=np.int64)
        length_w = np.array([n for _, n in mix.length_counts], dtype=np.float64)
        modes = [m for m, _ in mix.mode_counts]
        mode_w = np.array([n for _, n in mix.mode_counts], dtype=np.float64)
        param_rows = [
            (row["threshold"], row["e_value"], row["top_k"], int(row["n"]))
            for row in params
        ]
        param_w = np.array([n for *_s, n in param_rows], dtype=np.float64)
        drawn_lengths = rng.choice(lengths, size=total, p=length_w / length_w.sum())
        drawn_modes = rng.choice(len(modes), size=total, p=mode_w / mode_w.sum())
        drawn_params = rng.choice(
            len(param_rows), size=total, p=param_w / param_w.sum()
        )
        mean_gap = mix.mean_interarrival / rate_scale
        if mean_gap > 0:
            gaps = rng.exponential(mean_gap, size=total)
            gaps[0] = 0.0
            offsets = np.cumsum(gaps)
        else:
            offsets = np.zeros(total)
        events = []
        for i in range(total):
            thr, e_val, top_k, _n = param_rows[int(drawn_params[i])]
            events.append(
                ReplayEvent(
                    offset=float(round(offsets[i], 6)),
                    length=int(drawn_lengths[i]),
                    mode=modes[int(drawn_modes[i])],
                    threshold=None if thr is None else int(thr),
                    e_value=None if e_val is None else float(e_val),
                    top_k=None if top_k is None else int(top_k),
                )
            )
        return cls(
            seed=seed,
            events=events,
            source={
                "logged_requests": mix.total,
                "mean_interarrival": round(mix.mean_interarrival, 6),
                "span_seconds": round(mix.span_seconds, 6),
                "lengths": [list(pair) for pair in mix.length_counts],
                "modes": [list(pair) for pair in mix.mode_counts],
                "rate_scale": rate_scale,
            },
        )


def synthesize_queries(plan: ReplayPlan, text: str) -> list[str]:
    """Cut one query per event from the served text, seeded by the plan.

    Lengths come from the plan; start positions from an independent stream
    (``default_rng([seed, 1])``) so query content is as deterministic as
    the plan itself.  Lengths longer than the text clamp to it.
    """
    if not text:
        raise ReplayError("cannot synthesize queries over an empty database")
    rng = np.random.default_rng([plan.seed, 1])
    queries = []
    for event in plan.events:
        length = min(event.length, len(text))
        start = int(rng.integers(0, len(text) - length + 1))
        queries.append(text[start : start + length])
    return queries


@dataclass
class CapacityReport:
    """What the replayed traffic did to the target (the capacity answer)."""

    queries: int
    wall_seconds: float
    latency: dict
    per_shard: dict
    hottest_shard: int | None
    cache_hits: int
    overloaded: int
    errors: int
    mode_counts: dict

    @property
    def queries_per_second(self) -> float:
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "wall_seconds": round(self.wall_seconds, 6),
            "queries_per_second": round(self.queries_per_second, 3),
            "latency_seconds": self.latency,
            "per_shard_seconds": self.per_shard,
            "hottest_shard": self.hottest_shard,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "overloaded": self.overloaded,
            "errors": self.errors,
            "mode_counts": self.mode_counts,
        }

    def format(self) -> str:
        lines = [
            f"replayed {self.queries} queries in {self.wall_seconds:.3f}s "
            f"({self.queries_per_second:.1f} qps), "
            f"cache hit rate {self.cache_hit_rate:.2%}, "
            f"overloaded {self.overloaded}, errors {self.errors}",
            "latency p50={p50:.4f}s p90={p90:.4f}s p99={p99:.4f}s".format(
                **self.latency
            ),
        ]
        for shard in sorted(self.per_shard):
            stats = self.per_shard[shard]
            marker = "  <- hottest" if shard == self.hottest_shard else ""
            lines.append(
                f"shard {shard}: p50={stats['p50']:.4f}s "
                f"p90={stats['p90']:.4f}s p99={stats['p99']:.4f}s "
                f"total={stats['total']:.3f}s{marker}"
            )
        if self.mode_counts:
            mix = " ".join(
                f"{mode}={count}" for mode, count in sorted(self.mode_counts.items())
            )
            lines.append(f"mode mix: {mix}")
        return "\n".join(lines)


def _finish_report(
    *,
    latencies: list[float],
    shard_samples: dict[int, list[float]],
    wall: float,
    cache_hits: int,
    overloaded: int,
    errors: int,
    mode_counts: dict,
) -> CapacityReport:
    per_shard = {
        shard: {
            "p50": round(_percentile(samples, 0.5), 6),
            "p90": round(_percentile(samples, 0.9), 6),
            "p99": round(_percentile(samples, 0.99), 6),
            "total": round(sum(samples), 6),
        }
        for shard, samples in shard_samples.items()
    }
    hottest = (
        max(per_shard, key=lambda s: (per_shard[s]["p99"], per_shard[s]["total"]))
        if per_shard
        else None
    )
    return CapacityReport(
        queries=len(latencies),
        wall_seconds=wall,
        latency={
            "p50": round(_percentile(latencies, 0.5), 6),
            "p90": round(_percentile(latencies, 0.9), 6),
            "p99": round(_percentile(latencies, 0.99), 6),
        },
        per_shard=per_shard,
        hottest_shard=hottest,
        cache_hits=cache_hits,
        overloaded=overloaded,
        errors=errors,
        mode_counts=mode_counts,
    )


def replay_plan(
    plan: ReplayPlan,
    *,
    service=None,
    host: str | None = None,
    port: int | None = None,
    text: str | None = None,
    pace: bool = False,
    timeout: float = 60.0,
) -> CapacityReport:
    """Run a plan against a local service or a live ``repro serve``.

    Exactly one target: ``service`` (a :class:`~repro.service.SearchService`
    or sharded service — ``text`` defaults to its database) or
    ``host``/``port`` (``text`` is then required to synthesize queries,
    normally the served index's database).  ``pace=True`` honours the
    plan's arrival offsets; the default replays back-to-back for a
    capacity ceiling.  Requests are issued one at a time, so latencies are
    uncontended service times.
    """
    if (service is None) == (host is None or port is None):
        raise ReplayError("pass either service= or host=/port=, not both")
    if text is None:
        if service is None or not hasattr(service, "database"):
            raise ReplayError(
                "pass text= (the served database text) when replaying "
                "against a server or a sharded service"
            )
        text = service.database.text
    queries = synthesize_queries(plan, text)
    latencies: list[float] = []
    shard_samples: dict[int, list[float]] = {}
    mode_counts: dict[str, int] = {}
    cache_hits = overloaded = errors = 0
    client = None
    if service is None:
        from repro.server import ServerClient, ServerOverloaded, ServerError

        client = ServerClient(host, port, timeout=timeout)
    started = time.perf_counter()
    try:
        for event, sequence in zip(plan.events, queries):
            if pace:
                behind = event.offset - (time.perf_counter() - started)
                if behind > 0:
                    time.sleep(behind)
            mode_counts[event.mode] = mode_counts.get(event.mode, 0) + 1
            kwargs: dict = {"mode": event.mode}
            if event.threshold is not None:
                kwargs["threshold"] = event.threshold
            else:
                kwargs["e_value"] = 10.0 if event.e_value is None else event.e_value
            if event.top_k is not None:
                kwargs["top_k"] = event.top_k
            t0 = time.perf_counter()
            if service is not None:
                try:
                    result = service.search(sequence, **kwargs)
                except ReproError:
                    # A refused request (a ``fast`` row logged by an older
                    # server, say) counts like the server path counts it.
                    errors += 1
                    latencies.append(time.perf_counter() - t0)
                    continue
                latencies.append(time.perf_counter() - t0)
                for shard, seconds in enumerate(shard_seconds(result.stats.spans)):
                    shard_samples.setdefault(shard, []).append(seconds)
            else:
                try:
                    batch = client.search([sequence], trace=True, **kwargs)
                except ServerOverloaded:
                    overloaded += 1
                    latencies.append(time.perf_counter() - t0)
                    continue
                except ServerError:
                    errors += 1
                    latencies.append(time.perf_counter() - t0)
                    continue
                latencies.append(time.perf_counter() - t0)
                served = batch.results[0]
                if served.cached:
                    cache_hits += 1
                for shard, seconds in enumerate(shard_seconds(served.spans)):
                    shard_samples.setdefault(shard, []).append(seconds)
    finally:
        if client is not None:
            client.close()
    wall = time.perf_counter() - started
    return _finish_report(
        latencies=latencies,
        shard_samples=shard_samples,
        wall=wall,
        cache_hits=cache_hits,
        overloaded=overloaded,
        errors=errors,
        mode_counts=mode_counts,
    )
