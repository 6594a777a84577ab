"""What the benchmark runs and reports: workloads, metrics and their bounds.

This table is the one source for ``BENCHMARK.json``
(``python3 perfbench/run.py --write-benchmark-json``).  The bounds come from
the steadiness runs recorded in ``perfbench/STEADINESS.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import inputs

RUN_SECONDS = 16
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: ``reload`` RPCs the traced server takes after its phase; with the
#: mid-stream reloads of ``dna-sharded-reload`` their median is
#: ``store.reload_stall_ms``.  It is a per-layer metric, not an end-to-end
#: one: on a shared machine the store open tracks slow spells more than
#: query latency does (see STEADINESS.md).
RELOAD_PROBES = 7
#: An untraced run needs this many latency samples beyond its p95; fewer
#: fail the run.
MIN_BEYOND_P95 = 10
#: An untraced run keeps sending past ``--seconds`` until it has sent this
#: many requests, so even the slowest workload (``dna-sharded-reload``,
#: 13-16 a second on 2 cores) clears ``MIN_BEYOND_P95`` with a margin
#: (about 15 beyond p95).
MIN_REQUESTS = 300
#: Largest share of the traced p50 that may fall outside every wrapped
#: layer, per workload; over it the traced run fails.  ``dna-exact`` is
#: the workload whose layers the ledger is meant to cover completely.
UNATTRIBUTED_CAP = {"dna-exact": 0.10}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: object
    #: ``store`` (one monolithic IndexStore) or ``shards`` (4-shard manifest).
    index: str
    clients: int
    #: Upper bound on queries per second, used to size the query stream.
    rate_cap: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dna-exact",
            "DNA exact search, one closed-loop client, unique queries: engine, "
            "rank/locate and boundary recheck do the work; server-layer "
            "changes should not move it",
            inputs.dna_exact, "store", clients=1, rate_cap=200,
        ),
        Workload(
            "protein-hot",
            "Protein, two closed-loop clients, half the queries repeat from a "
            "skewed pool: frame codec, admission, linger, batching and the "
            "result cache dominate",
            inputs.protein_hot, "store", clients=2, rate_cap=2000,
        ),
        Workload(
            "dna-sharded-reload",
            "4-shard DNA, exact/top-k/verified mix, generation swap via the "
            "reload RPC at fixed query indices: fan-out, merge, seeding and "
            "the store open path",
            inputs.dna_sharded_reload, "shards", clients=1, rate_cap=100,
        ),
    )
}

#: name -> (unit, better, bound)
END_TO_END = {
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p95_ms": ("ms", "lower", 0.25),
    "throughput_qps": ("queries/s", "higher", 0.25),
    "server_cpu_ms_per_query": ("ms", "lower", 0.25),
    "index_bytes_per_char": ("B/char", "lower", 0.05),
    "server_peak_rss_mb": ("MiB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

#: name -> (unit, better)
PER_LAYER = {
    "server.decode_us_per_request": ("us", "lower"),
    "server.encode_us_per_request": ("us", "lower"),
    "server.response_bytes_per_query": ("B", "lower"),
    "server.cache_lookup_us_per_query": ("us", "lower"),
    "server.queue_ms_per_query": ("ms", "lower"),
    "server.linger_ms_per_query": ("ms", "lower"),
    "server.batch_size_mean": ("queries", "higher"),
    "server.cache_hit_ratio": ("ratio", "higher"),
    "server.unattributed_ms_per_query": ("ms", "lower"),
    "service.batch_ms_per_query": ("ms", "lower"),
    "service.locate_ms_per_query": ("ms", "lower"),
    "service.boundary_drop_ratio": ("ratio", "lower"),
    "service.merge_ms_per_query": ("ms", "lower"),
    "service.shard_skew": ("ratio", "lower"),
    "engine.exact_ms_per_query": ("ms", "lower"),
    "engine.verified_ms_per_query": ("ms", "lower"),
    "core.nodes_per_query": ("count", "lower"),
    "core.entries_calculated_per_query": ("count", "lower"),
    "core.entries_reused_per_query": ("count", "higher"),
    "core.reuse_ratio": ("ratio", "higher"),
    "core.forks_skipped_ratio": ("ratio", "higher"),
    "index.rank_calls_per_query": ("count", "lower"),
    "index.locate_ms_per_query": ("ms", "lower"),
    "index.locate_rows_per_query": ("count", "lower"),
    "io.locate_hit_us_per_query": ("us", "lower"),
    "blast.seeds_per_query": ("count", "lower"),
    "blast.gapped_per_query": ("count", "lower"),
    "store.build_s": ("s", "lower"),
    "store.open_ms": ("ms", "lower"),
    "store.reload_stall_ms": ("ms", "lower"),
    "trace.client_mean_ms": ("ms", "lower"),
    "trace.latency_p50_ms": ("ms", "lower"),
    "trace.untraced_latency_p50_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
