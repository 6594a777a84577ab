"""Serving-tier throughput: micro-batched vs single-request dispatch.

Spins up a real :class:`repro.server.SearchServer` (ephemeral port, result
cache disabled so every request pays for its search), then drives it with C
concurrent client threads each sending one-query requests from a shared
mixed-length workload — the traffic shape a front door actually sees.  Two
server configurations are compared on identical traffic:

* ``single``:  ``max_batch=1`` — every request is its own engine dispatch;
* ``batched``: ``max_batch=16`` — requests that arrive while a batch runs
  coalesce into the next shared ``search_batch`` call.

The server dispatches as soon as its one lane is free and never waits for
company, so batches form only while the lane is busy: ``mean_batch`` stays
at 1 for a lone client and rises with concurrency.  At concurrency >= 8 it
must stay above 1 (CI checks the C=8 row), and the batched server should
match or beat the single server (batched qps >= single qps): coalescing
replaces N queue/executor round-trips with one.  Alignment work itself is
identical in both modes, so on a single core the margin is the dispatch
overhead, not parallel speedup.

Run:  PYTHONPATH=src python benchmarks/bench_server_throughput.py
"""

from __future__ import annotations

import argparse
import tempfile
import threading
import time
import timeit
from pathlib import Path

from repro import IndexStore, make_workload
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.obs import maybe_record_bench
from repro.obs.metrics import Counter, Histogram, set_enabled
from repro.server import SearchServer, ServerClient, ServerThread


def build_store(args: argparse.Namespace, directory: Path) -> tuple[Path, list[str]]:
    workload = make_workload(
        args.text_length,
        args.max_query_length,
        query_count=args.queries,
        query_length_range=(args.min_query_length, args.max_query_length),
        seed=args.seed,
    )
    # Split the synthetic text into records so attribution has work to do.
    piece = max(1, len(workload.text) // args.sequences)
    records = [
        FastaRecord(f"chr{i + 1}", workload.text[i * piece : (i + 1) * piece])
        for i in range(args.sequences)
        if workload.text[i * piece : (i + 1) * piece]
    ]
    store_path = directory / "bench.idx"
    IndexStore.build(SequenceDatabase(records)).save(store_path)
    return store_path, workload.queries


def drive(
    port: int, queries: list[str], concurrency: int, threshold: int
) -> tuple[float, int]:
    """Send every query as its own request from C client threads."""
    cursor = {"next": 0}
    lock = threading.Lock()
    errors: list[Exception] = []

    def worker() -> None:
        try:
            with ServerClient(port=port) as client:
                while True:
                    with lock:
                        index = cursor["next"]
                        if index >= len(queries):
                            return
                        cursor["next"] = index + 1
                    client.search(
                        [(f"q{index}", queries[index])], threshold=threshold
                    )
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall, len(queries)


def run_mode(
    store_path: Path,
    queries: list[str],
    *,
    max_batch: int,
    concurrency: int,
    threshold: int,
    request_log: Path | None = None,
) -> tuple[float, dict]:
    server = SearchServer(
        store_path,
        port=0,
        max_batch=max_batch,
        max_queue=max(256, len(queries)),
        cache_size=0,
        reload_poll=0,
        request_log=request_log,
    )
    with ServerThread(server) as handle:
        # One warm-up request so engine caches don't skew the first mode.
        with ServerClient(port=handle.port) as client:
            client.search([("warmup", queries[0])], threshold=threshold)
        wall, count = drive(handle.port, queries, concurrency, threshold)
        with ServerClient(port=handle.port) as client:
            stats = client.stats()["stats"]
    return count / wall, stats


def mutation_costs(iterations: int = 200_000) -> dict[str, float]:
    """Nanoseconds per metric mutation (scratch metrics, off the registry)."""
    counter = Counter("bench_mutation_total", "scratch", ("m",), registry=None)
    histogram = Histogram(
        "bench_mutation_seconds", "scratch", ("m",), registry=None
    )
    counter_child = counter.labels(m="x")
    histogram_child = histogram.labels(m="x")

    def per_call(fn) -> float:
        return timeit.timeit(fn, number=iterations) / iterations * 1e9

    costs = {
        "counter_inc_ns": per_call(counter_child.inc),
        "observe_ns": per_call(lambda: histogram_child.observe(0.01)),
        "labelled_observe_ns": per_call(
            lambda: histogram.labels(m="x").observe(0.01)
        ),
    }
    set_enabled(False)
    try:
        costs["disabled_observe_ns"] = per_call(
            lambda: histogram_child.observe(0.01)
        )
    finally:
        set_enabled(True)
    return costs


def run(args: argparse.Namespace) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-bench-server-") as tmp:
        store_path, queries = build_store(args, Path(tmp))
        lengths = sorted(len(q) for q in queries)
        print(
            f"# store: {store_path.stat().st_size:,} bytes over "
            f"{args.text_length:,} chars / {args.sequences} records; "
            f"{len(queries)} queries, lengths {lengths[0]}..{lengths[-1]} "
            f"(mixed), H={args.threshold}"
        )
        print(
            "# concurrency\tsingle_qps\tbatched_qps\tspeedup\tmean_batch"
        )
        rows = []
        for concurrency in args.concurrency:
            single_qps, _ = run_mode(
                store_path, queries,
                max_batch=1,
                concurrency=concurrency, threshold=args.threshold,
            )
            batched_qps, stats = run_mode(
                store_path, queries,
                max_batch=args.max_batch,
                concurrency=concurrency, threshold=args.threshold,
            )
            mean_batch = stats["mean_batch_size"]
            print(
                f"{concurrency}\t{single_qps:.1f}\t{batched_qps:.1f}\t"
                f"{batched_qps / single_qps:.2f}x\t{mean_batch:.2f}"
            )
            rows.append(
                {
                    "concurrency": concurrency,
                    "single_qps": round(single_qps, 1),
                    "batched_qps": round(batched_qps, 1),
                    "mean_batch": round(mean_batch, 2),
                }
            )

        # Request-log overhead: the batched configuration at the highest
        # requested concurrency, with and without a structured request log.
        # The log's hot-path cost is one deque append per query, so p50
        # should move by well under 5%.
        concurrency = args.concurrency[-1]
        batched = dict(
            max_batch=args.max_batch,
            concurrency=concurrency, threshold=args.threshold,
        )
        _, off_stats = run_mode(store_path, queries, **batched)
        _, on_stats = run_mode(
            store_path, queries, request_log=Path(tmp) / "reqlog.db", **batched
        )
        off_p50 = off_stats["latency_seconds"]["p50"]
        on_p50 = on_stats["latency_seconds"]["p50"]
        overhead = (on_p50 / off_p50 - 1.0) if off_p50 > 0 else 0.0
        written = on_stats.get("request_log", {}).get("written", 0)
        print(
            f"# request log @C={concurrency}: p50 off {off_p50 * 1e3:.2f} ms, "
            f"on {on_p50 * 1e3:.2f} ms ({overhead:+.1%}), "
            f"{written} requests logged"
        )

        # Metrics overhead: same configuration, with the process-wide
        # registry enabled (the default) vs disabled.  An instrumented
        # request costs a handful of dict hits and short lock sections;
        # acceptance is p50 moving by under 5%.  Run the pair alternately
        # and compare best-of p50s — a single off/on pair measures machine
        # noise (tens of percent on a busy box), not the registry.
        off_p50s: list[float] = []
        on_p50s: list[float] = []
        for repeat in range(args.metrics_repeats):
            # Swap which configuration goes first each repeat, so thermal
            # or load drift cannot systematically favour one side.
            for enabled in ((False, True) if repeat % 2 == 0 else (True, False)):
                set_enabled(enabled)
                try:
                    _, run_stats = run_mode(store_path, queries, **batched)
                finally:
                    set_enabled(True)
                bucket = on_p50s if enabled else off_p50s
                bucket.append(run_stats["latency_seconds"]["p50"])
        metrics_off_p50 = min(off_p50s)
        metrics_on_p50 = min(on_p50s)
        metrics_overhead = (
            (metrics_on_p50 / metrics_off_p50 - 1.0)
            if metrics_off_p50 > 0 else 0.0
        )
        print(
            f"# metrics @C={concurrency}: best p50 of {args.metrics_repeats} "
            f"off {metrics_off_p50 * 1e3:.2f} ms, "
            f"on {metrics_on_p50 * 1e3:.2f} ms ({metrics_overhead:+.1%})"
        )

        # Per-mutation cost, measured directly: the server-level delta
        # above bounds the overhead within machine noise, while these
        # numbers show what one instrumented touch actually costs.
        op_ns = mutation_costs()
        print(
            "# per-op: counter inc {counter_inc_ns:.0f} ns, "
            "histogram observe {observe_ns:.0f} ns, "
            "labels()+observe {labelled_observe_ns:.0f} ns, "
            "disabled observe {disabled_observe_ns:.0f} ns".format(**op_ns)
        )

        # The store lives in a TemporaryDirectory, so key the result to its
        # fingerprint rather than a path that vanishes when the bench exits
        # (a dead path would fail every later ``catalog verify-all``).
        bench_id = maybe_record_bench(
            "server_throughput",
            {
                "threshold": args.threshold,
                "rows": rows,
                "request_log_p50_overhead": round(overhead, 4),
                "metrics_p50_overhead": round(metrics_overhead, 4),
                "metrics_op_ns": {k: round(v, 1) for k, v in op_ns.items()},
            },
            fingerprint=IndexStore.open(store_path).fingerprint_key,
        )
        if bench_id is not None:
            print(f"# recorded as bench #{bench_id} (REPRO_CATALOG)")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--text-length", type=int, default=60_000)
    parser.add_argument("--sequences", type=int, default=6)
    parser.add_argument("--queries", type=int, default=48)
    parser.add_argument("--min-query-length", type=int, default=30)
    parser.add_argument("--max-query-length", type=int, default=80)
    parser.add_argument("--threshold", type=int, default=28)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument(
        "--concurrency", type=int, nargs="+", default=[1, 4, 8, 16]
    )
    parser.add_argument(
        "--metrics-repeats", type=int, default=3,
        help="alternating off/on pairs for the metrics-overhead comparison",
    )
    parser.add_argument("--seed", type=int, default=20120827)
    return parser.parse_args()


if __name__ == "__main__":
    run(parse_args())
