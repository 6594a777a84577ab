"""Command-line interface: ``python -m repro <command>``.

Commands
--------
search
    Align queries (literal sequence or FASTA file, possibly multi-record)
    against a database text (literal or FASTA) and print hits attributed to
    individual database sequences.
search-db
    Batch-search a FASTA query set against a FASTA database, streaming
    attributed hits as each query completes.
serve / query / top
    Keep an index resident behind a TCP socket (``serve``: asyncio server
    with micro-batching, admission control, a result cache, hot index
    reload and an optional ``--metrics-port`` Prometheus scrape endpoint),
    talk to it (``query``: same output format as ``search-db``, so served
    and offline runs byte-diff clean), or watch it live (``top``: per-mode
    qps/latency quantiles, queue pressure, cache hit rate, hottest shard).
index build / info / verify
    Build a persistent index store from a database FASTA, inspect its
    header, or re-verify its checksums.  ``--shards K`` partitions the
    database into K balanced shards — one store per shard plus a
    checksummed manifest — built in parallel with ``--build-workers``.
    ``search`` / ``search-db`` accept ``--index PATH`` pointing at either
    a single store or a shard manifest; sharded serving fans each query
    across every shard and merges results bit-identically to the
    unsharded path (the build-once / serve-many workflow).
analyze
    Print the Section 6 entry-bound table for an alphabet size.
generate
    Emit a synthetic genome as FASTA.

All searches run through :class:`repro.service.SearchService`, so
multi-record FASTA inputs keep their per-sequence offset table and hits
spanning a concatenation boundary are dropped instead of reported.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import signal
import sys
import time
from pathlib import Path

import numpy as np

from repro import DNA, PROTEIN, ScoringScheme, genome, write_fasta
from repro.align.types import SearchStats
from repro.analysis import CHECKERS, run_lint
from repro.core.analysis import entry_bound
from repro.errors import ReproError, ScoringError
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord, parse_fasta_file
from repro.obs import (
    Catalog,
    ReplayPlan,
    configure_logging,
    format_spans,
    maybe_register_build,
    replay_plan,
    run_top,
    span_tree,
)
from repro.scoring.scheme import DEFAULT_SCHEME, blast_scheme_grid
from repro.server import SearchServer, ServerClient, wait_until_ready
from repro.service import SERVICE_ENGINES, SearchService, ShardedSearchService
from repro.store import IndexStore, ShardedStore, is_manifest
from repro.store.format import read_header as read_store_header

logger = logging.getLogger("repro.cli")

ALPHABETS = {"dna": DNA, "protein": PROTEIN}


def _load_records(value: str, default_id: str) -> list[FastaRecord]:
    """Interpret a CLI argument as a FASTA path or a literal sequence."""
    path = Path(value)
    if path.exists():
        return parse_fasta_file(path)
    return [FastaRecord(header=default_id, sequence=value.upper())]


def _load_database(value: str) -> SequenceDatabase:
    """Load a text argument as a database, keeping the offset table."""
    return SequenceDatabase(_load_records(value, default_id="text"))


def _parse_scheme(value: str) -> ScoringScheme:
    parts = value.strip("<>").split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "scheme must be sa,sb,sg,ss (e.g. 1,-3,-5,-2)"
        )
    try:
        sa, sb, sg, ss = (int(x) for x in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"scheme components must be integers, got {value!r}"
        ) from None
    try:
        return ScoringScheme(sa, sb, sg, ss)
    except ScoringError as exc:
        raise argparse.ArgumentTypeError(
            f"scheme {value!r} is invalid: {exc} (e.g. 1,-3,-5,-2)"
        ) from None


def _make_service(
    args: argparse.Namespace, database: SequenceDatabase | None
) -> "SearchService | ShardedSearchService":
    """A service over ``database`` or over ``--index`` (exactly one is set).

    ``--index`` accepts a single-store file or a shard manifest — the first
    bytes decide, so callers never name the layout.  ``--alphabet`` /
    ``--scheme`` stay ``None`` unless given on the command line, so an
    indexed service adopts the store's fingerprint and an explicit flag
    that contradicts it is rejected instead of silently ignored.
    """
    alphabet = ALPHABETS[args.alphabet] if args.alphabet else None
    if args.index is not None and is_manifest(args.index):
        if args.engine != "alae":
            raise ReproError(
                "a sharded index holds ALAE indexes; other engines need a "
                "database to build from"
            )
        return ShardedSearchService(
            args.index,
            alphabet=alphabet,
            scheme=args.scheme,
            workers=args.workers,
            executor=args.executor,
        )
    return SearchService(
        database,
        store=args.index,
        engine=args.engine,
        alphabet=alphabet,
        scheme=args.scheme,
        workers=args.workers,
        executor=args.executor,
    )


def _hit_header() -> None:
    print("# query\tsequence\tt_start\tt_end\tp_end\tscore")


def _print_result(
    query_id: str, engine: str, threshold: int, hits, dropped: int, limit: int
) -> None:
    """One query's hit block — shared by ``search-db`` and ``query`` so a
    served run byte-diffs clean against the offline run of the same index."""
    print(
        f"# query={query_id} engine={engine} H={threshold} "
        f"hits={len(hits)} dropped={dropped}"
    )
    for hit in hits[:limit]:
        print(
            f"{query_id}\t{hit.sequence_id}\t{hit.t_start}\t"
            f"{hit.t_end}\t{hit.p_end}\t{hit.score}"
        )


def _search_kwargs(args: argparse.Namespace) -> dict:
    kwargs = (
        {"threshold": args.threshold}
        if args.threshold is not None
        else {"e_value": args.e_value}
    )
    if args.top_k is not None:
        kwargs["top_k"] = args.top_k
    if getattr(args, "mode", None) is not None:
        kwargs["mode"] = args.mode
    return kwargs


def _run_batch(
    service: "SearchService | ShardedSearchService",
    queries: list[FastaRecord],
    args: argparse.Namespace,
) -> int:
    """Stream a batch through the service, printing attributed hits."""
    _hit_header()
    total_hits = dropped = count = 0
    stats = SearchStats()
    started = time.perf_counter()
    for result in service.iter_results(queries, **_search_kwargs(args)):
        count += 1
        total_hits += len(result.hits)
        dropped += result.dropped_boundary
        stats.merge(result.stats)
        _print_result(
            result.query_id, args.engine, result.threshold, result.hits,
            result.dropped_boundary, args.limit,
        )
    wall = time.perf_counter() - started
    print(
        f"# queries={count} hits={total_hits} dropped={dropped} "
        f"entries calculated={stats.calculated} reused={stats.reused} "
        f"cost={stats.computation_cost} work={stats.elapsed_seconds:.3f}s "
        f"wall={wall:.3f}s",
        file=sys.stderr,
    )
    return 0


def _check_text_vs_index(args: argparse.Namespace, positional: str) -> str | None:
    """Enforce "exactly one of the database argument and ``--index``"."""
    value = getattr(args, positional)
    if args.index is not None and value is not None:
        return f"pass either a {positional} argument or --index, not both"
    if args.index is None and value is None:
        return f"a {positional} argument or --index is required"
    return None


def cmd_search(args: argparse.Namespace) -> int:
    problem = _check_text_vs_index(args, "text")
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    database = _load_database(args.text) if args.index is None else None
    queries = _load_records(args.query, default_id="query")
    service = _make_service(args, database)
    return _run_batch(service, queries, args)


def cmd_search_db(args: argparse.Namespace) -> int:
    problem = _check_text_vs_index(args, "database")
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    query_path = Path(args.queries)
    paths = [(query_path, "queries")]
    if args.index is None:
        paths.append((Path(args.database), "database"))
    for path, label in paths:
        if not path.exists():
            print(f"error: {label} FASTA {path} does not exist", file=sys.stderr)
            return 2
    database = (
        SequenceDatabase.from_fasta(args.database)
        if args.index is None
        else None
    )
    queries = parse_fasta_file(query_path)
    service = _make_service(args, database)
    source = (
        f"database={Path(args.database).name}"
        if args.index is None
        else f"index={Path(args.index).name}"
    )
    if isinstance(service, ShardedSearchService):
        shape = (
            f"sequences={service.record_count} total={service.total_length} "
            f"shards={service.shard_count}"
        )
    else:
        shape = (
            f"sequences={len(service.database)} "
            f"total={service.database.total_length}"
        )
    print(f"# {source} {shape} queries={len(queries)}", file=sys.stderr)
    return _run_batch(service, queries, args)


def cmd_serve(args: argparse.Namespace) -> int:
    # The serving process is the one long-lived entry point: route its
    # diagnostics through the repro.* logger hierarchy instead of bare
    # prints, so --log-level / --log-json govern everything it emits.
    configure_logging(args.log_level, json_lines=args.log_json)
    index = Path(args.index)
    if not index.exists():
        print(f"error: index {index} does not exist", file=sys.stderr)
        return 2
    if is_manifest(index) and not args.shards_ok:
        print(
            f"error: {index} is a shard manifest; serving it keeps every "
            f"shard engine resident in this process — pass --shards-ok to "
            f"confirm",
            file=sys.stderr,
        )
        return 2
    try:
        server = SearchServer(
            index,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            cache_size=args.cache_size,
            reload_poll=args.reload_poll,
            workers=args.workers,
            executor=args.executor,
            request_log=args.request_log,
            metrics_port=args.metrics_port,
        )
    except ValueError as exc:  # a bad batch shape, before the index opens
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _amain() -> None:
        await server.start()
        if server.metrics_port is not None:
            logger.info(
                "metrics on http://%s:%d/metrics",
                args.host, server.metrics_port,
            )
        logger.info(
            "batch shape: max_batch=%d queue=%d cache=%d",
            args.max_batch, args.max_queue, args.cache_size,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(server.stop())
                )
            except NotImplementedError:  # e.g. non-Unix event loops
                pass
        await server.serve_forever()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if args.queries is None and not (args.stats or args.shutdown):
        print(
            "error: a queries argument is required (or --stats/--shutdown)",
            file=sys.stderr,
        )
        return 2
    if args.wait > 0:
        wait_until_ready(args.host, args.port, timeout=args.wait)
    with ServerClient(args.host, args.port, timeout=args.timeout) as client:
        if args.stats:
            response = client.stats()
            print(json.dumps(response, indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("server stopping", file=sys.stderr)
            return 0
        queries = _load_records(args.queries, default_id="query")
        started = time.perf_counter()
        trace = args.trace or args.trace_out is not None
        batch = client.search(queries, trace=trace, **_search_kwargs(args))
        wall = time.perf_counter() - started
    _hit_header()
    total_hits = dropped = cached = 0
    for result in batch.results:
        total_hits += len(result.hits)
        dropped += result.dropped_boundary
        cached += result.cached
        _print_result(
            result.query_id, batch.engine, result.threshold, result.hits,
            result.dropped_boundary, args.limit,
        )
    print(
        f"# queries={len(batch.results)} hits={total_hits} "
        f"dropped={dropped} cached={cached} "
        f"generation={batch.generation} wall={wall:.3f}s",
        file=sys.stderr,
    )
    if args.trace:
        # Span breakdowns are stderr-only: stdout keeps its byte-for-byte
        # parity with the offline search-db path.
        for result in batch.results:
            rendered = format_spans(result.spans) if result.spans else "(cached)"
            print(f"# trace {result.query_id}: {rendered}", file=sys.stderr)
    if args.trace_out is not None:
        # Canonical span-tree JSON for tooling (sorted keys, trailing
        # newline); stdout stays byte-identical — only the file is written.
        document = {
            "engine": batch.engine,
            "generation": batch.generation,
            "mode": batch.mode,
            "queries": [
                {
                    "id": result.query_id,
                    "cached": result.cached,
                    **span_tree(result.spans),
                }
                for result in batch.results
            ],
        }
        Path(args.trace_out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"# trace tree -> {args.trace_out}", file=sys.stderr)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    if args.wait > 0:
        wait_until_ready(args.host, args.port, timeout=args.wait)
    with ServerClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            return run_top(
                client, interval=args.interval, once=args.once,
            )
        except KeyboardInterrupt:
            return 0
        except BrokenPipeError:
            # `repro top --once | head` closing stdout early is not an error.
            return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    out = args.out
    if out is None:
        # The <database>.idx default only makes sense for a real file; a
        # literal sequence would otherwise become the output filename.
        if not Path(args.database).exists():
            print(
                "error: --out is required when the database is a literal "
                "sequence",
                file=sys.stderr,
            )
            return 2
        out = f"{args.database}.idx"
    database = _load_database(args.database)
    build_started = time.perf_counter()
    if args.shards > 1:
        sharded = ShardedStore.build(
            database,
            out,
            shards=args.shards,
            alphabet=ALPHABETS[args.alphabet],
            scheme=args.scheme or DEFAULT_SCHEME,
            occ_block=args.occ_block,
            sa_sample=args.sa_sample,
            build_workers=args.build_workers,
        )
        build_seconds = time.perf_counter() - build_started
        total_bytes = sum(
            sharded.shard_path(i).stat().st_size
            for i in range(sharded.shard_count)
        )
        lengths = "/".join(str(n) for n in sharded.shard_lengths())
        print(
            f"wrote {sharded.path} + {sharded.shard_count} shard stores "
            f"({total_bytes:,} bytes, {len(database)} sequences, "
            f"{database.total_length:,} chars, shard lengths {lengths}, "
            f"fingerprint {sharded.fingerprint_key})",
            file=sys.stderr,
        )
        _register_build(sharded.path, build_seconds, args.catalog)
        return 0
    store = IndexStore.build(
        database,
        alphabet=ALPHABETS[args.alphabet],
        scheme=args.scheme or DEFAULT_SCHEME,
        occ_block=args.occ_block,
        sa_sample=args.sa_sample,
    )
    path = store.save(out)
    build_seconds = time.perf_counter() - build_started
    print(
        f"wrote {path} ({path.stat().st_size:,} bytes, "
        f"{len(database)} sequences, {database.total_length:,} chars, "
        f"fingerprint {store.fingerprint_key})",
        file=sys.stderr,
    )
    _register_build(path, build_seconds, args.catalog)
    return 0


def _register_build(
    index_path: Path, build_seconds: float, catalog: str | None
) -> None:
    """Catalog a finished build (``--catalog`` or ``REPRO_CATALOG``)."""
    store_id = maybe_register_build(
        index_path, build_seconds=build_seconds, catalog_path=catalog
    )
    if store_id is not None:
        print(
            f"catalogued {index_path} as store #{store_id} "
            f"(build {build_seconds:.2f}s)",
            file=sys.stderr,
        )


def cmd_index_info(args: argparse.Namespace) -> int:
    if is_manifest(args.path):
        sharded = ShardedStore.open(args.path)
        print(f"# {args.path} (sharded)")
        print(f"fingerprint\t{sharded.fingerprint_key}")
        print(f"sequences\t{sharded.record_count}")
        print(f"total_length\t{sharded.total_length}")
        print(f"shards\t{sharded.shard_count}")
        print("# shard\tpath\trecords\tlength\theader_crc")
        for i, spec in enumerate(sharded.payload["shards"]):
            print(
                f"{i}\t{spec['path']}\t{len(spec['records'])}\t"
                f"{spec['total_length']}\t{spec['header_crc']:08x}"
            )
        return 0
    store = IndexStore.open(args.path)
    meta = store.header["database"]
    print(f"# {args.path}")
    print(f"fingerprint\t{store.fingerprint_key}")
    print(f"sequences\t{meta['records']}")
    print(f"total_length\t{meta['total_length']}")
    print("# array\tdtype\tshape\tbytes\tcrc32")
    for spec in store.header["arrays"]:
        shape = "x".join(str(s) for s in spec["shape"])
        print(
            f"{spec['name']}\t{spec['dtype']}\t{shape}\t{spec['nbytes']}\t"
            f"{spec['crc32']:08x}"
        )
    return 0


def cmd_index_verify(args: argparse.Namespace) -> int:
    if is_manifest(args.path):
        problems = ShardedStore.verify(args.path)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        sharded = ShardedStore.open(args.path)
        print(
            f"OK: {args.path} ({sharded.shard_count} shards, manifest and "
            f"all shard checksums match)",
            file=sys.stderr,
        )
        return 0
    problems = IndexStore.verify(args.path)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    header, _ = read_store_header(args.path)
    print(
        f"OK: {args.path} ({len(header['arrays'])} arrays, "
        f"all checksums match)",
        file=sys.stderr,
    )
    return 0


def cmd_catalog_ls(args: argparse.Namespace) -> int:
    with Catalog(args.db) as catalog:
        rows = catalog.stores()
        bench_count = len(catalog.benchmarks())
        request_count = catalog.request_count()
        print(
            f"# {args.db} (schema v{catalog.schema_version}, "
            f"{len(rows)} stores, {bench_count} bench results, "
            f"{request_count} logged requests)"
        )
        print("# id\tkind\tshards\trecords\tlength\tbytes\tbuild_s\tfingerprint\tpath")
        for row in rows:
            build = (
                f"{row['build_seconds']:.2f}"
                if row["build_seconds"] is not None
                else "-"
            )
            print(
                f"{row['store_id']}\t{row['kind']}\t{row['shard_count']}\t"
                f"{row['records']}\t{row['total_length']}\t"
                f"{row['file_bytes']}\t{build}\t{row['fingerprint']}\t"
                f"{row['path']}"
            )
    return 0


def cmd_catalog_show(args: argparse.Namespace) -> int:
    with Catalog(args.db) as catalog:
        try:
            store_id = int(args.store)
        except ValueError:
            resolved = catalog.store_id_for(args.store)
            if resolved is None:
                print(
                    f"error: no store with path {args.store!r} in {args.db}",
                    file=sys.stderr,
                )
                return 2
            store_id = resolved
        row = catalog.store(store_id)
        print(f"# store #{row['store_id']}: {row['path']}")
        for key in (
            "kind", "fingerprint", "records", "total_length", "shard_count",
            "file_bytes", "created_utc", "build_seconds",
        ):
            print(f"{key}\t{row[key]}")
        print(f"identity_crc\t{int(row['identity_crc']):#010x}")
        shards = catalog.shards(store_id)
        if shards:
            print("# shard\tpath\trecords\tlength\theader_crc")
            for shard in shards:
                print(
                    f"{shard['shard']}\t{shard['path']}\t{shard['records']}\t"
                    f"{shard['total_length']}\t{int(shard['header_crc']):08x}"
                )
        benches = catalog.benchmarks(store_id)
        if benches:
            print("# bench\tname\tcreated\tmetrics")
            for bench in benches:
                print(
                    f"{bench['bench_id']}\t{bench['name']}\t"
                    f"{bench['created_utc']}\t{bench['metrics']}"
                )
    return 0


def cmd_catalog_verify_all(args: argparse.Namespace) -> int:
    with Catalog(args.db) as catalog:
        count = len(catalog.stores())
        problems = catalog.verify_all()
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(
        f"OK: {count} catalogued store(s) verified (checksums and "
        f"identities match)",
        file=sys.stderr,
    )
    return 0


def cmd_catalog_record_bench(args: argparse.Namespace) -> int:
    if args.metrics_file is not None:
        metrics = json.loads(Path(args.metrics_file).read_text())
    else:
        metrics = json.loads(args.metrics)
    if not isinstance(metrics, dict):
        print("error: metrics must be a JSON object", file=sys.stderr)
        return 2
    with Catalog(args.db) as catalog:
        bench_id = catalog.record_bench(
            args.name,
            metrics,
            store_path=args.store,
            fingerprint=args.fingerprint,
        )
    print(f"recorded bench #{bench_id} ({args.name})", file=sys.stderr)
    return 0


def _replay_text(index_path: str | Path) -> str:
    """The served database text, for synthesizing replay queries.

    Shard stores carry contiguous record ranges in manifest order, so
    concatenating them reproduces the unsharded text.
    """
    index_path = Path(index_path)
    if is_manifest(index_path):
        sharded = ShardedStore.open(index_path)
        return "".join(
            IndexStore.open(sharded.shard_path(i)).database().text
            for i in range(sharded.shard_count)
        )
    return IndexStore.open(index_path).database().text


def cmd_bench(args: argparse.Namespace) -> int:
    if not args.plan_only and args.index is None:
        print(
            "error: --index is required unless --plan-only", file=sys.stderr
        )
        return 2
    plan = ReplayPlan.from_catalog(
        args.replay,
        seed=args.seed,
        count=args.count,
        rate_scale=args.rate_scale,
    )
    if args.plan_out is not None:
        Path(args.plan_out).write_text(plan.to_json())
        print(
            f"wrote replay plan ({len(plan.events)} events, seed "
            f"{plan.seed}) to {args.plan_out}",
            file=sys.stderr,
        )
    if args.plan_only:
        return 0
    text = _replay_text(args.index)
    if args.port is not None:
        if args.wait > 0:
            wait_until_ready(args.host, args.port, timeout=args.wait)
        report = replay_plan(
            plan, host=args.host, port=args.port, text=text, pace=args.pace,
        )
    else:
        index = Path(args.index)
        service = (
            ShardedSearchService(index)
            if is_manifest(index)
            else SearchService(store=index)
        )
        report = replay_plan(plan, service=service, text=text, pace=args.pace)
    print(report.format())
    with Catalog(args.replay) as catalog:
        bench_id = catalog.record_bench(
            "replay",
            report.to_dict(),
            store_path=args.index if Path(args.index).exists() else None,
        )
    print(
        f"recorded capacity report as bench #{bench_id} in {args.replay}",
        file=sys.stderr,
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_checkers:
        print("# code\tname\tscope\torigin")
        for code, checker in sorted(CHECKERS.items()):
            print(f"{code}\t{checker.name}\t{checker.scope}\t{checker.origin}")
        return 0
    report = run_lint(args.paths, dump_graph=args.dump_graph)
    if args.dump_graph:
        print(f"flow graph written to {args.dump_graph}", file=sys.stderr)
    if args.format == "json":
        print(report.format_json())
    elif args.format == "sarif":
        print(report.format_sarif())
    else:
        print(report.format_text())
    return report.exit_code


def cmd_analyze(args: argparse.Namespace) -> int:
    sigma = ALPHABETS[args.alphabet].size
    print(f"# Section 6 entry bounds, sigma = {sigma}")
    print("# scheme\tq\tcoefficient\texponent")
    for scheme in blast_scheme_grid():
        try:
            bound = entry_bound(scheme, sigma)
        except ScoringError:  # degenerate for this sigma
            continue
        print(
            f"{scheme}\t{scheme.q}\t{bound.coefficient:.3f}\t"
            f"{bound.exponent:.4f}"
        )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    alphabet = ALPHABETS[args.alphabet]
    sequence = genome(
        args.length, rng, alphabet=alphabet,
        repeat_fraction=args.repeat_fraction,
    )
    record = FastaRecord(
        header=f"synthetic_{args.alphabet} length={args.length} seed={args.seed}",
        sequence=sequence,
    )
    write_fasta([record], args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=sorted(SERVICE_ENGINES), default="alae")
    parser.add_argument(
        "--alphabet", choices=ALPHABETS, default=None,
        help="dna or protein (default dna, or the --index fingerprint)",
    )
    parser.add_argument(
        "--scheme", type=_parse_scheme, default=None,
        help="sa,sb,sg,ss (default 1,-3,-5,-2, or the --index fingerprint)",
    )
    parser.add_argument(
        "--index", default=None, metavar="PATH",
        help="serve from a prebuilt index store or shard manifest (see "
        "`repro index build [--shards K]`) instead of building indexes "
        "from the database argument",
    )
    parser.add_argument("--threshold", type=int, default=None)
    parser.add_argument("--e-value", type=float, default=10.0)
    parser.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="rank each query's hits by score and keep only the best K",
    )
    parser.add_argument("--limit", type=int, default=50, help="max printed hits per query")
    parser.add_argument("--workers", type=int, default=1, help="worker pool size")
    parser.add_argument(
        "--executor", choices=("threads", "processes", "spawn"), default="threads",
        help="worker pool type (processes forks the shared engine; spawn "
        "reopens an --index store in fresh workers)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run a local-alignment search")
    search.add_argument(
        "text", nargs="?", default=None,
        help="text sequence or FASTA path (multi-record ok); omit with --index",
    )
    search.add_argument("query", help="query sequence or FASTA path (multi-record ok)")
    _add_search_options(search)
    search.set_defaults(func=cmd_search)

    search_db = sub.add_parser(
        "search-db", help="batch-search a FASTA query set against a FASTA database"
    )
    search_db.add_argument(
        "database", nargs="?", default=None,
        help="database FASTA path; omit with --index",
    )
    search_db.add_argument("queries", help="query FASTA path")
    _add_search_options(search_db)
    search_db.set_defaults(func=cmd_search_db)

    serve = sub.add_parser(
        "serve",
        help="serve an index over TCP (resident engine, micro-batching, "
        "hot reload)",
    )
    serve.add_argument(
        "--index", required=True, metavar="PATH",
        help="prebuilt index store or shard manifest to serve",
    )
    serve.add_argument(
        "--shards-ok", action="store_true",
        help="confirm serving a shard manifest (keeps every shard engine "
        "resident in this process)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7781,
        help="TCP port (0 picks an ephemeral port, printed on stderr)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16, metavar="N",
        help="max queries coalesced into one engine batch",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="admission-control cap on pending queries (overload beyond)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024, metavar="N",
        help="result LRU capacity in queries (0 disables caching)",
    )
    serve.add_argument(
        "--reload-poll", type=float, default=2.0, metavar="SECONDS",
        help="how often to check the index file for a hot reload "
        "(0 disables polling; the reload RPC still works)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker-pool size inside one batch (the service layer's pool)",
    )
    serve.add_argument(
        "--executor", choices=("threads", "processes", "spawn"),
        default="threads", help="service worker pool type",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="P",
        help="also serve Prometheus text exposition on GET "
        "http://HOST:P/metrics (0 picks an ephemeral port, logged on "
        "stderr); scrape-able by any Prometheus-compatible collector",
    )
    serve.add_argument(
        "--request-log", default=None, metavar="CATALOG.db",
        help="append one structured row per request to this catalog "
        "database (query hash, mode, latency, cache hit, batch size, "
        "per-shard timings); the raw material for `repro bench --replay`",
    )
    serve.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="server diagnostic verbosity on stderr (default info)",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit diagnostics as one JSON object per line",
    )
    serve.set_defaults(func=cmd_serve)

    query = sub.add_parser(
        "query", help="query a running `repro serve` instance"
    )
    query.add_argument(
        "queries", nargs="?", default=None,
        help="query FASTA path or literal sequence; omit with "
        "--stats/--shutdown",
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7781)
    query.add_argument("--threshold", type=int, default=None)
    query.add_argument("--e-value", type=float, default=10.0)
    query.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="rank each query's hits by score and keep only the best K",
    )
    query.add_argument(
        "--mode", default=None,
        help="search mode: exact (the default) or verified, which the "
        "server answers with the exact engine; it refuses fast",
    )
    query.add_argument(
        "--limit", type=int, default=50, help="max printed hits per query"
    )
    query.add_argument("--timeout", type=float, default=60.0)
    query.add_argument(
        "--wait", type=float, default=0.0, metavar="SECONDS",
        help="wait up to SECONDS for the server to come up first",
    )
    query.add_argument(
        "--trace", action="store_true",
        help="print per-query span breakdowns (engine/locate/merge/shardN "
        "milliseconds) on stderr; stdout stays byte-identical",
    )
    query.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write the per-query span tree as canonical JSON "
        "(sorted keys) to FILE; implies trace collection, stdout stays "
        "byte-identical",
    )
    query.add_argument(
        "--stats", action="store_true",
        help="print the server's stats snapshot as JSON and exit",
    )
    query.add_argument(
        "--shutdown", action="store_true",
        help="ask the server to stop gracefully and exit",
    )
    query.set_defaults(func=cmd_query)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running `repro serve` "
        "(qps/p50/p90/p99 per mode, queue depth, cache hit rate, "
        "hottest shard)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7781)
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame without clearing the screen and exit "
        "(scripting/CI)",
    )
    top.add_argument("--timeout", type=float, default=60.0)
    top.add_argument(
        "--wait", type=float, default=0.0, metavar="SECONDS",
        help="wait up to SECONDS for the server to come up first",
    )
    top.set_defaults(func=cmd_top)

    index = sub.add_parser(
        "index", help="build / inspect / verify persistent index stores"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    build = index_sub.add_parser(
        "build", help="build all indexes for a database and save them"
    )
    build.add_argument("database", help="database FASTA path or literal sequence")
    build.add_argument(
        "--out", default=None, metavar="PATH",
        help="output store path (default: <database>.idx)",
    )
    build.add_argument("--alphabet", choices=ALPHABETS, default="dna")
    build.add_argument(
        "--scheme", type=_parse_scheme, default=None,
        help="sa,sb,sg,ss (default 1,-3,-5,-2)",
    )
    build.add_argument("--occ-block", type=int, default=128)
    build.add_argument("--sa-sample", type=int, default=16)
    build.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="partition the database into K balanced shards and write a "
        "manifest plus one store per shard (default 1: a single store)",
    )
    build.add_argument(
        "--build-workers", type=int, default=1, metavar="N",
        help="build shard stores in an N-process pool (with --shards)",
    )
    build.add_argument(
        "--catalog", default=None, metavar="CATALOG.db",
        help="register the built store in this catalog (defaults to the "
        "REPRO_CATALOG env var; neither set means no registration)",
    )
    build.set_defaults(func=cmd_index_build)

    info = index_sub.add_parser("info", help="print a store's header")
    info.add_argument("path", help="index store path")
    info.set_defaults(func=cmd_index_info)

    verify = index_sub.add_parser(
        "verify", help="recompute every checksum of a store"
    )
    verify.add_argument("path", help="index store path")
    verify.set_defaults(func=cmd_index_verify)

    catalog = sub.add_parser(
        "catalog",
        help="inspect / verify the durable control-plane catalog",
    )
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)

    cat_ls = catalog_sub.add_parser("ls", help="list catalogued stores")
    cat_ls.add_argument("db", help="catalog database path")
    cat_ls.set_defaults(func=cmd_catalog_ls)

    cat_show = catalog_sub.add_parser(
        "show", help="show one store's layout, checksums and bench history"
    )
    cat_show.add_argument("db", help="catalog database path")
    cat_show.add_argument("store", help="store id or index path")
    cat_show.set_defaults(func=cmd_catalog_show)

    cat_verify = catalog_sub.add_parser(
        "verify-all",
        help="re-verify every catalogued store's checksums and identity",
    )
    cat_verify.add_argument("db", help="catalog database path")
    cat_verify.set_defaults(func=cmd_catalog_verify_all)

    cat_bench = catalog_sub.add_parser(
        "record-bench", help="record a benchmark result against a store"
    )
    cat_bench.add_argument("db", help="catalog database path")
    cat_bench.add_argument("name", help="benchmark name (e.g. engine_hotpath)")
    cat_bench.add_argument(
        "--metrics", default="{}",
        help="metrics as an inline JSON object",
    )
    cat_bench.add_argument(
        "--metrics-file", default=None, metavar="PATH",
        help="read the metrics JSON object from a file instead",
    )
    cat_bench.add_argument(
        "--store", default=None, metavar="PATH",
        help="index path the result ran against (registered if absent)",
    )
    cat_bench.add_argument(
        "--fingerprint", default=None,
        help="index fingerprint for store-less engine benches",
    )
    cat_bench.set_defaults(func=cmd_catalog_record_bench)

    bench = sub.add_parser(
        "bench",
        help="replay a logged workload against an index or server and "
        "report capacity",
    )
    bench.add_argument(
        "--replay", required=True, metavar="CATALOG.db",
        help="catalog database holding the request log to replay",
    )
    bench.add_argument(
        "--index", default=None, metavar="PATH",
        help="index store or shard manifest to replay against (also the "
        "source text for synthesized queries); required unless --plan-only",
    )
    bench.add_argument(
        "--host", default="127.0.0.1",
        help="with --port: replay against a running `repro serve`",
    )
    bench.add_argument(
        "--port", type=int, default=None,
        help="replay against the server at --host:--port instead of a "
        "local in-process service",
    )
    bench.add_argument(
        "--wait", type=float, default=0.0, metavar="SECONDS",
        help="wait up to SECONDS for the server to come up first",
    )
    bench.add_argument(
        "--seed", type=int, default=0,
        help="replay-plan seed (same log + same seed = byte-identical plan)",
    )
    bench.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="replay N requests (default: as many as were logged)",
    )
    bench.add_argument(
        "--rate-scale", type=float, default=1.0, metavar="X",
        help="scale the logged arrival rate by X (with --pace)",
    )
    bench.add_argument(
        "--pace", action="store_true",
        help="honour the plan's arrival offsets instead of replaying "
        "back-to-back",
    )
    bench.add_argument(
        "--plan-out", default=None, metavar="PATH",
        help="write the deterministic replay plan as canonical JSON",
    )
    bench.add_argument(
        "--plan-only", action="store_true",
        help="stop after constructing (and optionally writing) the plan",
    )
    bench.set_defaults(func=cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST invariant checkers (the repro-lint gate)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="finding output format (json is the CI gate's artifact; "
        "sarif feeds GitHub code scanning)",
    )
    lint.add_argument(
        "--list-checkers", action="store_true",
        help="print the invariant catalog (code, name, scope, origin) "
        "and exit",
    )
    lint.add_argument(
        "--dump-graph", metavar="PATH", default=None,
        help="write the flow index (call graph, lock identities, "
        "acquisition-order edges) as canonical JSON — byte-identical "
        "across runs on the same tree",
    )
    lint.set_defaults(func=cmd_lint)

    analyze = sub.add_parser("analyze", help="print Section 6 bounds")
    analyze.add_argument("--alphabet", choices=ALPHABETS, default="dna")
    analyze.set_defaults(func=cmd_analyze)

    generate = sub.add_parser("generate", help="emit a synthetic genome")
    generate.add_argument("--length", type=int, default=100_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--alphabet", choices=ALPHABETS, default="dna")
    generate.add_argument("--repeat-fraction", type=float, default=0.05)
    generate.add_argument("--out", default="synthetic.fa")
    generate.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
