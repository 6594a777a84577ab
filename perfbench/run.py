"""Served-path benchmark: build an index, serve it, drive it, check every answer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dna-exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload protein-hot --repeat 5
    python3 perfbench/run.py --write-benchmark-json

One run builds the workload's index from seeded inputs, starts the real
server (``perfbench/launcher.py``) in its own process, drives it with
closed-loop clients from this process for ``--seconds`` (an untraced run
longer, until it has sent ``spec.MIN_REQUESTS``), swaps index generations
through the ``reload`` RPC with the clock stopped, then checks every answer against
the offline service over the same index (and a seeded sample against
per-record Smith-Waterman).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits the time
between a plain server and one with the per-layer ledger installed and
reports the per-layer metrics.  ``--repeat N`` runs a workload N times on
successive seeds and prints each metric's median, quartiles and range.  Any
wrong, stale or failed answer makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


# --------------------------------------------------------------- server process
class ServerProcess:
    """The launcher subprocess, its stdout handshake and its /proc counters."""

    def __init__(self, index: Path, workdir: Path, ledger: Path | None = None):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        command = [sys.executable, str(HERE / "launcher.py"), "--index", str(index)]
        if ledger is not None:
            command += ["--ledger", str(ledger)]
        self._log = open(workdir / "server.log", "ab")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=ROOT, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = None
        try:
            self.port = int(self.expect("READY", 120).split()[1])
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def expect(self, prefix: str, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"server sent no {prefix} line in {timeout}s") from None
        if line is None or not line.startswith(prefix):
            raise RuntimeError(f"server exited or misbehaved waiting for {prefix}: {line!r}")
        return line

    def mark(self) -> None:
        """Snapshot the traced server's ledger (it answers ``MARK n``)."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        self.expect("MARK", 30)

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        from repro.server import ServerClient, ServerError

        try:
            if self.proc.poll() is None:
                try:
                    if self.port is None:
                        raise ServerError("server never reported its port")
                    with ServerClient(port=self.port, timeout=10) as client:
                        client.shutdown()
                except ServerError:
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self._reader.join(timeout=10)
            self.proc.stdout.close()
            self._log.close()


# ------------------------------------------------------------------- set-up
def _profile(alphabet: str):
    from repro.alphabet import DNA, PROTEIN
    from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme

    if alphabet == "dna":
        return DNA, DEFAULT_SCHEME
    return PROTEIN, ScoringScheme(1, -3, -11, -1)


@dataclass
class Index:
    """A built index: generation files and the live path the server opens.

    Generation ``g`` holds the same sequences under ids prefixed ``g<g>``,
    so a swap costs the same work each way and a stale answer shows in its
    ids.  ``reload`` swaps a generation's file into :attr:`live`.
    """

    workload: object
    inputs: object
    dest: Path
    generations: dict[int, Path] = field(default_factory=dict)

    @property
    def live(self) -> Path:
        return self.dest / ("live.shd" if self.workload.index == "shards" else "live.idx")

    def build(self, generation: int) -> None:
        from repro.io.fasta import FastaRecord
        from repro.store import IndexStore, ShardedStore

        alphabet, scheme = _profile(self.inputs.alphabet)
        records = [FastaRecord(f"g{generation}{rid}", seq) for rid, seq in self.inputs.records]
        path = self.dest / f"g{generation}{self.live.suffix}"
        if self.workload.index == "store":
            IndexStore.build(records, alphabet=alphabet, scheme=scheme).save(path)
        else:
            ShardedStore.build(records, path, shards=4, alphabet=alphabet, scheme=scheme)
        self.generations[generation] = path

    def swap_in(self, generation: int) -> None:
        tmp = self.live.with_name(self.live.name + ".swap")
        shutil.copyfile(self.generations[generation], tmp)
        os.replace(tmp, self.live)

    def files(self) -> list[Path]:
        """On-disk files of generation 0 (the manifest and all shards)."""
        first = self.generations[0]
        return [first] + sorted(self.dest.glob(first.name + ".shard*.idx"))


def set_up(index: Index):
    """Build generation 0, start the server, get the first ``ping``: timed."""
    from repro.server import ServerClient

    started = perf_counter()
    index.build(0)
    index.swap_in(0)
    built = perf_counter() - started
    server = ServerProcess(index.live, index.dest)
    try:
        with ServerClient(port=server.port, timeout=60) as client:
            client.ping()
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - started, built


# --------------------------------------------------------------- load phase
@dataclass
class Phase:
    """What one timed phase sent and got back."""

    #: ``(stream index, latency seconds, ServedBatch or exception, live
    #: generation, timed)``; a request sent with the clock stopped is untimed.
    outcomes: list = field(default_factory=list)
    #: ``(stream index or None for a probe, round trip seconds, response or
    #: exception, generation swapped in)``
    reloads: list = field(default_factory=list)
    #: Wall time and server CPU with the clock running.
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)

    @property
    def latencies(self) -> list[float]:
        """Latencies of the answered requests sent with the clock running."""
        return [lat for _i, lat, out, _gen, timed in self.outcomes
                if timed and not isinstance(out, Exception)]

    @property
    def served_latencies(self) -> list[float]:
        """Latencies of every answered request, timed or not."""
        return [lat for _i, lat, out, _gen, _timed in self.outcomes
                if not isinstance(out, Exception)]

    @property
    def stall_seconds(self) -> list[float]:
        return [
            rtt for _i, rtt, response, _gen in self.reloads
            if isinstance(response, dict) and response.get("reloaded")
        ]


def _search(client, inputs, request):
    return client.search(
        [(request.qid, request.sequence)], threshold=inputs.threshold,
        top_k=request.top_k, mode=request.mode,
    )


def _reload(client, index: Index, phase: Phase, at, generation: int) -> None:
    """Swap ``generation`` into the live path and time the ``reload`` RPC."""
    from repro.server import ServerError

    index.swap_in(generation)
    started = perf_counter()
    try:
        response = client.reload()
    except ServerError as exc:
        response = exc
    phase.reloads.append((at, perf_counter() - started, response, generation))


def warm_up(server: ServerProcess, inputs) -> None:
    from repro.server import ServerClient

    with ServerClient(port=server.port, timeout=60) as client:
        for request in inputs.warmup:
            _search(client, inputs, request)


def drive(server: ServerProcess, workload, inputs, index: Index, seconds: float,
          traced: bool, min_requests: int = 0) -> Phase:
    """Closed loop: each client sends its next request when the last returns.

    The loop runs for ``seconds`` of clock time and past that until
    ``min_requests`` requests and every scheduled reload have been sent.
    """
    from repro.server import ServerClient, ServerError

    phase = Phase()
    lock = threading.Lock()
    cursor = iter(range(len(inputs.requests)))
    reloads = set(inputs.reload_before)
    needed = max([min_requests, *(i + 1 for i in reloads)])
    live = [0]
    deadline = [0.0]
    stopped = {"wall": 0.0, "cpu": 0.0}

    def send(client, i: int, timed: bool) -> None:
        started = perf_counter()
        try:
            outcome = _search(client, inputs, inputs.requests[i])
        except ServerError as exc:
            outcome = exc
        latency = perf_counter() - started
        with lock:
            phase.outcomes.append((i, latency, outcome, live[0], timed))

    def client_loop() -> None:
        with ServerClient(port=server.port, timeout=60) as client:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None or (perf_counter() >= deadline[0] and i >= needed):
                    return
                if i not in reloads:
                    send(client, i, timed=True)
                    continue
                # The swap and the verified request after it, which rebuilds
                # the new generation's verified tier, run with the clock
                # stopped.  Only single-client workloads reload mid-stream,
                # so no other request is in flight meanwhile.
                held, cpu_held = perf_counter(), server.cpu_seconds()
                live[0] = 1 - live[0]
                _reload(client, index, phase, i, live[0])
                send(client, i, timed=False)
                stopped["cpu"] += server.cpu_seconds() - cpu_held
                held = perf_counter() - held
                stopped["wall"] += held
                deadline[0] += held

    with ServerClient(port=server.port, timeout=60) as control:
        if traced:
            server.mark()
        phase.stats_before = control.stats()["stats"]
        threads = [threading.Thread(target=client_loop) for _ in range(workload.clients)]
        cpu0 = server.cpu_seconds()
        started = perf_counter()
        deadline[0] = started + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall = perf_counter() - started - stopped["wall"]
        phase.cpu = server.cpu_seconds() - cpu0 - stopped["cpu"]
        phase.peak_rss_mb = server.peak_rss_mb()
        phase.stats_after = control.stats()["stats"]
        if traced:
            server.mark()
    if len(phase.outcomes) >= len(inputs.requests):
        log("warning: the query stream ran out before the deadline")
    return phase


def probe_reloads(server: ServerProcess, index: Index, phase: Phase) -> None:
    """Swap generations back and forth with no search in flight."""
    from repro.server import ServerClient

    live = phase.reloads[-1][3] if phase.reloads else 0
    with ServerClient(port=server.port, timeout=60) as client:
        for _ in range(spec.RELOAD_PROBES):
            live = 1 - live
            _reload(client, index, phase, None, live)


# -------------------------------------------------------------- correctness
class Checker:
    """Offline answers for the served index, computed in this process."""

    def __init__(self, workload, inputs, index: Index):
        from repro.service import SearchService, ShardedSearchService

        self.inputs = inputs
        path = index.generations[0]
        if workload.index == "shards":
            self.service = ShardedSearchService(path)
        else:
            self.service = SearchService(store=path)
        self._answers: dict = {}
        self.problems: list[str] = []
        self.failed = 0

    def fail(self, problem: str) -> bool:
        self.problems.append(problem)
        self.failed += 1
        return False

    def prefetch(self, indices) -> None:
        """Answer every distinct request offline, two worker processes wide."""
        from repro.service import Query

        wanted: dict[tuple, set[str]] = {}
        for i in indices:
            request = self.inputs.requests[i]
            wanted.setdefault((request.mode, request.top_k), set()).add(request.sequence)
            if request.mode == "verified":
                wanted.setdefault(("exact", None), set()).add(request.sequence)
        for (mode, top_k), sequences in wanted.items():
            todo = sorted(s for s in sequences if (s, mode, top_k) not in self._answers)
            if not todo:
                continue
            report = self.service.search_batch(
                [Query(f"o{k}", s) for k, s in enumerate(todo)],
                threshold=self.inputs.threshold, top_k=top_k, mode=mode,
                workers=2, executor="processes",
            )
            for sequence, result in zip(todo, report.results):
                self._answers[(sequence, mode, top_k)] = result

    def offline(self, sequence: str, mode: str, top_k):
        return self._answers[(sequence, mode, top_k)]

    @staticmethod
    def _rows(hits, generation: int):
        """Hit tuples with the generation prefix checked and stripped."""
        tag = f"g{generation}"
        rows = []
        for hit in hits:
            if not hit.sequence_id.startswith(tag):
                return None
            rows.append((hit.sequence_id[len(tag):], hit.t_start, hit.t_end,
                         hit.p_end, hit.score, hit.record_index))
        return rows

    def check(self, i: int, outcome, live: int, generation: int) -> bool:
        request = self.inputs.requests[i]
        if isinstance(outcome, Exception):
            return self.fail(f"q{i}: {type(outcome).__name__}: {outcome}")
        if outcome.generation != generation:
            return self.fail(f"q{i}: served by generation {outcome.generation}, expected {generation}")
        (served,) = outcome.results
        rows = self._rows(served.hits, live)
        if rows is None:
            return self.fail(f"q{i}: stale answer (ids without prefix g{live})")
        want = self.offline(request.sequence, request.mode, request.top_k)
        # With top_k, shards raise their threshold to a shared score floor
        # whose timing varies, so only the hits themselves are fixed.
        counts_differ = request.top_k is None and (
            served.raw_hits != want.raw_hits
            or served.dropped_boundary != want.dropped_boundary
        )
        if rows != self._rows(want.hits, 0) or counts_differ or served.threshold != want.threshold:
            return self.fail(f"q{i}: served answer differs from the offline answer")
        if request.mode == "verified":
            exact = set(self._rows(self.offline(request.sequence, "exact", None).hits, 0))
            if not set(rows) <= exact:
                return self.fail(f"q{i}: verified answer is not a subset of exact")
        return True

    def smith_waterman_sample(self, served: dict, seed: int) -> int:
        """Check sampled exact answers per record against Smith-Waterman."""
        import numpy as np

        from repro.align.smith_waterman import smith_waterman_all_hits

        _alphabet, scheme = _profile(self.inputs.alphabet)
        eligible = sorted(
            i for i in served
            if self.inputs.requests[i].mode == "exact" and self.inputs.requests[i].top_k is None
        )
        rng = np.random.default_rng([seed, 99])
        picked = rng.choice(eligible, size=min(8, len(eligible)), replace=False)
        checked = 0
        for i in sorted(int(i) for i in picked):
            hits = served[i].results[0].hits
            records = {int(r) for r in rng.choice(len(self.inputs.records), size=2, replace=False)}
            records.update(sorted({hit.record_index for hit in hits})[:2])
            sequence = self.inputs.requests[i].sequence
            for r in sorted(records):
                truth = smith_waterman_all_hits(
                    self.inputs.records[r][1], sequence, scheme, self.inputs.threshold
                ).as_score_set()
                got = {(h.t_end, h.p_end, h.score) for h in hits if h.record_index == r}
                if got != truth:
                    self.fail(f"q{i}: record {r} differs from Smith-Waterman")
                checked += 1
        return checked

    def check_phase(self, phase: Phase, seed: int) -> int:
        """Check every answer and reload of one phase; return operations attempted."""
        self.prefetch(i for i, *_rest in phase.outcomes)
        served = {}
        swaps_before = sorted(i for i, *_rest in phase.reloads if i is not None)
        for i, _latency, outcome, live, _timed in phase.outcomes:
            generation = 1 + sum(1 for r in swaps_before if r <= i)
            if self.check(i, outcome, live, generation):
                served[i] = outcome
        for k, (at, _rtt, response, _gen) in enumerate(phase.reloads):
            if not isinstance(response, dict) or not response.get("reloaded"):
                self.fail(f"reload {k} (before q{at}) did not swap: {response}")
            elif response.get("generation") != k + 2:
                self.fail(f"reload {k} left generation {response.get('generation')}, expected {k + 2}")
        if swaps_before != list(self.inputs.reload_before):
            self.fail(f"reloads before queries {swaps_before} != schedule {self.inputs.reload_before}")
        checked = self.smith_waterman_sample(served, seed)
        log(f"checked {len(phase.outcomes)} answers offline, {checked} records against Smith-Waterman")
        return len(phase.outcomes) + len(phase.reloads)


# ------------------------------------------------------------------ metrics
def _quantile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values), q))


def end_to_end(phase: Phase, index: Index, inputs, setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics of the timed phase, and what makes them unusable."""
    lat = phase.latencies
    completed = len(lat)
    size = sum(path.stat().st_size for path in index.files())
    p95 = _quantile(lat, 0.95)
    beyond = sum(1 for each in lat if each > p95)
    log(f"latency samples={completed} beyond p95={beyond}")
    problems = []
    if beyond < spec.MIN_BEYOND_P95:
        problems.append(f"only {beyond} latency samples beyond p95, need {spec.MIN_BEYOND_P95}")
    return {
        "latency_p50_ms": _quantile(lat, 0.5) * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "throughput_qps": completed / phase.wall,
        "server_cpu_ms_per_query": phase.cpu / completed * 1e3,
        "index_bytes_per_char": size / inputs.corpus_chars,
        "server_peak_rss_mb": phase.peak_rss_mb,
        "setup_s": statistics.median(setups),
    }, problems


def per_layer(phase: Phase, untraced: Phase, snapshots: list[dict], build_s: float) -> dict:
    """Per-layer metrics of the traced phase (ledger snapshots 1 and 2)."""
    before, after, final = snapshots[-3], snapshots[-2], snapshots[-1]

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # The ledger sees every request of the phase, timed or not.
    lat = phase.served_latencies
    n = len(lat)
    spans_before = phase.stats_before["spans_seconds"]
    spans_after = phase.stats_after["spans_seconds"]

    def span(name: str) -> float:
        return spans_after.get(name, 0.0) - spans_before.get(name, 0.0)

    batches = phase.stats_after["batches_total"] - phase.stats_before["batches_total"]
    batched = (
        phase.stats_after["mean_batch_size"] * phase.stats_after["batches_total"]
        - phase.stats_before["mean_batch_size"] * phase.stats_before["batches_total"]
    )
    exact_queries = delta("results.exact")
    verified_queries = delta("results.verified")
    forks = delta("core.forks_seeded") + delta("core.forks_skipped")
    accessed = delta("core.calculated") + delta("core.reused")
    client_mean = statistics.fmean(lat)
    # The served path in order; admission wait includes the linger.
    layers = {
        "server.decode": delta("decode_s") / n,
        "server.cache_lookup": delta("cache_get_s") / n,
        "server.queue": span("admission_wait") / n,
        "service.batch": delta("batch_wait_s") / n,
        "server.encode": delta("encode_s") / n,
    }
    unattributed = client_mean - sum(layers.values())
    metrics = {
        "server.decode_us_per_request": ratio(delta("decode_s"), delta("decode_n")) * 1e6,
        "server.encode_us_per_request": ratio(delta("encode_s"), delta("encode_n")) * 1e6,
        "server.response_bytes_per_query": ratio(delta("response_bytes"), delta("response_queries")),
        "server.cache_lookup_us_per_query": layers["server.cache_lookup"] * 1e6,
        "server.queue_ms_per_query": layers["server.queue"] * 1e3,
        "server.linger_ms_per_query": span("batch_linger") / n * 1e3,
        "server.batch_size_mean": ratio(batched, batches),
        "server.cache_hit_ratio": ratio(delta("cache_hits"), delta("cache_get_n")),
        "server.unattributed_ms_per_query": unattributed * 1e3,
        "service.batch_ms_per_query": layers["service.batch"] * 1e3,
        "service.locate_ms_per_query": delta("span.locate_s") / n * 1e3,
        "service.boundary_drop_ratio": ratio(delta("dropped_boundary"), delta("raw_hits")),
        "service.merge_ms_per_query": delta("span.merge_s") / n * 1e3,
        "service.shard_skew": ratio(delta("shard_skew_sum"), delta("shard_skew_n")) or 1.0,
        "engine.exact_ms_per_query": ratio(delta("alae_search_s"), exact_queries) * 1e3,
        "engine.verified_ms_per_query": ratio(delta("verified_search_s"), verified_queries) * 1e3,
        "core.nodes_per_query": ratio(delta("core.nodes"), exact_queries),
        "core.entries_calculated_per_query": ratio(delta("core.calculated"), exact_queries),
        "core.entries_reused_per_query": ratio(delta("core.reused"), exact_queries),
        "core.reuse_ratio": ratio(delta("core.reused"), accessed),
        "core.forks_skipped_ratio": ratio(delta("core.forks_skipped"), forks),
        "index.rank_calls_per_query": delta("rank_n") / n,
        "index.locate_ms_per_query": delta("locate_s") / n * 1e3,
        "index.locate_rows_per_query": delta("locate_rows") / n,
        "io.locate_hit_us_per_query": delta("locate_hit_s") / n * 1e6,
        "blast.seeds_per_query": ratio(delta("blast.seeds"), verified_queries),
        "blast.gapped_per_query": ratio(delta("blast.gapped"), verified_queries),
        "store.build_s": build_s,
        "store.open_ms": ratio(
            final.get("index_store_open_s", 0) + final.get("sharded_store_open_s", 0),
            final.get("service_open_n", 0),
        ) * 1e3,
        "store.reload_stall_ms": statistics.median(phase.stall_seconds) * 1e3,
        "trace.client_mean_ms": client_mean * 1e3,
        "trace.latency_p50_ms": _quantile(phase.latencies, 0.5) * 1e3,
        "trace.untraced_latency_p50_ms": _quantile(untraced.latencies, 0.5) * 1e3,
    }
    metrics["trace.overhead_ratio"] = (
        metrics["trace.latency_p50_ms"] / metrics["trace.untraced_latency_p50_ms"]
    )
    ledger_line = " + ".join(f"{k}={v * 1e3:.3f}" for k, v in layers.items())
    log(
        f"ledger ms/query: {ledger_line} + unattributed={unattributed * 1e3:.3f} "
        f"= client mean {client_mean * 1e3:.3f}"
    )
    return metrics


# -------------------------------------------------------------------- runs
def run_untraced(workload, inputs, workdir: Path, seconds: float, seed: int, servers: list):
    index = Index(workload, inputs, workdir)
    setups = []
    for k in range(spec.SETUPS):
        server, took, _built = set_up(index)
        servers.append(server)
        setups.append(took)
        if k < spec.SETUPS - 1:
            server.stop()
    log("setup_s runs: " + " ".join(f"{s:.3f}" for s in setups))
    if inputs.reload_before:
        index.build(1)
    warm_up(server, inputs)
    phase = drive(server, workload, inputs, index, seconds, traced=False,
                  min_requests=spec.MIN_REQUESTS)
    server.stop()
    checker = Checker(workload, inputs, index)
    attempted = checker.check_phase(phase, seed)
    metrics, problems = end_to_end(phase, index, inputs, setups)
    return checker, attempted, metrics, problems


def run_traced(workload, inputs, workdir: Path, seconds: float, seed: int, servers: list):
    from ledger import WRAPPERS, fired

    index = Index(workload, inputs, workdir)
    server, _took, built = set_up(index)
    servers.append(server)
    if inputs.reload_before:
        index.build(1)
    warm_up(server, inputs)
    untraced = drive(server, workload, inputs, index, seconds / 2, traced=False)
    server.stop()
    # The untraced phase may have left another generation live.
    index.swap_in(0)
    ledger_path = workdir / "ledger.json"
    server = ServerProcess(index.live, workdir, ledger_path)
    servers.append(server)
    warm_up(server, inputs)
    phase = drive(server, workload, inputs, index, seconds / 2, traced=True)
    if 1 not in index.generations:
        index.build(1)
    probe_reloads(server, index, phase)
    server.stop()
    snapshots = json.loads(ledger_path.read_text())
    checker = Checker(workload, inputs, index)
    attempted = sum(checker.check_phase(each, seed) for each in (untraced, phase))
    problems = []
    for name, count in fired(snapshots[-1]).items():
        users = WRAPPERS[name]
        if count == 0 and (users is None or workload.name in users):
            problems.append(f"traced wrapper {name} never fired")
    metrics = per_layer(phase, untraced, snapshots, built)
    if metrics["server.unattributed_ms_per_query"] < 0:
        problems.append("layers overlap: unattributed time is negative")
    cap = spec.UNATTRIBUTED_CAP.get(workload.name)
    share = metrics["server.unattributed_ms_per_query"] / metrics["trace.latency_p50_ms"]
    log(f"unattributed share of the traced p50: {share:.3f}")
    if cap is not None and share > cap:
        problems.append(f"{share:.1%} of the traced p50 is outside every wrapped layer (cap {cap:.0%})")
    return checker, attempted, metrics, problems


def run(args) -> int:
    import inputs as inputs_mod

    if not (SRC / "repro").is_dir():
        log(f"error: no program source at {SRC}; run from a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))

    workload = spec.WORKLOADS[args.workload]
    log(f"{workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} {environment()}")
    count = int(args.seconds * workload.rate_cap)
    inputs = workload.make_inputs(args.seed, count)
    print(f"inputs-digest {workload.name} seed={args.seed} requests={count} "
          f"{inputs_mod.digest(inputs)}", flush=True)

    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    servers: list[ServerProcess] = []
    try:
        workdir.mkdir(parents=True)
        body = run_traced if args.trace else run_untraced
        checker, attempted, metrics, problems = body(
            workload, inputs, workdir, args.seconds, args.seed, servers
        )
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = checker.problems + problems
    for problem in problems[:20]:
        log("FAIL " + problem)
    units = {name: entry[0] for name, entry in {**spec.END_TO_END, **spec.PER_LAYER}.items()}
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def repeat(args) -> int:
    """Run one workload ``--repeat`` times on successive seeds; summarise."""
    values: dict[str, list[float]] = {}
    for seed in range(1, args.repeat + 1):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct") or result.get("failed"):
            log(done.stderr)
            log(f"seed {seed}: run failed")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        log(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()))
    print(f"{args.workload} x{args.repeat} seconds={args.seconds} trace={args.trace} {environment()}")
    print(f"{'metric':40} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} {'iqr/med':>8}")
    summary = {}
    for name, series in values.items():
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(series),
                         "max": max(series), "spread": spread}
        print(f"{name:40} {med:11.4f} {q1:11.4f} {q3:11.4f} {min(series):11.4f} "
              f"{max(series):11.4f} {spread:8.3f}")
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N seeds and summarise")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()
    if args.write_benchmark_json:
        log(f"wrote {spec.write_benchmark_json(ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat:
        return repeat(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
