"""Blocking client for the serving tier (scripts, tests, the CLI).

:class:`ServerClient` speaks the length-prefixed JSON protocol over one TCP
connection with plain stdlib sockets — no asyncio on the client side, so it
drops into any script or test without an event loop.  ``search`` returns
:class:`ServedResult` objects whose hits are real
:class:`~repro.io.database.LocatedHit` instances, bit-identical to what the
offline ``search-db --index`` path produces for the same index.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ReproError
from repro.io.database import LocatedHit
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PREFIX,
    ProtocolError,
    decode_length,
    decode_payload,
    encode_frame,
)
from repro.service import normalize_queries


class ServerError(ReproError):
    """The server answered with ``status: error`` (or the link broke)."""


class ServerOverloaded(ServerError):
    """Admission control rejected the request; retry with backoff."""


@dataclass
class ServedResult:
    """One query's served answer (mirrors the service's ``QueryResult``)."""

    query_id: str
    threshold: int
    hits: list[LocatedHit]
    raw_hits: int
    dropped_boundary: int
    cached: bool
    #: Trace-span breakdown (``engine``/``locate``/``merge``/``shard<i>``
    #: seconds); populated only for ``search(..., trace=True)``.
    spans: dict = field(default_factory=dict)


@dataclass
class ServedBatch:
    """All results of one ``search`` RPC plus response metadata."""

    results: list[ServedResult]
    engine: str
    generation: int
    mode: str = "exact"

    @property
    def total_hits(self) -> int:
        return sum(len(r.hits) for r in self.results)


def _parse_hit(raw: list) -> LocatedHit:
    sequence_id, t_start, t_end, p_end, score, record_index = raw
    return LocatedHit(
        sequence_id=sequence_id,
        t_start=t_start,
        t_end=t_end,
        p_end=p_end,
        score=score,
        record_index=record_index,
    )


class ServerClient:
    """One blocking connection to a :class:`~repro.server.SearchServer`.

    Connects lazily on the first RPC; usable as a context manager.  One
    client is one connection — it is not thread-safe; give each thread its
    own client (the server handles any number of connections).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 60.0,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        if port < 1:
            raise ServerError(f"port must be a bound server port, got {port}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame = max_frame
        self._sock: socket.socket | None = None

    # ------------------------------------------------------------- transport
    def connect(self) -> "ServerClient":
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                raise ServerError(
                    f"cannot connect to {self.host}:{self.port}: {exc}"
                ) from None
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServerClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _recv_exact(self, count: int) -> bytes:
        assert self._sock is not None
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                raise ServerError(
                    f"timed out after {self.timeout}s waiting for "
                    f"{self.host}:{self.port}"
                ) from None
            except OSError as exc:
                raise ServerError(f"connection lost: {exc}") from None
            if not chunk:
                raise ServerError(
                    f"server {self.host}:{self.port} closed the connection"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def request(self, payload: dict) -> dict:
        """One RPC round-trip; raises on transport or protocol failure."""
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(encode_frame(payload, self.max_frame))
        except OSError as exc:
            self.close()
            raise ServerError(f"cannot send request: {exc}") from None
        try:
            length = decode_length(self._recv_exact(PREFIX.size), self.max_frame)
            response = decode_payload(self._recv_exact(length))
        except (ProtocolError, ServerError):
            self.close()  # stream state is unknown; do not reuse it
            raise
        return response

    # ------------------------------------------------------------------ RPCs
    def search(
        self,
        queries: Iterable,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        mode: str | None = None,
        trace: bool = False,
    ) -> ServedBatch:
        """Search a batch (same inputs as ``SearchService.search_batch``).

        ``mode=None`` means ``exact``; ``verified`` is answered by the same
        exact engine, and the server refuses ``fast``.
        ``trace=True`` asks the server for per-result span breakdowns
        (:attr:`ServedResult.spans`).
        """
        normalized = normalize_queries(queries)
        payload: dict = {
            "op": "search",
            "queries": [[q.id, q.sequence] for q in normalized],
        }
        if threshold is not None:
            payload["threshold"] = threshold
        if e_value is not None:
            payload["e_value"] = e_value
        if top_k is not None:
            payload["top_k"] = top_k
        if mode is not None:
            payload["mode"] = mode
        if trace:
            payload["trace"] = True
        response = self.request(payload)
        status = response.get("status")
        if status == "overloaded":
            raise ServerOverloaded(response.get("error", "server overloaded"))
        if status != "ok":
            raise ServerError(response.get("error", f"bad response: {response}"))
        results = [
            ServedResult(
                query_id=entry["id"],
                threshold=entry["threshold"],
                hits=[_parse_hit(raw) for raw in entry["hits"]],
                raw_hits=entry["raw_hits"],
                dropped_boundary=entry["dropped"],
                cached=entry["cached"],
                spans=entry.get("spans", {}),
            )
            for entry in response["results"]
        ]
        return ServedBatch(
            results=results,
            engine=response.get("engine", "alae"),
            generation=response.get("generation", 0),
            mode=response.get("mode", "exact"),
        )

    def _simple(self, op: str) -> dict:
        response = self.request({"op": op})
        if response.get("status") != "ok":
            raise ServerError(response.get("error", f"bad response: {response}"))
        return response

    def stats(self) -> dict:
        """The server's ``stats`` snapshot (qps, latency, cache, queue)."""
        return self._simple("stats")

    def metrics(self) -> dict:
        """The process-wide metric families (structured ``collect()`` form)
        plus the budget-routing signal block."""
        return self._simple("metrics")

    def ping(self) -> dict:
        return self._simple("ping")

    def reload(self) -> dict:
        """Force an on-disk fingerprint check (and reload if it changed)."""
        return self._simple("reload")

    def shutdown(self) -> dict:
        """Ask the server to stop gracefully."""
        return self._simple("shutdown")


def wait_until_ready(
    host: str, port: int, *, timeout: float = 30.0, interval: float = 0.05
) -> None:
    """Poll ``ping`` until the server answers (for scripts that just spawned it)."""
    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServerClient(host, port, timeout=min(timeout, 5.0)) as client:
                client.ping()
            return
        except ServerError as exc:
            last_error = exc
            time.sleep(interval)
    raise ServerError(
        f"server {host}:{port} not ready after {timeout}s: {last_error}"
    )
