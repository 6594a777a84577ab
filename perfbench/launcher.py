"""Server process for the benchmark: one ``SearchServer`` on an ephemeral port.

Run by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints ``READY <port>`` once the index is open and the socket is
bound.  With ``--ledger FILE`` it first installs the per-layer wrappers of
:mod:`ledger`; each ``SIGUSR1`` then snapshots the ledger and prints
``MARK <n>``, and at shutdown every snapshot is written to ``FILE``.  The
hot-reload poll is off: reloads come only from the ``reload`` RPC.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index", required=True)
    parser.add_argument("--ledger", default=None)
    args = parser.parse_args()

    ledger = None
    snapshots: list[dict] = []
    if args.ledger is not None:
        from ledger import Ledger, install

        ledger = Ledger()
        install(ledger)

    from repro.server import SearchServer

    # One service worker: threads fanning the shards out cost about 30% of
    # the sharded throughput on a 2-core machine.
    server = SearchServer(args.index, port=0, reload_poll=0)

    def mark() -> None:
        snapshots.append(ledger.snapshot())
        print(f"MARK {len(snapshots)}", flush=True)

    async def serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, lambda: loop.create_task(server.stop()))
        if ledger is not None:
            loop.add_signal_handler(signal.SIGUSR1, mark)
        print(f"READY {server.port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    finally:
        if ledger is not None:
            snapshots.append(ledger.snapshot())
            Path(args.ledger).write_text(json.dumps(snapshots))


if __name__ == "__main__":
    main()
