"""Run ``afterimage serve`` with the fleet layer traced; dump at shutdown.

Usage::

    python3 perfbench/serve_launcher.py DUMP.json -- serve STORE [serve flags]

Everything after ``--`` goes to ``repro.cli.main`` unchanged, so the
traced server is the same daemon the untraced runs start.  Before that the
launcher wraps, from the outside, the public calls the server makes into
the store (``TrialStore.get``/``refresh``), the LRU cache
(``LruCache.get``/``put``) and the aggregate computation
(``CampaignResult.aggregates``), and records one span per connection from
accept to close.  On SIGINT the daemon shuts down, the wrappers are
restored and everything is written to ``DUMP.json`` together with the
process's peak RSS.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.tracing import LayerTracer  # noqa: E402


def install_fleet(tracer: LayerTracer, requests: list[dict[str, Any]]) -> None:
    """Wrap the fleet layer; connection spans are appended to ``requests``."""
    from repro.campaign.runner import CampaignResult
    from repro.campaign.store import TrialStore
    from repro.fleet.cache import LruCache

    by_task: dict[Any, dict[str, Any]] = {}

    def charge_store_get(_result: Any, _args: tuple, _token: Any) -> None:
        record = by_task.get(asyncio.current_task())
        if record is not None:
            record["store_gets"] += 1

    def count_hit(result: Any, _args: tuple, _token: Any) -> None:
        tracer.count("fleet.cache.hits" if result is not None else "fleet.cache.misses")

    tracer.wrap(TrialStore, "get", "fleet.store.get", after=charge_store_get)
    tracer.wrap(TrialStore, "refresh", "fleet.store.refresh")
    tracer.wrap(LruCache, "get", "fleet.cache.get", after=count_hit)
    tracer.wrap(LruCache, "put", "fleet.cache.put")
    tracer.wrap(CampaignResult, "aggregates", "fleet.aggregates")

    def traced_start_server(start_server: Any) -> Any:
        async def start(callback: Any, *args: Any, **kwargs: Any) -> Any:
            async def handle(reader: asyncio.StreamReader, writer: Any) -> None:
                record: dict[str, Any] = {
                    "name": "fleet.request", "path": None, "store_gets": 0,
                    "start": tracer.clock(),
                }
                readline = reader.readline

                async def first_line() -> bytes:
                    line = await readline()
                    if record["path"] is None:
                        parts = line.decode("latin-1").split()
                        record["path"] = parts[1] if len(parts) > 1 else ""
                    return line

                reader.readline = first_line  # type: ignore[method-assign]
                by_task[asyncio.current_task()] = record
                try:
                    await callback(reader, writer)
                finally:
                    record["end"] = tracer.clock()
                    by_task.pop(asyncio.current_task(), None)
                    requests.append(record)

            return await start_server(handle, *args, **kwargs)

        return start

    tracer.patch(asyncio, "start_server", traced_start_server)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    dump = Path(argv[0])
    from repro.cli import main as cli_main

    tracer = LayerTracer()
    requests: list[dict[str, Any]] = []
    install_fleet(tracer, requests)
    try:
        status = cli_main(argv[2:])
    finally:
        tracer.restore()
        document = tracer.as_dict()
        document["requests"] = requests
        document["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        dump.write_text(json.dumps(document) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
