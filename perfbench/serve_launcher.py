"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS.npz serve [options]``

Installs the wrappers around the serving layers' public calls, plus a
probe that measures how late the event loop wakes a 10 ms timer, then
runs the same entry point as ``python -m repro serve``. When the server
has drained, the spans and lag samples are written to ``SPANS.npz``.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from perfbench.tracing import Tracer, message_query_id  # noqa: E402

#: Wake-up period of the loop-lag probe.
LAG_PERIOD = 0.01


class LagProbe:
    """Samples event-loop lag: how late a periodic timer fires."""

    def __init__(self) -> None:
        self.times = array("d")
        self.lags = array("d")
        self.task = None

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        while True:
            due = time.perf_counter() + LAG_PERIOD
            await asyncio.sleep(LAG_PERIOD)
            now = time.perf_counter()
            self.times.append(now)
            self.lags.append(now - due)


def install(tracer: Tracer, probe: LagProbe) -> None:
    """Wrap the serving layers and start *probe* with the HTTP listener."""
    from repro.core.codec import Codec
    from repro.core.node import ResourceNode
    from repro.runtime.aio import AioHost, AioOverlay
    from repro.runtime.reliable import ReliableChannel
    from repro.server import HttpServer, OverlayQueryService

    tracer.wrap_async(OverlayQueryService, "execute", "server:execute")
    tracer.wrap_async(AioOverlay, "execute_query", "runtime.aio:execute_query")
    tracer.wrap(AioHost, "on_datagram", "runtime.aio.receive:on_datagram")
    tracer.wrap(
        AioHost, "sendto", "runtime.aio.send:sendto",
        lambda args: (len(args[2]), -1),
    )
    for call in ("send_frame", "on_fragment", "on_ack"):
        tracer.wrap(ReliableChannel, call, f"runtime.reliable:{call}")
    tracer.wrap(Codec, "encode", "core.codec.encode:encode", message_query_id(2))
    tracer.wrap(Codec, "decode", "core.codec.decode:decode")
    tracer.wrap(
        ResourceNode, "handle_message", "core.node:handle_message",
        message_query_id(2),
    )
    tracer.wrap(ResourceNode, "issue_query", "core.node:issue_query")
    tracer.watch_collector()

    start = HttpServer.start

    async def start_with_probe(self) -> None:
        await start(self)
        probe.start()

    tracer.patch(HttpServer, "start", start_with_probe)


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    tracer, probe = Tracer(), LagProbe()
    install(tracer, probe)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        tracer.uninstall()
        tracer.save(
            out,
            lag_t=np.asarray(probe.times, dtype=np.float64),
            lag_s=np.asarray(probe.lags, dtype=np.float64),
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
