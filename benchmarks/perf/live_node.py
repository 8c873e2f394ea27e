"""Launcher for the two server processes of the ``live`` workload.

``callee`` runs the program's own ``repro serve`` entry point
(``serve_main``) unchanged.  ``gateway`` cannot: ``repro serve``
hard-wires the front door's rate limit at 100 requests/minute, so this
builds ``LiveNode`` + ``Gateway(rate=1e6, burst=10**6)`` itself — the
limiter stays on the request path but never refuses.

Both roles refuse to start on the wrong backend, optionally install the
span tracer *before* anything is constructed, and on SIGTERM write a
stats file (engine counters, state kept per call, trace aggregates) next
to their clean exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Dict, List, Optional

import catalog
import spans

CALLEE_NODE = "devside"
CALLEE_DEVICE = "bob"
GATEWAY_NODE = "boxside"


async def serve_gateway(seed: int, peer_host: str, peer_port: int) -> Any:
    from repro.livenet.gateway import Gateway
    from repro.livenet.tcp import LiveNode

    node = LiveNode(GATEWAY_NODE, seed=seed)
    await node.start()
    gateway = Gateway(node, rate=1e6, burst=10 ** 6)
    await gateway.start()
    node.add_peer(CALLEE_NODE, peer_host, peer_port)
    print("READY node=%s listen=%s:%d http=%s:%d pid=%d"
          % ((node.name,) + tuple(node.listen_address)
             + tuple(gateway.listen_address) + (os.getpid(),)), flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    await gateway.stop()
    await node.stop()
    return gateway


def node_stats(node: Any) -> Dict[str, float]:
    # Live half-channels are not in ``net.channels`` (only the gateway's
    # local caller--box leg is), so signal counts come from the traced
    # run's ``Slot._transmit`` spans instead of slot counters.
    return {"events": node.loop.executed, "sim_s": node.loop.now,
            "net_channels": len(node.net.channels)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("role", choices=("callee", "gateway"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--peer", default=None, metavar="HOST:PORT",
                        help="gateway: where the callee node listens")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stats-out", required=True)
    args = parser.parse_args(argv)

    from repro.network import backend
    wanted = catalog.WORKLOADS["live"]["backend"]
    if backend.describe()["backend"] != wanted:
        print("live %s needs the %s backend, got %r"
              % (args.role, wanted, backend.describe()), file=sys.stderr)
        return 3

    tracer: Optional[spans.Tracer] = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    # ``serve_main`` owns its node; remember every LiveNode built in this
    # process so the stats can be read after it returns.
    from repro.livenet.tcp import LiveNode
    nodes: List[Any] = []
    plain_init = LiveNode.__init__

    def remembering_init(self: Any, *a: Any, **k: Any) -> None:
        plain_init(self, *a, **k)
        nodes.append(self)
    LiveNode.__init__ = remembering_init  # type: ignore[method-assign]

    stats: Dict[str, Any] = {"role": args.role,
                             "backend": backend.describe()}
    if args.role == "callee":
        from repro.livenet.cli import serve_main
        code = serve_main(["--name", CALLEE_NODE, "--device", CALLEE_DEVICE,
                           "--no-http", "--no-probe",
                           "--seed", str(args.seed)])
    else:
        if not args.peer:
            parser.error("gateway needs --peer")
        host, _, port = args.peer.rpartition(":")
        gateway = asyncio.run(serve_gateway(args.seed, host, int(port)))
        stats["calls"] = gateway.calls
        code = 0
    stats.update(node_stats(nodes[0]))
    if tracer is not None:
        stats["trace"] = tracer.report()
        stats["raw"] = tracer.raw_spans()
    with open(args.stats_out, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
