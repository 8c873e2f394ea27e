"""``python -m repro serve`` / ``call`` / ``live-demo`` — the live stack
from the command line.

::

    python -m repro serve --name boxside --listen 0 --http 8080 \\
        --peer devside=127.0.0.1:9000
    python -m repro serve --name devside --listen 9000 --device bob
    python -m repro call --gateway 127.0.0.1:8080 --to bob@devside --udp 20
    python -m repro live-demo            # all of the above, self-checked

``serve`` runs one :class:`~repro.livenet.tcp.LiveNode` (plus a
:class:`~repro.livenet.gateway.Gateway` unless ``--no-http``) until
SIGINT/SIGTERM, printing one machine-readable ``READY`` line once bound
— scripts parse it for the ephemeral ports.  ``call`` is a plain HTTP
client for a running gateway.  ``live-demo`` is the end-to-end proof:
it spawns a second OS process for the callee, places a call through the
gateway over real localhost sockets, and asserts media flowed, the live
signal journal byte-matches the simulator's reference fingerprint, UDP
probe datagrams echoed, and both processes exit cleanly.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from ..network.address import AddressError, parse_hostport
from .gateway import Gateway
from .journal import host_for
from .tcp import LiveNode
from .udp import MediaProbe

__all__ = ["serve_main", "call_main", "demo_main"]


def _hostport(text: str) -> Tuple[str, int]:
    try:
        return parse_hostport(text)
    except AddressError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _peer(text: str) -> Tuple[str, str, int]:
    name, sep, rest = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            "expected NAME=HOST:PORT, got %r" % text)
    host, port = _hostport(rest)
    return name, host, port


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a live node: TCP signaling listener plus an "
                    "HTTP/WebSocket media gateway.")
    parser.add_argument("--name", default="node",
                        help="this node's name (default: node)")
    parser.add_argument("--listen", type=int, default=0, metavar="PORT",
                        help="signaling TCP port (default: ephemeral)")
    parser.add_argument("--listen-host", default="127.0.0.1")
    parser.add_argument("--http", type=int, default=0, metavar="PORT",
                        help="gateway HTTP port (default: ephemeral)")
    parser.add_argument("--http-host", default="127.0.0.1")
    parser.add_argument("--no-http", action="store_true",
                        help="run without the gateway front door")
    parser.add_argument("--peer", type=_peer, action="append",
                        default=[], metavar="NAME=HOST:PORT",
                        help="dialable remote node (repeatable)")
    parser.add_argument("--device", action="append", default=[],
                        metavar="NAME",
                        help="host an auto-accepting callee device "
                             "registered at address NAME (repeatable)")
    parser.add_argument("--caller", default="caller",
                        help="gateway caller device name")
    parser.add_argument("--box", default="gw",
                        help="gateway box name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-probe", action="store_true",
                        help="skip binding the UDP media probe")
    parser.add_argument("--trace", action="store_true",
                        help="attach a tracer to the node's network")
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


async def _serve(args: argparse.Namespace) -> int:
    node = LiveNode(args.name, seed=args.seed, trace=args.trace)
    for name in args.device:
        node.net.device(name, auto_accept=True, host=host_for(name))
    await node.start(args.listen_host, args.listen)
    probe: Optional[MediaProbe] = None
    if not args.no_probe:
        probe = MediaProbe()
        await probe.start()
        node.attach_probe(probe)
    gateway: Optional[Gateway] = None
    if not args.no_http:
        gateway = Gateway(node, caller=args.caller, box=args.box)
        await gateway.start(args.http_host, args.http)
    for name, host, port in args.peer:
        node.add_peer(name, host, port)
    http = "%s:%d" % gateway.listen_address if gateway else "-"
    print("READY node=%s listen=%s:%d http=%s pid=%d"
          % (node.name, node.listen_address[0], node.listen_address[1],
             http, os.getpid()), flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    if gateway is not None:
        await gateway.stop()
    if probe is not None:
        probe.close()
    await node.stop()
    return 0


# ----------------------------------------------------------------------
# repro call
# ----------------------------------------------------------------------
async def _http_json(host: str, port: int, method: str, path: str,
                     body: Optional[Dict[str, Any]] = None,
                     timeout: float = 30.0) -> Tuple[int, Any]:
    """Minimal asyncio HTTP/1.1 JSON client (stdlib only)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        payload = b"" if body is None \
            else json.dumps(body).encode("utf-8")
        head = ["%s %s HTTP/1.1" % (method, path),
                "Host: %s:%d" % (host, port),
                "Connection: close"]
        if payload:
            head += ["Content-Type: application/json",
                     "Content-Length: %d" % len(payload)]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + payload)
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout)
        parts = status_line.decode("latin-1").split(" ", 2)
        status = int(parts[1]) if len(parts) >= 2 else 0
        length = None
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await asyncio.wait_for(
            reader.readexactly(length) if length is not None
            else reader.read(), timeout)
        return status, json.loads(raw) if raw else None
    finally:
        writer.close()


def call_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro call",
        description="Place a call through a running media gateway.")
    parser.add_argument("--gateway", type=_hostport, required=True,
                        metavar="HOST:PORT")
    parser.add_argument("--to", required=True, metavar="NAME@PEER")
    parser.add_argument("--medium", default="audio",
                        choices=["audio", "video", "text"])
    parser.add_argument("--timeout", type=float, default=10.0)
    parser.add_argument("--udp", type=int, default=0, metavar="N",
                        help="also blast N UDP probe datagrams")
    parser.add_argument("--hold", action="store_true",
                        help="leave the call up after reporting")
    parser.add_argument("--json", action="store_true",
                        help="print the raw gateway response")
    args = parser.parse_args(argv)
    host, port = args.gateway
    try:
        status, result = asyncio.run(_http_json(
            host, port, "POST", "/call",
            {"to": args.to, "medium": args.medium,
             "timeout": args.timeout, "udp": args.udp,
             "hold": args.hold},
            timeout=args.timeout + 10.0))
    except (OSError, asyncio.TimeoutError) as exc:
        print("call failed: cannot reach gateway (%s)" % exc,
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    if status != 200 or not isinstance(result, dict):
        if not args.json:
            print("call failed: HTTP %d %s" % (status, result),
                  file=sys.stderr)
        return 1
    if not args.json:
        journal = result.get("journal", {})
        print("call %s: %s codec=%s signals=S%d/R%d parity=%s"
              % (args.to, result.get("state"), result.get("codec"),
                 journal.get("sent", 0), journal.get("received", 0),
                 result.get("parity")))
        if "udp" in result:
            print("udp probe: %s" % result["udp"])
    return 0 if result.get("state") == "flowing" else 1


# ----------------------------------------------------------------------
# repro live-demo
# ----------------------------------------------------------------------
def demo_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro live-demo",
        description="Two OS processes negotiate a flowing media channel "
                    "over localhost sockets, driven from the gateway; "
                    "asserts flowing state, sim-parity fingerprint, UDP "
                    "echoes, and clean exits.")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="hard cap on the whole demo (seconds)")
    parser.add_argument("--udp", type=int, default=20)
    parser.add_argument("--callee", default="bob")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    try:
        return asyncio.run(
            asyncio.wait_for(_demo(args), timeout=args.timeout))
    except asyncio.TimeoutError:
        print("FAIL: demo exceeded %.0fs" % args.timeout,
              file=sys.stderr)
        return 1


async def _demo(args: argparse.Namespace) -> int:
    callee = args.callee
    # Process 2: the callee node, a real OS process running `repro serve`.
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro", "serve",
        "--name", "devside", "--device", callee, "--no-http",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONUNBUFFERED="1"))
    failures: List[str] = []
    result: Dict[str, Any] = {}
    try:
        assert proc.stdout is not None
        ready = (await asyncio.wait_for(proc.stdout.readline(),
                                        20.0)).decode()
        fields = dict(part.split("=", 1)
                      for part in ready.split() if "=" in part)
        peer_host, peer_port = parse_hostport(fields["listen"])

        # Process 1 (this one): box-side node + gateway.
        node = LiveNode("boxside")
        await node.start()
        probe = MediaProbe()
        await probe.start()
        node.attach_probe(probe)
        gateway = Gateway(node)
        await gateway.start()
        node.add_peer("devside", peer_host, peer_port)
        try:
            # Drive it end-to-end from the gateway: a real HTTP POST
            # over a real localhost socket.
            gw_host, gw_port = gateway.listen_address
            status, result = await _http_json(
                gw_host, gw_port, "POST", "/call",
                {"to": "%s@devside" % callee, "udp": args.udp,
                 "timeout": 15.0})
            result = result if isinstance(result, dict) else {}
            if status != 200:
                failures.append("gateway answered HTTP %d: %s"
                                % (status, result))
            if result.get("state") != "flowing":
                failures.append("media not flowing: %r"
                                % result.get("state"))
            if result.get("parity") is not True:
                failures.append(
                    "journal fingerprint diverged from sim reference: "
                    "live=%s ref=%s"
                    % (result.get("journal", {}).get("fingerprint"),
                       result.get("reference")))
            if args.udp and not result.get("udp", {}).get("echoes"):
                failures.append("no UDP probe echoes: %r"
                                % result.get("udp"))
            if node.channels:
                failures.append("live channels leaked after hangup: %r"
                                % sorted(node.channels))
        finally:
            await gateway.stop()
            probe.close()
            await node.stop()
    finally:
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(proc.wait(), 10.0)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
            failures.append("callee process had to be killed")
    if proc.returncode != 0:
        stderr = b"" if proc.stderr is None \
            else await proc.stderr.read()
        failures.append("callee exited %s: %s"
                        % (proc.returncode, stderr.decode()[-400:]))
    if args.json:
        print(json.dumps({"result": result, "failures": failures},
                         indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    journal = result.get("journal", {})
    print("live-demo OK: flowing codec=%s signals=S%d/R%d "
          "fingerprint=%s parity=True udp_echoes=%s"
          % (result.get("codec"), journal.get("sent", 0),
             journal.get("received", 0),
             str(journal.get("fingerprint", ""))[:16],
             result.get("udp", {}).get("echoes", "-")))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
