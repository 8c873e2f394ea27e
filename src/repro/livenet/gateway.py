"""The media gateway front door: HTTP + WebSocket over asyncio streams.

``python -m repro serve`` runs one :class:`~repro.livenet.tcp.LiveNode`
fronted by this gateway; ``repro call`` drives it.  Endpoints:

* ``GET /healthz`` — node status snapshot (peers, channels, sim clock);
* ``GET /channels`` — live channels with their journal summaries;
* ``GET /events`` — recent live-transport events;
* ``POST /call`` — place a call: open a signaling chain
  ``caller ── box ── target@peer`` with the live leg over TCP, wait for
  media to flow, optionally blast UDP probe datagrams, report the
  direction-wise journal fingerprint (and its sim reference), then
  tear the call down (unless ``hold``);
* ``GET /ws/events`` — the event stream over a minimal RFC 6455
  WebSocket (text frames of JSON objects).

Front-door hygiene, in order, before any routing:

1. per-client-IP token-bucket rate limiting (the same
   :class:`~repro.core.admission.TokenBucket` arithmetic the box
   admission layer runs on the simulated clock, here on
   ``time.monotonic``) — excess requests get 429 + Retry-After;
2. strict path validation — bounded length, allow-listed characters,
   no dot-dot, no double slash, no escapes, unknown paths 404 without
   detail;
3. strict body/address validation — bounded JSON bodies only, call
   targets must parse as ``name@peer`` with a registered peer, and the
   name obeys the same charset :mod:`repro.network.address` enforces.

The server binds by default to 127.0.0.1; it is a demo front door, not
an internet-facing proxy.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.admission import TokenBucket
from ..network.address import _HOST_OK
from .journal import host_for, reference_fingerprint
from .tcp import LiveChannel, LiveNode

__all__ = ["Gateway", "CallError"]

_MAX_REQUEST_LINE = 1024
_MAX_HEADERS = 32
_MAX_HEADER_LINE = 1024
_MAX_BODY = 64 * 1024
_MAX_PATH = 80
_PATH_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_.-")
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Default rate limit: 100 requests/minute per client IP, burst 20.
_RATE = 100 / 60.0
_BURST = 20
_MAX_CLIENTS = 1024

_NAME_OK = _HOST_OK  # call-target names share the address charset


class CallError(Exception):
    """A /call request failed; maps to an HTTP status + reason slug."""

    def __init__(self, status: int, reason: str, detail: str = ""):
        self.status = status
        self.reason = reason
        self.detail = detail
        super().__init__("%s (%s)" % (reason, detail) if detail else reason)


class Gateway:
    """One HTTP/WebSocket front door over one live node."""

    def __init__(self, node: LiveNode, caller: str = "caller",
                 box: str = "gw", rate: float = _RATE, burst: int = _BURST):
        self.node = node
        self.caller_name = caller
        self.box_name = box
        self.rate = rate
        self.burst = burst
        #: Per-client-IP limiters, insertion-ordered for bounded pruning.
        self._buckets: Dict[str, TokenBucket] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._listen: Tuple[str, int] = ("", 0)
        self._ws_tasks: List[asyncio.Task] = []
        self.calls = 0
        self.rejected = 0
        #: The gateway's own agents on the node's simulated network.
        self.caller = node.net.device(caller, auto_accept=False,
                                     host=host_for(caller))
        self.box = node.net.box(box)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.start_server(self._client, host, port)
        self._listen = self._server.sockets[0].getsockname()[:2]
        self.node._emit("gateway-up", detail="%s:%d" % self._listen)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._ws_tasks:
            task.cancel()
        for task in self._ws_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        del self._ws_tasks[:]

    @property
    def listen_address(self) -> Tuple[str, int]:
        return self._listen

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            await self._serve_one(reader, writer)
        except (OSError, asyncio.IncompleteReadError,
                ConnectionResetError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - platform-dependent
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername") or ("?", 0)
        line = await reader.readline()
        if not line or len(line) > _MAX_REQUEST_LINE:
            return
        parts = line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3:
            await self._respond(writer, 400, {"error": {
                "reason": "bad-request-line"}})
            return
        method, path, _version = parts
        headers = await self._read_headers(reader)
        if headers is None:
            await self._respond(writer, 431, {"error": {
                "reason": "headers-too-large"}})
            return
        # 1. rate limit (before any parsing of the path or body)
        if not self._admit(peer[0]):
            self.rejected += 1
            await self._respond(writer, 429, {"error": {
                "reason": "rate-limited"}},
                extra=["Retry-After: 1"])
            return
        # 2. path hygiene
        bad = _path_problem(path)
        if bad is not None:
            await self._respond(writer, 400, {"error": {
                "reason": bad}})
            return
        # 3. routing
        if method == "GET" and path == "/healthz":
            status = self.node.status()
            status["gateway"] = {"calls": self.calls,
                                 "rejected": self.rejected}
            await self._respond(writer, 200, status)
        elif method == "GET" and path == "/channels":
            await self._respond(writer, 200,
                                self.node.status()["channels"])
        elif method == "GET" and path == "/events":
            await self._respond(writer, 200, self.node.events[-100:])
        elif method == "GET" and path == "/ws/events":
            await self._websocket(reader, writer, headers)
        elif method == "POST" and path == "/call":
            await self._call(reader, writer, headers)
        elif path in ("/healthz", "/channels", "/events", "/ws/events",
                      "/call"):
            await self._respond(writer, 405, {"error": {
                "reason": "method-not-allowed"}})
        else:
            await self._respond(writer, 404, {"error": {
                "reason": "not-found"}})

    async def _read_headers(self, reader: asyncio.StreamReader
                            ) -> Optional[Dict[str, str]]:
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = await reader.readline()
            if len(line) > _MAX_HEADER_LINE:
                return None
            text = line.decode("latin-1").rstrip("\r\n")
            if not text:
                return headers
            name, sep, value = text.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return None

    def _admit(self, ip: str) -> bool:
        bucket = self._buckets.get(ip)
        if bucket is None:
            while len(self._buckets) >= _MAX_CLIENTS:
                self._buckets.pop(next(iter(self._buckets)))
            bucket = self._buckets[ip] = TokenBucket(
                self.rate, self.burst, time.monotonic)
        return bucket.try_take()

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body: Any, extra: Optional[List[str]] = None) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  429: "Too Many Requests", 431: "Headers Too Large",
                  502: "Bad Gateway", 504: "Gateway Timeout"}.get(
                      status, "Error")
        head = ["HTTP/1.1 %d %s" % (status, reason),
                "Content-Type: application/json",
                "Content-Length: %d" % len(payload),
                "Connection: close"]
        head += extra or []
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        try:
            await writer.drain()
        except (OSError, ConnectionResetError):
            pass

    # ------------------------------------------------------------------
    # POST /call
    # ------------------------------------------------------------------
    async def _call(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter,
                    headers: Dict[str, str]) -> None:
        try:
            request = await self._read_json(reader, headers)
            result = await self.place_call(
                to=request.get("to"),
                medium=request.get("medium", "audio"),
                timeout=request.get("timeout", 5.0),
                udp=request.get("udp", 0),
                hold=request.get("hold", False))
        except CallError as exc:
            await self._respond(writer, exc.status, {"error": {
                "reason": exc.reason, "detail": exc.detail}})
            return
        await self._respond(writer, 200, result)

    async def _read_json(self, reader: asyncio.StreamReader,
                         headers: Dict[str, str]) -> Dict[str, Any]:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise CallError(400, "bad-content-length")
        if length <= 0:
            raise CallError(400, "empty-body")
        if length > _MAX_BODY:
            raise CallError(413, "body-too-large", str(length))
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise CallError(400, "truncated-body")
        try:
            request = json.loads(raw)
        except ValueError:
            raise CallError(400, "bad-json")
        if not isinstance(request, dict):
            raise CallError(400, "bad-json", "object required")
        return request

    async def place_call(self, to: Any, medium: Any = "audio",
                         timeout: Any = 5.0, udp: Any = 0,
                         hold: Any = False) -> Dict[str, Any]:
        """The call itself, reusable without HTTP (demo, tests).

        ``to`` must be ``"name@peer"``; the live leg runs box→peer with
        target ``name``; media flows caller ── box ── name.
        """
        target, peer = self._check_target(to)
        if medium not in ("audio", "video", "text"):
            raise CallError(400, "bad-medium", str(medium)[:32])
        if not isinstance(timeout, (int, float)) \
                or not 0 < timeout <= 60:
            raise CallError(400, "bad-timeout", str(timeout)[:32])
        if not isinstance(udp, int) or isinstance(udp, bool) \
                or not 0 <= udp <= 1000:
            raise CallError(400, "bad-udp-count", str(udp)[:32])
        node = self.node
        self.calls += 1
        ch1 = node.net.channel(self.caller, self.box)
        record = node.open_live(self.box, peer, target)
        self.box.flow_link(ch1.responder_end.slot(), record.half.slot())
        port = self.caller.open(ch1.initiator_end.slot(), medium)
        node._pump()

        def settled() -> bool:
            # ``flowing`` comes with the oack; the select that names the
            # codec (and ends the journal's growth) is a frame behind.
            slot = port.slot
            return ((slot.state == "flowing"
                     and slot.selector_received is not None)
                    or not record.half.alive
                    or bool(self.caller.failed_ports))

        flowing = await node.wait_for(settled, timeout=float(timeout))
        try:
            if not record.half.alive:
                raise CallError(502, "live-leg-lost",
                                self._bye_reason(record))
            if self.caller.failed_ports:
                raise CallError(502, "media-failed",
                                self.caller.failed_ports[-1][1])
            if not flowing or port.slot.state != "flowing":
                raise CallError(504, "not-flowing-in-time",
                                port.slot.state)
            codec = port.slot.selector_received.codec
            result: Dict[str, Any] = {
                "state": "flowing",
                "channel": record.half.channel_id,
                "codec": codec.name if codec is not None else "",
                "journal": record.journal.summary(),
            }
            reference = reference_fingerprint(
                self.caller_name, self.box_name, target, medium)
            result["reference"] = reference
            result["parity"] = (
                reference == result["journal"]["fingerprint"])
            if udp:
                result["udp"] = await self._probe(record, int(udp),
                                                  float(timeout))
            return result
        finally:
            if not hold:
                await self.hang_up(record, ch1)

    def _check_target(self, to: Any) -> Tuple[str, str]:
        if not isinstance(to, str) or not to:
            raise CallError(400, "bad-target", "string required")
        if len(to) > 128:
            raise CallError(400, "bad-target", "too long")
        name, sep, peer = to.partition("@")
        if not sep or not name or not peer:
            raise CallError(400, "bad-target", "use name@peer")
        if set(name) - _NAME_OK or set(peer) - _NAME_OK:
            raise CallError(400, "bad-target", "bad characters")
        if peer not in self.node.peers:
            raise CallError(400, "unknown-peer", peer)
        return name, peer

    def _bye_reason(self, record: LiveChannel) -> str:
        for event in reversed(self.node.events):
            if event["action"] in ("channel-bye", "peer-dead") \
                    and record.half.channel_id in event["detail"]:
                return event["detail"]
        return "teardown"

    async def _probe(self, record: LiveChannel, count: int,
                     timeout: float) -> Dict[str, Any]:
        node = self.node
        if node.probe is None:
            return {"echoes": 0, "skipped": "no-probe"}
        node.announce_probe(record.half.channel_id)
        if not await node.wait_for(lambda: record.peer_probe is not None,
                                   timeout=timeout):
            return {"echoes": 0, "skipped": "peer-probe-unknown"}
        key = record.half.channel_id.encode("utf-8")
        node.probe.blast(record.peer_probe, key, count)
        await node.wait_for(
            lambda: node.probe.echo_count(key) >= count,
            timeout=min(timeout, 2.0))
        return {"sent": count, "echoes": node.probe.echo_count(key)}

    async def hang_up(self, record: LiveChannel,
                      channel: Any = None) -> None:
        """Tear one call down: live leg first (the TearDown crosses the
        wire), then the local caller leg; pump until quiet."""
        if record.half.alive:
            record.half.end.tear_down()
        if channel is not None:
            if channel.active:
                channel.initiator_end.tear_down()
                # Self-initiated teardown never notifies the owner;
                # release the caller's ports here or every call strands
                # one.
                self.caller.release_end(channel.initiator_end)
            # ...and the network's record of the leg, or every call
            # strands a channel.
            channels = self.node.net.channels
            if channel in channels:
                channels.remove(channel)
        self.node._pump()
        await asyncio.sleep(0)
        self.node._pump()

    # ------------------------------------------------------------------
    # GET /ws/events
    # ------------------------------------------------------------------
    async def _websocket(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         headers: Dict[str, str]) -> None:
        key = headers.get("sec-websocket-key")
        if headers.get("upgrade", "").lower() != "websocket" or not key:
            await self._respond(writer, 400, {"error": {
                "reason": "not-a-websocket"}})
            return
        accept = base64.b64encode(hashlib.sha1(
            (key + _WS_GUID).encode("latin-1")).digest()).decode("latin-1")
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            "Sec-WebSocket-Accept: %s\r\n\r\n" % accept).encode("latin-1"))
        await writer.drain()
        queue: asyncio.Queue = asyncio.Queue(maxsize=256)

        def subscriber(event: Dict[str, Any]) -> None:
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                pass  # slow consumer: drop, never block the node

        self.node.subscribers.append(subscriber)
        pusher = asyncio.get_running_loop().create_task(
            self._ws_push(writer, queue), name="repro-ws-push")
        self._ws_tasks.append(pusher)
        try:
            await self._ws_read(reader)
        finally:
            if subscriber in self.node.subscribers:
                self.node.subscribers.remove(subscriber)
                self.node._wake()  # no pump follows a socket closing
            pusher.cancel()
            try:
                await pusher
            except (asyncio.CancelledError, Exception):
                pass
            if pusher in self._ws_tasks:
                self._ws_tasks.remove(pusher)

    async def _ws_push(self, writer: asyncio.StreamWriter,
                       queue: asyncio.Queue) -> None:
        while True:
            event = await queue.get()
            payload = json.dumps(event, sort_keys=True).encode("utf-8")
            writer.write(_ws_text_frame(payload))
            await writer.drain()

    async def _ws_read(self, reader: asyncio.StreamReader) -> None:
        """Minimal client-frame loop: answer pings, exit on close/EOF."""
        while True:
            try:
                head = await reader.readexactly(2)
            except (asyncio.IncompleteReadError, OSError):
                return
            opcode = head[0] & 0x0F
            masked = bool(head[1] & 0x80)
            length = head[1] & 0x7F
            try:
                if length == 126:
                    length = struct.unpack(
                        ">H", await reader.readexactly(2))[0]
                elif length == 127:
                    length = struct.unpack(
                        ">Q", await reader.readexactly(8))[0]
                if length > _MAX_BODY:
                    return
                if masked:
                    await reader.readexactly(4)
                if length:
                    await reader.readexactly(length)
            except (asyncio.IncompleteReadError, OSError):
                return
            if opcode == 0x8:  # close
                return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Gateway %s:%d calls=%d>" % (
            self._listen[0], self._listen[1], self.calls)


def _path_problem(path: str) -> Optional[str]:
    """The reason ``path`` is unacceptable, or ``None`` if clean."""
    if not path.startswith("/"):
        return "bad-path"
    if len(path) > _MAX_PATH:
        return "path-too-long"
    if set(path) - _PATH_OK:
        return "bad-path-chars"
    if ".." in path or "//" in path:
        return "bad-path"
    return None


def _ws_text_frame(payload: bytes) -> bytes:
    """One server→client text frame (FIN set, no mask)."""
    length = len(payload)
    if length < 126:
        head = struct.pack(">BB", 0x81, length)
    elif length < 1 << 16:
        head = struct.pack(">BBH", 0x81, 126, length)
    else:
        head = struct.pack(">BBQ", 0x81, 127, length)
    return head + payload
