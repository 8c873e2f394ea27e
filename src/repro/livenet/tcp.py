"""The asyncio TCP transport: one :class:`LiveNode` per OS process.

A live node owns a full simulated deployment (a
:class:`~repro.network.network.Network`: event loop, media plane,
router, agents) plus the machinery that lets its signaling channels
extend into other processes:

* a TCP **server** accepting connections from peers;
* dialed :class:`PeerConnection` objects with exponential-backoff
  reconnect (accepted connections never redial — the dialer owns
  liveness);
* the **pump** that bridges asyncio's wall clock onto the repro
  :class:`~repro.network.eventloop.EventLoop`: after every socket or
  user stimulus, simulated time advances to the wall-elapsed anchor and
  the loop drains; a timer is armed for the next pending sim event, so
  retransmission and backoff timers fire live with the same semantics
  the simulator pins.  The pump is also the event
  :meth:`LiveNode.wait_for` sleeps on: a pump that executed sim events
  wakes every parked waiter, so a caller waits as long as the protocol
  takes and no longer.

Everything runs on the asyncio thread; the repro loop is only ever
pumped from asyncio callbacks, so no locks exist anywhere in the stack.

Failure maps onto the paper's degradation path: when a dialed peer's
reconnect budget is exhausted (or an accepted connection dies with no
dialer behind it), every half-channel riding the connection is
abandoned — the owner sees the ordinary ``TearDown``/``on_channel_gone``
sequence and media degrades to ``noMedia`` exactly as for a simulated
channel loss.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..network.network import Network
from ..obs.events import LiveWireEvent
from ..protocol.channel import DEFAULT_TUNNEL, SignalingAgent
from ..protocol.errors import ConfigurationError
from ..protocol.slot import RetransmitPolicy
from .seam import HalfChannel
from .wire import (ByeFrame, Frame, FrameAssembler, HelloFrame, PingFrame,
                   PongFrame, ProbeFrame, SigFrame, WireError, decode_frame,
                   encode_frame, encode_sig_frame, frame)

__all__ = ["ReconnectPolicy", "PeerConnection", "LiveChannel", "LiveNode"]


@dataclass(frozen=True)
class ReconnectPolicy:
    """Backoff schedule for a dialed peer: ``initial`` seconds doubling
    by ``factor`` up to ``cap``, giving up for good after
    ``max_attempts`` consecutive failures."""

    initial: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    max_attempts: int = 8

    def delay(self, attempt: int) -> float:
        return min(self.cap, self.initial * (self.factor ** attempt))


#: Outbound frames buffered per disconnected peer before the node gives
#: up on it (retransmission makes small losses survivable; unbounded
#: buffering would just defer the failure and leak).
_BACKLOG_LIMIT = 256


class PeerConnection:
    """One TCP connection (dialed or accepted) carrying framed traffic.

    A dialed connection reconnects itself per the node's
    :class:`ReconnectPolicy`; while down, outbound frames are buffered
    (bounded) and flushed on reconnect.  An accepted connection simply
    dies on EOF — the remote dialer is responsible for coming back.
    """

    def __init__(self, node: "LiveNode", label: str,
                 host: str = "", port: int = 0, dialed: bool = False):
        self.node = node
        self.label = label
        self.host = host
        self.port = port
        self.dialed = dialed
        self.connected = False
        self.closed = False
        self.attempts = 0
        self._writer: Optional[asyncio.StreamWriter] = None
        self._backlog: List[bytes] = []
        self._task: Optional[asyncio.Task] = None

    # -- sending ----------------------------------------------------------
    def send(self, fr: Frame) -> None:
        """Frame and ship (or buffer) one frame, FIFO."""
        self.send_payload(encode_frame(fr))

    def send_payload(self, payload: bytes) -> None:
        """Ship (or buffer) one already-encoded frame payload, FIFO."""
        if self.closed:
            return
        framed = frame(payload)
        if self.connected and self._writer is not None:
            self._writer.write(framed)
        else:
            self._backlog.append(framed)
            if len(self._backlog) > _BACKLOG_LIMIT:
                self.node._peer_dead(self, "backlog-overflow")

    # -- dialed lifecycle -------------------------------------------------
    def start(self) -> None:
        """Begin dialing (idempotent)."""
        if self._task is None and not self.closed:
            self._task = asyncio.get_running_loop().create_task(
                self._dial_loop(), name="repro-dial-%s" % self.label)

    async def _dial_loop(self) -> None:
        policy = self.node.reconnect
        while not self.closed:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port)
            except OSError as exc:
                self.attempts += 1
                self.node._emit("connect-failed", peer=self.label,
                                detail="attempt %d: %s"
                                % (self.attempts, type(exc).__name__))
                if self.attempts >= policy.max_attempts:
                    self.node._peer_dead(self, "reconnect-exhausted")
                    return
                await asyncio.sleep(policy.delay(self.attempts - 1))
                continue
            self.attempts = 0
            self._attach(writer)
            self.node._emit("connected", peer=self.label)
            await self._read(reader)
            self._detach()
            if self.closed:
                return
            self.node._emit("disconnected", peer=self.label)
            self.attempts = 1
            await asyncio.sleep(policy.delay(0))

    # -- accepted lifecycle -----------------------------------------------
    async def serve(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        """Run an accepted connection until EOF (called by the server)."""
        self._attach(writer)
        try:
            await self._read(reader)
        finally:
            self._detach()
            if not self.closed:
                self.closed = True
                self.node._conn_gone(self, "peer-closed")

    # -- shared machinery -------------------------------------------------
    def _attach(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.connected = True
        if self._backlog:
            writer.writelines(self._backlog)
            del self._backlog[:]

    def _detach(self) -> None:
        self.connected = False
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - platform-dependent
                pass

    async def _read(self, reader: asyncio.StreamReader) -> None:
        assembler = FrameAssembler()
        while True:
            try:
                chunk = await reader.read(65536)
            except (OSError, asyncio.IncompleteReadError):
                return
            if not chunk:
                return
            try:
                payloads = assembler.feed(chunk)
            except WireError as exc:
                # Desynchronized or hostile stream: drop the connection.
                self.node._emit("bad-stream", peer=self.label,
                                detail=exc.reason)
                return
            for payload in payloads:
                try:
                    fr = decode_frame(payload)
                except WireError as exc:
                    self.node._emit("bad-frame", peer=self.label,
                                    detail=exc.reason)
                    continue
                self.node._on_frame(self, fr)
            if payloads:
                self.node._pump()

    async def close(self) -> None:
        """Tear the connection down for good (no reconnect)."""
        self.closed = True
        task, self._task = self._task, None
        self._detach()
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else (
            "up" if self.connected else "down")
        return "<PeerConnection %s %s>" % (self.label, state)


class LiveChannel:
    """Bookkeeping for one half-channel riding a connection."""

    __slots__ = ("half", "conn", "journal", "peer_probe", "probe_sent")

    def __init__(self, half: HalfChannel, conn: PeerConnection):
        self.half = half
        self.conn = conn
        #: Fed by the half-channel with the bytes that cross the seam.
        self.journal = half.journal
        #: The remote process's real UDP probe address, once announced.
        self.peer_probe: Optional[Tuple[str, int]] = None
        self.probe_sent = False


class LiveNode:
    """One process's live deployment: simulated network + TCP front."""

    def __init__(self, name: str, seed: int = 0,
                 retransmit: Optional[RetransmitPolicy] = None,
                 reconnect: Optional[ReconnectPolicy] = None,
                 trace: bool = False):
        self.name = name
        self.net = Network(seed=seed, retransmit=retransmit, trace=trace)
        self.reconnect = reconnect if reconnect is not None \
            else ReconnectPolicy()
        #: Dialable peers by name.
        self.peers: Dict[str, PeerConnection] = {}
        #: Accepted (unnamed) connections, newest last.
        self.accepted: List[PeerConnection] = []
        #: Live half-channels by channel id.
        self.channels: Dict[str, LiveChannel] = {}
        #: Channel ids torn down recently; SIG frames for them are
        #: dropped silently instead of answered with Bye (teardown
        #: crossing in flight is normal, not an error).
        self._closed_ids: Dict[str, None] = {}
        #: Event subscribers (gateway websockets, tests).
        self.subscribers: List[Callable[[Dict[str, Any]], None]] = []
        #: Recent events, for /events and diagnostics.
        self.events: List[Dict[str, Any]] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._listen: Tuple[str, int] = ("", 0)
        self._counter = 0
        self._anchor = 0.0
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Futures of parked :meth:`wait_for` calls, resolved by
        #: :meth:`_wake`.
        self._waiters: List[asyncio.Future] = []
        self._running = False
        #: The node's :class:`~repro.livenet.udp.MediaProbe`, set by
        #: :meth:`attach_probe`; advertised in ProbeFrames.
        self.probe: Optional[Any] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def loop(self):
        return self.net.loop

    @property
    def listen_address(self) -> Tuple[str, int]:
        """Where the node accepts peer connections (after ``start``)."""
        return self._listen

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the signaling listener and anchor the pump clock."""
        self._running = True
        self._anchor = asyncio.get_running_loop().time() - self.loop.now
        self._server = await asyncio.start_server(
            self._accept, host, port)
        sock = self._server.sockets[0]
        self._listen = sock.getsockname()[:2]
        self._emit("listening", detail="%s:%d" % self._listen)

    async def stop(self) -> None:
        """Graceful teardown: close server and connections, abandon any
        channels still up, drain the sim loop, disarm the pump."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for record in list(self.channels.values()):
            record.half.abandon("node-stopped")
        for conn in list(self.peers.values()) + list(self.accepted):
            await conn.close()
        self.peers.clear()
        del self.accepted[:]
        self.loop.run_until_quiescent()
        self.channels.clear()
        self._closed_ids.clear()
        self._emit("stopped")  # wakes the waiters: nothing more can change

    # ------------------------------------------------------------------
    # peers and channels
    # ------------------------------------------------------------------
    def add_peer(self, name: str, host: str, port: int) -> PeerConnection:
        """Register (and start dialing) a named remote node."""
        if name in self.peers:
            return self.peers[name]
        conn = PeerConnection(self, name, host, port, dialed=True)
        self.peers[name] = conn
        conn.start()
        return conn

    def open_live(self, agent: SignalingAgent, peer: str, target: str,
                  tunnels: Iterable[str] = (DEFAULT_TUNNEL,),
                  retransmit: Optional[RetransmitPolicy] = None
                  ) -> LiveChannel:
        """Open a signaling channel from ``agent`` toward ``target``,
        served by the remote node ``peer``.  Returns immediately; the
        protocol proceeds as frames flow."""
        conn = self.peers.get(peer)
        if conn is None:
            raise ConfigurationError("unknown peer %r" % peer)
        self._counter += 1
        channel_id = "%s/c%d" % (self.name, self._counter)
        tunnel_ids = tuple(tunnels)
        conn.send(HelloFrame(channel_id, agent.name, target, tunnel_ids))
        half = HalfChannel(
            self.loop, agent, lambda data: self._ship(channel_id, data),
            channel_id, remote_name=target, outbound=True, target=target,
            tunnel_ids=tunnel_ids,
            retransmit=retransmit if retransmit is not None
            else self.net.retransmit)
        record = LiveChannel(half, conn)
        self.channels[channel_id] = record
        half.on_closed = self._half_closed
        self._emit("channel-open", peer=peer, detail=channel_id)
        self._pump()
        return record

    def attach_probe(self, probe: Any) -> None:
        """Adopt a started :class:`~repro.livenet.udp.MediaProbe`.  Its
        echoes arrive outside the pump, so they wake waiters directly."""
        self.probe = probe
        probe.on_echo = self._wake

    def announce_probe(self, channel_id: str) -> None:
        """Tell the remote side where our real UDP probe listens."""
        record = self.channels.get(channel_id)
        if record is None or self.probe is None:
            return
        host, port = self.probe.address
        record.conn.send(ProbeFrame(channel_id, host, port))
        record.probe_sent = True

    # ------------------------------------------------------------------
    # frame handling
    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername") or ("?", 0)
        label = "accepted-%s:%s" % (peername[0], peername[1])
        conn = PeerConnection(self, label)
        self.accepted.append(conn)
        self._emit("accepted", peer=label)
        task = asyncio.get_running_loop().create_task(
            conn.serve(reader, writer), name="repro-serve-%s" % label)
        conn._task = task

    def _on_frame(self, conn: PeerConnection, fr: Frame) -> None:
        cls = type(fr)
        if cls is HelloFrame:
            self._on_hello(conn, fr)
        elif cls is SigFrame:
            record = self.channels.get(fr.channel_id)
            if record is None:
                if fr.channel_id not in self._closed_ids:
                    conn.send(ByeFrame(fr.channel_id, "unknown-channel"))
                return
            record.conn = conn  # rebind after a reconnect
            record.half.inject(fr.envelope)
        elif cls is ByeFrame:
            record = self.channels.get(fr.channel_id)
            if record is not None:
                self._emit("channel-bye", peer=conn.label,
                           detail="%s: %s" % (fr.channel_id, fr.reason))
                record.half.abandon(fr.reason or "bye")
        elif cls is PingFrame:
            conn.send(PongFrame(fr.nonce))
        elif cls is ProbeFrame:
            record = self.channels.get(fr.channel_id)
            if record is not None:
                record.peer_probe = (fr.host, fr.port)
                if not record.probe_sent:
                    self.announce_probe(fr.channel_id)
                self._wake()  # no sim event carries this change

    def _on_hello(self, conn: PeerConnection, fr: HelloFrame) -> None:
        if fr.channel_id in self.channels:
            self.channels[fr.channel_id].conn = conn
            return
        try:
            agent = self.net.router.resolve(fr.target)
        except ConfigurationError:
            self._emit("no-route", peer=conn.label, detail=fr.target)
            conn.send(ByeFrame(fr.channel_id, "no-route"))
            return
        half = HalfChannel(
            self.loop, agent,
            lambda data: self._ship(fr.channel_id, data),
            fr.channel_id, remote_name=fr.initiator, outbound=False,
            target=fr.target, tunnel_ids=fr.tunnel_ids or (DEFAULT_TUNNEL,),
            retransmit=self.net.retransmit)
        record = LiveChannel(half, conn)
        self.channels[fr.channel_id] = record
        half.on_closed = self._half_closed
        self._emit("channel-accept", peer=conn.label, detail=fr.channel_id)

    def _ship(self, channel_id: str, data: bytes) -> None:
        """Half-channel sink: route one encoded envelope to its peer."""
        record = self.channels.get(channel_id)
        if record is None:  # raced with teardown
            return
        record.conn.send_payload(encode_sig_frame(channel_id, data))

    def _half_closed(self, half: HalfChannel) -> None:
        record = self.channels.pop(half.channel_id, None)
        if record is not None:
            self._closed_ids[half.channel_id] = None
            while len(self._closed_ids) > 1024:
                self._closed_ids.pop(next(iter(self._closed_ids)))
            self._emit("channel-closed", detail=half.channel_id)

    # ------------------------------------------------------------------
    # failure
    # ------------------------------------------------------------------
    def _peer_dead(self, conn: PeerConnection, reason: str) -> None:
        """A dialed peer is unreachable for good: abandon its channels
        (noMedia degradation) and stop dialing."""
        conn.closed = True
        self._emit("peer-dead", peer=conn.label, detail=reason)
        self._abandon_for(conn, reason)
        self.peers.pop(conn.label, None)
        self._pump()

    def _conn_gone(self, conn: PeerConnection, reason: str) -> None:
        """An accepted connection died.  Its channels stay mapped — the
        remote dialer may reconnect and rebind them — unless the node is
        shutting down."""
        if conn in self.accepted:
            self.accepted.remove(conn)
        self._emit("conn-gone", peer=conn.label, detail=reason)
        if not self._running:
            self._abandon_for(conn, reason)
        self._pump()

    def _abandon_for(self, conn: PeerConnection, reason: str) -> None:
        for record in list(self.channels.values()):
            if record.conn is conn:
                record.half.abandon(reason)

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Advance the repro loop to wall-elapsed time and drain it,
        then arm a timer for the next pending simulated event.  Waiters
        are woken only if events actually ran: an idle pump changes
        nothing a predicate could see."""
        if not self._running:
            return
        aio = asyncio.get_running_loop()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        target = aio.time() - self._anchor
        delta = target - self.loop.now
        if self.loop.advance(delta if delta > 0 else 0.0):
            self._wake()
        nxt = self.loop._front(pop_cancelled=True)
        if nxt is not None:
            delay = (self._anchor + nxt.time) - aio.time()
            self._timer = aio.call_later(
                delay if delay > 0 else 0.0, self._pump)

    def _wake(self) -> None:
        """Something a :meth:`wait_for` predicate may read has changed:
        let every parked waiter look again."""
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for waiter in waiters:
                if not waiter.done():  # cancelled, not yet unparked
                    waiter.set_result(None)

    async def wait_for(self, predicate: Callable[[], bool],
                       timeout: float = 5.0) -> bool:
        """Wait until ``predicate()`` holds (True), or ``timeout``
        seconds pass or the node stops (False).

        Pumps once on entry, which drains the caller's own stimulus,
        then sleeps until the node changes: a pump that executed sim
        events, a transport transition (:meth:`_emit`), a probe address
        or echo, an unsubscribe.  A woken waiter only looks; it does
        not pump, or two waiters would keep waking each other.  Code
        that stimulates the sim loop from outside must therefore call
        :meth:`_pump` itself, as :meth:`open_live` does.
        """
        self._pump()
        if predicate():
            return True
        aio = asyncio.get_running_loop()
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            self._wake()

        timer = aio.call_later(timeout, expire)
        try:
            while self._running and not expired:
                waiter = aio.create_future()
                self._waiters.append(waiter)
                try:
                    await waiter
                finally:
                    if waiter in self._waiters:  # cancelled while parked
                        self._waiters.remove(waiter)
                if predicate():
                    return True
            return False
        finally:
            timer.cancel()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _emit(self, action: str, peer: str = "", detail: str = "") -> None:
        event = {"ts": round(self.loop.now, 6), "node": self.name,
                 "action": action, "peer": peer, "detail": detail}
        self.events.append(event)
        if len(self.events) > 512:
            del self.events[:256]
        tracer = self.net.trace
        if tracer is not None:
            tracer.emit(LiveWireEvent(ts=self.loop.now, action=action,
                                      peer=peer, detail=detail))
        for subscriber in list(self.subscribers):
            subscriber(event)
        self._wake()

    def status(self) -> Dict[str, Any]:
        """JSON-friendly snapshot for the gateway's health endpoint."""
        return {
            "node": self.name,
            "listen": "%s:%d" % self._listen,
            "peers": {name: ("up" if c.connected else "down")
                      for name, c in self.peers.items()},
            "accepted": len(self.accepted),
            "channels": {
                cid: {"outbound": rec.half.outbound,
                      "alive": rec.half.alive,
                      "journal": rec.journal.summary()}
                for cid, rec in self.channels.items()},
            "sim_now": round(self.loop.now, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<LiveNode %s peers=%d channels=%d>" % (
            self.name, len(self.peers), len(self.channels))
