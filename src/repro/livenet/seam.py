"""The transport seam: half-channels over arbitrary byte transports.

The simulator's :class:`~repro.protocol.channel.SignalingChannel` rides
a :class:`~repro.network.transport.Link` whose two ends both live in one
process.  The seam keeps that object graph *unchanged* and replaces only
the far half: a :class:`HalfChannel` is a real ``SignalingChannel``
between the local agent and a :class:`RemoteRelay`, whose link end —
instead of processing envelopes through slots — encodes each one
(:func:`~repro.livenet.wire.encode_envelope`) and hands the bytes to a
transport callback.  Envelopes decoded off the wire are injected at the
relay's end and travel the link into the *unchanged* local machinery:
slots, goals, retransmission timers, admission control, tracing.

Because the local half is byte-for-byte the simulator's code path, the
runtime fingerprints that pin the sim also pin the live stack's local
semantics; only delivery latency differs.  The :class:`Wire` protocol
documents the seam contract the simulator's ``LinkEnd`` already
satisfies — the simulator is the null transport.

Teardown maps onto the paper's degradation path in both directions:

* local hangup → the ``TearDown`` meta-signal crosses the wire like any
  envelope and kills the remote half;
* transport death (reconnect budget exhausted, peer gone) →
  :meth:`HalfChannel.abandon` injects the same ``TearDown`` locally, so
  the owner sees the ordinary ``on_channel_gone`` / ``noMedia`` path it
  already handles for a closed sim channel.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Protocol

from ..network.eventloop import EventLoop
from ..protocol.channel import (DEFAULT_TUNNEL, ChannelEnd, SignalingAgent,
                                SignalingChannel)
from ..protocol.signals import (ChannelUp, MetaMessage, MetaSignal, TearDown,
                                TunnelSignal)
from ..protocol.slot import RetransmitPolicy, Slot
from .journal import SignalJournal
from .wire import encode_envelope

__all__ = ["Wire", "RemoteRelay", "HalfChannel"]

#: Transport callback: receives one encoded envelope headed off-process.
FrameSink = Callable[[bytes], None]


class Wire(Protocol):
    """What a signaling channel end needs from its carrier.

    :class:`~repro.network.transport.LinkEnd` satisfies this protocol
    as-is — the simulator implements the seam unchanged.  A live
    transport satisfies it through :class:`HalfChannel`, which bridges
    the same two calls onto encoded frames.
    """

    def send(self, message: object) -> None:
        """Carry ``message`` (a wire envelope) to the far side, FIFO."""

    def set_receiver(self, receiver: Callable[[object], None]) -> None:
        """Install the callback for messages arriving from the far side."""


class RemoteRelay(SignalingAgent):
    """The local stand-in for an agent in another OS process.

    It owns the far :class:`~repro.protocol.channel.ChannelEnd` of a
    half-channel purely structurally — its receiver is replaced before
    any signal can arrive, so the ``on_*`` hooks are unreachable.  Its
    ``name`` is the remote agent's name, which keeps admission-control
    tenant accounting meaningful across the wire.
    """

    def on_tunnel_signal(self, slot: Slot,
                         signal: TunnelSignal) -> None:  # pragma: no cover
        raise AssertionError("relay end must never process signals")

    def on_meta(self, end: ChannelEnd,
                signal: MetaSignal) -> None:  # pragma: no cover
        raise AssertionError("relay end must never process signals")


class HalfChannel:
    """One process's half of a live signaling channel.

    Parameters
    ----------
    loop:
        The process's repro :class:`~repro.network.eventloop.EventLoop`.
    agent:
        The local owner (box, device, resource) — unchanged sim code.
    sink:
        Called synchronously with each encoded envelope headed to the
        remote process.
    channel_id:
        Globally unique id; frames on the transport are scoped by it.
    remote_name:
        The far agent's name (relay identity / admission tenant).
    outbound:
        True when this process initiated the channel.  The initiator
        side announces ``ChannelUp`` itself and the meta-signal crosses
        the wire like any envelope, exactly as it crosses a sim link —
        the responder half is created with no local announcement.
    """

    def __init__(self, loop: EventLoop, agent: SignalingAgent,
                 sink: FrameSink, channel_id: str, remote_name: str,
                 outbound: bool, target: str = "",
                 tunnel_ids: Iterable[str] = (DEFAULT_TUNNEL,),
                 retransmit: Optional[RetransmitPolicy] = None,
                 strict: bool = False):
        self.channel_id = channel_id
        self.outbound = outbound
        self.remote_name = remote_name
        self._sink = sink
        #: True until either side's TearDown passes the seam.
        self.alive = True
        #: Called once, when the channel dies (either direction).
        self.on_closed: Optional[Callable[["HalfChannel"], None]] = None
        #: What crossed the seam, per direction, as wire encodings.
        self.journal = SignalJournal()
        self.relay = RemoteRelay(loop, name=remote_name)
        if outbound:
            initiator: SignalingAgent = agent
            responder: SignalingAgent = self.relay
            self._local_side, self._relay_side = 0, 1
        else:
            initiator, responder = self.relay, agent
            self._local_side, self._relay_side = 1, 0
        # Wire input is untrusted, so live slots run lenient (strict
        # would let a malformed-but-decodable signal sequence raise in
        # the middle of the event loop; lenient drops and traces it).
        self.channel = SignalingChannel(
            loop, initiator, responder, tunnel_ids=tunnel_ids,
            target=target, name=channel_id, strict=strict,
            announce=outbound, retransmit=retransmit)
        self._wire_end = self.channel.link.ends[self._relay_side]
        # Replace the relay-side receiver: envelopes reaching the far
        # end of the link leave the process instead of entering slots.
        self._wire_end.set_receiver(self._ship)

    # -- identity ---------------------------------------------------------
    @property
    def end(self) -> ChannelEnd:
        """The local agent's channel end (ordinary sim object)."""
        return self.channel.ends[self._local_side]

    def slot(self, tunnel_id: str = DEFAULT_TUNNEL) -> Slot:
        return self.end.slot(tunnel_id)

    # -- outbound ---------------------------------------------------------
    def _ship(self, message: object) -> None:
        """Relay-side delivery: encode and hand to the transport.

        Runs inside the repro loop's drain (link latency 0), so frames
        leave in exactly the order the local half emitted them.
        """
        if not self.alive:
            return
        signal = message.signal if type(message) is MetaMessage else None
        data = encode_envelope(message)  # type: ignore[arg-type]
        # The initiator's ChannelUp announce is channel construction,
        # not traffic on the channel: a journal hooked onto a sim
        # channel (which exists only once the announce is sent) never
        # sees it, so sim parity needs it left out here too.
        if not isinstance(signal, ChannelUp):
            self.journal.record_sent(data)
        self._sink(data)
        if isinstance(signal, TearDown):
            # Local hangup completed its trip through the seam; the
            # remote half dies when the frame lands.  The local end shut
            # itself down when it sent this, so retiring the relay end
            # tears the link down too (both ends dead).
            self._finish()

    # -- inbound ----------------------------------------------------------
    def inject(self, envelope: object) -> None:
        """Deliver one decoded envelope from the wire to the local half.

        The envelope enters at the relay's link end and rides the link
        (latency 0, FIFO) into the unchanged ChannelEnd/slot machinery.
        """
        if not self.alive:
            return
        teardown = (type(envelope) is MetaMessage
                    and isinstance(envelope.signal, TearDown))
        # Journaled as a canonical re-encoding, not as the bytes that
        # arrived: the decoder accepts non-canonical input.
        self.journal.record_received(
            encode_envelope(envelope))  # type: ignore[arg-type]
        self._wire_end.send(envelope)
        if teardown:
            # The TearDown delivery is now in flight on the link; the
            # link must stay up until the local end processes it.
            # Retiring the relay end arranges exactly that: the local
            # end's own ``_shutdown`` sees its peer dead and tears the
            # link down after the noMedia degradation completes.
            self._finish()

    # -- death ------------------------------------------------------------
    def abandon(self, reason: str = "transport-lost") -> None:
        """The transport under this channel is gone for good: degrade
        through the ordinary path by injecting the ``TearDown`` the
        remote side can no longer send.  The owner observes exactly what
        it observes for a peer-initiated teardown — ``on_channel_gone``,
        force-closed slots, media stopped (``noMedia``)."""
        if not self.alive:
            return
        self.inject(MetaMessage(TearDown()))

    def _finish(self) -> None:
        self.alive = False
        # Retire the relay's channel end through the ordinary shutdown
        # path (no notification — the relay has no program).  Whichever
        # end dies second tears the link down, so an in-flight TearDown
        # delivery toward the local end is never cancelled under it.
        self.channel.ends[self._relay_side]._shutdown(notify=False)
        if self.on_closed is not None:
            self.on_closed(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<HalfChannel %s %s %s>" % (
            self.channel_id, "out" if self.outbound else "in",
            "up" if self.alive else "down")
