"""Signaling channels, tunnels, and the agents that own them.

"Boxes are connected by signaling channels.  A signaling channel is
two-way, FIFO, and reliable ...  Each signaling channel is partitioned
statically into tunnels, each of which provides a separate two-way
signaling capability.  Each tunnel can be used to control a separate
media channel" (Sec. III-A).

A :class:`SignalingChannel` rides a :class:`~repro.network.transport.Link`
and multiplexes tunnel signals plus channel-scope meta-signals.  Each of
its two :class:`ChannelEnd` objects belongs to a :class:`SignalingAgent`
(a box, user device, or media resource); received messages are queued as
stimuli on the agent's node, paying the per-stimulus processing cost
``c`` of Sec. VIII-C.

Teardown is asymmetric in time, like the real network: the initiating
side's slots die immediately, a ``TearDown`` meta-signal crosses the
link, and the peer's slots die when it arrives (its owner is notified
through ``on_channel_gone``).  Signals still in flight toward a dead end
are dropped, which is exactly what a closed TCP connection does.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, Iterable, List, Optional, Tuple

from ..network.backend import ARENA_POISON as _ARENA_POISON
from ..network.backend import CORE as _CORE
from ..network.eventloop import Event, EventLoop
from ..network.latency import LatencyModel
from ..network.node import Node
from ..network.transport import Link
from ..obs.events import ChannelEvent, SignalReceived, signal_label
from .errors import ConfigurationError
from .signals import (POISONED_SIGNAL, ChannelUp, MetaMessage,
                      MetaSignal, TearDown, TunnelMessage, TunnelSignal)
from .slot import RetransmitPolicy, Slot

__all__ = ["SignalingAgent", "ChannelEnd", "SignalingChannel",
           "DEFAULT_TUNNEL"]

#: Tunnel id used by single-medium applications, which dominate
#: (Sec. IV-B: "It is typical of single-medium applications ... that when
#: a media channel is no longer needed, the entire signaling channel is
#: destroyed").
DEFAULT_TUNNEL = "t0"

#: Cap on the per-loop recycled-envelope pool (see
#: :attr:`repro.network.eventloop.EventLoop._env_pool`).
_ENV_POOL_MAX = 64

#: What a released envelope's ``signal`` field is reset to.  Normally
#: ``None`` (drop the reference); under ``REPRO_ARENA_POISON`` it is
#: the poison sentinel, so a use-after-release raises at its next
#: attribute access instead of silently dispatching stale state.  A
#: pure-Python debug aid: the compiled Process kernel keeps its own
#: release path.
_RELEASED_SIGNAL = POISONED_SIGNAL if _ARENA_POISON else None


class SignalingAgent:
    """Base class for anything that owns channel ends.

    Subclasses are boxes (:class:`repro.core.box.Box`) and media
    endpoints (:class:`repro.media.endpoint.MediaEndpoint`).  They
    override the ``on_*`` hooks; each hook runs as one stimulus on the
    agent's :class:`~repro.network.node.Node`, paying cost ``c``.
    """

    def __init__(self, loop: EventLoop, name: str, cost: float = 0.0):
        self.loop = loop
        self.name = name
        self.node = Node(loop, name=name, cost=cost)
        self.channel_ends: List["ChannelEnd"] = []

    # -- hooks -----------------------------------------------------------
    def on_tunnel_signal(self, slot: Slot, signal: TunnelSignal) -> None:
        """A tunnel signal was received and accepted by ``slot``."""
        raise NotImplementedError

    def on_meta(self, end: "ChannelEnd", signal: MetaSignal) -> None:
        """A meta-signal arrived on one of this agent's channels."""
        raise NotImplementedError

    def on_channel_gone(self, end: "ChannelEnd") -> None:
        """The peer tore the channel down; all slots of ``end`` have
        already been force-closed.  Default: nothing."""

    def on_slot_failed(self, slot: Slot, reason: str) -> None:
        """Robust mode: ``slot`` exhausted its retransmission budget and
        fell back to ``closed`` without media (``reason`` is the signal
        kind that went unanswered, ``"open"`` or ``"close"``).  Default:
        nothing — boxes route this to the goal controlling the slot."""

    # -- plumbing ---------------------------------------------------------
    def _adopt_end(self, end: "ChannelEnd") -> None:
        self.channel_ends.append(end)

    def _drop_end(self, end: "ChannelEnd") -> None:
        if end in self.channel_ends:
            self.channel_ends.remove(end)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<%s %s>" % (type(self).__name__, self.name)


class ChannelEnd:
    """One agent's end of a signaling channel: a set of slots plus the
    meta-signal capability."""

    def __init__(self, channel: "SignalingChannel", side: int,
                 owner: SignalingAgent, strict: bool,
                 retransmit: Optional[RetransmitPolicy] = None):
        self.channel = channel
        self.side = side
        self.owner = owner
        self.alive = True
        #: Cached hot-path collaborators (the property chain
        #: ``channel.link.ends[side]``, ``owner.node``, and
        #: ``owner.loop`` cost real time at one lookup per signal).
        self._wire = channel.link.ends[side]
        self._node = owner.node
        self._loop = owner.loop
        self.slots: Dict[str, Slot] = {
            tid: Slot(self, tid, strict=strict, retransmit=retransmit)
            for tid in channel.tunnel_ids}
        #: The per-message kernels the wire and inbox dispatch through.
        #: Under the compiled backend these are C callables (created in
        #: this order: ``Receive`` caches ``_process_fn``); otherwise
        #: the bound methods.  Either backend may process thunks queued
        #: by the other — both callables obey the same contract.
        if _CORE is None:
            self._process_fn = self._process
            self._receive_fn = self._receive
        else:
            self._process_fn = _CORE.Process(self)
            self._receive_fn = _CORE.Receive(self)

    # -- identity ---------------------------------------------------------
    @property
    def name(self) -> str:
        return "%s@%s" % (self.owner.name, self.channel.name)

    @property
    def is_initiator(self) -> bool:
        return self.side == 0

    @property
    def peer(self) -> "ChannelEnd":
        return self.channel.ends[1 - self.side]

    @property
    def tenant(self) -> str:
        """The admission-control tenant this end's traffic is billed to:
        the name of the agent that initiated the signaling channel.
        Per-tenant caps at a shared box thereby bucket load by upstream
        originator, whichever side of this particular channel it sits
        on."""
        return self.channel.ends[0].owner.name

    def slot(self, tunnel_id: str = DEFAULT_TUNNEL) -> Slot:
        try:
            return self.slots[tunnel_id]
        except KeyError:
            raise ConfigurationError(
                "channel %s has no tunnel %r (tunnels: %s)"
                % (self.channel.name, tunnel_id,
                   ", ".join(self.channel.tunnel_ids)))

    def peer_slot(self, tunnel_id: str = DEFAULT_TUNNEL) -> Slot:
        """The slot at the other end of the same tunnel."""
        return self.peer.slot(tunnel_id)

    # -- sending ----------------------------------------------------------
    def send_tunnel(self, tunnel_id: str, signal: TunnelSignal) -> None:
        if not self.alive:
            return
        self._wire.send(TunnelMessage(tunnel_id, signal))

    def send_meta(self, signal: MetaSignal) -> None:
        if not self.alive:
            return
        self._wire.send(MetaMessage(signal))

    def tear_down(self) -> None:
        """Destroy the whole signaling channel from this side.

        This side's slots die now; the peer's die when the ``TearDown``
        meta-signal reaches it.
        """
        if not self.alive:
            return
        tr = self.owner.loop.trace
        if tr is not None:
            tr.emit(ChannelEvent(
                ts=self.owner.loop.now, channel=self.channel.name,
                action="teardown", initiator=self.owner.name))
        self.send_meta(TearDown())
        self._shutdown(notify=False)

    def _shutdown(self, notify: bool) -> None:
        if not self.alive:
            return
        self.alive = False
        for slot in self.slots.values():
            slot.force_close()
        self.owner._drop_end(self)
        if not self.peer.alive:
            self.channel.link.tear_down()
        if notify:
            self.owner.on_channel_gone(self)

    # -- receiving ---------------------------------------------------------
    @property
    def _link_end(self):
        return self._wire

    def _receive(self, message) -> None:
        # Runs inline at link-delivery time; queue as one stimulus so
        # the owner pays its processing cost c before reacting.  The
        # body of Node.enqueue is inlined — every signal in the network
        # funnels through this method, and the call frame plus varargs
        # packing were measurable at load.  Keep in sync with
        # repro.network.node.Node.enqueue.
        node = self._node
        if node.offline:
            node.dropped_while_offline += 1
            return
        node._inbox.append((self._process_fn, (message,)))
        if not node._busy:
            node._busy = True
            loop = node.loop
            when = loop._now + node.cost
            event = node._stim_event
            if event is not None and event._loop is None \
                    and not event.cancelled:
                event.time = when
                event.seq = next(loop._seq)
                event._loop = loop
            else:
                event = node._stim_event = Event(
                    when, 0, next(loop._seq), node._finish_cb, (), loop)
            if when == loop._now:
                loop._ready.append(event)
            else:
                heappush(loop._heap, event)
            loop._live += 1

    def _process(self, message) -> None:
        if not self.alive:
            return
        # Exact-type dispatch: the wire carries only the two final
        # envelope classes, so ``type() is`` is both faster than
        # isinstance and just as correct.
        if type(message) is TunnelMessage:
            signal = message.signal
            if _ARENA_POISON and signal is POISONED_SIGNAL:
                raise RuntimeError(
                    "arena poison: use-after-release — envelope %r "
                    "was delivered again after _process released it "
                    "to the pool" % (message,))
            try:
                slot = self.slots[message.tunnel_id]
            except KeyError:
                slot = self.slot(message.tunnel_id)
            owner = self.owner
            tr = self._loop.trace
            if tr is None:
                # Untraced load runs skip the pre-state capture and the
                # event construction entirely.
                if slot.receive(signal):
                    owner.on_tunnel_signal(slot, signal)
                if message.pooled:
                    # Envelope reset contract: a pooled envelope has had
                    # exactly its one delivery (pooling is only enabled
                    # on hook-free links); drop the signal reference
                    # (or poison it, under REPRO_ARENA_POISON) and
                    # release it for the next send.
                    message.signal = _RELEASED_SIGNAL  # type: ignore[assignment]
                    pool = self._loop._env_pool
                    if len(pool) < _ENV_POOL_MAX:
                        pool.append(message)
                return
            state_before = slot.state
            accepted = slot.receive(signal)
            tr.emit(SignalReceived(
                ts=self._loop.now, channel=self.channel.name,
                agent=owner.name, tunnel=message.tunnel_id,
                kind=signal.kind, label=signal_label(message),
                state_before=state_before, state_after=slot.state,
                accepted=accepted))
            if accepted:
                owner.on_tunnel_signal(slot, signal)
            if message.pooled:
                message.signal = _RELEASED_SIGNAL  # type: ignore[assignment]
                pool = self._loop._env_pool
                if len(pool) < _ENV_POOL_MAX:
                    pool.append(message)
        elif type(message) is MetaMessage:
            tr = self._loop.trace
            if isinstance(message.signal, TearDown):
                if tr is not None:
                    tr.emit(ChannelEvent(
                        ts=self.owner.loop.now, channel=self.channel.name,
                        action="gone", responder=self.owner.name))
                self._shutdown(notify=True)
            else:
                self.owner.on_meta(self, message.signal)
        else:  # pragma: no cover - wire carries only the two envelopes
            raise ConfigurationError("unknown message %r" % (message,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<ChannelEnd %s side=%d%s>" % (
            self.name, self.side, "" if self.alive else " dead")


class SignalingChannel:
    """A two-way, FIFO, reliable signaling channel between two agents.

    ``ends[0]`` belongs to the initiator (the side that set the channel
    up), which matters for open/open race resolution.  On creation a
    :class:`ChannelUp` meta-signal travels to the callee side so its
    program can react to the incoming channel.
    """

    def __init__(self, loop: EventLoop, initiator: SignalingAgent,
                 responder: SignalingAgent,
                 tunnel_ids: Iterable[str] = (DEFAULT_TUNNEL,),
                 latency: Optional[LatencyModel] = None,
                 name: Optional[str] = None,
                 target: str = "",
                 strict: bool = True,
                 announce: bool = True,
                 retransmit: Optional[RetransmitPolicy] = None):
        self.loop = loop
        self.name = name or loop.autoname("ch")
        #: Robust-mode policy handed to every slot (None = reliable mode).
        self.retransmit = retransmit
        self.tunnel_ids: Tuple[str, ...] = tuple(tunnel_ids)
        if not self.tunnel_ids:
            raise ConfigurationError("a channel needs at least one tunnel")
        if len(set(self.tunnel_ids)) != len(self.tunnel_ids):
            raise ConfigurationError("duplicate tunnel ids: %r"
                                     % (self.tunnel_ids,))
        if initiator is responder:
            raise ConfigurationError(
                "a signaling channel cannot loop back to %s" % initiator.name)
        self.link = Link(loop, latency=latency, name=self.name)
        self.target = target
        self.ends = (ChannelEnd(self, 0, initiator, strict, retransmit),
                     ChannelEnd(self, 1, responder, strict, retransmit))
        for end in self.ends:
            end._link_end.set_receiver(end._receive_fn)
            end.owner._adopt_end(end)
        tr = loop.trace
        if tr is not None:
            # Tap the link for signal.send events (the tap is outermost
            # in the transmit chain, so it sees traffic before any fault
            # policy installed later on this link).
            tr.attach_channel(self)
            tr.emit(ChannelEvent(
                ts=loop.now, channel=self.name, action="up",
                initiator=initiator.name, responder=responder.name))
        if announce:
            self.ends[0].send_meta(ChannelUp(target=target))

    # -- convenience -------------------------------------------------------
    @property
    def initiator_end(self) -> ChannelEnd:
        return self.ends[0]

    @property
    def responder_end(self) -> ChannelEnd:
        return self.ends[1]

    @property
    def active(self) -> bool:
        """True while at least one side still holds the channel."""
        return self.ends[0].alive or self.ends[1].alive

    def end_for(self, owner: SignalingAgent) -> ChannelEnd:
        """The end owned by ``owner``."""
        for end in self.ends:
            if end.owner is owner:
                return end
        raise ConfigurationError(
            "%s does not own an end of %s" % (owner.name, self.name))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.active else "down"
        return "<SignalingChannel %s %s (%s -- %s)>" % (
            self.name, state, self.ends[0].owner.name,
            self.ends[1].owner.name)
