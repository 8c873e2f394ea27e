"""The Network facade: one object wiring loop, media plane, router,
agents, and channels together.

This is the main entry point of the public API::

    net = Network(seed=1)
    alice = net.device("alice")
    bob = net.device("bob")
    ch = net.channel(alice, bob)
    alice.open(ch.initiator_end.slot(), AUDIO)
    net.settle()
"""

from __future__ import annotations

from typing import Iterable, Optional, Type, Union

from ..obs.tracer import Tracer
from ..protocol.channel import (SignalingAgent, SignalingChannel,
                                DEFAULT_TUNNEL)
from ..protocol.signals import ChannelUp, MetaMessage
from ..protocol.slot import RetransmitPolicy
from .eventloop import EventLoop
from .faults import FaultPlan, FaultStats, FaultyLink
from .latency import FixedLatency, LatencyModel
from .router import Router

__all__ = ["Network"]


class Network:
    """Container for one simulated deployment."""

    def __init__(self, seed: Optional[int] = 0,
                 latency: Optional[LatencyModel] = None,
                 cost: float = 0.0,
                 retransmit: Optional[RetransmitPolicy] = None,
                 faults: Optional[FaultPlan] = None,
                 trace: Union[bool, Tracer] = False,
                 backpressure: Optional[int] = None):
        from ..media.plane import MediaPlane  # local import: layer order
        self.loop = EventLoop(seed=seed)
        #: The run's tracer: pass ``trace=True`` for a default
        #: :class:`~repro.obs.tracer.Tracer`, or a configured instance.
        #: ``False`` (the default) leaves the loop untraced — every
        #: emission site then costs one attribute test and nothing more.
        self.trace: Optional[Tracer] = None
        if trace is True:
            self.trace = Tracer()
        elif isinstance(trace, Tracer):
            self.trace = trace
        self.loop.trace = self.trace
        self.plane = MediaPlane()
        self.router = Router()
        #: Default latency for new channels.
        self.latency = latency if latency is not None else FixedLatency(0.0)
        #: Default per-stimulus processing cost for new agents.
        self.cost = cost
        #: Default retransmission policy for new channels (robust mode).
        self.retransmit = retransmit
        #: Fault plan installed on every new channel's link (chaos runs).
        self.faults = faults
        #: Per-link in-flight high-water mark installed on every new
        #: channel's link (``None`` = unbounded, the default).
        self.backpressure = backpressure
        #: Aggregate adversary counters across all faulty links.
        self.fault_stats = FaultStats()
        self._faulty_links = []
        self.agents = {}
        self.channels = []

    # ------------------------------------------------------------------
    # agent factories
    # ------------------------------------------------------------------
    def _register(self, agent: SignalingAgent, address: Optional[str]):
        self.agents[agent.name] = agent
        if address is not None:
            self.router.register(address, agent)
        return agent

    def box(self, name: str, cls: Optional[Type] = None,
            address: Optional[str] = None, **kwargs):
        """Create an application-server box (default
        :class:`repro.core.box.Box`)."""
        from ..core.box import Box
        cls = cls or Box
        kwargs.setdefault("cost", self.cost)
        return self._register(cls(self.loop, name, **kwargs), address)

    def device(self, name: str, cls: Optional[Type] = None,
               address: Optional[str] = None, **kwargs):
        """Create a user device (default
        :class:`repro.media.device.UserDevice`)."""
        from ..media.device import UserDevice
        cls = cls or UserDevice
        kwargs.setdefault("cost", self.cost)
        agent = cls(self.loop, self.plane, name, **kwargs)
        return self._register(agent, address if address is not None
                              else name)

    def resource(self, name: str, cls: Type, address: Optional[str] = None,
                 **kwargs):
        """Create a media resource (tone generator, bridge, ...)."""
        kwargs.setdefault("cost", self.cost)
        agent = cls(self.loop, self.plane, name, **kwargs)
        return self._register(agent, address)

    # ------------------------------------------------------------------
    # channels
    # ------------------------------------------------------------------
    def channel(self, initiator: SignalingAgent, responder: SignalingAgent,
                tunnels: Iterable[str] = (DEFAULT_TUNNEL,),
                latency: Optional[LatencyModel] = None,
                target: str = "", name: Optional[str] = None,
                strict: bool = True,
                retransmit: Optional[RetransmitPolicy] = None) \
            -> SignalingChannel:
        """Create a signaling channel between two agents."""
        # The link is configured before the channel announces itself, so
        # the ChannelUp meta-signal crosses the same backpressure and
        # fault layers as every later message.
        channel = SignalingChannel(
            self.loop, initiator, responder, tunnel_ids=tunnels,
            latency=latency if latency is not None else self.latency,
            target=target, name=name, strict=strict, announce=False,
            retransmit=retransmit if retransmit is not None
            else self.retransmit)
        self.channels.append(channel)
        if self.backpressure is not None:
            channel.link.set_backpressure(self.backpressure)
        if self.faults is not None:
            # Meta-signal envelopes model the out-of-band channel
            # operations (setup/teardown/availability) the paper keeps
            # on reliable transport; fault plans target the tunnel
            # signal plane, whose idempotent retransmission is the
            # claim under test.
            self._faulty_links.append(FaultyLink(
                channel.link, self.faults, exempt=MetaMessage,
                stats=self.fault_stats))
        channel.ends[0].send_meta(ChannelUp(target=target))
        return channel

    def dial(self, initiator: SignalingAgent, address: str,
             tunnels: Iterable[str] = (DEFAULT_TUNNEL,),
             latency: Optional[LatencyModel] = None,
             name: Optional[str] = None) -> SignalingChannel:
        """Create a channel toward whatever agent serves ``address``."""
        responder = self.router.resolve(address)
        return self.channel(initiator, responder, tunnels=tunnels,
                            latency=latency, target=address, name=name)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.loop.now

    def run(self, duration: float) -> int:
        """Advance simulated time by ``duration`` seconds."""
        return self.loop.advance(duration)

    def settle(self, max_events: int = 100_000) -> int:
        """Run until no events remain (raises
        :class:`~repro.network.eventloop.QuiescenceError` on livelock)."""
        return self.loop.run_until_quiescent(max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Network t=%g agents=%d channels=%d>" % (
            self.loop.now, len(self.agents), len(self.channels))
