"""Reliable FIFO duplex links.

A :class:`Link` is the simulated equivalent of the TCP connection that
carries a signaling channel between two physical components (Sec. III-A:
"A signaling channel is two-way, FIFO, and reliable").  Each direction
preserves order even when the latency model jitters, by clamping each
delivery to be no earlier than the previous delivery in that direction.

A link between two *virtual* modules inside the same physical component
("implemented by two software queues") is simply a link with zero latency.

Observers and adversaries share one seam: the *transmit-hook chain*.  A
hook wraps the link's faithful transmit (``hook(origin, message,
forward)``); the fault-injection layer uses one to decide whether each
copy of a message goes (survivors are forwarded to the faithful
transmit), and the tracing layer uses another to count offered load.  The
most recently added hook is outermost, so a tracer installed after a
fault policy sees messages before the adversary touches them.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

from .backend import ARENA_POISON as _ARENA_POISON
from .backend import CORE as _CORE
from .eventloop import Event, EventLoop
from .latency import FixedLatency, LatencyModel


def _poisoned_event_fired(*args: Any) -> None:
    """Installed as a harvested event's callback under
    ``REPRO_ARENA_POISON``.  A legal freelist reuse overwrites the
    callback at its acquire site, so this only ever runs when a
    harvested event was pushed back into a scheduler lane *without*
    re-arming — the use-after-release the poison mode exists to catch.
    """
    raise RuntimeError(
        "arena poison: use-after-release — a freelist event fired "
        "without being re-armed through the acquire path")

__all__ = ["Link", "LinkEnd"]

#: Compact the in-flight event list once it reaches this length; entries
#: whose events already fired are pruned, keeping memory O(in-flight).
_PENDING_COMPACT = 16

#: Cap on each link's recycled-:class:`Event` freelist; beyond this,
#: fired events are simply released to the allocator.
_FREELIST_MAX = 32

Receiver = Callable[[Any], None]
TransmitFn = Callable[["LinkEnd", Any], None]
#: A transmit hook: ``hook(origin, message, forward)``.  Call ``forward``
#: (the next layer down) zero or more times; not calling it drops the
#: message, calling it twice duplicates it.
TransmitHook = Callable[["LinkEnd", Any, TransmitFn], None]


class LinkEnd:
    """One end of a duplex link.

    The owner installs a receiver callback; messages sent from the other
    end are delivered to it, in order, after the link latency.
    """

    def __init__(self, link: "Link", side: int):
        self._link = link
        self._side = side
        self._receiver: Optional[Receiver] = None
        #: Latest delivery time already promised in the outgoing direction;
        #: used to preserve FIFO order under jittered latency.
        self._horizon = 0.0
        #: The opposite end; filled in by ``Link.__init__`` once both
        #: ends exist (the transmit path reads it once per message).
        self._peer: "LinkEnd" = self  # placeholder until wired
        #: Mirror of ``link._chain`` (kept in sync by
        #: ``Link._rebuild_chain``) so ``send`` is a single call.
        self._chain: TransmitFn = link._base_transmit

    @property
    def link(self) -> "Link":
        return self._link

    @property
    def peer(self) -> "LinkEnd":
        """The opposite end of the link."""
        return self._peer

    def set_receiver(self, receiver: Receiver) -> None:
        """Install the callback invoked for each delivered message."""
        self._receiver = receiver

    def send(self, message: Any) -> None:
        """Send ``message`` to the peer end, FIFO and reliably."""
        # Equivalent to self._link.transmit(self, message) minus one
        # call frame and one indirection; every tunnel signal passes
        # through here.
        self._chain(self, message)

    def _deliver(self, message: Any) -> None:
        if self._link.down:
            return
        if self._receiver is None:
            raise RuntimeError(
                "message delivered to a link end with no receiver: %r"
                % (message,))
        self._receiver(message)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<LinkEnd %s side=%d>" % (self._link.name, self._side)


class Link:
    """A reliable, FIFO, duplex message pipe with a latency model."""

    def __init__(self, loop: EventLoop,
                 latency: Optional[LatencyModel] = None,
                 name: Optional[str] = None):
        self.loop = loop
        self.latency = latency if latency is not None else FixedLatency(0.0)
        self.name = name or loop.autoname("link", "%s-%d")
        self.ends = (LinkEnd(self, 0), LinkEnd(self, 1))
        self.ends[0]._peer = self.ends[1]
        self.ends[1]._peer = self.ends[0]
        #: A torn-down link silently drops traffic still in flight,
        #: matching a closed TCP connection.
        self.down = False
        #: Total messages handed to the link (observability).
        self.sent = 0
        #: Delivery events still in flight; cancelled wholesale when the
        #: link goes down so they never fire into a dead link.
        self._pending: List[Event] = []
        #: Compaction threshold for ``_pending`` (doubles with the live
        #: population so compaction cost stays amortized O(1) per send).
        self._compact_at = _PENDING_COMPACT
        #: Recycled delivery events (fired, unreferenced, re-armable).
        self._free: List[Event] = []
        #: Installed transmit hooks, innermost first.
        self._hooks: List[TransmitHook] = []
        #: Backpressure (see :meth:`set_backpressure`): high-water mark
        #: on in-flight deliveries, ``None`` = unbounded (the default).
        self._bp_high: Optional[int] = None
        self._bp_live = 0
        self._bp_deferred: Deque[Tuple[LinkEnd, Any]] = deque()
        #: Observability: transmits deferred / deepest drain queue seen.
        self.deferred_total = 0
        self.deferred_peak = 0
        #: The composed transmit entry point (rebuilt on hook changes).
        self._chain: TransmitFn = self._base_transmit
        if _CORE is not None:
            # Compiled backend: per-end delivery kernels first (the
            # transmit kernel caches them), then shadow the bound
            # ``_base_transmit`` with the C transmit so every chain —
            # including ones rebuilt after hook changes — bottoms out
            # in C.  The Python method above stays the reference.
            self.ends[0]._cdeliver = _CORE.Deliver(self.ends[0])
            self.ends[1]._cdeliver = _CORE.Deliver(self.ends[1])
            base = _CORE.LinkTransmit(self)
            self._base_transmit = base  # type: ignore[method-assign]
            self._chain = base
            self.ends[0]._chain = base
            self.ends[1]._chain = base

    def transmit(self, origin: LinkEnd, message: Any) -> None:
        """Schedule delivery of ``message`` at the end opposite ``origin``,
        through the installed hook chain (if any)."""
        self._chain(origin, message)

    def _base_transmit(self, origin: LinkEnd, message: Any) -> None:
        """The faithful transmit every hook chain bottoms out in.

        The one place a delivery gets scheduled on the common path:
        latency draw, FIFO-horizon clamp, freelist event, ready lane or
        heap.  The fault layer forwards its surviving copies here too.
        """
        if self.down:
            return
        self.sent += 1
        # Constant-latency models (the common case: every in-process
        # link and the default link) expose their delay as an attribute;
        # reading it skips a sample() call per message and draws no
        # randomness, so the seeded RNG stream is unchanged.
        latency = self.latency
        delay = latency.fixed_delay
        if delay is None:
            delay = latency.sample(self.loop.rng)
        loop = self.loop
        deliver_at = loop._now + delay
        if deliver_at < origin._horizon:
            deliver_at = origin._horizon
        origin._horizon = deliver_at
        target = origin._peer
        pending = self._pending
        if len(pending) >= self._compact_at:
            pending = self._compact_pending()
        # Delivery events are recycled through a per-link freelist: an
        # entry whose ``_loop`` is ``None`` and whose ``cancelled`` flag
        # is clear has *fired* and is referenced by nobody but this
        # link, so it can be re-armed in place.  (Cancelled events are
        # never recycled — they may still sit in a lane as tombstones.)
        # The freelist is per-link, not per-loop, so ``tear_down`` /
        # ``_drop_in_flight`` on one link can never cancel an event
        # another link has already re-armed.  A fresh ``seq`` is drawn
        # on reuse, making the execution order identical to a fresh
        # allocation.
        free = self._free
        if free:
            event = free.pop()
            event.time = deliver_at
            event.seq = next(loop._seq)
            event.args = (message,)
            event.callback = target._deliver
            event._loop = loop
        else:
            event = Event(deliver_at, 0, next(loop._seq),
                          target._deliver, (message,), loop)
        if deliver_at == loop._now:
            loop._ready.append(event)
        else:
            heappush(loop._heap, event)
        loop._live += 1
        pending.append(event)

    def _compact_pending(self) -> List[Event]:
        """Prune fired entries from ``_pending``, harvesting them onto
        the freelist, and re-arm the amortization threshold."""
        alive: List[Event] = []
        free = self._free
        for e in self._pending:
            if e._loop is not None:
                alive.append(e)
            elif not e.cancelled and len(free) < _FREELIST_MAX:
                if _ARENA_POISON:
                    # Debug mode: a harvested event that fires without
                    # re-arming raises instead of delivering a stale
                    # message.  Both fields are overwritten by every
                    # legal acquire, so behavior is otherwise unchanged.
                    e.callback = _poisoned_event_fired
                    e.args = ()
                free.append(e)
        # In-place replacement (not rebinding): the compiled backend's
        # transmit kernel holds a direct reference to this list.
        self._pending[:] = alive
        # Amortize: raise the threshold with the live population so a
        # busy link is not rescanned on every send, but an idle one
        # shrinks back to the floor.
        self._compact_at = max(_PENDING_COMPACT, 2 * len(alive))
        return self._pending

    # -- the hook chain ----------------------------------------------------
    def add_transmit_hook(self, hook: TransmitHook,
                          innermost: bool = False) -> None:
        """Install ``hook`` as the new outermost transmit wrapper.

        ``innermost=True`` places it next to the faithful transmit
        instead — the fault layer uses this so that observers (added
        normally, hence outermost) always see traffic before the
        adversary drops or duplicates it.
        """
        if innermost:
            self._hooks.insert(0, hook)
        else:
            self._hooks.append(hook)
        self._rebuild_chain()

    def remove_transmit_hook(self, hook: TransmitHook) -> None:
        """Remove one installed hook (wherever it sits in the chain).
        Removing a hook that is not installed is a no-op, so detach
        paths need not track installation state."""
        if hook in self._hooks:
            self._hooks.remove(hook)
            self._rebuild_chain()

    def _rebuild_chain(self) -> None:
        chain: TransmitFn = self._base_transmit
        for hook in self._hooks:
            def bound(origin: LinkEnd, message: Any,
                      _hook: TransmitHook = hook,
                      _next: TransmitFn = chain) -> None:
                _hook(origin, message, _next)
            chain = bound
        self._chain = chain
        self.ends[0]._chain = chain
        self.ends[1]._chain = chain

    # -- backpressure ------------------------------------------------------
    def set_backpressure(self, high_water: Optional[int]) -> None:
        """Bound this link's in-flight deliveries at ``high_water``.

        While the bound is reached, further transmits are *deferred*
        into a FIFO drain queue instead of growing the scheduler
        without limit; each completed delivery drains as many deferred
        transmits as fit back under the mark.  FIFO order per direction
        is preserved (the queue is FIFO and the horizon clamp still
        applies at actual send time), and as long as the mark is never
        hit the wire behavior — timing, ordering, RNG draws — is
        byte-identical to an unbounded link under both backends: the
        bounded transmit replaces the faithful one at the bottom of the
        hook chain and reproduces it exactly, only routing delivery
        through an accounting trampoline.

        ``None`` removes the bound (deferred messages already queued
        are drained by the still-in-flight deliveries).
        """
        if high_water is not None and high_water < 1:
            raise ValueError(
                "backpressure high-water mark must be >= 1, got %r"
                % (high_water,))
        if high_water is None:
            if self._bp_high is not None:
                self._bp_high = None
                self._base_transmit = (  # type: ignore[method-assign]
                    self._bp_faithful)
                self._rebuild_chain()
            return
        if self._bp_high is None:
            #: The faithful transmit being shadowed — the C kernel under
            #: the compiled backend, the bound Python method otherwise.
            self._bp_faithful = self._base_transmit
            self._base_transmit = (  # type: ignore[method-assign]
                self._bp_transmit)
            self._rebuild_chain()
        self._bp_high = high_water

    def _bp_transmit(self, origin: LinkEnd, message: Any) -> None:
        """Bounded transmit: defer above the high-water mark, otherwise
        behave exactly like :meth:`_base_transmit`."""
        if self.down:
            return
        high = self._bp_high
        if high is not None and self._bp_live >= high:
            self._bp_deferred.append((origin, message))
            self.deferred_total += 1
            depth = len(self._bp_deferred)
            if depth > self.deferred_peak:
                self.deferred_peak = depth
            return
        self._bp_send(origin, message)

    def _bp_send(self, origin: LinkEnd, message: Any) -> None:
        # Mirrors _base_transmit exactly (same clamp, same event time /
        # priority / seq draw, same lane choice) so the no-deferral
        # trace is byte-identical; delivery goes through _bp_deliver to
        # keep the in-flight count and drain the queue.
        self.sent += 1
        latency = self.latency
        delay = latency.fixed_delay
        if delay is None:
            delay = latency.sample(self.loop.rng)
        loop = self.loop
        deliver_at = loop._now + delay
        if deliver_at < origin._horizon:
            deliver_at = origin._horizon
        origin._horizon = deliver_at
        target = origin._peer
        pending = self._pending
        if len(pending) >= self._compact_at:
            pending = self._compact_pending()
        event = Event(deliver_at, 0, next(loop._seq),
                      self._bp_deliver, (target, message), loop)
        if deliver_at == loop._now:
            loop._ready.append(event)
        else:
            heappush(loop._heap, event)
        loop._live += 1
        pending.append(event)
        self._bp_live += 1

    def _bp_deliver(self, target: LinkEnd, message: Any) -> None:
        self._bp_live -= 1
        target._deliver(message)
        # A slot freed up: drain deferred transmits back under the mark.
        deferred = self._bp_deferred
        while deferred and not self.down \
                and (self._bp_high is None
                     or self._bp_live < self._bp_high):
            origin, queued = deferred.popleft()
            self._bp_send(origin, queued)

    def backpressure_stats(self) -> dict:
        """Deterministic snapshot of the backpressure counters."""
        return {
            "high_water": self._bp_high,
            "in_flight": self._bp_live,
            "deferred_now": len(self._bp_deferred),
            "deferred_total": self.deferred_total,
            "deferred_peak": self.deferred_peak,
        }

    def _schedule(self, origin: LinkEnd, message: Any, delay: float,
                  fifo: bool) -> None:
        """Schedule one delivery toward ``origin``'s peer after a
        caller-chosen ``delay``.

        Only the fault layer calls this, for what the faithful transmit
        cannot express: a jittered delay, and ``fifo=False`` (the
        reorder policy: skip the horizon clamp and let the message
        overtake earlier traffic in the same direction).  Everything
        else goes through ``_base_transmit``.
        """
        loop = self.loop
        deliver_at = loop._now + delay
        if fifo:
            if deliver_at < origin._horizon:
                deliver_at = origin._horizon
            origin._horizon = deliver_at
        pending = self._pending
        if len(pending) >= self._compact_at:
            pending = self._compact_pending()
        pending.append(loop.schedule_at(deliver_at, origin._peer._deliver,
                                        message))

    def in_flight(self) -> int:
        """Number of deliveries scheduled but not yet executed."""
        return sum(1 for e in self._pending if e._loop is not None)

    def tear_down(self) -> None:
        """Take the link down; queued and future messages are dropped.

        In-flight delivery events are cancelled (not merely ignored at
        delivery time), so they stop occupying the event loop and cannot
        keep a simulation from quiescing.
        """
        self.down = True
        self._drop_in_flight()

    def _drop_in_flight(self) -> int:
        """Cancel every pending delivery; returns how many were live.
        Also used by the fault layer's link flaps (an outage drops what
        the wire was carrying)."""
        dropped = 0
        for event in self._pending:
            if event._loop is not None:
                event.cancel()
                dropped += 1
        self._pending.clear()
        self._compact_at = _PENDING_COMPACT
        if self._bp_deferred:
            # What the wire carried is gone; what was queued behind the
            # high-water mark goes with it (a dead link drains nothing).
            dropped += len(self._bp_deferred)
            self._bp_deferred.clear()
        self._bp_live = 0
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " DOWN" if self.down else ""
        return "<Link %s sent=%d%s>" % (self.name, self.sent, state)
