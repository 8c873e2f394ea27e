"""Serialized stimulus processors.

A :class:`Node` models the paper's unit of processing cost: "``c`` [is]
the average time it takes for a server to read a new stimulus from an
input queue and compute the next signal to send" (Sec. VIII-C).  Every
box, user device, and media resource in the simulation is (or owns) a
Node: stimuli are queued and handled one at a time, each taking ``cost``
seconds, and any output signals are emitted when the handling completes.

With ``cost = 0`` a node degenerates into immediate in-order dispatch,
which is what unit tests use.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Optional, Tuple

from .backend import CORE as _CORE
from .eventloop import Event, EventLoop

__all__ = ["Node"]

Thunk = Tuple[Callable[..., Any], Tuple[Any, ...]]


class Node:
    """A named, serialized processor of stimuli on an event loop."""

    def __init__(self, loop: EventLoop, name: Optional[str] = None,
                 cost: float = 0.0):
        self.loop = loop
        self.name = name or loop.autoname("node", "%s-%d")
        if cost < 0:
            raise ValueError("processing cost must be non-negative")
        self.cost = cost
        self._inbox: Deque[Thunk] = deque()
        self._busy = False
        #: Stimuli handled so far (observability / performance assertions).
        self.handled = 0
        #: A crashed node (fault injection): stimuli arriving while
        #: offline are dropped, as for a process that is down.  State held
        #: in the owning agent survives, modeling a restart from stable
        #: storage; recovery relies on peers retransmitting.
        self.offline = False
        self.dropped_while_offline = 0
        #: The node's single in-flight completion event, recycled across
        #: stimuli.  ``_busy`` guarantees at most one is scheduled at a
        #: time, so once it has fired (``_loop is None``) and is not a
        #: cancellation tombstone it can be re-armed in place with a
        #: fresh ``seq`` — same execution order, no allocation.
        self._stim_event: Optional[Event] = None
        #: The callback armed for each stimulus completion.  Under the
        #: compiled backend this is a C callable the drain loop
        #: dispatches without a Python frame; otherwise the bound
        #: method.  Created after ``loop``/``cost``/``_inbox`` exist
        #: (the C object caches them).
        self._finish_cb: Callable[[], None] = (
            self._finish_one if _CORE is None else _CORE.Finish(self))
        #: Live timer events armed through :meth:`set_timer`, so a
        #: crash can cancel them wholesale (a dead process's pending
        #: alarms must not fire into its restarted self).  Compacted
        #: lazily once fired entries dominate.
        self._timers: list = []
        if _CORE is not None:
            #: Under the compiled backend, the C twin of :meth:`set_timer`
            #: (``EventLoop.schedule`` inlined) shadows the method; the
            #: slot kernels arm through it too.  Created after ``loop``
            #: exists (the twin caches the loop's lanes).
            self.set_timer = (  # type: ignore[method-assign]
                _CORE.set_timer_twin(self))

    def _arm(self) -> None:
        """Schedule ``_finish_one`` after ``cost`` seconds (inlined
        ``loop.schedule``: every signal delivery funnels through here,
        and ``cost`` is a constant >= 0 by construction)."""
        loop = self.loop
        when = loop._now + self.cost
        event = self._stim_event
        if event is not None and event._loop is None and not event.cancelled:
            event.time = when
            event.seq = next(loop._seq)
            event._loop = loop
        else:
            event = self._stim_event = Event(
                when, 0, next(loop._seq), self._finish_cb, (), loop)
        if when == loop._now:
            loop._ready.append(event)
        else:
            heappush(loop._heap, event)
        loop._live += 1

    # ------------------------------------------------------------------
    # stimulus queueing
    # ------------------------------------------------------------------
    def enqueue(self, handler: Callable[..., Any], *args: Any) -> None:
        """Queue ``handler(*args)`` as one stimulus for this node.

        The handler runs ``cost`` seconds after this node becomes free to
        process it (immediately-but-in-order when ``cost`` is 0).
        """
        if self.offline:
            self.dropped_while_offline += 1
            return
        self._inbox.append((handler, args))
        if not self._busy:
            self._busy = True
            self._arm()

    def _finish_one(self) -> None:
        handler, args = self._inbox.popleft()
        self.handled += 1
        try:
            handler(*args)
        finally:
            if self._inbox:
                self._arm()
            else:
                self._busy = False

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, handler: Callable[..., Any],
                  *args: Any):
        """Arrange for ``handler(*args)`` to be enqueued as a stimulus
        after ``delay`` seconds.  Returns the underlying event, whose
        ``cancel()`` method cancels the timer."""
        event = self.loop.schedule(delay, self.enqueue, handler, *args)
        timers = self._timers
        timers.append(event)
        if len(timers) >= 32:
            self._compact_timers()
        return event

    def _compact_timers(self) -> None:
        """Drop the fired and cancelled timers once they are at least
        half the list (the compiled twin of :meth:`set_timer` calls
        this too, so both backends keep the same entries)."""
        timers = self._timers
        alive = [e for e in timers if e._loop is not None and not e.cancelled]
        if len(alive) * 2 <= len(timers):
            timers[:] = alive

    def cancel_timers(self) -> int:
        """Cancel every timer still armed on this node; returns how
        many were live.  Used by the fault layer's crash model: a
        crashed process loses its pending alarms (retransmit timers,
        staleness timers) along with its volatile state — they must
        not fire into the restarted node."""
        cancelled = 0
        for event in self._timers:
            if event._loop is not None and not event.cancelled:
                event.cancel()
                cancelled += 1
        self._timers.clear()
        return cancelled

    @property
    def idle(self) -> bool:
        """True when no stimulus is queued or being processed."""
        return not self._busy and not self._inbox

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Node %s cost=%g queued=%d>" % (
            self.name, self.cost, len(self._inbox))
