"""Deterministic discrete-event scheduler.

This is the substrate underneath every simulation in the repository: the
signaling protocol, the media plane, the application servers, and the SIP
baseline all run on one :class:`EventLoop`.

The loop is deterministic.  Events fire in ``(time, priority, sequence)``
order, where ``sequence`` is a monotonically increasing tie-breaker, so two
runs with the same seed and the same call pattern produce identical traces.
Randomness (used by the SIP glare backoff and latency jitter models) comes
from a ``random.Random`` owned by the loop and seeded at construction.

Two-lane batched dispatch
-------------------------
Internally the loop keeps two structures:

- ``_heap`` — the classic binary heap of future (or odd-priority)
  events, ordered by ``(time, priority, seq)``.
- ``_ready`` — a FIFO *ready lane* holding priority-0 events scheduled
  at the **current instant** (``call_soon``, zero-delay ``schedule``,
  clamped ``schedule_at``, zero-latency link deliveries, zero-cost node
  stimuli).  Because the clock never runs backwards and ``seq`` is
  globally increasing, the lane is always sorted by ``(time, 0, seq)``
  — appending preserves order by construction, so same-timestamp bursts
  drain with O(1) deque operations and **zero** heap comparisons.

The drain loop merges the two lanes by the same total order the heap
alone used to impose (the order is strict — ``seq`` is unique — so the
merge is exactly the old execution order, pinned by the runtime
fingerprint suite); one drain serves untimed runs, timed runs and
``step``.  The clock is written only when an event's timestamp differs
from the previous one — one store per same-timestamp *batch* — and the
executed counter is flushed once per drain.

Backends
--------
The dispatch-critical kernels are selectable via ``REPRO_BACKEND`` (see
:mod:`repro.network.backend`).  Under the compiled backend,
:class:`Event` is a C extension type (C-level ordering, cheap
allocation) and the untimed drain runs entirely in C; semantics are
identical and the pure-Python implementations below remain the
reference.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from math import inf
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple)

from .backend import CORE as _CORE

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import Tracer

__all__ = ["Event", "EventLoop", "QuiescenceError"]

#: Cap on how many same-instant deliveries to the same link end the
#: compiled drain coalesces into one C walk (mirrored by the C kernel's
#: ``DELIVER_BATCH_MAX``; the parity auditor pins the two together).
#: Batching changes no observable order: the batched events are exactly
#: the consecutive merged-order front, and a pure C delivery runs no
#: user code that could cancel or reorder the events behind it.  The
#: pure-Python drain dispatches one event at a time and needs no
#: mirror logic -- the constant exists so the contract is visible (and
#: doctorable) on the reference side.
_DELIVER_BATCH_MAX = 16


class QuiescenceError(RuntimeError):
    """Raised when a run is asked to reach quiescence but cannot.

    ``run_until_quiescent`` raises this when the event budget is exhausted
    while events are still pending, which almost always indicates a
    signaling livelock (for example an ``openSlot`` facing a ``closeSlot``,
    which by design never stabilizes).

    The exception carries a structured payload so chaos-test failures can
    be diagnosed without re-running: ``max_events`` (the spent budget),
    ``pending`` (live events left in the heap), ``next_event`` (repr
    of the earliest live event — usually the retransmission timer or
    stimulus that keeps the system awake), and, when the loop carries a
    tracer, ``flight_tail`` — the flight recorder's last events, i.e.
    what the system was doing when it ran out of budget.
    """

    def __init__(self, message: str, max_events: Optional[int] = None,
                 pending: Optional[int] = None,
                 next_event: Optional[str] = None,
                 flight_tail: Tuple[str, ...] = ()):
        if flight_tail:
            message += "\nflight recorder tail (last %d events):\n  %s" % (
                len(flight_tail), "\n  ".join(flight_tail))
        super().__init__(message)
        self.max_events = max_events
        self.pending = pending
        self.next_event = next_event
        self.flight_tail = flight_tail


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`EventLoop.schedule` and can be
    cancelled.  A cancelled event stays in its lane but is skipped when
    it reaches the front; this is the standard lazy-deletion scheme.
    The owning loop keeps a live-event counter so that cancellation —
    and the loop's quiescence checks — stay O(1) instead of rescanning
    the heap.

    Freelist contract (see :mod:`repro.network.transport` and
    :mod:`repro.network.node`): an event whose ``_loop`` is ``None``
    and whose ``cancelled`` flag is clear has *fired* and sits in no
    lane; an owner that provably holds the only reference may re-arm it
    by resetting ``time``/``seq``/``args``/``_loop`` and re-inserting —
    always drawing a **fresh** ``seq`` so the merged order is the same
    as if a new object had been allocated.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "_loop")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...],
                 loop: Optional["EventLoop"] = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            loop = self._loop
            if loop is not None:
                self._loop = None
                loop._live -= 1
                # Timer-heavy runs (retransmission under loss) can leave
                # the heap mostly tombstones; compacting once a majority
                # is dead keeps push/pop log-factors honest instead of
                # draining tombstones one heappop at a time.  (Ready-lane
                # tombstones are excluded from the trigger: they drain in
                # O(1) before the clock can advance, so they never hurt
                # the heap's log factors.)
                heap = loop._heap
                if len(heap) > 64 and loop._live < (len(heap) >> 1):
                    loop._compact()

    def __lt__(self, other: "Event") -> bool:
        # Tuple-free compare: this runs O(log n) times per heap push/pop
        # and building two throwaway tuples per comparison dominated the
        # scheduler's profile.  Ordering is identical to the tuple form.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return "<Event t=%g p=%d #%d %s%s>" % (
            self.time, self.priority, self.seq,
            getattr(self.callback, "__qualname__", self.callback), state)


#: The selected backend's event type.  The C type has the same
#: constructor, the same attribute names, the same ``cancel()``
#: semantics (including the compaction trigger), and a C-level
#: ``__lt__`` compatible with the Python one.
if _CORE is not None:
    Event = _CORE.Event  # type: ignore[misc, assignment]

_drain = None if _CORE is None else _CORE.drain


class EventLoop:
    """A deterministic discrete-event simulation loop.

    Parameters
    ----------
    seed:
        Seed for the loop-owned random number generator.  Components that
        need randomness (latency jitter, SIP backoff) must draw from
        ``loop.rng`` so that a single seed reproduces a whole run.
    """

    def __init__(self, seed: Optional[int] = 0):
        self._heap: List[Event] = []
        #: The ready lane: priority-0 events at the current instant,
        #: FIFO.  Invariant: sorted by ``(time, seq)`` with every time
        #: >= the clock value it will be popped at.  Mutated strictly
        #: in place (``run`` holds a local reference to it).
        self._ready: Deque[Event] = deque()
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        #: Live (scheduled, not yet executed or cancelled) events across
        #: both lanes.  Maintained by schedule/cancel/execute so
        #: quiescence checks never rescan.
        self._live = 0
        self.rng = random.Random(seed)
        #: Number of events executed so far (observability / budgets).
        self.executed = 0
        #: Freelist of wire envelopes (:class:`~repro.protocol.signals.
        #: TunnelMessage`), shared by every channel on this loop.  See
        #: the reset contract in :meth:`repro.protocol.channel.
        #: ChannelEnd._process`.
        self._env_pool: List[Any] = []
        #: The loop's :class:`~repro.obs.tracer.Tracer`, or ``None``.
        #: Every emission site in the runtime guards on this being set,
        #: so an untraced run pays a single attribute read per site.
        self.trace: Optional["Tracer"] = None
        #: Per-prefix counters for :meth:`autoname`.  Loop-local (not
        #: class-global) so that two same-seed simulations in one
        #: process generate identical component names — a prerequisite
        #: for byte-identical trace exports.
        self._names: Dict[str, int] = {}

    def autoname(self, prefix: str, pattern: str = "%s%d") -> str:
        """Generate the next default name for ``prefix`` on this loop
        (e.g. ``ch1``, ``link-2``).  Counters live on the loop, so name
        sequences restart with every simulation instead of accumulating
        process-globally."""
        count = self._names.get(prefix, 0) + 1
        self._names[prefix] = count
        return pattern % (prefix, count)

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = 0) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative.  ``priority`` breaks ties between
        events at the same instant (lower fires first); the default of 0 is
        right for almost everything.
        """
        if delay < 0:
            raise ValueError("cannot schedule an event in the past "
                             "(delay=%r)" % (delay,))
        when = self._now + delay
        event = Event(when, priority, next(self._seq), callback, args, self)
        if when == self._now and priority == 0:
            self._ready.append(event)
        else:
            heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any, priority: int = 0) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when``.

        ``when`` may sit an infinitesimal float-rounding error before
        ``now`` (``(now + dt) - now`` is not always ``>= dt`` in binary
        floating point); such events are clamped to fire at the current
        instant instead of raising.  Genuinely past times still raise
        ``ValueError``.
        """
        now = self._now
        if when < now:
            when = self._clamp_drift(when, "schedule an event")
        event = Event(when, priority, next(self._seq), callback, args, self)
        if when == now and priority == 0:
            self._ready.append(event)
        else:
            heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback`` at the current instant."""
        event = Event(self._now, 0, next(self._seq), callback, args, self)
        self._ready.append(event)
        self._live += 1
        return event

    def _clamp_drift(self, when: float, what: str) -> float:
        """``now`` for a ``when < now`` that is only float drift; a
        genuinely past time raises ``ValueError``."""
        now = self._now
        # Relative tolerance, so drift at large sim times is absorbed
        # too; 1e-9 relative ~= one ulp for sane simulation horizons.
        if now - when > 1e-9 * (abs(now) if abs(now) > 1.0 else 1.0):
            raise ValueError("cannot %s in the past (when=%r, now=%r)"
                             % (what, when, now))
        return now

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of live (non-cancelled) events across both lanes.
        O(1): reads the counter maintained by schedule/cancel/execute."""
        return self._live

    def lane_stats(self) -> dict:
        """Observability snapshot of the scheduler's internal lanes:
        raw lane lengths (tombstones included), the live counter, the
        envelope-pool depth, and the lifetime executed count.  The soak
        harness samples this per epoch to prove the lanes stay bounded
        under sustained churn."""
        return {
            "heap_len": len(self._heap),
            "ready_len": len(self._ready),
            "live": self._live,
            "env_pool": len(self._env_pool),
            "executed": self.executed,
        }

    def _compact(self) -> None:
        """Drop cancelled events and restore the lane invariants.
        Mutates the heap list and ready deque strictly in place:
        ``run()`` holds local references to both, so rebinding either
        here would desynchronize an in-progress run."""
        self._heap[:] = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        ready = self._ready
        if ready:
            alive = [e for e in ready if not e.cancelled]
            if len(alive) != len(ready):
                ready.clear()
                ready.extend(alive)

    def _front(self, pop_cancelled: bool = False) -> Optional[Event]:
        """The earliest live event across both lanes, or ``None``.
        With ``pop_cancelled`` the tombstones in front of it are
        discarded while scanning (diagnostics, budget-stopped timed
        runs)."""
        heap, ready = self._heap, self._ready
        if pop_cancelled:
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
            while ready and ready[0].cancelled:
                ready.popleft()
        f = heap[0] if heap and not heap[0].cancelled else None
        r = ready[0] if ready and not ready[0].cancelled else None
        if f is None or r is None:
            return r if f is None else f
        return f if _earlier(f, r) else r

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event ran, ``False`` if no live event
        remains in either lane.
        """
        return self.run(max_events=1) == 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until both lanes drain, ``until`` passes, or the
        budget of ``max_events`` is spent.  Returns the number of events
        executed by this call.  A timed run leaves the clock on ``until``
        unless the budget stopped it with a live event due by then; an
        ``until`` before ``now`` raises ``ValueError`` (drift is clamped).
        """
        limit = -1 if max_events is None else max_events
        if until is None:
            # Under the compiled backend the untimed drain runs in C.
            if _drain is not None:
                return _drain(self, limit)
            return self._drain_py(limit, inf)
        if until < self._now:
            until = self._clamp_drift(until, "run to a time")
        return self._drain_py(limit, until)

    def _drain_py(self, limit: int, until: float) -> int:
        # Hot loop, event execution inlined: at hundreds of thousands
        # of events per settle, attribute reads and call frames cost
        # more than the callbacks.  ``limit`` -1 never equals a count.
        # ``executed`` (and, untimed, ``_live``) is flushed once in the
        # finally: nothing reads them mid-run, and cancel()'s compaction
        # heuristic tolerates a high ``_live``.  A timed run keeps
        # ``_live`` exact and pops heap-front tombstones eagerly: cancel()
        # compacts by ``_live``, and the soak's lane gate samples the heap
        # a timed run leaves.  The clock is stored once per timestamp.
        executed = 0
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        rpop = ready.popleft
        timed = until != inf
        try:
            while True:
                if executed == limit:
                    break
                if ready:
                    if heap:
                        f = heap[0]
                        r = ready[0]
                        # Inline _earlier(f, r) with r.priority == 0 (the
                        # ready-lane invariant); a timed run also pops a
                        # heap-front tombstone before it can be buried.
                        if (f.time < r.time
                                or (f.time == r.time
                                    and (f.priority < 0
                                         or (f.priority == 0
                                             and f.seq < r.seq)))
                                or (timed and f.cancelled)):
                            event = heappop(heap)
                        else:
                            event = rpop()
                    else:
                        event = rpop()
                elif heap:
                    # The one deadline peek: ready events are due now,
                    # and a heap front the merge picks is no later.
                    event = heap[0]
                    if event.time > until and not event.cancelled:
                        break
                    heappop(heap)
                else:
                    break
                if event.cancelled:
                    continue
                executed += 1
                # detach before the callback so a post-hoc cancel()
                # cannot double-count
                event._loop = None
                if timed:
                    self._live -= 1
                t = event.time
                if t != self._now:
                    self._now = t
                event.callback(*event.args)
        finally:
            if not timed:
                self._live -= executed
            self.executed += executed
        if timed:
            # Idle time passes: the clock lands on the deadline unless
            # the budget stopped the run with a live event due by then.
            front = self._front(True) if executed == limit else None
            if front is None or front.time > until:
                self._now = until
        return executed

    def run_until_quiescent(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain, via the batched drain.

        Raises :class:`QuiescenceError` if more than ``max_events`` events
        execute, which indicates the system is not going to stabilize (a
        livelock such as an openslot/closeslot path, or a timer loop that
        was not stopped).
        """
        executed = self.run(max_events=max_events)
        if self._live:
            nxt_event = self._front(pop_cancelled=True)
            nxt = repr(nxt_event) if nxt_event is not None else None
            tail: Tuple[str, ...] = ()
            if self.trace is not None:
                tail = tuple(self.trace.flight_tail())
            raise QuiescenceError(
                "system did not quiesce within %d events; %d still pending"
                "; next: %s" % (max_events, self.pending(), nxt),
                max_events=max_events, pending=self.pending(),
                next_event=nxt, flight_tail=tail)
        return executed

    def advance(self, duration: float) -> int:
        """Run all events in the next ``duration`` seconds of simulated
        time, then set the clock to exactly ``now + duration``."""
        return self.run(self._now + duration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<EventLoop t=%g pending=%d executed=%d>" % (
            self._now, self.pending(), self.executed)


def _earlier(f: Event, r: Event) -> bool:
    """Strict ``(time, priority, seq)`` order between the two lane
    fronts; equivalent to ``f < r`` without the dunder dispatch."""
    if f.time != r.time:
        return f.time < r.time
    if f.priority != r.priority:
        return f.priority < r.priority
    return f.seq < r.seq
