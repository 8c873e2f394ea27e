"""Deterministic fault injection for links, agents, and whole runs.

The paper's protocol claim (Sec. VI) is that tunnel signals are
*idempotent and unilateral*, so the protocol converges even when signals
are lost and retransmitted.  The simulator's links are perfectly
reliable, so this module supplies the adversary: a :class:`FaultPlan`
describes seeded drop/duplicate/reorder/delay-jitter policies plus
scheduled link flaps and box crash-restart windows, and a
:class:`FaultyLink` installs that plan on one
:class:`~repro.network.transport.Link` as a transmit hook (the same
seam the tracing layer taps).

Every random decision draws from the event loop's own ``random.Random``
(``loop.rng``), so a run under a fault plan is exactly as reproducible
as a fault-free run: one seed, one trace.

Layering note: this module knows nothing about the signaling protocol.
Callers that want faults confined to the tunnel-signal plane (the media
control protocol proper, which carries the retransmission machinery)
pass an ``exempt`` predicate — the Network facade exempts meta-signal
envelopes, which model the out-of-band channel operations the paper
keeps on reliable transport.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs.events import FaultInjected
from .transport import Link, LinkEnd, TransmitFn

__all__ = ["FaultPlan", "FaultStats", "FaultyLink", "CrashSchedule",
           "PLANS", "plan_by_name", "scaled_plan"]


@dataclass(frozen=True)
class FaultPlan:
    """A declarative description of how a link misbehaves.

    Probabilities are per transmitted message (a duplicated message's
    copies suffer drop independently).  ``jitter`` adds a uniform extra
    delay in seconds on top of the link's latency model.  ``reorder`` is
    the probability that a delivery skips the FIFO horizon clamp and may
    overtake earlier traffic in the same direction.  ``flaps`` are
    ``(at, duration)`` outage windows during which the link is down and
    in-flight traffic is dropped.
    """

    name: str = "custom"
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    jitter: float = 0.0
    flaps: Tuple[Tuple[float, float], ...] = ()

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "drop": self.drop,
            "duplicate": self.duplicate,
            "reorder": self.reorder,
            "jitter": self.jitter,
            "flaps": [list(f) for f in self.flaps],
        }


@dataclass
class FaultStats:
    """Counters of what the adversary actually did (observability)."""

    forwarded: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    jittered: int = 0
    flap_drops: int = 0
    exempted: int = 0

    def merge(self, other: "FaultStats") -> "FaultStats":
        return FaultStats(
            forwarded=self.forwarded + other.forwarded,
            dropped=self.dropped + other.dropped,
            duplicated=self.duplicated + other.duplicated,
            reordered=self.reordered + other.reordered,
            jittered=self.jittered + other.jittered,
            flap_drops=self.flap_drops + other.flap_drops,
            exempted=self.exempted + other.exempted)

    def to_json(self) -> Dict[str, int]:
        return {
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "jittered": self.jittered,
            "flap_drops": self.flap_drops,
            "exempted": self.exempted,
        }


class FaultyLink:
    """Installs a :class:`FaultPlan` on one link as a transmit hook.

    The hook sits in the link's transmit chain (the link object is
    shared by both channel ends, so every message in both directions
    passes through).  The fault layer decides, the link schedules: the
    hook draws *whether* each copy of a message goes, and every
    surviving copy — like all exempt traffic — is handed to ``forward``,
    the link's own faithful transmit, so the latency draw, FIFO horizon,
    in-flight tracking, and teardown cancellation are the link's and
    exist once.  Only what the faithful transmit cannot express (extra
    jitter, skipping the FIFO clamp) goes through ``Link._schedule``
    instead.
    """

    def __init__(self, link: Link, plan: FaultPlan,
                 exempt: Optional[Callable[[Any], bool]] = None,
                 stats: Optional[FaultStats] = None):
        self.link = link
        self.plan = plan
        self.exempt = exempt
        self.stats = stats if stats is not None else FaultStats()
        #: Inside a flap window.  Kept here rather than in ``link.down``
        #: so an outage can never undo a real teardown.
        self._outage = False
        link.add_transmit_hook(self._hook, innermost=True)
        for at, duration in plan.flaps:
            link.loop.schedule_at(at, self._flap_down, duration)

    def uninstall(self) -> None:
        """Remove the plan from the link's transmit chain."""
        self.link.remove_transmit_hook(self._hook)

    # -- the faulty transmit ----------------------------------------------
    def _hook(self, origin: LinkEnd, message: Any,
              forward: TransmitFn) -> None:
        link = self.link
        if link.down or self._outage:
            return
        stats = self.stats
        if self.exempt is not None and self.exempt(message):
            stats.exempted += 1
            forward(origin, message)
            return
        plan = self.plan
        loop = link.loop
        rng = loop.rng
        tr = loop.trace
        faithful = not plan.jitter and not plan.reorder
        # ``sent`` counts offers, not copies; the faithful transmit
        # bumps it per copy, so it is pinned back below.
        offered = link.sent + 1
        copies = 1
        if plan.duplicate and rng.random() < plan.duplicate:
            copies = 2
            stats.duplicated += 1
            if tr is not None:
                tr.emit(FaultInjected(ts=loop.now, link=link.name,
                                      action="duplicate",
                                      detail=str(message)))
        for _ in range(copies):
            if plan.drop and rng.random() < plan.drop:
                stats.dropped += 1
                if tr is not None:
                    tr.emit(FaultInjected(ts=loop.now, link=link.name,
                                          action="drop",
                                          detail=str(message)))
                continue
            stats.forwarded += 1
            if faithful:
                forward(origin, message)
                continue
            delay = link.latency.sample(rng)
            if plan.jitter:
                delay += rng.uniform(0.0, plan.jitter)
                stats.jittered += 1
            fifo = True
            if plan.reorder and rng.random() < plan.reorder:
                fifo = False
                stats.reordered += 1
                if tr is not None:
                    tr.emit(FaultInjected(ts=loop.now, link=link.name,
                                          action="reorder",
                                          detail=str(message)))
            link._schedule(origin, message, delay, fifo)
        link.sent = offered

    # -- link flaps --------------------------------------------------------
    def _flap_down(self, duration: float) -> None:
        link = self.link
        if link.down or self._outage:
            return  # torn down for real, or already inside an outage
        self._outage = True
        self.stats.flap_drops += link._drop_in_flight()
        tr = link.loop.trace
        if tr is not None:
            tr.emit(FaultInjected(ts=link.loop.now, link=link.name,
                                  action="flap-down",
                                  detail="%gs" % duration))
        link.loop.schedule(duration, self._flap_up)

    def _flap_up(self) -> None:
        link = self.link
        self._outage = False
        tr = link.loop.trace
        if tr is not None:
            tr.emit(FaultInjected(ts=link.loop.now, link=link.name,
                                  action="flap-up"))


class CrashSchedule:
    """Scheduled crash-restart windows for an agent's node.

    During ``(at, at + duration)`` the node is offline: stimuli —
    deliveries and its own timers alike — are dropped.  The agent's
    Python state survives (a restart from stable storage); recovery
    relies on peers retransmitting into the restarted process.
    """

    def __init__(self, node: Any,
                 windows: Tuple[Tuple[float, float], ...]):
        self.node = node
        self.windows = windows
        self.crashes = 0
        #: Timers (retransmit, staleness, busy-retry) cancelled by
        #: crashes: a dead process's pending alarms die with it.
        self.timers_cancelled = 0
        for at, duration in windows:
            node.loop.schedule_at(at, self._crash, duration)

    def _crash(self, duration: float) -> None:
        self.node.offline = True
        self.crashes += 1
        # The crash wipes the process's alarm table.  Without this, a
        # retransmit timer armed before the crash survives the outage
        # and fires into the *restarted* node — a ghost of the dead
        # incarnation driving the protocol.
        self.timers_cancelled += self.node.cancel_timers()
        tr = self.node.loop.trace
        if tr is not None:
            tr.emit(FaultInjected(ts=self.node.loop.now,
                                  link=self.node.name, action="crash",
                                  detail="%gs" % duration))
        self.node.loop.schedule(duration, self._restart)

    def _restart(self) -> None:
        self.node.offline = False
        tr = self.node.loop.trace
        if tr is not None:
            tr.emit(FaultInjected(ts=self.node.loop.now,
                                  link=self.node.name, action="restart"))


# ----------------------------------------------------------------------
# named plans (the chaos CLI's vocabulary)
# ----------------------------------------------------------------------
PLANS: Dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    "drop10": FaultPlan(name="drop10", drop=0.10),
    "dup10": FaultPlan(name="dup10", duplicate=0.10),
    "drop10+dup10": FaultPlan(name="drop10+dup10", drop=0.10,
                              duplicate=0.10),
    "drop20+dup20": FaultPlan(name="drop20+dup20", drop=0.20,
                              duplicate=0.20),
    "jitter": FaultPlan(name="jitter", jitter=0.05),
    "lossy-jitter": FaultPlan(name="lossy-jitter", drop=0.10,
                              duplicate=0.10, jitter=0.05),
    "flaky": FaultPlan(name="flaky", drop=0.05,
                       flaps=((1.0, 0.4), (4.0, 0.4))),
}


def plan_by_name(name: str) -> FaultPlan:
    """Look up a named plan; raises ``KeyError`` with the known names."""
    try:
        return PLANS[name]
    except KeyError:
        raise KeyError("unknown fault plan %r (known: %s)"
                       % (name, ", ".join(sorted(PLANS))))


def scaled_plan(base: FaultPlan, drop: float) -> FaultPlan:
    """``base`` with its drop rate replaced — used by the chaos bench
    sweep over fault rates."""
    return replace(base, name="%s@drop%.2f" % (base.name, drop), drop=drop)
