"""The five in-process workloads (the sixth, ``live``, is in live.py).

Each workload object builds its inputs from a seed, runs one fixed-size
*window* of calls at a time, checks every call's semantic end state, and
exposes exact engine counters.  Nothing here times windows or decides
how long to run; ``worker.py`` does that the same way for all of them.

Outcome checks look at end states only (who hears whom, slot states,
session accounting) — never at event or signal *counts*, which a later
optimisation may legitimately change.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.scenarios import SCENARIOS
from repro.load.soak import SOAK_PROFILES, run_soak
from repro.network.faults import plan_by_name
from repro.network.network import Network
from repro.protocol.codecs import AUDIO
from repro.protocol.slot import RetransmitPolicy

HERE = os.path.dirname(os.path.abspath(__file__))


class CallFailed(Exception):
    """A call finished but its outcome check did not hold."""


def count_signals(net: Network) -> Tuple[int, int, int]:
    """``(sent, received, transmits)``: tunnel signals summed over every
    slot, and messages handed to every link (both backends keep these
    counters, so they are exact where span counts would miss C)."""
    sent = received = transmits = 0
    for channel in net.channels:
        transmits += channel.link.sent
        for end in channel.ends:
            for slot in end.slots.values():
                sent += slot.signals_sent
                received += slot.signals_received
    return sent, received, transmits


class Relay:
    """Persistent device–box–device with one flowlink; a call is
    ``open/settle`` (timed: set-up to ``flowing``) then ``close/settle``.

    With ``plan`` the same topology runs under a named fault plan with
    the default retransmission policy (the ``lossy_c`` workload).
    """

    window_calls = 100
    #: The exact-count metrics are taken after this many windows.
    count_windows = 10
    #: Every window does the same work (see measure.Window.klass).
    klass = 0
    #: Give-ups a window may hold before they are failures.  Under
    #: drop10+dup10 a slot whose retry budget runs out converges to
    #: closed/noMedia: the protocol's specified degradation (Sec. V:
    #: bothClosed or bothFlowing).  Measured on six seeds x 40 000 calls:
    #: about one call in 30 000, never more than three in one window.
    max_gave_up = 3

    def __init__(self, seed: int, plan: Optional[str] = None):
        faults = None if plan is None else plan_by_name(plan)
        retransmit = None if plan is None else RetransmitPolicy()
        net = self.net = Network(seed=seed, faults=faults,
                                 retransmit=retransmit)
        self.a = net.device("A")
        self.b = net.device("B", auto_accept=True)
        box = net.box("srv")
        ch_a = net.channel(self.a, box)
        ch_b = net.channel(box, self.b)
        box.flow_link(ch_a.end_for(box).slot(), ch_b.end_for(box).slot())
        self.slot = ch_a.end_for(self.a).slot()
        self.calls = 0
        #: Calls that gave up within ``max_gave_up``: neither verified
        #: (they never reached ``flowing``, so they are no latency
        #: sample and do not count towards the rate) nor failed.
        self.degraded = 0

    def call(self) -> Optional[float]:
        """Seconds from ``open`` to ``flowing``; ``None`` when the slot
        cleanly gave up instead."""
        slot = self.slot
        net = self.net
        t0 = perf_counter()
        self.a.open(slot, AUDIO)
        net.settle()
        elapsed = perf_counter() - t0
        flowing = slot.is_flowing and net.plane.two_way(self.a, self.b)
        gave_up = slot.failed and slot.is_closed
        self.a.close(slot)
        net.settle()
        if not flowing and not gave_up:
            raise CallFailed("relay: not flowing two-way after open")
        if not slot.is_closed:
            raise CallFailed("relay: slot %s after close" % slot.state)
        return elapsed if flowing else None

    def window(self) -> Tuple[int, List[float], List[str]]:
        samples: List[float] = []
        failures: List[str] = []
        gave_up = 0
        for _ in range(self.window_calls):
            self.calls += 1
            try:
                elapsed = self.call()
            except CallFailed as exc:
                failures.append(str(exc))
                continue
            if elapsed is None:
                gave_up += 1
            else:
                samples.append(elapsed)
        if gave_up > self.max_gave_up:
            failures.append("relay: %d of %d calls gave up"
                            % (gave_up, self.window_calls))
        else:
            self.degraded += gave_up
        return len(samples), samples, failures

    def counters(self) -> Dict[str, float]:
        sent, received, transmits = count_signals(self.net)
        return {"calls": self.calls, "events": self.net.loop.executed,
                "sim_s": self.net.now, "signals": sent,
                "received": received, "transmits": transmits}


class Apps:
    """The six bundled applications round-robin, each call on a fresh
    ``Network(seed=seed+i)``.  A window is five rounds (30 calls); the
    latency sample is one round ÷ 6, because the six scenarios differ
    in length by design and a median over their raw times would sit on
    the boundary between two of them."""

    rounds = 5
    count_windows = 1
    klass = 0
    degraded = 0  # an app either matches its fingerprint or failed

    def __init__(self, seed: int):
        self.seed = seed
        self.calls = 0
        with open(os.path.join(HERE, "expected_apps.json")) as fh:
            self.expected = json.load(fh)
        self._counting = True
        self._totals = {"events": 0, "sim_s": 0.0, "signals": 0,
                        "received": 0, "transmits": 0}

    def call(self, app: str) -> None:
        net = Network(seed=self.seed + self.calls)
        self.calls += 1
        outcome = SCENARIOS[app](net)
        if self._counting:
            sent, received, transmits = count_signals(net)
            totals = self._totals
            totals["events"] += net.loop.executed
            totals["sim_s"] += net.now
            totals["signals"] += sent
            totals["received"] += received
            totals["transmits"] += transmits
        if outcome != self.expected[app]:
            raise CallFailed("apps: %s fingerprint %r" % (app, outcome))

    def window(self) -> Tuple[int, List[float], List[str]]:
        samples: List[float] = []
        failures: List[str] = []
        verified = 0
        for _ in range(self.rounds):
            ok = 0
            t0 = perf_counter()
            for app in SCENARIOS:
                try:
                    self.call(app)
                    ok += 1
                except CallFailed as exc:
                    failures.append(str(exc))
            elapsed = perf_counter() - t0
            verified += ok
            if ok == len(SCENARIOS):
                samples.append(elapsed / ok)
        return verified, samples, failures

    def counters(self) -> Dict[str, float]:
        # Counting stops at the snapshot so the measured phase does not
        # pay for walking every slot of every call's network.
        self._counting = False
        return dict(self._totals, calls=self.calls)


class Soak:
    """``run_soak`` on the overload profile cut to three epochs; one
    repetition is one window and one started session is one call.

    Repetitions cycle through eight seeds (``seed`` .. ``seed+7``).  A
    session's cost varies by about 5 % with the soak's seed, so windows
    of different seeds are different *classes* of work: the fastest
    windows are picked within each seed, never across seeds (that would
    pick "cheap seed", not "undisturbed host"), and the eight are then
    combined with equal weight.
    """

    seeds = 8
    #: One full cycle, so the exact counters cover every seed once.
    count_windows = seeds
    degraded = 0  # shed sessions are counted by the soak's own report

    def __init__(self, seed: int):
        self.seed = seed
        self.reps = 0
        self.calls = 0
        self.klass = 0
        self.profile = SOAK_PROFILES["overload"]._replace(
            epochs=3, warmup_epochs=0)
        self._totals = {"events": 0, "sim_s": 0.0, "bp_deferred": 0,
                        "refused": 0, "shed": 0}

    def call(self) -> Dict[str, Any]:
        return run_soak(self.profile, seed=self.seed + self.klass,
                        gate=False)

    def window(self) -> Tuple[int, List[float], List[str]]:
        self.klass = self.reps % self.seeds
        self.reps += 1
        t0 = perf_counter()
        report = self.call()
        elapsed = perf_counter() - t0
        sessions = report["sessions"]
        started = sessions["started"]
        self.calls += started or 1  # a repetition that started nothing failed
        totals = self._totals
        totals["events"] += report["executed"]
        totals["sim_s"] += report["sim_time"]
        totals["bp_deferred"] += report["backpressure"]["deferred_total"]
        totals["refused"] += sum(
            v for k, v in (report["admission"] or {}).items()
            if k.startswith("shed"))
        totals["shed"] += sessions["shed_nomedia"]
        problems = []
        if not report["ok"]:
            problems.append("report not ok")
        if report["safety"]["violation_count"]:
            problems.append("; ".join(report["safety"]["violations"][:3]))
        if sessions["live_now"]:
            problems.append("%d sessions still live" % sessions["live_now"])
        if problems or not started:
            return 0, [], ["soak: " + (", ".join(problems)
                                        or "no session started")]
        return started, [elapsed / started], []

    def counters(self) -> Dict[str, float]:
        return dict(self._totals, calls=self.calls)


def make(name: str, seed: int) -> Any:
    if name in ("relay", "relay_c"):
        return Relay(seed)
    if name == "lossy_c":
        return Relay(seed, plan="drop10+dup10")
    if name == "apps":
        return Apps(seed)
    if name == "soak":
        return Soak(seed)
    raise KeyError(name)
