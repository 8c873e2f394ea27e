"""Differential oracle for the fault layer.

``FaultyLink._hook`` forwards surviving copies to the link's faithful
transmit instead of scheduling them itself.  The reference below is the
layer as it was before that change — hook body verbatim, with the
``Link._schedule`` it called (heap only, no freelist) — and every seeded
case must agree with it on the delivery sequence (time, order, message
identity, interleaving with unrelated events), ``FaultStats``,
``Link.sent``, the trace events emitted, and the loop's RNG state.

Two families of cases.  The raw cases send arbitrary objects through
``LinkEnd.send``; under the compiled backend the C ``FaultHook`` decides
them through its generic call.  The slot cases drive a robust
device--box--device relay, so every tunnel signal leaves through the
slot send kernel, which under the compiled backend fuses the fault
decision (``SpecFaultyLink`` is the same layer forced onto the Python
``_hook``, for the one case the parent-commit reference cannot model).

The suite runs under one backend per process (``REPRO_BACKEND`` is read
at import; CI runs it under both); ``test_digest_identical_across_
backends`` additionally pins the new layer's digest equal across the
two, over both families.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from heapq import heappush

import pytest

from repro.network.backend import compiled_available
from repro.network.eventloop import Event, EventLoop
from repro.network.faults import FaultPlan, FaultyLink
from repro.network.latency import FixedLatency, UniformLatency
from repro.network.transport import Link
from repro.obs.events import FaultInjected
from repro.obs.tracer import Tracer


def _reference_schedule(link, origin, message, delay, fifo=True):
    """``Link._schedule`` as of the parent commit."""
    loop = link.loop
    deliver_at = loop._now + delay
    if fifo:
        if deliver_at < origin._horizon:
            deliver_at = origin._horizon
        origin._horizon = deliver_at
    target = origin._peer
    pending = link._pending
    if len(pending) >= link._compact_at:
        pending = link._compact_pending()
    event = Event(deliver_at, 0, next(loop._seq),
                  target._deliver, (message,), loop)
    heappush(loop._heap, event)
    loop._live += 1
    pending.append(event)
    return event


class ReferenceFaultyLink(FaultyLink):
    """The parent commit's hook.  Three edits only: an outage is read
    from ``_outage`` (the flap fix moved it out of ``link.down``),
    ``link._schedule`` is the reference copy above, and a class (or
    tuple) exemption is an ``isinstance`` test."""

    def _hook(self, origin, message, forward):
        if self._outage:
            return
        link = self.link
        if link.down:
            return
        exempt = self.exempt
        if exempt is not None and (isinstance(message, exempt)
                                   if isinstance(exempt, (type, tuple))
                                   else exempt(message)):
            self.stats.exempted += 1
            forward(origin, message)
            return
        plan = self.plan
        rng = link.loop.rng
        tr = link.loop.trace
        link.sent += 1
        copies = 1
        if plan.duplicate and rng.random() < plan.duplicate:
            copies = 2
            self.stats.duplicated += 1
            if tr is not None:
                tr.emit(FaultInjected(ts=link.loop.now, link=link.name,
                                      action="duplicate",
                                      detail=str(message)))
        for _ in range(copies):
            if plan.drop and rng.random() < plan.drop:
                self.stats.dropped += 1
                if tr is not None:
                    tr.emit(FaultInjected(ts=link.loop.now, link=link.name,
                                          action="drop",
                                          detail=str(message)))
                continue
            delay = link.latency.sample(rng)
            if plan.jitter:
                delay += rng.uniform(0.0, plan.jitter)
                self.stats.jittered += 1
            fifo = True
            if plan.reorder and rng.random() < plan.reorder:
                fifo = False
                self.stats.reordered += 1
                if tr is not None:
                    tr.emit(FaultInjected(ts=link.loop.now, link=link.name,
                                          action="reorder",
                                          detail=str(message)))
            _reference_schedule(link, origin, message, delay, fifo=fifo)
            self.stats.forwarded += 1


class SpecFaultyLink(FaultyLink):
    """The shipped layer, kept on its Python ``_hook`` (a subclass
    never gets the C hook)."""


class Msg:
    def __init__(self, n, meta):
        self.n = n
        self.meta = meta

    def __repr__(self):
        return "Msg(%d%s)" % (self.n, ", meta" if self.meta else "")


PLANS = {
    "drop": FaultPlan(drop=0.3),
    "dup": FaultPlan(duplicate=0.3),
    "drop+dup": FaultPlan(drop=0.2, duplicate=0.2),
    "certain": FaultPlan(drop=1.0, duplicate=1.0),
    "jitter": FaultPlan(drop=0.1, duplicate=0.1, jitter=0.05),
    "reorder": FaultPlan(duplicate=0.2, reorder=0.5, jitter=0.1),
    "flaps": FaultPlan(drop=0.1, duplicate=0.1,
                       flaps=((0.3, 0.2), (0.9, 0.1))),
    "exempt-meta": FaultPlan(drop=0.5, duplicate=0.5),
}

LATENCIES = {
    "zero": lambda: FixedLatency(0.0),
    "fixed": lambda: FixedLatency(0.05),
    "sampled": lambda: UniformLatency(0.0, 0.08),
}

#: When a tracer is installed on the loop: never, before the first
#: message, or mid-run (the next fault must show up in the trace).
TRACERS = (None, 0.0, 0.6)

SEEDS = range(4)


def run_case(layer, plan_name, latency_name, tracer_at, seed):
    """One seeded scenario under ``layer``; returns every observable."""
    plan = PLANS[plan_name]
    loop = EventLoop(seed=seed)
    link = Link(loop, LATENCIES[latency_name](), name="L")
    exempt = (lambda m: m.meta) if plan_name == "exempt-meta" else None
    faulty = layer(link, plan, exempt=exempt)
    script = random.Random(1000 + seed)
    msgs = []
    log = []

    def send(side, meta):
        msg = Msg(len(msgs), meta)
        msgs.append(msg)
        link.ends[side].send(msg)

    def receiver(side):
        def receive(msg):
            assert msg is msgs[msg.n]
            log.append((loop.now, side, msg.n))
            # Some deliveries answer at once: a send from inside a
            # delivery, same instant under zero latency.
            if msg.n % 4 == 0 and len(msgs) < 400:
                send(side, False)
        return receive

    link.ends[0].set_receiver(receiver(0))
    link.ends[1].set_receiver(receiver(1))

    def burst(k):
        for _ in range(script.randint(1, 5)):
            send(script.randint(0, 1), script.random() < 0.2)
        # An unrelated event at the same instant: its place among the
        # deliveries pins the merged (time, priority, seq) order.
        loop.call_soon(log.append, (loop.now, "marker", k))

    at = 0.0
    for k in range(40):
        at += script.choice((0.0, 0.0, 0.01, 0.07))
        loop.schedule_at(at, burst, k)
    tracer = Tracer()
    if tracer_at is not None:
        loop.schedule_at(tracer_at, setattr, loop, "trace", tracer)
    if plan_name == "flaps":
        # A real teardown late in the run must hold under both layers.
        loop.schedule_at(at * 0.9, link.tear_down)
    loop.run()
    return {
        "log": log,
        "stats": faulty.stats.to_json(),
        "sent": link.sent,
        "rng": loop.rng.getstate(),
        "executed": loop.executed,
        "now": loop.now,
        "down": link.down,
        "faults": [(e.ts, e.action, e.detail) for e in tracer.events],
    }


CASES = [(p, l, t, s) for p in PLANS for l in LATENCIES
         for t in TRACERS for s in SEEDS]
assert len(CASES) >= 200


@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_new_layer_matches_reference(plan_name):
    acted = 0
    for case in CASES:
        if case[0] != plan_name:
            continue
        new = run_case(FaultyLink, *case)
        ref = run_case(ReferenceFaultyLink, *case)
        assert new == ref, case
        stats = new["stats"]
        acted += stats["dropped"] + stats["duplicated"]
    assert acted > 0  # the adversary really did something


# ----------------------------------------------------------------------
# slot cases: real slots, so the slot send kernel fuses the decision
# ----------------------------------------------------------------------

#: ``variant -> (plan, stats shared by both links)``.
SLOT_VARIANTS = {
    "plain": ("drop10+dup10", False),
    # loop.trace set and cleared mid-run, and a tracer tap hooked on
    # and off the outgoing channel: the fused path must decline and
    # the reference hook emit FaultInjected while either is present.
    "tracer": ("drop10+dup10", False),
    "flaky": ("flaky", False),
    "teardown": ("drop10+dup10", False),
    "shared-stats": ("drop20+dup20", True),
    # Both links bounded at one in flight, so transmits defer: the
    # decision stays in C, the forward is the Python bounded transmit.
    "backpressure": ("drop10+dup10", False),
    "predicate": ("drop20+dup20", False),
    "meta": ("drop20+dup20", True),
}

SLOT_LATENCIES = {
    "fixed": lambda: FixedLatency(0.02),
    # Sampled latency draws from loop.rng inside each forward, between
    # the drop draws of a duplicated message's two copies.
    "sampled": lambda: UniformLatency(0.0, 0.04),
}

SLOT_CASES = [(v, l, s) for v in SLOT_VARIANTS for l in SLOT_LATENCIES
              for s in range(3)]

#: Calls per slot case; the relay runs on a clock (``net.run``), not to
#: quiescence, so the flaky plan's flaps at 1.0 s and 4.0 s land
#: mid-run.
SLOT_CALLS = 30


def run_slot_case(layer, variant, latency_name, seed):
    """One seeded robust relay under ``layer``; returns every
    observable."""
    from repro.media.device import UserDevice
    from repro.network.faults import FaultStats, plan_by_name
    from repro.network.network import Network
    from repro.protocol.codecs import AUDIO
    from repro.protocol.signals import AppMeta, MetaMessage
    from repro.protocol.slot import RetransmitPolicy

    plan_name, shared = SLOT_VARIANTS[variant]
    log = []

    class LoggingDevice(UserDevice):
        def on_tunnel_signal(self, slot, signal):
            log.append((net.loop.now, self.name, slot.name, str(signal)))
            super().on_tunnel_signal(slot, signal)

    net = Network(seed=seed, retransmit=RetransmitPolicy(),
                  latency=SLOT_LATENCIES[latency_name]())
    loop = net.loop
    a = net.device("A", cls=LoggingDevice)
    b = net.device("B", cls=LoggingDevice, auto_accept=True)
    box = net.box("srv")
    ch_a = net.channel(a, box)
    ch_b = net.channel(box, b)
    box.flow_link(ch_a.end_for(box).slot(), ch_b.end_for(box).slot())
    exempt = ((lambda m: isinstance(m, MetaMessage))
              if variant == "predicate" else MetaMessage)
    one = FaultStats()
    layers = []
    for ch in (ch_a, ch_b):
        if variant == "backpressure":
            ch.link.set_backpressure(1)
        layers.append(layer(ch.link, plan_by_name(plan_name), exempt=exempt,
                            stats=one if shared else FaultStats()))
    tracer = Tracer()
    if variant == "tracer":
        loop.schedule_at(0.8, setattr, loop, "trace", tracer)
        loop.schedule_at(1.6, setattr, loop, "trace", None)
        loop.schedule_at(2.4, tracer.attach_channel, ch_b)
        loop.schedule_at(3.2, tracer.detach_channel, ch_b)
    if variant == "teardown":
        loop.schedule_at(2.0, ch_b.end_for(box).tear_down)

    slot = ch_a.end_for(a).slot()
    for k in range(SLOT_CALLS):
        if slot.is_closed:
            a.open(slot, AUDIO)
        net.run(0.07)
        if slot.is_flowing and k % 3 == 0:
            a.modify(slot, mute_out=bool(k % 2))   # a Python-issued select
        if variant in ("meta", "predicate"):
            ch_a.end_for(a).send_meta(AppMeta("tick", {"k": k}))
        net.run(0.07)
        a.close(slot)
        net.run(0.06)
    net.run(5.0)
    return {
        "log": log,
        "stats": [f.stats.to_json() for f in layers],
        "sent": [ch.link.sent for ch in (ch_a, ch_b)],
        "down": [ch.link.down for ch in (ch_a, ch_b)],
        "deferred": [ch.link.deferred_total for ch in (ch_a, ch_b)],
        "rng": loop.rng.getstate(),
        "executed": loop.executed,
        "now": loop.now,
        "meta": [str(sig) for _, sig in box.meta_log],
        "slots": [(s.name, s.state, s.signals_sent, s.signals_received,
                   s.duplicate_drops, s.invalid_drops, s.stale_drops,
                   s.retransmits, s.failures)
                  for ch in net.channels for e in ch.ends
                  for s in e.slots.values()],
        "faults": [(e.ts, e.action, e.detail) for e in tracer.events
                   if isinstance(e, FaultInjected)],
        "traced": len(tracer.events),
    }


@pytest.mark.parametrize("variant", sorted(SLOT_VARIANTS))
def test_slot_sends_match_reference(variant):
    acted = flapped = 0
    for case in SLOT_CASES:
        if case[0] != variant:
            continue
        new = run_slot_case(FaultyLink, *case)
        assert new == run_slot_case(SpecFaultyLink, *case), case
        if variant != "backpressure":
            # The parent-commit reference schedules around the link's
            # bounded transmit, so it cannot model deferral.
            assert new == run_slot_case(ReferenceFaultyLink, *case), case
        acted += sum(st["dropped"] + st["duplicated"]
                     for st in new["stats"])
        if variant == "backpressure":
            assert sum(new["deferred"]) > 0, case
        if variant == "tracer":
            assert new["faults"] and new["traced"] > len(new["faults"])
        flapped += sum(st["flap_drops"] for st in new["stats"])
        if variant == "teardown":
            assert new["down"] == [False, True], case
        if variant in ("meta", "predicate"):
            assert sum(st["exempted"] for st in new["stats"]) \
                >= SLOT_CALLS, case
    assert acted > 0
    # Not vacuous: the flaky plan's outages caught signals in flight.
    assert (flapped > 0) == (variant == "flaky")


def _digest() -> str:
    h = hashlib.sha256()
    for case in CASES:
        out = run_case(FaultyLink, *case)
        del out["rng"]
        h.update(repr(sorted(out.items())).encode())
    for case in SLOT_CASES:
        out = run_slot_case(FaultyLink, *case)
        out["rng"] = hashlib.sha256(repr(out["rng"]).encode()).hexdigest()
        h.update(repr(sorted(out.items())).encode())
    return h.hexdigest()


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_digest_identical_across_backends():
    root = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                         "..", ".."))
    digests = {}
    for backend in ("python", "compiled"):
        env = dict(os.environ, REPRO_BACKEND=backend,
                   PYTHONPATH=os.pathsep.join(
                       (os.path.join(root, "src"), root)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.network.backend import BACKEND\n"
             "from tests.property.test_fault_oracle import _digest\n"
             "print(BACKEND, _digest())"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        name, digests[backend] = proc.stdout.split()
        assert name == backend
    assert digests["python"] == digests["compiled"]
