"""Differential oracle for the fault layer.

``FaultyLink._hook`` forwards surviving copies to the link's faithful
transmit instead of scheduling them itself.  The reference below is the
layer as it was before that change — hook body verbatim, with the
``Link._schedule`` it called (heap only, no freelist) — and every seeded
case must agree with it on the delivery sequence (time, order, message
identity, interleaving with unrelated events), ``FaultStats``,
``Link.sent``, the trace events emitted, and the loop's RNG state.

The suite runs under one backend per process (``REPRO_BACKEND`` is read
at import; CI runs it under both); ``test_digest_identical_across_
backends`` additionally pins the new layer's digest equal across the
two.
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
    """The parent commit's hook.  Two edits only: an outage is read
    from ``_outage`` (the flap fix moved it out of ``link.down``), and
    ``link._schedule`` is the reference copy above."""

    def _hook(self, origin, message, forward):
        if self._outage:
            return
        link = self.link
        if link.down:
            return
        if self.exempt is not None and self.exempt(message):
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


def _digest() -> str:
    h = hashlib.sha256()
    for case in CASES:
        out = run_case(FaultyLink, *case)
        del out["rng"]
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
