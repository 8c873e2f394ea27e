"""Lossy lockstep: robust relays run as exact twins on both backends.

The ``lossy_c`` perf workload is a device--box--device relay whose
slots carry a ``RetransmitPolicy`` under the ``drop10+dup10`` fault
plan.  Loss, duplication, retransmission timers, staleness timers and
give-ups all draw from the one seeded ``loop.rng`` and the one event
sequence counter, so a single reordered transmit or timer anywhere in
the run shows up in the digest below long before 2,000 calls are over.

Each configuration runs once per backend in a child interpreter (the
backend is fixed at import time).  The digest covers ``loop.executed``,
``loop.now``, a hash of ``loop.rng.getstate()``, the fault layer's
counters, the summed signal, transmit and backpressure-deferral counts,
every slot's state and robust-mode counters, and the number of calls
that degraded to ``closed``/``noMedia``.  Any difference is a kernel
bug, not noise.

Run one configuration by hand, by name or as ``topology plan seed``::

    REPRO_BACKEND=compiled PYTHONPATH=src python \\
        tests/property/test_lossy_lockstep.py lossy_c
    REPRO_BACKEND=compiled PYTHONPATH=src python \\
        tests/property/test_lossy_lockstep.py relay drop20+dup20 77003
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Any, Dict

import pytest

from repro.network.backend import compiled_available

#: Calls per configuration per backend.
CALLS = 2000

#: ``(topology, fault plan, seed)``: the ``lossy_c`` relay on its
#: default seed and its held-out seed, a heavier plan, a chain whose
#: two boxes forward over robust slots on both sides, and a relay whose
#: link latency equals the first retransmission interval.  There a
#: sent signal's delivery and the timer armed with it fall due at the
#: same instant, so only their event seq order -- transmit first, then
#: arm -- separates them.  Then the ``flaky`` plan (drop plus two link
#: flaps) on that slow relay, so the flaps at 1.0 s and 4.0 s catch
#: the first calls in flight, and a relay whose links are backpressured at one message
#: in flight: its transmits defer, so the fault decision forwards into
#: the Python bounded transmit instead of fusing into the slot send.
CONFIGS = {
    "lossy_c": ("relay", "drop10+dup10", 20060912),
    "lossy_c-77003": ("relay", "drop10+dup10", 77003),
    "drop20+dup20": ("relay", "drop20+dup20", 20060912),
    "two-box": ("chain2", "drop10+dup10", 20060912),
    "tied-timers": ("tied", "drop10+dup10", 20060912),
    "flaky": ("tied", "flaky", 20060912),
    "backpressured": ("bp", "drop10+dup10", 20060912),
}

_SRC = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "src"))


def run(topology: str, plan: str, seed: int,
        calls: int = CALLS) -> Dict[str, Any]:
    """Drive ``calls`` open/settle/close/settle calls; returns the
    digest fields."""
    from repro.network.faults import plan_by_name
    from repro.network.latency import FixedLatency
    from repro.network.network import Network
    from repro.protocol.codecs import AUDIO
    from repro.protocol.slot import RetransmitPolicy

    policy = RetransmitPolicy()
    latency = FixedLatency(policy.initial if topology == "tied" else 0.0)
    net = Network(seed=seed, faults=plan_by_name(plan), retransmit=policy,
                  latency=latency,
                  backpressure=1 if topology == "bp" else None)
    a = net.device("A")
    b = net.device("B", auto_accept=True)
    boxes = [net.box("srv%d" % i)
             for i in range(2 if topology == "chain2" else 1)]
    hops = [a] + boxes + [b]
    channels = [net.channel(hops[i], hops[i + 1])
                for i in range(len(hops) - 1)]
    for i, box in enumerate(boxes):
        box.flow_link(channels[i].end_for(box).slot(),
                      channels[i + 1].end_for(box).slot())
    slot = channels[0].end_for(a).slot()

    degraded = 0
    for _ in range(calls):
        a.open(slot, AUDIO)
        net.settle()
        flowing = slot.is_flowing and net.plane.two_way(a, b)
        gave_up = slot.failed and slot.is_closed
        assert flowing or gave_up, "call neither flowing nor degraded"
        degraded += not flowing
        a.close(slot)
        net.settle()
        assert slot.is_closed, slot.state

    sent = received = transmits = deferred = 0
    slots = []
    for channel in net.channels:
        transmits += channel.link.sent
        deferred += channel.link.deferred_total
        for end in channel.ends:
            for tid in sorted(end.slots):
                s = end.slots[tid]
                sent += s.signals_sent
                received += s.signals_received
                slots.append([s.name, s.state, s.duplicate_drops,
                              s.invalid_drops, s.stale_drops,
                              s.retransmits, s.failures])
    return {
        "executed": net.loop.executed,
        "now": net.loop.now,
        "rng": hashlib.sha256(
            repr(net.loop.rng.getstate()).encode()).hexdigest(),
        "fault_stats": net.fault_stats.to_json(),
        "signals_sent": sent,
        "signals_received": received,
        "transmits": transmits,
        "deferred": deferred,
        "slots": slots,
        "degraded": degraded,
    }


def _child(backend: str, config: str) -> Dict[str, Any]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_ARENA_POISON")}
    env["REPRO_BACKEND"] = backend
    env["PYTHONPATH"] = _SRC
    topology, plan, seed = CONFIGS[config]
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), topology, plan,
         str(seed), "--expect", backend],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_lossy_runs_identical_across_backends(config):
    py = _child("python", config)
    cc = _child("compiled", config)
    # Not vacuous: the plan dropped and duplicated (flapped), slots
    # absorbed duplicates and retransmitted, the bounded links deferred.
    stats = py["fault_stats"]
    assert stats["dropped"] > 0
    assert (stats["duplicated"] > 0) == (config != "flaky")
    assert (stats["flap_drops"] > 0) == (config == "flaky")
    assert (py["deferred"] > 0) == (config == "backpressured")
    assert sum(s[2] for s in py["slots"]) > 0
    assert sum(s[5] for s in py["slots"]) > 0
    for key in sorted(py):
        assert py[key] == cc[key], (
            "%s diverges on %s:\npython:   %r\ncompiled: %r"
            % (config, key, py[key], cc[key]))


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--expect" in args:
        from repro.network.backend import BACKEND
        expected = args[args.index("--expect") + 1]
        assert BACKEND == expected, (BACKEND, expected)
        args = args[:args.index("--expect")]
    if args[0] in CONFIGS:
        args = [str(v) for v in CONFIGS[args[0]]]
    print(json.dumps(run(args[0], args[1], int(args[2])), sort_keys=True))
