"""Cross-backend differential oracle for flowlink forwarding.

Under the compiled backend a flowlink of exact type ``FlowLink`` whose
slots are strict runs ``goal_receive`` -- and the slot sends it issues,
with their retransmission and staleness timers on robust slots -- in
C; everything else falls back to the reference ``core/flowlink.py``.
This oracle drives seeded chains of one to three flowlink boxes
between two user devices through random opens, accepts, rejects,
closes, mute changes, re-descriptions, partial runs and settles, once
per backend in a child interpreter, and requires the per-seed digests
to be identical.

A digest covers every slot's protocol state, medium, descriptors,
selectors and counters, every flowlink's ``_utd``/``_reopen`` flags and
counters, ``loop.executed``, ``loop.now``, a hash of ``loop.rng``'s
state and the exception a run raised, if any.  Seeds also plant the
seams the kernel's gates must route to Python, and the mixed configurations it must get right: open/open
races from both ends, crossing closes, selects answering superseded
descriptors, a selector whose codec the far descriptor does not offer
(``ProtocolError`` on both backends), an open carrying no descriptor
(the undescribed open-through mints a ``noMedia`` placeholder), opens
of different media meeting at a box (``PreconditionError``), a tracer
installed and removed mid-call, a ``RetransmitPolicy`` on one link (a
mixed chain: the kernel arms timers on its robust side only), a
lenient link, and a ``FlowLink`` subclass.

Seeds from ``ROBUST_BASE`` on are robust throughout: every link carries
a ``RetransmitPolicy()`` under the ``drop10+dup10`` or ``drop20+dup20``
fault plan, so duplicates, invalid drops, retransmissions, stale
re-describes and give-ups interleave with the kernel's forwarding.

Run one backend by hand with::

    REPRO_BACKEND=compiled PYTHONPATH=src python \\
        tests/property/test_flowlink_oracle.py 0 100 --dump
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from typing import Any, Dict, List

import pytest

from repro.network.backend import compiled_available

#: Seeds per backend.  Each costs a few milliseconds per backend.
SEEDS = 2000
#: The robust-throughout seeds: ``ROBUST_BASE`` .. ``+ ROBUST_SEEDS``.
ROBUST_BASE = 1_000_000
ROBUST_SEEDS = 500

_SRC = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "src"))


def _build(rng: random.Random, seed: int):
    """One seeded chain ``A -- box1 -- ... -- boxN -- B``."""
    from repro.core.flowlink import FlowLink
    from repro.network.faults import plan_by_name
    from repro.network.latency import FixedLatency
    from repro.network.network import Network
    from repro.protocol.slot import RetransmitPolicy

    class SubFlowLink(FlowLink):
        """A subclass: the kernel's exact-type gate must miss it."""

    if seed >= ROBUST_BASE:
        plan = ("drop10+dup10", "drop20+dup20")[seed % 2]
        net = Network(seed=seed, retransmit=RetransmitPolicy(),
                      faults=plan_by_name(plan))
    else:
        net = Network(seed=seed)
    a = net.device("A", auto_accept=rng.random() < 0.5)
    b = net.device("B", auto_accept=rng.random() < 0.5)
    boxes = [net.box("box%d" % i) for i in range(rng.randint(1, 3))]
    hops = [a] + boxes + [b]
    if seed >= ROBUST_BASE:
        seam = "robust:" + plan
    else:
        seam = rng.choice(("plain", "plain", "plain", "retransmit",
                           "lenient", "subclass"))
    odd_hop = rng.randrange(len(hops) - 1)
    channels = []
    for i in range(len(hops) - 1):
        kwargs: Dict[str, Any] = {
            "latency": FixedLatency(rng.choice((0.0, 0.001, 0.003)))}
        if i == odd_hop and seam == "retransmit":
            kwargs["retransmit"] = RetransmitPolicy()
        if i == odd_hop and seam == "lenient":
            kwargs["strict"] = False
        channels.append(net.channel(hops[i], hops[i + 1], **kwargs))
    links = []
    for i, box in enumerate(boxes):
        s_in = channels[i].end_for(box).slot()
        s_out = channels[i + 1].end_for(box).slot()
        if seam == "subclass" and i == odd_hop % len(boxes):
            links.append(box.set_goal(SubFlowLink(), s_in, s_out))
        else:
            links.append(box.flow_link(s_in, s_out))
    ends = {"A": channels[0].end_for(a).slot(),
            "B": channels[-1].end_for(b).slot()}
    return net, {"A": a, "B": b}, ends, links, seam


def _inject_bad_select(rng: random.Random, slot) -> None:
    """Send a selector that is legal at the sender but names a codec the
    descriptor it answers does not offer (or a real codec answering a
    ``noMedia`` descriptor).  Bypasses ``send_select``'s own check, as a
    buggy endpoint would."""
    from repro.protocol.codecs import G711, G729, T140_TEXT
    from repro.protocol.descriptor import Selector
    from repro.protocol.signals import Select

    rd = slot.remote_descriptor
    if slot.is_flowing and rd is not None:
        codec = rng.choice((G711, G729, T140_TEXT))
        slot._tx(Select(Selector(answers=rd.id, address=None, codec=codec)))


def _redescribe_same_id(slot) -> None:
    """Re-describe with the *same* descriptor id but a shorter codec
    list: selectors answering the superseded descriptor still look
    fresh to every flowlink on the path."""
    from repro.protocol.descriptor import Descriptor

    ld = slot.local_descriptor
    if slot.is_flowing and ld is not None and not ld.is_no_media:
        slot.send_describe(Descriptor(ld.id, ld.address, ld.codecs[-1:]))


def _drive(rng: random.Random, net, devices, ends) -> None:
    from repro.obs.tracer import Tracer
    from repro.protocol.codecs import AUDIO, VIDEO

    for _ in range(rng.randint(6, 18)):
        who = rng.choice("AB")
        dev, slot = devices[who], ends[who]
        op = rng.random()
        if op < 0.22:
            if slot.is_closed:
                medium = AUDIO if rng.random() < 0.85 else VIDEO
                if rng.random() < 0.05:
                    slot.send_open(medium, None)   # undescribed open
                else:
                    dev.open(slot, medium, mute_in=rng.random() < 0.2,
                             mute_out=rng.random() < 0.2)
        elif op < 0.34:
            if slot.is_opened:
                if rng.random() < 0.8:
                    dev.accept(slot, mute_in=rng.random() < 0.2,
                               mute_out=rng.random() < 0.2)
                else:
                    dev.reject(slot)
        elif op < 0.48:
            if slot.is_live:
                dev.close(slot)
        elif op < 0.56:
            dev.modify(slot, mute_in=rng.random() < 0.5,
                       mute_out=rng.random() < 0.5)
        elif op < 0.61:
            dev.refresh_descriptor(slot)
        elif op < 0.63:
            _inject_bad_select(rng, slot)
        elif op < 0.65:
            _redescribe_same_id(slot)
        elif op < 0.68:
            net.loop.trace = None if net.loop.trace is not None \
                else Tracer()
        elif op < 0.80:
            net.loop.run(max_events=rng.randint(1, 6))
        elif op < 0.88:
            net.run(rng.choice((0.0005, 0.002, 0.01)))
        else:
            net.settle()
    net.settle()


def _slot_digest(slot) -> tuple:
    def desc(d):
        return None if d is None else (str(d.id), d.encoded)

    return (slot.name, slot.state, slot.medium,
            desc(slot.remote_descriptor), desc(slot.local_descriptor),
            str(slot.selector_received), str(slot.selector_sent),
            slot.failed, slot.signals_sent, slot.signals_received,
            slot.race_drops, slot.stale_drops, slot.invalid_drops,
            slot.duplicate_drops, slot.retransmits, slot.failures)


def scenario(seed: int) -> List[Any]:
    """Run one seeded chain; returns its observables."""
    rng = random.Random(seed)
    net, devices, ends, links, seam = _build(rng, seed)
    error = None
    try:
        _drive(rng, net, devices, ends)
    except Exception as exc:  # the same error must surface on both
        error = "%s: %s" % (type(exc).__name__, exc)
    out: List[Any] = [seam, error, net.loop.executed, net.loop.now,
                      hashlib.sha256(repr(net.loop.rng.getstate())
                                     .encode()).hexdigest()]
    for channel in net.channels:
        for end in channel.ends:
            for tid in sorted(end.slots):
                out.append(_slot_digest(end.slots[tid]))
    for link in links:
        out.append(([link._utd[s] for s in link.slots],
                    [link._reopen[s] for s in link.slots],
                    link.forwarded_selects, link.discarded_selects,
                    link.describes_sent, link.opens_sent))
    tracer = net.loop.trace
    out.append(None if tracer is None else len(tracer.events))
    return out


def digest(seed: int) -> str:
    return hashlib.sha256(repr(scenario(seed)).encode()).hexdigest()[:16]


def _run_child(backend: str, lo: int, hi: int) -> Dict[int, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_ARENA_POISON")}
    env["REPRO_BACKEND"] = backend
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(lo), str(hi),
         "--expect", backend],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = {}
    for line in proc.stdout.splitlines():
        seed, value = line.split()
        out[int(seed)] = value
    assert len(out) == hi - lo
    return out


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
@pytest.mark.parametrize("lo,hi", [
    (0, SEEDS), (ROBUST_BASE, ROBUST_BASE + ROBUST_SEEDS)],
    ids=["mixed", "robust"])
def test_flowlink_digests_identical_across_backends(lo, hi):
    py = _run_child("python", lo, hi)
    cc = _run_child("compiled", lo, hi)
    diverged = [s for s in range(lo, hi) if py[s] != cc[s]]
    assert not diverged, (
        "%d of %d seeds diverge between backends, first %r; dump one "
        "with: REPRO_BACKEND=<backend> PYTHONPATH=src python %s %d %d "
        "--dump" % (len(diverged), hi - lo, diverged[:10],
                    os.path.relpath(__file__), diverged[0],
                    diverged[0] + 1))


def test_seams_are_planted():
    """The generator reaches every seam the kernel's gates route to
    Python, and the planted errors surface (backend-independent)."""
    seams, errors = set(), set()
    for seed in range(300):
        out = scenario(seed)
        seams.add(out[0])
        if out[1] is not None:
            errors.add(out[1].split(":")[0])
    assert seams == {"plain", "retransmit", "lenient", "subclass"}
    assert {"ProtocolError", "PreconditionError"} <= errors


def test_robust_seeds_see_loss():
    """The robust-throughout seeds are not vacuous: both plans occur,
    slots absorb duplicates, drop out-of-place signals, retransmit and
    sometimes give up (backend-independent)."""
    seams, totals = set(), [0, 0, 0, 0]
    for seed in range(ROBUST_BASE, ROBUST_BASE + 100):
        out = scenario(seed)
        seams.add(out[0])
        for item in out:
            if isinstance(item, tuple) and len(item) == 16:
                totals[0] += item[13]      # duplicate_drops
                totals[1] += item[12]      # invalid_drops
                totals[2] += item[14]      # retransmits
                totals[3] += item[15]      # failures
    assert seams == {"robust:drop10+dup10", "robust:drop20+dup20"}
    assert all(totals), totals


if __name__ == "__main__":
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    if "--expect" in sys.argv:
        from repro.network.backend import BACKEND
        expected = sys.argv[sys.argv.index("--expect") + 1]
        assert BACKEND == expected, (BACKEND, expected)
    for s in range(lo, hi):
        if "--dump" in sys.argv:
            for item in scenario(s):
                print(s, item)
        else:
            print(s, digest(s))
