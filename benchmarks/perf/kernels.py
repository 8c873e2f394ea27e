"""Fixed-op-count kernels: one frozen host reference and five isolated
kernels of single layers.

``host_ref_ns`` never imports ``repro`` and must never change: it is the
yardstick that says whether two numbers differ because the *host* did.
It is reported beside the results (``host.ref_ratio`` = measured ÷
:data:`HOST_REF_NS`), never applied to them — two commits are compared
by alternating runs, not by a correction factor.

Run as a script (``python kernels.py``, python backend, ``PYTHONPATH``
set) this prints the isolated kernels as one JSON object; ``run.py``
does that once per traced run, in set-up.
"""

from __future__ import annotations

import heapq
import json
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List

#: ``host_ref_ns()`` on the host and day this benchmark landed: the floor
#: of 60 runs on the 2-core shared container, CPython 3.11.7.  (The same
#: kernel read 1000-1300 ns for seconds at a time when the host was busy
#: -- which is what the ratio is for.)
HOST_REF_NS = 670.0

_REF_OPS = 20_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def host_ref_ns(repeats: int = 5) -> float:
    """ns per iteration of heap push/pop + dict store + method call;
    best of ``repeats`` (the floor is the host's speed, the rest is its
    noise)."""
    best = float("inf")
    for _ in range(repeats):
        heap: List[Any] = []
        table: Dict[int, int] = {}
        cell = _Cell()
        push, pop = heapq.heappush, heapq.heappop
        t0 = perf_counter()
        for i in range(_REF_OPS):
            push(heap, ((i * 7919) % 1009, i))
            if i & 1:
                table[i & 1023] = pop(heap)[1]
            cell.bump(i)
        best = min(best, perf_counter() - t0)
    return best / _REF_OPS * 1e9


# ----------------------------------------------------------------------
# isolated kernels of the program's layers (need repro)
# ----------------------------------------------------------------------
def _best(fn: Callable[[], float], repeats: int = 5) -> float:
    return min(fn() for _ in range(repeats))


def _canonical_envelopes() -> List[Any]:
    """The tunnel envelopes of one relayed call's live leg, captured off
    a simulated box--callee link: open, oack, selects, close, closeack."""
    from repro.network.network import Network
    from repro.protocol.codecs import AUDIO

    net = Network(seed=0)
    a = net.device("A")
    b = net.device("B", auto_accept=True)
    box = net.box("srv")
    ch_a = net.channel(a, box)
    ch_b = net.channel(box, b)
    seen: List[Any] = []

    def tap(origin: Any, message: Any, forward: Any) -> None:
        seen.append(message)
        forward(origin, message)
    ch_b.link.add_transmit_hook(tap)
    box.flow_link(ch_a.end_for(box).slot(), ch_b.end_for(box).slot())
    slot = ch_a.end_for(a).slot()
    a.open(slot, AUDIO)
    net.settle()
    a.close(slot)
    net.settle()
    return seen


def isolated() -> Dict[str, float]:
    from repro.livenet.wire import SigFrame, decode_frame, encode_frame
    from repro.network.eventloop import EventLoop
    import workloads

    envelopes = _canonical_envelopes()
    frames = [SigFrame("boxside/c1", env) for env in envelopes]
    payloads = [encode_frame(fr) for fr in frames]
    rounds = 300

    def encode() -> float:
        t0 = perf_counter()
        for _ in range(rounds):
            for fr in frames:
                encode_frame(fr)
        return (perf_counter() - t0) / (rounds * len(frames))

    def decode() -> float:
        t0 = perf_counter()
        for _ in range(rounds):
            for payload in payloads:
                decode_frame(payload)
        return (perf_counter() - t0) / (rounds * len(payloads))

    events = 20_000

    def noop() -> None:
        pass

    def ready_lane() -> float:
        loop = EventLoop(seed=0)
        t0 = perf_counter()
        for _ in range(events):
            loop.call_soon(noop)
        loop.run_until_quiescent()
        return (perf_counter() - t0) / events

    def timer_lane() -> float:
        loop = EventLoop(seed=0)
        t0 = perf_counter()
        for i in range(events):
            loop.schedule(((i * 7919) % 1009) * 1e-3, noop)
        loop.run_until_quiescent()
        return (perf_counter() - t0) / events

    builds = 100

    def relay_build() -> float:
        t0 = perf_counter()
        for i in range(builds):
            workloads.Relay(i)
        return (perf_counter() - t0) / builds

    return {
        "wire.encode_ns_per_frame": _best(encode) * 1e9,
        "wire.decode_ns_per_frame": _best(decode) * 1e9,
        "eventloop.ready_ns_per_event": _best(ready_lane) * 1e9,
        "eventloop.timer_ns_per_event": _best(timer_lane) * 1e9,
        "topology.relay_build_us": _best(relay_build) * 1e6,
        "kernel.envelopes": len(envelopes),
    }


if __name__ == "__main__":
    sys.stdout.write(json.dumps(isolated()) + "\n")
