#!/usr/bin/env python3
"""What the benchmark runs and reports, in one place.

``BENCHMARK.json`` at the repository root is *generated* from this file
(the driver reads that file, the benchmark reads this one; the self-test
fails when the committed file is stale)::

    python3 benchmarks/perf/catalog.py > BENCHMARK.json

Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

#: name -> backend the child must really be running, the fixed tail
#: percentile (chosen so a default-length run leaves well over ten
#: samples beyond it; see README "Statistics"), and the reason the
#: workload exists.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "relay": {
        "backend": "python", "tail_p": 99.0,
        "why": "steady-state python engine: persistent device-box-device, "
               "open/settle/close/settle per call; eventloop, transport, "
               "slot, channel, flowlink and endpoint do all the work",
    },
    "relay_c": {
        "backend": "compiled", "tail_p": 99.0,
        "why": "identical inputs under REPRO_BACKEND=compiled: _ccore.c "
               "does loop/link/slot work, Python only the upcalls; "
               "relay_c / relay is the C backend's whole benefit",
    },
    "apps": {
        "backend": "python", "tail_p": 90.0,
        "why": "six bundled apps round-robin on a fresh Network per call: "
               "topology construction, goals, box programs, predicates - "
               "work relay never does and where compiled/python is 1.00x",
    },
    "lossy_c": {
        "backend": "compiled", "tail_p": 99.0,
        "why": "relay under drop10+dup10 with retransmission: hook chain, "
               "timer lane, robust slots that make the C kernel fall back "
               "to Python per receive - the fast path's other side",
    },
    "soak": {
        "backend": "python", "tail_p": 90.0,
        "why": "run_soak overload, 3 epochs: many sessions on one loop, "
               "advance/_run_timed, backpressure _bp_transmit, admission "
               "busy-retry-noMedia; runs nowhere else",
    },
    "live": {
        "backend": "python", "tail_p": 90.0,
        "why": "POST /call to flowing across three OS processes on "
               "loopback, 2 closed-loop clients: gateway, tcp pump and "
               "wait_for, wire codec, seam, asyncio; engine a small share",
    },
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen.  ISSUE.md's first guesses were
#: 10/10/20/15/10/50 %; the driver caps a bound at 25 % and wants the
#: run-to-run spread under a third of it, so they were widened to what
#: ten-seed sets measured on this host (README.md, "Bounds").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("calls_per_s", "calls/s", "higher", 0.20),
    ("call_p50_ms", "ms", "lower", 0.20),
    ("call_tail_ms", "ms", "lower", 0.25),
    ("cpu_us_per_call", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better).  Every name is reported for every workload with
#: ``--trace 1``; a metric whose layer a workload never enters reads 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("eventloop.events_per_call", "count", "lower"),
    ("eventloop.sim_ms_per_call", "ms", "lower"),
    ("eventloop.self_us_per_call", "us", "lower"),
    ("transport.transmits_per_call", "count", "lower"),
    ("transport.self_us_per_call", "us", "lower"),
    ("transport.bp_deferred_per_call", "count", "lower"),
    ("slot.signals_per_call", "count", "lower"),
    ("slot.py_receives_per_call", "count", "lower"),
    ("slot.py_receive_share", "ratio", "lower"),
    ("slot.self_us_per_call", "us", "lower"),
    ("slot.gave_up_per_call", "count", "lower"),
    ("channel.self_us_per_call", "us", "lower"),
    ("goals.upcalls_per_call", "count", "lower"),
    ("goals.self_us_per_call", "us", "lower"),
    ("program.steps_per_call", "count", "lower"),
    ("program.self_us_per_call", "us", "lower"),
    ("media.upcalls_per_call", "count", "lower"),
    ("media.self_us_per_call", "us", "lower"),
    ("topology.build_us_per_call", "us", "lower"),
    ("ccore.self_us_per_call", "us", "lower"),
    ("ccore.upcalls_per_call", "count", "lower"),
    ("admission.refused_per_call", "count", "lower"),
    ("admission.shed_share", "ratio", "lower"),
    ("gateway.http_us_per_call", "us", "lower"),
    ("gateway.place_call_us_per_call", "us", "lower"),
    ("gateway.reference_us_per_call", "us", "lower"),
    ("gateway.hangup_us_per_call", "us", "lower"),
    ("gateway.call_setup_us_per_call", "us", "lower"),
    ("gateway.net_channels_per_call", "count", "lower"),
    ("gateway.no_codec_share", "ratio", "lower"),
    ("gateway.cpu_us_per_call", "us", "lower"),
    ("callee.cpu_us_per_call", "us", "lower"),
    ("tcp.wait_us_per_call", "us", "lower"),
    ("tcp.wait_polls_per_call", "count", "lower"),
    ("tcp.open_live_us_per_call", "us", "lower"),
    ("tcp.self_us_per_call", "us", "lower"),
    ("wire.encode_us_per_call", "us", "lower"),
    ("wire.decode_us_per_call", "us", "lower"),
    ("wire.frames_per_call", "count", "lower"),
    ("wire.bytes_per_call", "count", "lower"),
    ("seam.inject_us_per_call", "us", "lower"),
    ("engine.us_per_call", "us", "lower"),
    ("client.self_us_per_call", "us", "lower"),
    ("client.http_us_per_call", "us", "lower"),
    ("host.ref_ratio", "ratio", "lower"),
    ("host.quiet_window_share", "ratio", "higher"),
    ("host.steal_share", "ratio", "lower"),
    ("wire.encode_ns_per_frame", "ns", "lower"),
    ("wire.decode_ns_per_frame", "ns", "lower"),
    ("eventloop.ready_ns_per_event", "ns", "lower"),
    ("eventloop.timer_ns_per_event", "ns", "lower"),
    ("topology.relay_build_us", "us", "lower"),
    ("trace.call_us", "us", "lower"),
    ("trace.self_sum_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Default ``--seed``; HELD_OUT_SEED is never used while developing a
#: change and is the seed a claimed gain must also hold on
#: (choosing-metrics guide, section 6.3).
DEFAULT_SEED = 20060912
HELD_OUT_SEED = 77003

#: ``run_seconds`` of BENCHMARK.json: what one driver run measures.  With
#: set-up, three interpreter starts and result hand-over a run takes about
#: 17.5 s, so the driver's 136 runs take about 40 of its 57 minutes (at 15
#: the margin was under a fifth, too thin for a host that stalls).
RUN_SECONDS = 12

#: Slices per run: each is a fresh child process (``REPRO_BACKEND`` is
#: read once at import), windows are pooled across them, and three give
#: ``setup_s`` a median.
SLICES = 3

#: Discarded at the start of every slice, seconds.
WARMUP_S = 0.5


def contract() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``, in the driver's schema."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(contract(), indent=2))
