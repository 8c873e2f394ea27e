"""Slot-receive hot-path guard (not a paper artifact).

The third perf wave moved the strict/reliable slot FSM receive path
into the compiled backend (``slot_fsm_fast``) and inlined the accepted-
signal goal dispatch.  This module guards that machinery the same two
ways ``test_bench_trace_overhead.py`` guards tracing:

* *structurally* — the workloads execute a pinned event schedule
  (``expected_executed``), so a "speedup" that skips or reorders work
  cannot hide;
* *in wall-clock* — the two receive-dominated workloads recorded in
  ``baselines/slot_receive_seed.json`` must run within a generous
  tolerance band (3x) of the recorded pure-Python best.  The band
  absorbs shared-runner noise; a real per-receive regression
  (thousands of receives per workload) would blow through it.

The baseline was recorded under ``REPRO_BACKEND=python``; the compiled
backend runs the same gate and simply enjoys more headroom.
"""

import json
import os
import time

from repro import AUDIO, Network

_BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baselines",
                              "slot_receive_seed.json")
#: Generous: wall clock on shared runners jitters; the workloads run
#: thousands of receives, so a true hot-path regression does not hide
#: inside 3x.
_TOLERANCE = 3.0


def _baseline(workload: str) -> dict:
    with open(_BASELINE_PATH) as fh:
        return json.load(fh)["workloads"][workload]


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# the recorded workloads, byte-for-byte the baseline recipes
# ----------------------------------------------------------------------
def _direct_churn_200() -> int:
    """Device-to-device open/close churn: every receive is a strict
    reliable slot transition — the ``slot_fsm_fast`` kernel's exact
    domain, with no flowlink in the way."""
    net = Network(seed=0)
    a = net.device("A")
    b = net.device("B", auto_accept=True)
    ch = net.channel(a, b)
    slot = ch.end_for(a).slot()
    for _ in range(200):
        a.open(slot, AUDIO)
        net.settle()
        a.close(slot)
        net.settle()
    return net.loop.executed


def _relay_churn_100() -> int:
    """Device-box-device churn through one flowlink: adds the batched
    cross-link delivery walk and the inlined goal dispatch on top of
    the FSM kernels."""
    net = Network(seed=0)
    a = net.device("A")
    b = net.device("B", auto_accept=True)
    box = net.box("srv")
    ch_a = net.channel(a, box)
    ch_b = net.channel(box, b)
    box.flow_link(ch_a.end_for(box).slot(), ch_b.end_for(box).slot())
    slot = ch_a.end_for(a).slot()
    for _ in range(100):
        a.open(slot, AUDIO)
        net.settle()
        a.close(slot)
        net.settle()
    return net.loop.executed


_WORKLOADS = {
    "direct_churn_200": _direct_churn_200,
    "relay_churn_100": _relay_churn_100,
}


def _gate(workload: str) -> None:
    base = _baseline(workload)
    fn = _WORKLOADS[workload]
    # The schedule is pinned first: a fast run that executed different
    # events measured a different workload.
    assert fn() == base["expected_executed"], \
        "event schedule drifted from the recorded %s seed" % workload
    best = _best_of(fn)
    assert best <= _TOLERANCE * base["best"], (
        "%s regressed: %.4fs best vs %.4fs recorded (tolerance %.1fx)"
        % (workload, best, base["best"], _TOLERANCE))


def test_direct_slot_receive_within_baseline_band():
    _gate("direct_churn_200")


def test_relay_receive_within_baseline_band():
    _gate("relay_churn_100")
