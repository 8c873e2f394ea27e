"""Load-harness throughput regression gate (not a paper artifact).

PR 5 recorded the pre-optimization throughput of the benchmark
scenario in ``benchmarks/baselines/load_seed.json``; this gate fails
the suite if the relay topology's best-window rate ever falls below a
floor multiple of that recording — optimizations must not quietly rot.

PR 6 raised the floor from the original 0.8x to a backend-aware pair
(compiled 1.6x, pure Python 1.2x), both as *raw* multiples of the
recorded seed.  The third perf wave raised them again — compiled to
**2.5x**, Python to **1.4x** — and made the compiled gate
*host-calibrated*: shared containers swing tens of percent in CPU
speed minute to minute, so before gating, the unchanged pure-Python
reference workload is re-measured on the current host (in a child
interpreter, see :mod:`repro.load.calibrate`) and the floor is scaled
by the measured host-speed ratio.  The gate then asserts what it
always meant to assert — "the compiled engine is this much faster
than the recorded seed *on the reference host*" — without flaking on
a slow CPU slice or rubber-stamping on a fast one.  The Python floor
stays raw by design — that workload *is* the calibration reference,
so calibrating it against itself would make the gate vacuous.  1.4x
sits under the ~1.75x measured on reference-class hosts; a host whose
CPU slice dips much below ~80% of the reference container's will read
it as a (spurious) failure, which is the honest signal that the
runner, not the code, needs attention.

The lossy gate is a same-process *ratio* — the relay under
``drop10+dup10`` with retransmission over the clean relay, interleaved
— so it needs no host calibration: whatever the CPU slice does, it
does to both.  It pins that a faulted link stays on the faithful
transmit path (the fault layer decides, the link schedules).
"""

import os
import statistics

import pytest

from repro.load import LoadJob
from repro.load.calibrate import measure_python_reference
from repro.load.harness import _run_job
from repro.load.topologies import BATCH, RELAY
from repro.network.backend import BACKEND
from repro.tools.bench import host_calibration, load_baseline

_BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baselines",
                              "load_seed.json")

#: Floor multiples of the recorded seed best-window rate.  The
#: compiled floor is in reference-host terms (scaled by the measured
#: host calibration before comparing); the Python floor is raw.
FLOOR = 2.5 if BACKEND == "compiled" else 1.4


#: Floor on the lossy/clean rate ratio.  Ten runs of the gate below
#: read 0.50-0.54 (compiled) and 0.53-0.55 (python); with the fault
#: layer scheduling its own deliveries in Python they read 0.36-0.38
#: and 0.40-0.42.
LOSSY_RATIO_FLOOR = 0.46 if BACKEND == "compiled" else 0.49


def _one_window(plan=None) -> float:
    # Best window over a few hundred calls: long enough to hit steady
    # state, short enough for a tier-1 gate.
    return _run_job(LoadJob(app=RELAY, calls=6 * BATCH, seed=0,
                            shard=0, plan=plan)).best_window_rate


def test_relay_load_throughput_does_not_regress(reproduce):
    baseline = load_baseline(_BASELINE_PATH)
    seed_rate = baseline.get("calls_per_sec_best")
    assert seed_rate, "missing baselines/load_seed.json"
    floor_rate = FLOOR * seed_rate
    calibration = None
    if BACKEND == "compiled":
        # Interleave the calibration probe with the gated measurement:
        # host speed drifts on a scale of minutes, so probing once and
        # measuring afterwards can pair a fast-moment reference with a
        # slow-moment measurement (or vice versa).  Taking both maxima
        # over alternating samples pins them to the same interval.
        reference = baseline.get(
            "python_reference_calls_per_sec_best_window")
        best = probe_best = 0.0
        for _ in range(3):
            probe = measure_python_reference(repeats=1)
            if probe:
                probe_best = max(probe_best, probe)
            best = max(best, _one_window())
        calibration = host_calibration(probe_best or None, reference)
        if calibration:
            floor_rate *= calibration
    else:
        best = max(_one_window() for _ in range(5))
    reproduce("load engine", "relay calls/sec (best window)",
              seed_rate, best, unit="calls/s")
    assert best >= floor_rate, (
        "relay throughput %.1f calls/sec fell below %.1f "
        "(%.2fx the recorded seed %.1f%s)"
        % (best, floor_rate, best / seed_rate, seed_rate,
           ", host calibration %.3f" % calibration
           if calibration else ""))


def test_lossy_relay_keeps_its_share_of_the_clean_rate(reproduce):
    # Median of back-to-back pairs, not a ratio of two maxima: one
    # lucky window on either side would swing the latter by 15%.
    ratio = statistics.median(
        _one_window("drop10+dup10") / _one_window() for _ in range(20))
    reproduce("load engine", "lossy/clean relay rate (floor, measured)",
              100 * LOSSY_RATIO_FLOOR, 100 * ratio, unit="%")
    assert ratio >= LOSSY_RATIO_FLOOR, (
        "relay under drop10+dup10 ran at %.3f of the clean relay, "
        "floor %.2f" % (ratio, LOSSY_RATIO_FLOOR))


def test_relay_load_is_deterministic_across_repeats():
    a = _run_job(LoadJob(app=RELAY, calls=BATCH, seed=0, shard=0))
    b = _run_job(LoadJob(app=RELAY, calls=BATCH, seed=0, shard=0))
    assert a.executed == b.executed
    assert a.signals_sent == b.signals_sent
    assert a.setup_sim == b.setup_sim


def test_call_batch_event_count_matches_recorded_seed():
    """The seed baseline pins the scenario's event count; the optimized
    runtime must execute the identical schedule."""
    baseline = load_baseline(_BASELINE_PATH)
    expected = baseline.get("executed_per_batch")
    if not expected:
        pytest.skip("baseline lacks executed_per_batch")
    result = _run_job(LoadJob(app=RELAY, calls=baseline["calls_per_batch"],
                              seed=baseline["seed"], shard=0))
    assert result.executed == expected
