"""Host-speed calibration for absolute throughput gates.

Raw calls/sec comparisons against a recorded baseline conflate two
things: how fast the code is and how fast the host happens to be while
measuring.  On shared containers the second term swings by tens of
percent minute to minute, which makes a tight absolute gate (2.5x the
recorded seed) either flaky or toothless.

The fix is a *reference workload* whose code never changes between
measurements: the pure-Python backend driving the relay topology.
``benchmarks/baselines/load_seed.json`` records the best-window rate
that exact workload achieved on the baseline host
(``python_reference_calls_per_sec_best_window``); measuring it again
on the current host, moments before the gated measurement, yields a
host-speed ratio (:func:`repro.tools.bench.host_calibration`) that
rescales the gate to baseline-host terms.

The probe runs in a child interpreter because the backend is chosen
once at import time — the calling process is usually pinned to
``REPRO_BACKEND=compiled``, and the reference must be the unchanged
pure-Python engine.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Dict, Optional

from ..tools.bench import host_calibration, load_baseline

__all__ = ["measure_python_reference", "host_calibration_record",
           "BASELINE_PATH", "PROBE_CALLS", "PROBE_REPEATS"]

# The recorded seed baseline lives at the repo root (the package runs
# from a src/ layout), so anchor the lookup to this file, not the CWD.
BASELINE_PATH = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "..",
    "benchmarks", "baselines", "load_seed.json"))

#: Probe sizing: mirrors the load gate's own statistic (best 50-call
#: window over a few hundred calls, best of three runs) so probe and
#: gated measurement see the same steady state.
PROBE_CALLS = 300
PROBE_REPEATS = 3

_PROBE_CODE = """\
from repro.load.harness import LoadJob, _run_job
from repro.load.topologies import RELAY

best = 0.0
for _ in range(%d):
    result = _run_job(LoadJob(app=RELAY, calls=%d, seed=0, shard=0))
    rate = result.best_window_rate
    if rate and rate > best:
        best = rate
print(best)
"""


def measure_python_reference(calls: int = PROBE_CALLS,
                             repeats: int = PROBE_REPEATS
                             ) -> Optional[float]:
    """Best-window calls/sec of the pure-Python reference workload on
    *this* host, right now.  ``None`` when the probe fails (the caller
    then skips calibration rather than gating on garbage)."""
    env = dict(os.environ)
    env["REPRO_BACKEND"] = "python"
    src = os.path.normpath(os.path.join(
        os.path.dirname(__file__), "..", ".."))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE_CODE % (repeats, calls)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    try:
        rate = float(proc.stdout.strip())
    except ValueError:
        return None
    return rate if rate > 0 else None


def host_calibration_record() -> Dict[str, Optional[float]]:
    """The block a ``BENCH_*.json`` carries beside raw wall times: the
    reference workload's recorded and just-measured rates and their
    ratio (> 1: this host is faster than the reference host, so wall
    times recorded here read low by that factor)."""
    reference = load_baseline(BASELINE_PATH).get(
        "python_reference_calls_per_sec_best_window")
    measured = measure_python_reference()
    return {
        "python_reference_calls_per_sec_best_window": reference,
        "python_measured_calls_per_sec_best_window": measured,
        "ratio": host_calibration(measured, reference),
    }
