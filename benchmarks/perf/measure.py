"""Statistics and process accounting shared by every workload.

Nothing here imports ``repro``: the orchestrator (``run.py``) and the
A/A tool use it without loading the program under test.

The end-to-end statistics are chosen from the host-noise study recorded
in README.md.  This shared 2-core container slows down by 1.2-1.6x for
seconds at a time, so whole-run means and percentiles moved 20 % between
identical runs.  What repeats is the speed of the *quiet* moments: a run
is cut into windows of a fixed call count, the windows whose rate is
within 5 % of the fastest window's are kept, and rate, CPU per call,
median and tail are all read off those.  (The fastest *tenth*, which
ISSUE.md proposed, keeps slow windows whenever more than 90 % of a run
was disturbed; see the README for the numbers.)
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, NamedTuple, Optional, Sequence

#: A window is *quiet* when its verified-call rate is at least this
#: share of the fastest window's.
QUIET_SHARE = 0.95

#: A percentile is *supported* when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
BEYOND = 10

_LADDER = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


class Window(NamedTuple):
    """One fixed-size measurement window."""

    elapsed: float          # wall seconds for the whole window
    verified: int           # calls in it that passed the outcome check
    samples: Sequence[float]  # per-call wall seconds (verified calls)
    cpu: float = 0.0        # CPU seconds of the measuring process
    #: Windows of one class do identical work.  Only ``soak`` has more
    #: than one (it cycles through eight seeds whose sessions differ in
    #: cost); "fastest" is only ever judged within a class.
    klass: int = 0


def quiet_windows(windows: Sequence[Window]) -> List[Window]:
    """The windows that ran undisturbed: verified-call rate within
    ``QUIET_SHARE`` of the fastest window's of the same class.  Windows
    with no verified call never qualify."""
    rated = [(w.verified / w.elapsed, w) for w in windows
             if w.verified and w.elapsed > 0]
    best: Dict[int, float] = {}
    for rate, w in rated:
        best[w.klass] = max(rate, best.get(w.klass, 0.0))
    return [w for rate, w in rated if rate >= best[w.klass] * QUIET_SHARE]


def _per_cycle(windows: Sequence[Window], field: str) -> float:
    """Sum over classes of the class's mean ``field``: what one pass
    over every class costs (one class: simply the mean)."""
    by_class: Dict[int, List[float]] = {}
    for w in windows:
        by_class.setdefault(w.klass, []).append(getattr(w, field))
    return sum(sum(values) / len(values) for values in by_class.values())


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    # The epsilon keeps 99.9 % of 1000 at rank 999 despite float drift.
    rank = math.ceil(p * len(ordered) / 100.0 - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def supported_tail(count: int) -> Optional[float]:
    """The highest ladder percentile with at least :data:`BEYOND`
    samples beyond it, or ``None`` when even the median has fewer."""
    for p in _LADDER:
        if count * (100.0 - p) / 100.0 >= BEYOND - 1e-9:  # float drift
            return p
    return None


def summarize(windows: Sequence[Window], tail_p: float) -> Dict[str, object]:
    """Reduce pooled windows to the wall-clock and CPU statistics.

    ``tail_p`` is fixed per workload (not re-chosen per run) so that two
    runs always report the same percentile; ``tail_supported`` says
    whether this run had the ten samples beyond it that make it
    meaningful.
    """
    quiet = quiet_windows(windows)
    if not quiet:
        return {"calls_per_s": 0.0, "call_p50_ms": 0.0, "call_tail_ms": 0.0,
                "cpu_us_per_call": 0.0, "windows": len(windows),
                "windows_quiet": 0, "samples": 0, "tail_p": tail_p,
                "tail_supported": False}
    samples = sorted(s for w in quiet for s in w.samples)
    supported = supported_tail(len(samples))
    calls = _per_cycle(quiet, "verified")
    return {
        "calls_per_s": calls / _per_cycle(quiet, "elapsed"),
        "call_p50_ms": percentile(samples, 50.0) * 1e3,
        "call_tail_ms": percentile(samples, tail_p) * 1e3,
        "cpu_us_per_call": _per_cycle(quiet, "cpu") / calls * 1e6,
        "windows": len(windows),
        "windows_quiet": len(quiet),
        "samples": len(samples),
        "tail_p": tail_p,
        "tail_supported": supported is not None and supported >= tail_p,
    }


def failed_slice(name: str, reason: str) -> Dict[str, object]:
    """The result of a slice that could not measure (wrong backend, a
    child that never came up): its one attempted call failed."""
    return {"workload": name, "error": reason, "attempted": 1,
            "verified": 0, "failures": [reason], "elapsed": [],
            "verified_per_window": [], "samples": []}


# ----------------------------------------------------------------------
# process accounting (Linux /proc; the benchmark is Linux-only because
# cross-process stamps also rely on CLOCK_MONOTONIC being system-wide)
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """On-CPU (user+sys) seconds of another live process: nanosecond
    run time summed over its threads' ``schedstat``; the 10 ms ticks of
    ``/proc/<pid>/stat`` where the kernel keeps no schedstats."""
    base = "/proc/%d/task" % pid
    total_ns = 0
    try:
        for tid in os.listdir(base):
            with open("%s/%s/schedstat" % (base, tid)) as fh:
                total_ns += int(fh.read().split()[0])
    except (FileNotFoundError, IndexError, ValueError):
        total_ns = 0  # no schedstat (or a thread just exited): use ticks
    if total_ns:
        return total_ns / 1e9
    with open("/proc/%d/stat" % pid) as fh:
        # Fields after the parenthesised command name, which may itself
        # contain spaces: utime and stime are the 14th and 15th overall.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of another live process, in kB."""
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM for pid %d" % pid)


def host_steal_seconds() -> float:
    """CPU seconds the hypervisor has withheld from this guest so far
    (the ``steal`` column of ``/proc/stat``; 0 where it is not kept)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def self_peak_rss_kb() -> int:
    # Not ``getrusage().ru_maxrss``: a child starts with its parent's
    # value, so a slice would report the orchestrator's size at fork.
    return proc_peak_rss_kb(os.getpid())
