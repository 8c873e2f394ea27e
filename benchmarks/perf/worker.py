"""One slice of one workload, in a fresh interpreter.

``run.py`` starts this with ``REPRO_BACKEND`` and ``PYTHONPATH`` set and
reads one JSON document from the last line of stdout.  The slice:
set-up (import, backend check, optional tracer install, topology build,
warm-up) -> measured phase of ``--seconds`` -> result.  Stamps are
``time.perf_counter()`` (CLOCK_MONOTONIC, system-wide on Linux), so the
parent computes set-up time as ``measure_start`` minus its own spawn
stamp, interpreter start-up included.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

import catalog
import measure
import spans


def backend_problem(name: str) -> Optional[str]:
    """Why this process must not measure ``name``, or ``None``."""
    from repro.network import backend
    wanted = catalog.WORKLOADS[name]["backend"]
    got = backend.describe()["backend"]
    if got != wanted:
        return ("workload %s needs the %s backend but this process runs %s"
                % (name, wanted, got))
    return None


def run_sim(name: str, seed: int, seconds: float, trace: bool,
            spans_out: Optional[str]) -> Dict[str, Any]:
    problem = backend_problem(name)
    if problem is not None:
        return measure.failed_slice(name, problem)
    tracer: Optional[spans.Tracer] = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    import workloads
    from repro.network import backend

    workload = workloads.make(name, seed)
    if tracer is not None:
        workload.call = tracer.wrap(workload.call, "client.call",
                                    spans.CLIENT, new_call=True)

    # Warm-up: at least ``WARMUP_S`` seconds and at least the windows the
    # exact counters are defined over (the first K calls of a seed do
    # identical work in every run, so counts over them repeat exactly).
    counters: Dict[str, float] = {}
    span_counts: Dict[str, int] = {}
    span_entries: Dict[str, int] = {}
    extra_counts: Dict[str, float] = {}
    done = 0
    warm_end = perf_counter() + catalog.WARMUP_S
    while done < workload.count_windows or perf_counter() < warm_end:
        workload.window()
        done += 1
        if done == workload.count_windows:
            counters = workload.counters()
            if tracer is not None:
                span_counts = tracer.counts()
                span_entries = tracer.entries()
                extra_counts = dict(tracer.extra)
    raw = tracer.raw_spans() if tracer is not None else []
    if tracer is not None:
        tracer.keep_calls = 0
        tracer.reset()

    elapsed: List[float] = []
    cpu_per_window: List[float] = []
    verified_per_window: List[int] = []
    class_per_window: List[int] = []
    samples: List[List[float]] = []
    failures: List[str] = []
    calls_before = workload.calls
    degraded_before = workload.degraded
    cpu0 = process_time()
    steal0 = measure.host_steal_seconds()
    start = perf_counter()
    deadline = start + seconds
    try:
        while True:
            c0 = process_time()
            w0 = perf_counter()
            verified, window_samples, problems = workload.window()
            w1 = perf_counter()
            cpu_per_window.append(process_time() - c0)
            elapsed.append(w1 - w0)
            verified_per_window.append(verified)
            class_per_window.append(workload.klass)
            samples.append(window_samples)
            failures.extend(problems[:5])
            if w1 >= deadline:
                break
    except Exception as exc:  # noqa: BLE001 - the engine under test broke
        failures.append("crashed: %s: %s" % (type(exc).__name__, exc))
    end = perf_counter()
    cpu1 = process_time()

    attempted = max(workload.calls - calls_before, 1)
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "backend": backend.describe(),
        "measure_start": start, "measure_wall_s": end - start,
        "cpu_s": {"worker": cpu1 - cpu0},
        "steal_s": measure.host_steal_seconds() - steal0,
        "peak_rss_kb": {"worker": measure.self_peak_rss_kb()},
        "attempted": attempted,
        "verified": sum(verified_per_window),
        "degraded": workload.degraded - degraded_before,
        "failures": failures[:20],
        "elapsed": elapsed, "cpu_per_window": cpu_per_window,
        "verified_per_window": verified_per_window,
        "class_per_window": class_per_window, "samples": samples,
        "counters": counters,
    }
    if tracer is not None:
        result["trace"] = {"worker": tracer.report()}
        result["span_counts"] = span_counts
        result["span_entries"] = span_entries
        result["extra_counts"] = extra_counts
        if spans_out:
            with open(spans_out, "w") as fh:
                json.dump({"workload": name, "seed": seed,
                           "clock": "perf_counter seconds",
                           "processes": {"worker": raw}}, fh)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans-out", default=None,
                        help="write the raw spans of the first calls here")
    args = parser.parse_args(argv)
    if args.workload == "live":
        import live
        result = live.run_slice(args.seed, args.seconds, catalog.WARMUP_S,
                                bool(args.trace), args.spans_out)
    else:
        result = run_sim(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
