#!/usr/bin/env python3
"""The repository's benchmark: six workloads, end to end and per layer.

    python3 benchmarks/perf/run.py [--seed N] [--seconds S]
        [--workload NAME]... [--trace [0|1]] [--json PATH] [--aa]

Without ``--workload`` all six run, their slices interleaved round-robin
so a slow minute on the host is spread over all of them.  With exactly
one ``--workload`` the last line of stdout is the driver's result object
(``correct``/``attempted``/``failed``/``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every slice is a fresh child process (``REPRO_BACKEND`` is read once at
import).  This process never imports ``repro``.  See README.md beside
this file for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import kernels  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
from spans import COUNT, ENTRY_TOTAL, SELF, TOTAL  # noqa: E402

#: A slice may not outlive this (the live client's own waits are far
#: shorter; this is the backstop that keeps a hung child from hanging
#: the run).
SLICE_TIMEOUT_S = 120.0

#: Share of a traced run spent on the untraced slice that gives
#: ``trace.overhead_ratio`` its numerator.
UNTRACED_SHARE = 0.3

Slice = Dict[str, Any]


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def child_env(backend: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["REPRO_BACKEND"] = backend
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def build_backend() -> float:
    """Build ``_ccore`` through the repository's own script when stale;
    seconds spent (it returns at once when the artifact is current)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, os.path.join(ROOT, "tools",
                                                 "build_backend.py"),
                    "--quiet"], check=True, timeout=600)
    return perf_counter() - t0


def run_slice(name: str, seed: int, seconds: float, trace: bool,
              spans_out: Optional[str] = None) -> Slice:
    """One worker child; its result with ``setup_s`` filled in."""
    backend = str(catalog.WORKLOADS[name]["backend"])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace))]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawned = perf_counter()
    try:
        done = subprocess.run(cmd, env=child_env(backend), timeout=SLICE_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        lines = done.stdout.decode().strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError("worker exited %d: %s" % (
                done.returncode, done.stderr.decode()[-400:]))
        result: Slice = json.loads(lines[-1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        result = measure.failed_slice(name, "%s: %s"
                                      % (type(exc).__name__, exc))
    result["traced"] = trace
    if "measure_start" in result:
        result["setup_s"] = result["measure_start"] - spawned
    return result


def run_kernels() -> Dict[str, float]:
    done = subprocess.run([sys.executable, os.path.join(HERE, "kernels.py")],
                          env=child_env("python"), timeout=SLICE_TIMEOUT_S,
                          stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


# ----------------------------------------------------------------------
# reduction: slices -> metrics
# ----------------------------------------------------------------------
def pooled_windows(slices: Sequence[Slice]) -> List[measure.Window]:
    return [measure.Window(e, v, s, c, k)
            for sl in slices
            for e, v, s, c, k in zip(
                sl["elapsed"], sl["verified_per_window"], sl["samples"],
                sl.get("cpu_per_window") or [0.0] * len(sl["elapsed"]),
                sl.get("class_per_window") or [0] * len(sl["elapsed"]))]


def slice_failed(sl: Slice) -> int:
    """Calls of a slice that failed.  A *degraded* call (lossy_c: the
    slot cleanly gave up, within the workload's tolerance) is neither
    verified nor failed."""
    return sl["attempted"] - sl["verified"] - sl.get("degraded", 0)


def notes(slices: Sequence[Slice]) -> List[str]:
    """Checks that passed without running in full, said out loud."""
    out: List[str] = []
    degraded = sum(sl.get("degraded", 0) for sl in slices)
    if degraded:
        out.append("%d calls gave up cleanly (noMedia): not verified, "
                   "not failed" % degraded)
    checked = [sl["parity_checked"] for sl in slices
               if "parity_checked" in sl]
    if checked:
        out.append("first-call parity judged in %d of %d slices; %d of %d "
                   "flowing replies came before their codec"
                   % (sum(checked), len(checked),
                      sum(sl.get("no_codec", 0) for sl in slices),
                      sum(sl.get("replies", 0) for sl in slices)))
    return out


def end_to_end(name: str, slices: Sequence[Slice],
               build_s: float) -> Dict[str, Any]:
    """The end-to-end metrics of one workload from its untraced slices."""
    tail_p = float(catalog.WORKLOADS[name]["tail_p"])  # type: ignore[arg-type]
    stats = measure.summarize(pooled_windows(slices), tail_p)
    attempted = sum(sl["attempted"] for sl in slices)
    failed = sum(slice_failed(sl) for sl in slices)
    measured = [sl for sl in slices if "cpu_s" in sl]
    cpu_us = stats["cpu_us_per_call"]
    if name == "live":
        # Three processes own the work and wall time is wait-bound, so no
        # window is "quiet" by its rate: whole measured phase of a slice,
        # all processes, over its verified calls; the cheapest slice,
        # because a busy host inflates CPU per call for seconds at a time.
        cpu_us = min((sum(sl["cpu_s"].values()) / sl["verified"] * 1e6
                      for sl in measured if sl["verified"]), default=0.0)
    # The first slice of a compiled workload also paid for the build.
    setups = [sl["setup_s"] + (build_s if i == 0 else 0.0)
              for i, sl in enumerate(slices) if "setup_s" in sl]
    rss = [sum(sl["peak_rss_kb"].values()) / 1024.0 for sl in measured]
    failures = [f for sl in slices for f in sl["failures"]]
    return {
        "metrics": {
            "calls_per_s": stats["calls_per_s"],
            "call_p50_ms": stats["call_p50_ms"],
            "call_tail_ms": stats["call_tail_ms"],
            "cpu_us_per_call": cpu_us,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
        },
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:10],
        "notes": notes(slices),
        "stats": {k: v for k, v in stats.items()
                  if k not in ("calls_per_s", "call_p50_ms", "call_tail_ms",
                               "cpu_us_per_call")},
        "setup_s_per_slice": setups,
        "backend": next((sl["backend"] for sl in slices
                         if "backend" in sl), {}),
    }


def per_layer(name: str, untraced: Slice, traced: Slice,
              kernel_ns: Dict[str, float], ref_ratio: float
              ) -> Dict[str, float]:
    """Every per-layer metric of one workload.  ``traced`` ran with the
    span wrappers installed; ``untraced`` ran just before it and gives
    the overhead ratio and the undistorted CPU split."""
    out = {metric: 0.0 for metric, _, _ in catalog.PER_LAYER}
    out["host.ref_ratio"] = ref_ratio
    for key in out:
        if key in kernel_ns:
            out[key] = kernel_ns[key]
    if "trace" not in traced:
        return out
    report = spans.merge_reports(list(traced["trace"].values()))
    rows = report["spans"]
    layers = spans.layer_rows(report)
    live = name == "live"
    compiled = catalog.WORKLOADS[name]["backend"] == "compiled"

    def row(span: str) -> List[float]:
        return rows.get(span, [0, 0.0, 0.0, 0, 0.0])

    def layer(which: str) -> List[float]:
        return layers.get(which, [0, 0.0, 0.0, 0, 0.0])

    # Times are per call of the traced measured phase (live: of the
    # gateway's whole life, its aggregates are never reset).  Counts are
    # over the first K calls of the seed, which repeat exactly.
    if live:
        calls = float(traced["live"]["gateway"].get("calls") or 1)
        counted = calls
        counters = {
            "events": sum(traced["live"][r].get("events", 0)
                          for r in ("gateway", "callee")),
            "sim_s": traced["live"]["gateway"].get("sim_s", 0.0)}
        counts = {n: r[COUNT] for n, r in rows.items()}
        entries = {n: r[spans.ENTRIES] for n, r in rows.items()}
        extra = report["extra"]
    else:
        calls = float(traced["attempted"])
        counters = traced["counters"]
        counted = float(counters.get("calls") or 1)
        counts = traced["span_counts"]
        entries = traced["span_entries"]
        extra = traced["extra_counts"]

    def us(seconds: float) -> float:
        return seconds / calls * 1e6

    def entries_into(which: str) -> float:
        return sum(v for n, v in entries.items()
                   if report["layer_of"].get(n) == which) / counted

    out["eventloop.events_per_call"] = counters.get("events", 0) / counted
    out["eventloop.sim_ms_per_call"] = \
        counters.get("sim_s", 0.0) / counted * 1e3
    # Under the compiled backend the untimed drain *is* the C core: the
    # self time of the spans that enclose it is time inside C.
    drain = (row("EventLoop.run")[SELF]
             + row("EventLoop.run_until_quiescent")[SELF])
    loop_self = layer("eventloop")[SELF]
    if compiled:
        out["ccore.self_us_per_call"] = us(drain)
        out["ccore.upcalls_per_call"] = \
            extra.get("eventloop.dispatches", 0) / counted
        loop_self -= drain
    out["eventloop.self_us_per_call"] = us(loop_self)
    out["transport.transmits_per_call"] = counters.get(
        "transmits", counts.get("LinkEnd.send", 0)
        + counts.get("Link.transmit", 0)) / counted
    out["transport.bp_deferred_per_call"] = \
        counters.get("bp_deferred", 0) / counted
    out["slot.signals_per_call"] = counters.get(
        "signals", counts.get("Slot._transmit", 0)) / counted
    py_receives = sum(v for n, v in counts.items()
                      if n.startswith("Slot._recv_"))
    received = counters.get("received", counts.get("Slot.receive", 0))
    out["slot.py_receives_per_call"] = py_receives / counted
    # Over the untraced slice's whole measured phase, not the first K
    # calls: a give-up is rarer than one in K.
    out["slot.gave_up_per_call"] = \
        untraced.get("degraded", 0) / float(untraced.get("attempted") or 1)
    out["slot.py_receive_share"] = py_receives / received if received else 0.0
    for which in ("transport", "slot", "channel", "goals", "program",
                  "media", "tcp"):
        out["%s.self_us_per_call" % which] = us(layer(which)[SELF])
    out["goals.upcalls_per_call"] = entries_into("goals")
    out["media.upcalls_per_call"] = entries_into("media")
    out["program.steps_per_call"] = counts.get("Program._fire", 0) / counted
    out["topology.build_us_per_call"] = us(layer("topology")[ENTRY_TOTAL])
    out["admission.refused_per_call"] = counters.get("refused", 0) / counted
    out["admission.shed_share"] = counters.get("shed", 0) / counted

    served = row("Gateway._serve_one")[TOTAL]
    placed = row("Gateway.place_call")[TOTAL]
    reference = row("journal.reference_fingerprint")
    out["gateway.http_us_per_call"] = us(served - placed)
    out["gateway.place_call_us_per_call"] = us(placed)
    out["gateway.reference_us_per_call"] = us(reference[TOTAL])
    hung_up = row("Gateway.hang_up")[TOTAL]
    out["gateway.hangup_us_per_call"] = us(hung_up)
    waits = row("LiveNode.wait_for")
    out["tcp.wait_us_per_call"] = us(waits[TOTAL])
    out["tcp.wait_polls_per_call"] = (
        extra.get("wait_for.predicate_evals", 0) - waits[COUNT]) / calls
    opened = row("LiveNode.open_live")[TOTAL]
    out["tcp.open_live_us_per_call"] = us(opened)
    # What place_call does besides those four: the local caller--box
    # leg, flow_link, caller.open, assembling the reply.
    out["gateway.call_setup_us_per_call"] = us(
        placed - opened - waits[TOTAL] - reference[TOTAL] - hung_up)
    out["wire.encode_us_per_call"] = us(sum(
        row("wire.%s" % n)[SELF] for n in ("encode_frame", "encode_sig_frame",
                                           "encode_envelope", "frame")))
    out["wire.decode_us_per_call"] = us(
        row("wire.decode_frame")[SELF] + row("FrameAssembler.feed")[SELF])
    frames = row("wire.frame")[COUNT]
    out["wire.frames_per_call"] = frames / calls
    out["wire.bytes_per_call"] = \
        (extra.get("wire.bytes", 0) + 4 * frames) / calls
    out["seam.inject_us_per_call"] = us(layer("seam")[SELF])
    # Engine time outside the gateway's per-call reference replay (which
    # is engine work too, but is already its own metric).
    engine = sum(layer(w)[SELF] for w in spans.ENGINE_LAYERS)
    out["engine.us_per_call"] = us(engine
                                   - (reference[TOTAL] - reference[SELF]))

    client = row("client.call")
    call_us = client[TOTAL] / calls * 1e6
    out["trace.call_us"] = call_us
    if live:
        out["client.http_us_per_call"] = us(client[TOTAL] - served)
        out["client.self_us_per_call"] = out["client.http_us_per_call"]
        gw = traced["live"]["gateway"]
        out["gateway.net_channels_per_call"] = \
            gw.get("net_channels", 0) / float(gw.get("calls") or 1)
        measured = float(untraced.get("verified") or 1)
        out["gateway.no_codec_share"] = \
            untraced.get("no_codec", 0) / float(untraced.get("replies") or 1)
        for role in ("gateway", "callee"):
            out["%s.cpu_us_per_call" % role] = \
                untraced.get("cpu_s", {}).get(role, 0.0) / measured * 1e6
        # On live the call is a chain of waits across processes, so the
        # sum runs over the wall-time parts of that chain, not over
        # layer self times (which overlap between tasks and processes).
        explained = sum(out[m] for m in (
            "client.http_us_per_call", "gateway.http_us_per_call",
            "gateway.call_setup_us_per_call", "tcp.open_live_us_per_call",
            "tcp.wait_us_per_call", "gateway.reference_us_per_call",
            "gateway.hangup_us_per_call"))
    else:
        out["client.self_us_per_call"] = us(client[SELF])
        explained = us(sum(layer(w)[SELF] for w in layers))
    out["trace.self_sum_ratio"] = explained / call_us if call_us else 0.0

    plain = measure.summarize(pooled_windows([untraced]), 50.0)
    traced_rate = measure.summarize(pooled_windows([traced]), 50.0)[
        "calls_per_s"]
    out["trace.overhead_ratio"] = \
        plain["calls_per_s"] / traced_rate if traced_rate else 0.0
    # How much of the untraced slice ran undisturbed.  A change that adds
    # periodic pauses to the program lowers this while the quiet-window
    # rate stays put, so read the two together.
    out["host.quiet_window_share"] = \
        plain["windows_quiet"] / plain["windows"] if plain["windows"] else 0.0
    return out


def steal_share(slices: Sequence[Slice]) -> float:
    """CPU the hypervisor withheld during the measured phases, as a
    share of their wall time: the plainest sign that a run's numbers are
    the host's, not the program's."""
    wall = sum(sl.get("measure_wall_s", 0.0) for sl in slices)
    return sum(sl.get("steal_s", 0.0) for sl in slices) / wall if wall else 0.0


# ----------------------------------------------------------------------
# one full set
# ----------------------------------------------------------------------
def host_facts() -> Dict[str, Any]:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        pass  # an exported checkout is not a git repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": commit,
            "network": "loopback only"}


def run_set(names: Sequence[str], seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Run ``names`` once each (slices interleaved) and reduce."""
    os.makedirs(OUT, exist_ok=True)
    needs_c = any(catalog.WORKLOADS[n]["backend"] == "compiled"
                  for n in names)
    build_s = build_backend() if needs_c else 0.0
    if trace:
        plan = [(False, seconds * UNTRACED_SHARE),
                (True, seconds * (1.0 - UNTRACED_SHARE))]
        kernel_ns = run_kernels()
    else:
        plan = [(False, seconds / catalog.SLICES)] * catalog.SLICES
        kernel_ns = {}
    slices: Dict[str, List[Slice]] = {n: [] for n in names}
    ref_ns: List[float] = []
    for traced, slice_seconds in plan:
        for name in names:
            ref_ns.append(kernels.host_ref_ns())
            spans_out = os.path.join(OUT, "trace-%s.json" % name) \
                if traced else None
            slices[name].append(run_slice(name, seed, slice_seconds,
                                          traced, spans_out))
    ref_ratio = statistics.median(ref_ns) / kernels.HOST_REF_NS

    workloads: Dict[str, Any] = {}
    for name in names:
        plain = [sl for sl in slices[name] if not sl["traced"]]
        compiled = catalog.WORKLOADS[name]["backend"] == "compiled"
        entry = end_to_end(name, plain, build_s if compiled else 0.0)
        entry["host_ref_ratio"] = ref_ratio
        entry["host_steal_share"] = steal_share(plain)
        if trace:
            entry["per_layer"] = per_layer(name, plain[0], slices[name][-1],
                                           kernel_ns, ref_ratio)
            entry["per_layer"]["host.steal_share"] = entry["host_steal_share"]
            # A failure in the traced slice is a failure of the run.
            traced_slice = slices[name][-1]
            entry["attempted"] += traced_slice["attempted"]
            entry["failed"] += slice_failed(traced_slice)
            entry["fail_ratio"] = entry["failed"] / entry["attempted"]
            entry["failures"] = (entry["failures"]
                                 + traced_slice["failures"])[:10]
            entry["notes"] = notes(slices[name])
            entry["trace_missing"] = sorted(
                {m for rep in traced_slice.get("trace", {}).values()
                 for m in rep["missing"]})
        workloads[name] = entry
    return {"schema": 1, "seed": seed, "seconds": seconds, "traced": trace,
            "host": host_facts(), "build_s": build_s,
            "host_ref_ns": statistics.median(ref_ns), "workloads": workloads}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_set(doc: Dict[str, Any]) -> None:
    host = doc["host"]
    print("seed %d, %.0f s per workload, nproc %s, python %s, commit %s, "
          "%s; host.ref_ratio %.2f"
          % (doc["seed"], doc["seconds"], host["nproc"], host["python"],
             host["git_commit"][:12], host["network"],
             doc["host_ref_ns"] / kernels.HOST_REF_NS))
    units = {m: u for m, u, _, _ in catalog.END_TO_END}
    for name, entry in doc["workloads"].items():
        stats = entry["stats"]
        print("\n%s  [%s backend]  fail_ratio %.6f (%d of %d)  "
              "host steal %.1f %%"
              % (name, entry["backend"].get("backend", "?"),
                 entry["fail_ratio"], entry["failed"], entry["attempted"],
                 entry["host_steal_share"] * 100))
        for metric, value in entry["metrics"].items():
            note = ""
            if metric == "call_tail_ms":
                note = "  (p%g of %d samples%s)" % (
                    stats["tail_p"], stats["samples"],
                    "" if stats["tail_supported"]
                    else "; fewer than 10 samples beyond it")
            elif metric == "calls_per_s":
                note = "  (%d quiet windows of %d)" % (
                    stats["windows_quiet"], stats["windows"])
            print("  %-18s %14.4f %-8s%s" % (metric, value, units[metric],
                                             note))
        for failure in entry["failures"][:3]:
            print("  FAILED: %s" % failure)
        for note in entry["notes"]:
            print("  note: %s" % note)
        if "per_layer" in entry:
            layer_units = {m: u for m, u, _ in catalog.PER_LAYER}
            for metric, value in entry["per_layer"].items():
                print("  %-34s %14.4f %s" % (metric, value,
                                             layer_units[metric]))
            if entry["trace_missing"]:
                print("  trace points not found: %s"
                      % ", ".join(entry["trace_missing"]))
    if doc["traced"]:
        print("\nraw spans of the first calls: %s"
              % os.path.join(os.path.relpath(OUT), "trace-<workload>.json"))


def driver_line(doc: Dict[str, Any], name: str) -> str:
    """The one-object result line the driver's contract asks for."""
    entry = doc["workloads"][name]
    if doc["traced"]:
        units = {m: u for m, u, _ in catalog.PER_LAYER}
        values = entry["per_layer"]
    else:
        units = {m: u for m, u, _, _ in catalog.END_TO_END}
        values = entry["metrics"]
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": int(entry["attempted"]),
        "failed": int(entry["failed"]),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in values.items()},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="workloads: " + "; ".join(
            "%s - %s" % (n, w["why"]) for n, w in catalog.WORKLOADS.items()))
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default 20; "
                             "with --trace 5)")
    parser.add_argument("--workload", action="append", default=None,
                        choices=list(catalog.WORKLOADS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full result document here "
                             "(never BENCHMARK.json: that is the contract "
                             "file, generated by catalog.py)")
    parser.add_argument("--aa", action="store_true",
                        help="run two full sets back to back and compare "
                             "them against the bounds (exit 1 if outside)")
    args = parser.parse_args(argv)
    if args.json and os.path.realpath(args.json) == os.path.realpath(
            os.path.join(ROOT, "BENCHMARK.json")):
        parser.error("--json would overwrite the contract file "
                     "BENCHMARK.json; name another path")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("no program to measure: %s is missing" % SRC, file=sys.stderr)
        return 2
    names = args.workload or list(catalog.WORKLOADS)
    seconds = args.seconds or (5.0 if args.trace else 20.0)

    doc = run_set(names, args.seed, seconds, bool(args.trace))
    print_set(doc)
    code = 0
    if args.aa:
        import compare
        second = run_set(names, args.seed, seconds, bool(args.trace))
        print_set(second)
        code = compare.report(doc, second)
        doc = {"A": doc, "B": second}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if len(names) == 1 and not args.aa:
        print(driver_line(doc, names[0]))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
