"""The ``live`` workload: ``POST /call`` -> ``flowing`` across three OS
processes on loopback.

* callee  — ``live_node.py callee`` (= ``repro serve --name devside
  --device bob --no-http --no-probe``);
* gateway — ``live_node.py gateway`` (``LiveNode("boxside")`` +
  ``Gateway`` with a limiter that never refuses);
* client  — this process: a closed-loop HTTP/1.1 client with two
  connections (= ``nproc``), one ``POST /call`` per connection at a
  time.  The gateway answers ``Connection: close``, so every call also
  pays one loopback TCP connect; the latency sample runs from the first
  request byte written to the response body fully read.

Loopback only: no real link is crossed, so the numbers say nothing
about wire latency.  Every wait has a timeout and both children are
reaped in ``finally``.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

import live_node
import measure
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

CONNECTIONS = 2
WINDOW_CALLS = 20
#: The request the issue fixes; ``timeout`` is the gateway's own wait.
BODY = json.dumps({"to": "%s@%s" % (live_node.CALLEE_DEVICE,
                                    live_node.CALLEE_NODE),
                   "timeout": 5, "udp": 0}).encode("utf-8")
#: Client-side cap per request: above the gateway's 5 s so a dead callee
#: shows as the gateway's 502/504, below anything that could hang a run.
REQUEST_TIMEOUT = 8.0
READY_TIMEOUT = 20.0
EXIT_TIMEOUT = 10.0

#: One finished request: (end stamp, latency s, problem or None, body).
Record = Tuple[float, float, Optional[str], Any]
Hook = Callable[[subprocess.Popen, subprocess.Popen], None]


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
async def request(host: str, port: int, method: str, path: str,
                  body: bytes = b"") -> Tuple[float, int, Any]:
    """One request on a fresh connection -> (latency, status, json)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = ["%s %s HTTP/1.1" % (method, path),
                "Host: %s:%d" % (host, port), "Connection: close"]
        if body:
            head += ["Content-Type: application/json",
                     "Content-Length: %d" % len(body)]
        t0 = perf_counter()
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = (await reader.readline()).strip()
            if not line:
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        raw = await reader.readexactly(length)
        latency = perf_counter() - t0
        return latency, status, json.loads(raw) if raw else None
    finally:
        writer.close()


def call_problem(status: int, reply: Any) -> Optional[str]:
    """Outcome check of one ``POST /call`` (semantic end state only).

    An empty ``codec`` on one reply is not a failure: the gateway
    replies as soon as the caller's slot is ``flowing`` (the ``oack``
    landed) and on a busy host the ``select`` that names the codec can
    still be in flight.  Such replies are counted (``no_codec``), and a
    slice in which *no* reply carried a codec fails its end-state check:
    a race loses sometimes, never always.
    """
    if status != 200 or not isinstance(reply, dict):
        return "HTTP %d %s" % (status, str(reply)[:120])
    if reply.get("state") != "flowing":
        return "state %r" % reply.get("state")
    return None


async def one_call(host: str, port: int) -> Record:
    try:
        latency, status, reply = await asyncio.wait_for(
            request(host, port, "POST", "/call", BODY), REQUEST_TIMEOUT)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
            ValueError, IndexError) as exc:
        return perf_counter(), 0.0, "%s: %s" % (type(exc).__name__, exc), None
    return perf_counter(), latency, call_problem(status, reply), reply


async def closed_loop(call: Callable[[], Any], until: float
                      ) -> List[Record]:
    """``CONNECTIONS`` clients, each issuing its next call only after the
    previous one completed, until the clock passes ``until``.  Records
    come back in completion order."""
    records: List[Record] = []

    async def client() -> None:
        while perf_counter() < until:
            records.append(await call())
    await asyncio.gather(*[client() for _ in range(CONNECTIONS)])
    return records


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def spawn(role: str, tag: str, seed: int, trace: bool,
          extra: List[str]) -> Tuple[subprocess.Popen, str]:
    stats_path = os.path.join(OUT, "live-%s-%s.json" % (tag, role))
    # stderr is inherited: whatever a child complains about lands in the
    # worker's stderr, which run.py quotes when the slice fails.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "live_node.py"), role,
         "--seed", str(seed), "--trace", str(int(trace)),
         "--stats-out", stats_path] + extra,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONUNBUFFERED="1"))
    return proc, stats_path


def ready_fields(proc: subprocess.Popen, role: str) -> Dict[str, str]:
    """Parse the child's ``READY k=v ...`` line, or raise."""
    assert proc.stdout is not None
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT)
    line = proc.stdout.readline().decode() if readable else ""
    if not line.startswith("READY"):
        raise RuntimeError("%s did not come up (exit %s, said %r)"
                           % (role, proc.poll(), line.strip()))
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def reap(proc: subprocess.Popen) -> Optional[int]:
    """SIGTERM, wait, SIGKILL if needed; the exit code (None = killed)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code: Optional[int] = proc.wait(EXIT_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    if proc.stdout is not None:
        proc.stdout.close()
    return code


def read_stats(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


# ----------------------------------------------------------------------
# the slice
# ----------------------------------------------------------------------
def cut_windows(records: List[Record], start: float) -> Dict[str, Any]:
    """Group completions, in completion order, into windows of
    ``WINDOW_CALLS``; a trailing partial window is not a window."""
    elapsed: List[float] = []
    verified: List[int] = []
    samples: List[List[float]] = []
    edge = start
    for i in range(0, len(records) - WINDOW_CALLS + 1, WINDOW_CALLS):
        group = records[i:i + WINDOW_CALLS]
        good = [r[1] for r in group if r[2] is None]
        elapsed.append(group[-1][0] - edge)
        verified.append(len(good))
        samples.append(good)
        edge = group[-1][0]
    return {"elapsed": elapsed, "verified_per_window": verified,
            "samples": samples}


def run_slice(seed: int, seconds: float, warmup: float, trace: bool,
              spans_out: Optional[str], hook: Optional[Hook] = None
              ) -> Dict[str, Any]:
    """One measured slice.  ``hook(callee, gateway)`` runs at the start
    of the measured phase (the self-test kills the callee from it)."""
    os.makedirs(OUT, exist_ok=True)
    tag = "%d-%d" % (seed, os.getpid())
    tracer = spans.Tracer() if trace else None
    callee = gateway = None
    failures: List[str] = []
    codes: Dict[str, Optional[int]] = {}
    try:
        callee, callee_stats = spawn("callee", tag, seed, trace, [])
        listen = ready_fields(callee, "callee")["listen"]
        gateway, gateway_stats = spawn("gateway", tag, seed, trace,
                                       ["--peer", listen])
        host, _, port_text = ready_fields(gateway, "gateway")[
            "http"].rpartition(":")
        port = int(port_text)
        result = asyncio.run(_drive(
            host, port, seconds, warmup, tracer, failures,
            callee, gateway, hook))
    except (RuntimeError, OSError, asyncio.TimeoutError) as exc:
        return measure.failed_slice("live", "%s: %s"
                                    % (type(exc).__name__, exc))
    finally:
        for role, proc in (("gateway", gateway), ("callee", callee)):
            if proc is not None:
                codes[role] = reap(proc)
    # Lifecycle check two of two (see _drive for the first): a codec
    # was negotiated, nothing is left behind and both children exit 0
    # on SIGTERM.
    unclean = {r: c for r, c in codes.items() if c != 0}
    if unclean:
        failures.append("unclean shutdown: exits %r" % (unclean,))
    if not result.pop("bad_end_state") and not unclean:
        result["verified"] += 1
    result["attempted"] += 1
    result["seed"] = seed
    result["failures"] = failures[:20]
    stats = {"gateway": read_stats(gateway_stats),
             "callee": read_stats(callee_stats)}
    result["backend"] = stats["gateway"].get("backend", {})
    result["live"] = {role: {k: v for k, v in s.items()
                             if k not in ("trace", "raw")}
                      for role, s in stats.items()}
    if tracer is not None:
        result["trace"] = {"client": tracer.report()}
        raws = {"client": tracer.raw_spans()}
        for role, s in stats.items():
            if "trace" in s:
                result["trace"][role] = s["trace"]
                raws[role] = s["raw"]
        if spans_out:
            with open(spans_out, "w") as fh:
                json.dump({"workload": "live", "seed": seed,
                           "clock": "perf_counter seconds (CLOCK_MONOTONIC:"
                                    " comparable across the processes)",
                           "processes": raws}, fh)
    for path in (gateway_stats, callee_stats):
        try:
            os.unlink(path)
        except OSError:
            pass
    return result


async def _drive(host: str, port: int, seconds: float, warmup: float,
                 tracer: Optional[spans.Tracer], failures: List[str],
                 callee: subprocess.Popen, gateway: subprocess.Popen,
                 hook: Optional[Hook]) -> Dict[str, Any]:
    # Set-up: wait for the gateway's dial to the callee to come up.
    deadline = perf_counter() + READY_TIMEOUT
    while True:
        _, _, health = await asyncio.wait_for(
            request(host, port, "GET", "/healthz"), REQUEST_TIMEOUT)
        if health["peers"].get(live_node.CALLEE_NODE) == "up":
            break
        if perf_counter() > deadline:
            raise RuntimeError("gateway never reached the callee")
        await asyncio.sleep(0.01)

    call_fn = one_call if tracer is None else tracer.wrap(
        one_call, "client.call", spans.CLIENT, new_call=True)

    def call() -> Any:
        return call_fn(host, port)

    # Lifecycle check one of two: the first call of this gateway process
    # must match the simulator's reference journal byte for byte (later
    # calls legitimately mint new descriptor versions).  Judged only on a
    # complete reply: with no codec yet the journal is still growing, so
    # the check cannot run; ``parity_checked`` says whether it did.
    attempted = 1
    verified = 0
    _, _, problem, reply = await call()
    parity_checked = problem is None and bool(reply.get("codec"))
    if parity_checked and reply.get("parity") is not True:
        problem = "first call lost sim parity"
    if problem is None:
        verified += 1
    else:
        failures.append("first call: " + problem)

    await closed_loop(call, perf_counter() + warmup)

    pids = {"gateway": gateway.pid, "callee": callee.pid}
    last_cpu: Dict[str, float] = {}

    def cpu_by_role() -> Dict[str, float]:
        last_cpu["client"] = process_time()
        for role, pid in pids.items():
            try:
                last_cpu[role] = measure.proc_cpu_seconds(pid)
            except OSError:  # the child is gone: it burns nothing more
                pass
        return dict(last_cpu)

    cpu0 = cpu_by_role()
    steal0 = measure.host_steal_seconds()
    start = perf_counter()
    if hook is not None:
        hook(callee, gateway)
    records = await closed_loop(call, start + seconds)
    end = perf_counter()
    cpu_s = {role: value - cpu0[role]
             for role, value in cpu_by_role().items()}
    rss = {"client": measure.self_peak_rss_kb()}
    for role, pid in pids.items():
        try:
            rss[role] = measure.proc_peak_rss_kb(pid)
        except OSError:  # negative control: the callee was killed
            failures.append("%s exited during the slice" % role)

    bad_end_state = True
    try:
        _, _, health = await asyncio.wait_for(
            request(host, port, "GET", "/healthz"), REQUEST_TIMEOUT)
        bad_end_state = bool(health["channels"])
        if bad_end_state:
            failures.append("channels left after the slice: %s"
                            % sorted(health["channels"])[:3])
    except (OSError, asyncio.TimeoutError, ValueError, KeyError) as exc:
        failures.append("healthz after the slice: %r" % (exc,))

    good = [r for r in records if r[2] is None]
    no_codec = sum(1 for r in good if not r[3].get("codec"))
    if good and no_codec == len(good):
        bad_end_state = True
        failures.append("no codec on any of %d flowing replies" % no_codec)
    failures.extend(r[2] for r in records[:200] if r[2] is not None)
    result = cut_windows(records, start)
    result.update({
        "workload": "live", "measure_start": start,
        "measure_wall_s": end - start, "cpu_s": cpu_s, "peak_rss_kb": rss,
        "steal_s": measure.host_steal_seconds() - steal0,
        "attempted": attempted + len(records),
        "verified": verified + len(good),
        "replies": len(good), "no_codec": no_codec,
        "parity_checked": parity_checked,
        "counters": {}, "bad_end_state": bad_end_state,
    })
    return result
