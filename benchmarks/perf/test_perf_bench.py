"""Self-test of the benchmark itself.  Run explicitly (it is not part of
the tier-1 ``testpaths``; the whole file takes a few minutes because it
smoke-runs every workload)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import compare  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
EXACT = compare.EXACT


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_quiet_windows_are_those_within_five_percent_of_the_fastest():
    windows = [measure.Window(1.00, 10, [0.10] * 10, cpu=1.0),   # 10.0 /s
               measure.Window(1.04, 10, [0.11] * 10, cpu=1.0),   # 9.6: quiet
               measure.Window(1.06, 10, [0.50] * 10, cpu=1.0),   # 9.4: not
               measure.Window(2.00, 10, [0.90] * 10, cpu=1.0)]
    quiet = measure.quiet_windows(windows)
    assert [w.elapsed for w in quiet] == [1.00, 1.04]
    stats = measure.summarize(windows, 90.0)
    assert stats["calls_per_s"] == pytest.approx(20 / 2.04)
    assert stats["windows_quiet"] == 2 and stats["windows"] == 4
    # percentiles come from the quiet windows' calls only
    assert stats["samples"] == 20
    assert stats["call_p50_ms"] == pytest.approx(100.0)
    assert stats["call_tail_ms"] == pytest.approx(110.0)
    # a whole run in a slow phase still reports: its own fastest windows
    slow = [w._replace(elapsed=w.elapsed * 1.5) for w in windows]
    assert measure.summarize(slow, 90.0)["calls_per_s"] == \
        pytest.approx(20 / 2.04 / 1.5)


def test_only_verified_calls_count_towards_the_rate():
    windows = [measure.Window(1.0, 10, [0.1] * 10),
               measure.Window(1.0, 5, [0.1] * 5),    # half failed: 5 /s
               measure.Window(1.0, 0, [])]
    stats = measure.summarize(windows, 50.0)
    assert stats["calls_per_s"] == pytest.approx(10.0)
    assert stats["windows_quiet"] == 1
    assert measure.summarize([windows[2]], 50.0)["calls_per_s"] == 0.0


def test_fastest_is_judged_within_a_class_and_classes_weigh_equally():
    # Two seeds of the soak: class 1 sessions cost 20 % more by content.
    windows = [measure.Window(1.00, 100, [0.0100], cpu=1.00, klass=0),
               measure.Window(1.50, 100, [0.0150], cpu=1.50, klass=0),  # noisy
               measure.Window(1.20, 100, [0.0120], cpu=1.20, klass=1),
               measure.Window(1.22, 100, [0.0122], cpu=1.22, klass=1),
               measure.Window(1.90, 100, [0.0190], cpu=1.90, klass=1)]  # noisy
    quiet = measure.quiet_windows(windows)
    assert [w.elapsed for w in quiet] == [1.00, 1.20, 1.22]
    stats = measure.summarize(windows, 50.0)
    # one pass over both classes: 200 calls in 1.00 + mean(1.20, 1.22)
    assert stats["calls_per_s"] == pytest.approx(200 / 2.21)
    assert stats["cpu_us_per_call"] == pytest.approx(2.21 / 200 * 1e6)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.supported_tail(19) is None
    assert measure.supported_tail(20) == 50.0
    assert measure.supported_tail(100) == 90.0
    assert measure.supported_tail(999) == 95.0
    assert measure.supported_tail(1000) == 99.0
    assert measure.supported_tail(10_000) == 99.9
    few = measure.summarize([measure.Window(1.0, 50, [0.01] * 50)] * 2, 99.0)
    assert few["samples"] == 100 and few["tail_supported"] is False
    assert measure.summarize([measure.Window(1.0, 50, [0.01] * 50)] * 20,
                             99.0)["tail_supported"] is True


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", fake)
    return fake


def test_self_time_is_span_minus_direct_children(clock):
    tracer = spans.Tracer()

    def leaf():
        clock.now += 1.0

    def child_a():
        clock.now += 2.0

    def child_b():
        clock.now += 3.0
        leaf()

    leaf = tracer.wrap(leaf, "leaf", "slot")
    child_a = tracer.wrap(child_a, "child_a", "channel")
    child_b = tracer.wrap(child_b, "child_b", "slot")

    def root():
        clock.now += 1.0
        child_a()
        child_b()
        child_a()

    tracer.wrap(root, "root", spans.CLIENT, new_call=True)()
    agg = tracer.agg
    assert agg["root"][spans.TOTAL] == 9.0
    assert agg["root"][spans.SELF] == 1.0          # 9 - (2 + 4 + 2)
    assert agg["child_a"][spans.COUNT] == 2
    assert agg["child_a"][spans.SELF] == 4.0
    assert agg["child_b"][spans.TOTAL] == 4.0
    assert agg["child_b"][spans.SELF] == 3.0       # grandchild not double
    assert agg["leaf"][spans.SELF] == 1.0
    # leaf is entered from its own layer: no crossing, no entry time.
    assert agg["leaf"][spans.ENTRIES] == 0
    assert agg["child_b"][spans.ENTRIES] == 1
    assert agg["child_b"][spans.ENTRY_TOTAL] == 4.0
    layers = spans.layer_rows(tracer.report())
    assert sum(r[spans.SELF] for r in layers.values()) == 9.0
    raw = {s["name"]: s for s in tracer.raw_spans()}
    assert raw["leaf"]["parent"] == raw["child_b"]["id"]
    assert raw["child_b"]["parent"] == raw["root"]["id"]
    assert {s["call"] for s in tracer.raw_spans()} == {1}


def test_interleaved_coroutines_keep_their_own_children(clock):
    tracer = spans.Tracer()

    def work(seconds):
        clock.now += seconds
    work = tracer.wrap(work, "work", "wire")

    async def request(seconds):
        work(seconds)
        await asyncio.sleep(0)          # the other task runs here
        work(seconds)
        return seconds
    request = tracer.wrap(request, "request", "gateway", new_call=True)

    async def both():
        return await asyncio.gather(request(1.0), request(10.0))

    assert asyncio.run(both()) == [1.0, 10.0]
    assert tracer.agg["work"][spans.COUNT] == 4
    assert tracer.agg["work"][spans.TOTAL] == 22.0
    by_id = {s["id"]: s for s in tracer.raw_spans()}
    for span in by_id.values():
        if span["name"] == "work":
            parent = by_id[span["parent"]]
            assert parent["name"] == "request"
            # each request owns exactly the work of its own size
            assert span["end"] - span["start"] in (1.0, 10.0)
            assert span["call"] == parent["call"]
    # A coroutine span is wall time, the other task's turn included: the
    # short one runs 0 -> 1+10+1, the long one 1 -> 22.
    durations = sorted(s["end"] - s["start"] for s in by_id.values()
                       if s["name"] == "request")
    assert durations == [12.0, 21.0]
    assert tracer.agg["request"][spans.SELF] == 33.0 - 22.0
    assert tracer.stack == []


# ----------------------------------------------------------------------
# the contract file
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_catalog_and_within_the_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    # generated: python3 benchmarks/perf/catalog.py > BENCHMARK.json
    assert doc == catalog.contract()
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in doc[key]]
    assert len(names) == len(set(names))
    assert all(name_ok.match(n) for n in names)
    assert all(unit_ok.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in doc[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    runs = 4 + 22 * len(doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60 and len(doc["per_layer"]) <= 128
    # every run with its set-up must fit the driver's budget
    assert runs * (doc["run_seconds"] + 8) < 3420


# ----------------------------------------------------------------------
# smoke runs (slow)
# ----------------------------------------------------------------------
def driver_run(name, trace, seed=5, seconds=2):
    done = subprocess.run(
        RUN + ["--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=180, check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_smoke_every_workload(name):
    plain = driver_run(name, trace=0)
    assert plain["correct"] is True and plain["failed"] == 0
    assert plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m for m, _, _, _ in catalog.END_TO_END]
    assert all(cell["value"] > 0 for cell in plain["metrics"].values())

    first = driver_run(name, trace=1)
    second = driver_run(name, trace=1)
    layer_names = [m for m, _, _ in catalog.PER_LAYER]
    for traced in (first, second):
        assert traced["failed"] == 0
        assert list(traced["metrics"]) == layer_names
        assert traced["metrics"]["trace.self_sum_ratio"]["value"] == \
            pytest.approx(1.0, abs=0.05)
    if name != "live":  # wall-clock pumping: live counts are not pinned
        for metric in EXACT:
            assert first["metrics"][metric] == second["metrics"][metric]
    share = first["metrics"]["slot.py_receive_share"]["value"]
    if name == "relay_c":
        assert share == 0.0          # the C fast path took every receive
    elif name == "lossy_c":
        assert share > 0.9           # robust slots fall back per receive
        assert first["metrics"]["ccore.upcalls_per_call"]["value"] > 0
    if name == "live":
        assert first["metrics"]["tcp.wait_us_per_call"]["value"] > 0
        assert first["metrics"]["wire.frames_per_call"]["value"] > 0


def test_json_refuses_to_overwrite_the_contract_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as fh:
        before = fh.read()
    done = subprocess.run(
        RUN + ["--workload", "relay", "--seconds", "1",
               "--json", "benchmarks/../BENCHMARK.json"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    assert done.returncode == 2 and b"contract file" in done.stderr
    assert not done.stdout.strip()       # refused before measuring
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as fh:
        assert fh.read() == before


def test_give_ups_beyond_the_measured_rate_are_failed_calls(monkeypatch):
    from repro.network import faults
    import workloads

    # Within the tolerance a give-up is neither verified nor failed.
    relay = workloads.Relay(5, plan="drop10+dup10")
    gave_up = iter([None, None, None])
    monkeypatch.setattr(relay, "call", lambda: next(gave_up, 1e-4))
    verified, samples, failures = relay.window()
    assert (verified, len(samples), failures) == (97, 97, [])
    assert relay.degraded == 3

    # A retransmit regression: the same topology on a link that loses
    # half its messages gives up far more often than 3 in 100.
    monkeypatch.setattr(
        workloads, "plan_by_name",
        lambda name: faults.scaled_plan(faults.PLANS[name], 0.5))
    relay = workloads.Relay(5, plan="drop10+dup10")
    verified = 0
    problems = []
    for _ in range(5):
        count, samples, failures = relay.window()
        assert count == len(samples)
        verified += count
        problems += failures
    # what run.py computes: attempted - verified - degraded
    failed = relay.calls - verified - relay.degraded
    assert failed / relay.calls > 0.03, (failed, relay.degraded)
    assert any("gave up" in p for p in problems)


def test_a_compiled_workload_never_silently_measures_python():
    env = dict(os.environ, REPRO_BACKEND="python",
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", "relay_c", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        env=env, stdout=subprocess.PIPE, timeout=60, check=True)
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert "needs the compiled backend" in result["error"]
    assert result["verified"] == 0 and result["attempted"] >= 1
    assert result["elapsed"] == []   # nothing was measured


def test_killing_the_callee_mid_slice_raises_failures_not_a_hang(
        monkeypatch):
    import live
    monkeypatch.setenv("REPRO_BACKEND", "python")
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))

    def kill_soon(callee, gateway):
        threading.Timer(0.5, callee.kill).start()

    started = time.monotonic()
    result = live.run_slice(seed=1, seconds=2.0, warmup=0.3, trace=False,
                            spans_out=None, hook=kill_soon)
    assert time.monotonic() - started < 60
    failed = result["attempted"] - result["verified"]
    assert failed >= 1, result
    assert result["failures"]
    # calls before the kill still verified; the run ended on its own
    assert result["verified"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "relay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
