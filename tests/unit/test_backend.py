"""Backend seam tests: selection, fallback, and cross-backend parity.

The backend is chosen once at import time, so every selection test runs
in a child interpreter with a controlled ``REPRO_BACKEND``.  The parity
test computes the full runtime-fingerprint set under *both* backends in
child processes and requires byte-identical results — the compiled core
is only allowed to be faster, never different.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.network.backend import compiled_available

_SRC = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "src"))


def _probe(code: str, backend_env=None) -> str:
    """Run ``code`` in a child interpreter; returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    if backend_env is not None:
        env["REPRO_BACKEND"] = backend_env
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _describe(backend_env=None) -> dict:
    return json.loads(_probe(
        """
        import json
        from repro.network import backend
        print(json.dumps(backend.describe()))
        """, backend_env))


def test_default_backend_is_python():
    info = _describe(None)
    assert info == {"backend": "python", "requested": "python",
                    "compiled_loaded": False, "arena_poison": False}


def test_explicit_python_never_loads_the_extension():
    info = _describe("python")
    assert info["backend"] == "python"
    assert info["compiled_loaded"] is False


def test_unknown_backend_value_degrades_to_python():
    info = _describe("turbo9000")
    assert info["backend"] == "python"
    assert info["requested"] == "python"


def test_backend_env_value_is_normalized():
    info = _describe("  Python \n")
    assert info["requested"] == "python"


def test_compiled_falls_back_without_artifact():
    # Block the extension import (as on a fresh checkout with no build)
    # and ask for the compiled backend: the import chain must survive
    # and land on pure Python.  An explicit ``compiled`` ask that
    # degrades is visible: a one-time RuntimeWarning on stderr.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["REPRO_BACKEND"] = "compiled"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(
            """
            import sys
            sys.modules["repro.network._ccore"] = None  # -> ImportError
            from repro.network import backend
            assert backend.BACKEND == "python", backend.describe()
            assert backend.CORE is None
            assert backend.BACKEND_REQUESTED == "compiled"
            print("fallback-ok")
            """)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "fallback-ok"
    assert "RuntimeWarning" in proc.stderr
    assert "no compiled artifact is importable" in proc.stderr


def test_auto_falls_back_silently_without_artifact():
    # ``auto`` is opportunistic: the same degradation stays silent.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["REPRO_BACKEND"] = "auto"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(
            """
            import sys
            sys.modules["repro.network._ccore"] = None  # -> ImportError
            from repro.network import backend
            assert backend.BACKEND == "python", backend.describe()
            print("auto-ok")
            """)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "auto-ok"
    assert "RuntimeWarning" not in proc.stderr


def test_unknown_backend_value_warns_once():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["REPRO_BACKEND"] = "turbo9000"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.network import backend; print(backend.BACKEND)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "python"
    assert proc.stderr.count("unknown REPRO_BACKEND value 'turbo9000'") == 1


def test_arena_poison_env_is_surfaced():
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_ARENA_POISON")}
    env["REPRO_ARENA_POISON"] = "1"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json; from repro.network import backend; "
         "print(json.dumps(backend.describe()))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["arena_poison"] is True


def test_stale_abi_artifact_is_rejected():
    # An artifact built against older kernel contracts must not
    # half-load; the seam checks ABI_VERSION before adopting it.
    out = _probe(
        """
        import sys, types
        fake = types.ModuleType("repro.network._ccore")
        fake.ABI_VERSION = 999
        sys.modules["repro.network._ccore"] = fake
        from repro.network import backend
        assert backend.BACKEND == "python", backend.describe()
        assert backend.CORE is None
        print("abi-gate-ok")
        """, "compiled")
    assert out == "abi-gate-ok"


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_compiled_backend_selected_when_requested():
    for env in ("compiled", "auto"):
        info = _describe(env)
        assert info["backend"] == "compiled", info
        assert info["compiled_loaded"] is True


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_compiled_event_type_is_the_c_type():
    out = _probe(
        """
        from repro.network import backend
        from repro.network.eventloop import Event
        assert Event is backend.CORE.Event
        e = Event(1.5, 0, 7, print, ("x",), None)
        assert (e.time, e.priority, e.seq) == (1.5, 0, 7)
        assert not e.cancelled
        e.cancel(); e.cancel()  # idempotent
        assert e.cancelled
        print("ctype-ok")
        """, "compiled")
    assert out == "ctype-ok"


# ---------------------------------------------------------------------------
# cross-backend parity: the whole fingerprint matrix, both backends
# ---------------------------------------------------------------------------

_FINGERPRINT_CODE = """
import hashlib, json
from repro.chaos.scenarios import SCENARIOS
from repro.network import backend
from repro.network.faults import plan_by_name
from repro.network.network import Network
from repro.obs.export import dumps_chrome
from repro.obs.tracer import Tracer
from repro.protocol.slot import RetransmitPolicy

out = {"backend": backend.BACKEND}
for app in sorted(SCENARIOS):
    for mode in ("faithful", "faulted"):
        tracer = Tracer()
        if mode == "faithful":
            net = Network(seed=7, trace=tracer)
        else:
            net = Network(seed=7, retransmit=RetransmitPolicy(),
                          faults=plan_by_name("drop10+dup10"),
                          trace=tracer)
        SCENARIOS[app](net)
        export = dumps_chrome(tracer, meta={"app": app, "seed": 7,
                                            "mode": mode})
        out["%s@%s" % (app, mode)] = {
            "executed": net.loop.executed,
            "emitted": len(tracer.events),
            "sim_time": net.loop.now,
            "trace_sha256":
                hashlib.sha256(export.encode()).hexdigest(),
        }
print(json.dumps(out, sort_keys=True))
"""


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_fingerprints_identical_across_backends():
    """Every bundled app, faithful and faulted, must produce the same
    executed-event count, trace volume, final clock, and byte-identical
    trace export under both backends."""
    py = json.loads(_probe(_FINGERPRINT_CODE, "python"))
    cc = json.loads(_probe(_FINGERPRINT_CODE, "compiled"))
    assert py.pop("backend") == "python"
    assert cc.pop("backend") == "compiled"
    assert set(py) == set(cc) and len(py) == 12
    for key in sorted(py):
        assert py[key] == cc[key], (
            "backend divergence on %s:\npython:   %r\ncompiled: %r"
            % (key, py[key], cc[key]))


# ---------------------------------------------------------------------------
# slot FSM fast path: engagement on the clean configuration, fallback
# (with byte-identical observables) on everything outside it
# ---------------------------------------------------------------------------

#: Relay scenario with counting wrappers over the reference dispatch
#: table.  The compiled FSM kernels never consult ``_DISPATCH`` — they
#: are a C switch — so the counter reads exactly the receives that took
#: the Python path.
_FALLBACK_CODE = """
import hashlib, json
import repro.protocol.slot as slotmod

hits = {"dispatched": 0}
for _state, _fn in list(slotmod._DISPATCH.items()):
    def _wrap(fn):
        def counting(self, sig):
            hits["dispatched"] += 1
            return fn(self, sig)
        return counting
    slotmod._DISPATCH[_state] = _wrap(_fn)

from repro.core.admission import AdmissionPolicy
from repro.network.faults import plan_by_name
from repro.network.network import Network
from repro.obs.export import dumps_chrome
from repro.obs.tracer import Tracer
from repro.protocol.codecs import AUDIO
from repro.protocol.slot import RetransmitPolicy

scenario = %r
tracer = None
kwargs = dict(seed=3)
if scenario == "traced":
    tracer = Tracer()
    kwargs["trace"] = tracer
elif scenario == "faulted":
    kwargs.update(retransmit=RetransmitPolicy(),
                  faults=plan_by_name("drop10+dup10"))
elif scenario == "busy-refused":
    kwargs.update(retransmit=RetransmitPolicy(
        initial=0.25, backoff=2.0, max_retries=3, stale_after=0.5))

net = Network(**kwargs)
core = net.box("core")
if scenario == "busy-refused":
    core.set_admission(AdmissionPolicy(max_concurrent=1))
sides = []
for i in range(2):
    caller = net.device("a%%d" %% i)
    callee = net.device("b%%d" %% i, auto_accept=True)
    ch_in = net.channel(caller, core)
    ch_out = net.channel(core, callee)
    core.flow_link(ch_in.end_for(core).slot(),
                   ch_out.end_for(core).slot())
    sides.append((caller, ch_in.end_for(caller).slot()))

(a0, s0), (a1, s1) = sides
for _ in range(3):
    a0.open(s0, AUDIO)
    net.settle()
    a1.open(s1, AUDIO)     # busy-refused while s0 holds the one seat
    net.run(0.1)
    a0.close(s0)
    net.run(10.0)          # the backoff retry wins the freed seat
    a1.close(s1)
    net.settle()

out = {
    "dispatched": hits["dispatched"],
    "executed": net.loop.executed,
    "now": net.loop.now,
    "received": s0.signals_received + s1.signals_received,
    "busy_refusals": s1.busy_refusals,
}
if tracer is not None:
    out["trace_sha"] = hashlib.sha256(
        dumps_chrome(tracer, meta={}).encode()).hexdigest()
print(json.dumps(out, sort_keys=True))
"""


def _fallback_run(scenario: str, backend: str, extra_env=None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_ARENA_POISON")}
    env["REPRO_BACKEND"] = backend
    env["PYTHONPATH"] = _SRC
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-c",
         textwrap.dedent(_FALLBACK_CODE % scenario)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_clean_configuration_never_enters_python_dispatch():
    """The control: untraced, reliable, strict, unpoisoned — the C FSM
    must execute *every* receive, or the fast path quietly rotted."""
    cc = _fallback_run("clean", "compiled")
    py = _fallback_run("clean", "python")
    assert cc["dispatched"] == 0, cc
    assert py["dispatched"] > 0
    for key in ("executed", "now", "received", "busy_refusals"):
        assert cc[key] == py[key], key


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
@pytest.mark.parametrize("scenario,extra_env", [
    ("traced", None),
    ("faulted", None),
    ("busy-refused", None),
    ("poisoned", {"REPRO_ARENA_POISON": "1"}),
])
def test_fallback_configurations_take_the_python_path(scenario, extra_env):
    """Traced loops, robust (faulted / busy-retry) slots, and
    arena-poisoned runs must route every receive through the reference
    handlers — and produce byte-identical observables to the pure
    Python backend doing the same."""
    cc = _fallback_run(scenario, "compiled", extra_env)
    py = _fallback_run(scenario, "python", extra_env)
    # Every receive outside the clean configuration falls back, so the
    # Python dispatch table sees the same traffic under both backends.
    assert cc.pop("dispatched") == py.pop("dispatched") > 0
    assert cc == py, (
        "fallback divergence on %s:\npython:   %r\ncompiled: %r"
        % (scenario, py, cc))


# ---------------------------------------------------------------------------
# fault layer: surviving copies ride the C transmit kernel
# ---------------------------------------------------------------------------

#: The perf benchmark's ``lossy_c`` topology (device-box-device under a
#: named plan with the default retransmission policy).  Each link's
#: faithful transmit is wrapped *before* the fault layer goes on, so the
#: wrapper sees exactly what the layer forwards.
_FAULT_PATH_CODE = """
import json
from repro.network import backend
from repro.network.faults import FaultStats, FaultyLink, plan_by_name
from repro.network.network import Network, _is_meta
from repro.network.transport import Link
from repro.protocol.codecs import AUDIO
from repro.protocol.slot import RetransmitPolicy

scheduled = [0]
_real_schedule = Link._schedule
def _counting_schedule(self, *args):
    scheduled[0] += 1
    return _real_schedule(self, *args)
Link._schedule = _counting_schedule

net = Network(seed=5, retransmit=RetransmitPolicy())
a = net.device("A")
b = net.device("B", auto_accept=True)
box = net.box("srv")
ch_a = net.channel(a, box)
ch_b = net.channel(box, b)
box.flow_link(ch_a.end_for(box).slot(), ch_b.end_for(box).slot())

stats = FaultStats()
reached = {"kernel": 0, "other": 0}
sent_before = ch_a.link.sent + ch_b.link.sent
def install(link):
    base = link._base_transmit
    kind = ("kernel" if type(base) is backend.CORE.LinkTransmit
            else "other")
    def counting(origin, message):
        reached[kind] += 1
        base(origin, message)
    link._base_transmit = counting
    FaultyLink(link, plan_by_name(%r), exempt=_is_meta, stats=stats)
for ch in (ch_a, ch_b):
    install(ch.link)

slot = ch_a.end_for(a).slot()
for _ in range(200):
    a.open(slot, AUDIO)
    net.settle()
    a.close(slot)
    net.settle()
print(json.dumps({"scheduled": scheduled[0], "reached": reached,
                  "stats": stats.to_json(),
                  "offered": ch_a.link.sent + ch_b.link.sent
                             - sent_before}))
"""


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_faulted_survivors_reach_the_c_transmit_kernel():
    """Control for the fault layer's fast path, like the dispatch
    counter above: under a drop/duplicate plan ``Link._schedule`` is
    never entered and every forwarded copy lands in a ``LinkTransmit``
    instance; under a jitter plan ``_schedule`` is still the path."""
    out = json.loads(_probe(_FAULT_PATH_CODE % "drop10+dup10", "compiled"))
    stats = out["stats"]
    assert out["scheduled"] == 0
    assert stats["dropped"] > 0 and stats["duplicated"] > 0
    assert out["reached"] == {
        "kernel": stats["forwarded"] + stats["exempted"], "other": 0}
    # One per offer: copies and drops leave the count alone.
    assert out["offered"] == (stats["forwarded"] + stats["dropped"]
                              - stats["duplicated"] + stats["exempted"])

    jitter = json.loads(_probe(_FAULT_PATH_CODE % "lossy-jitter",
                               "compiled"))
    assert jitter["scheduled"] == jitter["stats"]["forwarded"] > 0
    assert jitter["reached"]["kernel"] == jitter["stats"]["exempted"]
